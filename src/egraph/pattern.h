/**
 * @file
 * Patterns and e-matching.
 *
 * Patterns are terms whose leaves may be variables, written "?x" in the
 * S-expression syntax. E-matching finds all substitutions (variable ->
 * e-class id) under which a pattern is present in the e-graph.
 *
 * The default matching path is indexed and allocation-lean: each pattern
 * is compiled once into a flat instruction program (an egg-style virtual
 * machine with pre-numbered variable slots and an explicit backtracking
 * stack), and root candidates come from the e-graph's (op, arity) index
 * instead of a whole-graph scan. The pre-index recursive matcher is
 * kept as ematchNaive: it is the reference implementation differential
 * tests compare against.
 */
#ifndef SEER_EGRAPH_PATTERN_H_
#define SEER_EGRAPH_PATTERN_H_

#include <memory>
#include <mutex>
#include <unordered_map>

#include "egraph/egraph.h"

namespace seer::eg {

class Pattern;
using PatternPtr = std::shared_ptr<const Pattern>;

/**
 * A pattern compiled to a flat program. Instructions bind the nodes of
 * a class into contiguous registers; variables are pre-numbered register
 * slots, so matching allocates nothing per candidate class beyond the
 * reusable machine buffers.
 */
class CompiledPattern
{
  public:
    explicit CompiledPattern(const Pattern &pattern);

    /** Head operator of the pattern, empty for a bare variable. */
    Symbol rootOp() const { return root_op_; }
    size_t rootArity() const { return root_arity_; }
    bool rootIsVar() const { return root_is_var_; }

    /** Distinct variables in first-occurrence (pre-order) order. */
    const std::vector<Symbol> &variables() const { return vars_; }

    size_t numRegisters() const { return num_regs_; }

  private:
    struct Instr
    {
        enum class Kind {
            /** Enumerate nodes of class regs[in] with (op, arity);
             *  write the children into regs[out..out+arity). */
            Bind,
            /** Require find(regs[in]) == find(regs[other]) (repeated
             *  variable consistency). */
            Compare,
        };
        Kind kind;
        Symbol op;
        uint32_t arity = 0;
        uint32_t in = 0;
        uint32_t out = 0;
        uint32_t other = 0;
    };

    void compile(const Pattern &pattern, uint32_t reg,
                 std::unordered_map<Symbol, uint32_t> &var_regs);

    std::vector<Instr> instrs_;
    std::vector<Symbol> vars_;
    std::vector<uint32_t> var_regs_; ///< parallel to vars_
    uint32_t num_regs_ = 1;
    Symbol root_op_;
    size_t root_arity_ = 0;
    bool root_is_var_ = false;

    friend class MatchMachine;
};

/** A pattern tree node: a variable or an operator over sub-patterns. */
class Pattern
{
  public:
    /** Variable pattern. */
    explicit Pattern(Symbol var) : is_var_(true), op_(var) {}

    /** Operator pattern. */
    Pattern(Symbol op, std::vector<PatternPtr> children)
        : is_var_(false), op_(op), children_(std::move(children))
    {}

    bool isVar() const { return is_var_; }
    Symbol var() const { return op_; }
    Symbol op() const { return op_; }
    const std::vector<PatternPtr> &children() const { return children_; }

    /** All distinct variables in this pattern (cached, first-occurrence
     *  order — the compiled pattern's slot order). */
    const std::vector<Symbol> &variables() const;

    /** The compiled form, built lazily once (thread-safe, like every
     *  const accessor). */
    const CompiledPattern &compiled() const;

    std::string str() const;

  private:
    bool is_var_;
    Symbol op_; // variable name (without '?') or operator symbol
    std::vector<PatternPtr> children_;
    mutable std::once_flag compile_once_;
    mutable std::unique_ptr<const CompiledPattern> compiled_;
};

/** Parse a pattern S-expression, e.g. "(arith.addi:i32 ?a ?b)". */
PatternPtr parsePattern(std::string_view text);

/** A substitution: pattern variable -> e-class id. */
using Subst = std::unordered_map<Symbol, EClassId>;

/** One match of a pattern: the matched class and the substitution. */
struct Match
{
    EClassId root;
    Subst subst;
};

/** Search-phase instrumentation for one ematch call. */
struct EMatchStats
{
    /** Candidate classes actually matched against. */
    size_t candidates_visited = 0;
    /** True when the (op, arity) index pruned the candidate set (false
     *  for bare-variable patterns, which must scan every class). */
    bool used_index = false;
};

/**
 * E-matching: find every (class, substitution) where the pattern occurs.
 * `limit` caps the number of matches collected (0 = unlimited). Matches
 * are ordered by ascending canonical root id, and within a root by the
 * class's node enumeration order — the same order, and the same match
 * set, as ematchNaive.
 */
std::vector<Match> ematch(const EGraph &egraph, const Pattern &pattern,
                          size_t limit = 0, EMatchStats *stats = nullptr);

/**
 * The pre-index reference matcher: walks every class and matches with a
 * continuation-passing recursive matcher. Kept for differential testing
 * (RunnerOptions::naive_match) and as executable documentation of the
 * match semantics.
 */
std::vector<Match> ematchNaive(const EGraph &egraph,
                               const Pattern &pattern, size_t limit = 0);

/** Match a pattern against one specific class. */
std::vector<Subst> ematchAt(const EGraph &egraph, const Pattern &pattern,
                            EClassId root, size_t limit = 0);

/**
 * Instantiate a pattern under a substitution, adding new nodes to the
 * e-graph; returns the class of the instantiated term.
 */
EClassId instantiate(EGraph &egraph, const Pattern &pattern,
                     const Subst &subst);

/**
 * Instantiate a pattern as a ground term, resolving each variable with
 * `resolve` (typically an extractor). Used for proof logging.
 */
TermPtr instantiateTerm(const Pattern &pattern, const Subst &subst,
                        const std::function<TermPtr(EClassId)> &resolve);

} // namespace seer::eg

#endif // SEER_EGRAPH_PATTERN_H_
