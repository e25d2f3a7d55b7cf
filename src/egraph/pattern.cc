#include "egraph/pattern.h"

#include <algorithm>
#include <sstream>

#include "support/error.h"

namespace seer::eg {

namespace {

PatternPtr
fromTerm(const TermPtr &term)
{
    const std::string &op = term->op().str();
    if (!op.empty() && op[0] == '?') {
        if (!term->isLeaf())
            fatal("pattern variable '" + op + "' cannot have children");
        return std::make_shared<Pattern>(Symbol(op.substr(1)));
    }
    std::vector<PatternPtr> children;
    children.reserve(term->arity());
    for (const auto &child : term->children())
        children.push_back(fromTerm(child));
    return std::make_shared<Pattern>(term->op(), std::move(children));
}

/**
 * Continuation-passing backtracking matcher: the pre-index reference
 * implementation (see ematchNaive). The compiled machine below must
 * produce exactly this match set in exactly this order.
 */
class Matcher
{
  public:
    Matcher(const EGraph &egraph, size_t limit)
        : egraph_(egraph), limit_(limit)
    {}

    std::vector<Subst>
    matchAt(const Pattern &pattern, EClassId root)
    {
        Subst subst;
        matchInto(pattern, egraph_.find(root), subst,
                  [&] { results_.push_back(subst); });
        return std::move(results_);
    }

  private:
    using Cont = std::function<void()>;

    bool
    full() const
    {
        return limit_ != 0 && results_.size() >= limit_;
    }

    void
    matchInto(const Pattern &pattern, EClassId id, Subst &subst,
              const Cont &k)
    {
        if (full())
            return;
        if (pattern.isVar()) {
            auto it = subst.find(pattern.var());
            if (it != subst.end()) {
                if (egraph_.find(it->second) == id)
                    k();
                return;
            }
            subst[pattern.var()] = id;
            k();
            subst.erase(pattern.var());
            return;
        }
        for (const ENode &node : egraph_.eclass(id).nodes) {
            if (full())
                return;
            if (node.op != pattern.op() ||
                node.children.size() != pattern.children().size()) {
                continue;
            }
            matchSeq(pattern.children(), node.children, 0, subst, k);
        }
    }

    void
    matchSeq(const std::vector<PatternPtr> &patterns,
             const ChildList &ids, size_t index, Subst &subst,
             const Cont &k)
    {
        if (full())
            return;
        if (index == patterns.size()) {
            k();
            return;
        }
        matchInto(*patterns[index], egraph_.find(ids[index]), subst, [&] {
            matchSeq(patterns, ids, index + 1, subst, k);
        });
    }

    const EGraph &egraph_;
    size_t limit_;
    std::vector<Subst> results_;
};

} // namespace

// --- Compiled pattern machine -----------------------------------------

CompiledPattern::CompiledPattern(const Pattern &pattern)
{
    if (pattern.isVar()) {
        root_is_var_ = true;
        vars_.push_back(pattern.var());
        var_regs_.push_back(0);
        return;
    }
    root_op_ = pattern.op();
    root_arity_ = pattern.children().size();
    std::unordered_map<Symbol, uint32_t> var_regs;
    compile(pattern, 0, var_regs);
}

void
CompiledPattern::compile(const Pattern &pattern, uint32_t reg,
                         std::unordered_map<Symbol, uint32_t> &var_regs)
{
    Instr bind;
    bind.kind = Instr::Kind::Bind;
    bind.op = pattern.op();
    bind.arity = static_cast<uint32_t>(pattern.children().size());
    bind.in = reg;
    bind.out = num_regs_;
    instrs_.push_back(bind);
    uint32_t base = num_regs_;
    num_regs_ += bind.arity;

    // Variable slots and consistency checks first: a repeated-variable
    // Compare only reads registers the Bind above already wrote, and
    // placing it before the sub-Binds prunes earlier. Sub-patterns are
    // then compiled in child order, so the backtracking stack enumerates
    // choices exactly like the reference matcher (later children vary
    // fastest).
    for (uint32_t i = 0; i < bind.arity; ++i) {
        const Pattern &child = *pattern.children()[i];
        if (!child.isVar())
            continue;
        auto it = var_regs.find(child.var());
        if (it == var_regs.end()) {
            var_regs.emplace(child.var(), base + i);
            vars_.push_back(child.var());
            var_regs_.push_back(base + i);
            continue;
        }
        Instr cmp;
        cmp.kind = Instr::Kind::Compare;
        cmp.in = base + i;
        cmp.other = it->second;
        instrs_.push_back(cmp);
    }
    for (uint32_t i = 0; i < bind.arity; ++i) {
        const Pattern &child = *pattern.children()[i];
        if (!child.isVar())
            compile(child, base + i, var_regs);
    }
}

/**
 * Executes a CompiledPattern against one class. The register file and
 * the backtracking stack live in the machine and are reused across
 * candidate classes, so matching a class allocates only when it yields
 * a match (the Subst of the emitted Match).
 */
class MatchMachine
{
  public:
    MatchMachine(const EGraph &egraph, const CompiledPattern &pattern)
        : egraph_(egraph), cp_(pattern)
    {
        regs_.resize(std::max<size_t>(1, cp_.num_regs_));
        stack_.reserve(cp_.instrs_.size());
    }

    /** Append all matches rooted at canonical class `root`; returns
     *  false once `limit` (0 = unlimited) is reached. */
    bool
    matchAt(EClassId root, std::vector<Match> &out, size_t limit)
    {
        auto full = [&] { return limit != 0 && out.size() >= limit; };
        if (cp_.root_is_var_) {
            if (full())
                return false;
            Match m;
            m.root = root;
            m.subst.emplace(cp_.vars_[0], root);
            out.push_back(std::move(m));
            return !full();
        }
        regs_[0] = root;
        stack_.clear();
        uint32_t pc = 0;
        uint32_t node_idx = 0;
        const auto &instrs = cp_.instrs_;
        while (true) {
            bool fail = false;
            if (pc == instrs.size()) {
                Match m;
                m.root = root;
                m.subst.reserve(cp_.vars_.size());
                for (size_t v = 0; v < cp_.vars_.size(); ++v)
                    m.subst.emplace(cp_.vars_[v],
                                    regs_[cp_.var_regs_[v]]);
                out.push_back(std::move(m));
                if (full())
                    return false;
                fail = true; // exhaust remaining choices
            } else if (instrs[pc].kind ==
                       CompiledPattern::Instr::Kind::Compare) {
                const auto &ins = instrs[pc];
                if (egraph_.find(regs_[ins.in]) ==
                    egraph_.find(regs_[ins.other])) {
                    ++pc;
                    node_idx = 0;
                } else {
                    fail = true;
                }
            } else {
                const auto &ins = instrs[pc];
                const NodeList &nodes =
                    egraph_.eclass(regs_[ins.in]).nodes;
                uint32_t i = node_idx;
                for (; i < nodes.size(); ++i) {
                    if (nodes[i].op == ins.op &&
                        nodes[i].children.size() == ins.arity)
                        break;
                }
                if (i < nodes.size()) {
                    const ENode &node = nodes[i];
                    for (uint32_t c = 0; c < ins.arity; ++c)
                        regs_[ins.out + c] =
                            egraph_.find(node.children[c]);
                    stack_.push_back({pc, i + 1});
                    ++pc;
                    node_idx = 0;
                } else {
                    fail = true;
                }
            }
            if (fail) {
                if (stack_.empty())
                    return true;
                pc = stack_.back().pc;
                node_idx = stack_.back().next_node;
                stack_.pop_back();
            }
        }
    }

  private:
    struct Choice
    {
        uint32_t pc;
        uint32_t next_node;
    };

    const EGraph &egraph_;
    const CompiledPattern &cp_;
    std::vector<EClassId> regs_;
    std::vector<Choice> stack_;
};

namespace {

/**
 * The candidate classes of `pattern`, canonicalized, deduplicated and
 * sorted ascending.
 */
std::vector<EClassId>
candidateClasses(const EGraph &egraph, const CompiledPattern &cp,
                 EMatchStats &st)
{
    // A bare variable matches every class: nothing to index by.
    // classIds() is already ascending and duplicate-free.
    if (cp.rootIsVar())
        return egraph.classIds();

    st.used_index = true;
    std::vector<EClassId> candidates;
    const OpBucket *raw =
        egraph.opCandidates(cp.rootOp(), cp.rootArity());
    if (!raw)
        return candidates;
    // Canonicalize, sort, and deduplicate the raw candidate entries so
    // iteration order (ascending canonical id) matches a full scan.
    candidates.reserve(raw->size());
    for (EClassId entry : *raw)
        candidates.push_back(egraph.find(entry));
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(
        std::unique(candidates.begin(), candidates.end()),
        candidates.end());
    return candidates;
}

} // namespace

const std::vector<Symbol> &
Pattern::variables() const
{
    return compiled().variables();
}

const CompiledPattern &
Pattern::compiled() const
{
    std::call_once(compile_once_, [&] {
        compiled_ = std::make_unique<const CompiledPattern>(*this);
    });
    return *compiled_;
}

std::string
Pattern::str() const
{
    if (isVar())
        return "?" + op_.str();
    if (children_.empty())
        return op_.str();
    std::ostringstream os;
    os << "(" << op_.str();
    for (const auto &child : children_)
        os << " " << child->str();
    os << ")";
    return os.str();
}

PatternPtr
parsePattern(std::string_view text)
{
    return fromTerm(parseTerm(text));
}

std::vector<Match>
ematch(const EGraph &egraph, const Pattern &pattern, size_t limit,
       EMatchStats *stats)
{
    EMatchStats local;
    EMatchStats &st = stats ? *stats : local;
    const CompiledPattern &cp = pattern.compiled();
    std::vector<Match> out;
    MatchMachine machine(egraph, cp);
    for (EClassId root : candidateClasses(egraph, cp, st)) {
        ++st.candidates_visited;
        if (!machine.matchAt(root, out, limit))
            break;
    }
    return out;
}

std::vector<Match>
ematchNaive(const EGraph &egraph, const Pattern &pattern, size_t limit)
{
    std::vector<Match> out;
    for (EClassId id : egraph.classIds()) {
        size_t remaining = limit == 0 ? 0 : limit - out.size();
        for (Subst &subst : ematchAt(egraph, pattern, id, remaining))
            out.push_back({id, std::move(subst)});
        if (limit != 0 && out.size() >= limit)
            break;
    }
    return out;
}

std::vector<Subst>
ematchAt(const EGraph &egraph, const Pattern &pattern, EClassId root,
         size_t limit)
{
    return Matcher(egraph, limit).matchAt(pattern, root);
}

EClassId
instantiate(EGraph &egraph, const Pattern &pattern, const Subst &subst)
{
    if (pattern.isVar()) {
        auto it = subst.find(pattern.var());
        SEER_ASSERT(it != subst.end(),
                    "unbound pattern variable ?" << pattern.var().str());
        return egraph.find(it->second);
    }
    ENode node;
    node.op = pattern.op();
    node.children.reserve(pattern.children().size());
    for (const auto &child : pattern.children())
        node.children.push_back(instantiate(egraph, *child, subst));
    return egraph.add(std::move(node));
}

TermPtr
instantiateTerm(const Pattern &pattern, const Subst &subst,
                const std::function<TermPtr(EClassId)> &resolve)
{
    if (pattern.isVar()) {
        auto it = subst.find(pattern.var());
        SEER_ASSERT(it != subst.end(),
                    "unbound pattern variable ?" << pattern.var().str());
        return resolve(it->second);
    }
    std::vector<TermPtr> children;
    children.reserve(pattern.children().size());
    for (const auto &child : pattern.children())
        children.push_back(instantiateTerm(*child, subst, resolve));
    return makeTerm(pattern.op(), std::move(children));
}

} // namespace seer::eg
