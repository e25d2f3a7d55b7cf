/**
 * @file
 * Ground terms: immutable operator trees.
 *
 * Terms are the currency between the e-graph and the SeerLang bridge.
 * Operators are interned Symbols that may encode static attributes, e.g.
 * "arith.addi:i32", "const:42:i32", "var:i", "affine.for:L3:0:100:1".
 * The textual form is an S-expression: (op child child ...), with leaves
 * written as bare atoms.
 */
#ifndef SEER_EGRAPH_TERM_H_
#define SEER_EGRAPH_TERM_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "support/symbol.h"

namespace seer::eg {

class Term;
using TermPtr = std::shared_ptr<const Term>;

/** An immutable operator tree node. */
class Term
{
  public:
    Term(Symbol op, std::vector<TermPtr> children)
        : op_(op), children_(std::move(children))
    {}

    Symbol op() const { return op_; }
    const std::vector<TermPtr> &children() const { return children_; }
    size_t arity() const { return children_.size(); }
    bool isLeaf() const { return children_.empty(); }
    const TermPtr &child(size_t i) const { return children_[i]; }

    /** Total node count of the tree. */
    size_t size() const;

    /** Structural equality. */
    bool equals(const Term &other) const;

    /** Render as an S-expression. */
    std::string str() const;

  private:
    Symbol op_;
    std::vector<TermPtr> children_;
};

/** Build a term. */
TermPtr makeTerm(Symbol op, std::vector<TermPtr> children = {});
TermPtr makeTerm(std::string_view op, std::vector<TermPtr> children = {});

/** Parse an S-expression, e.g. "(arith.addi:i32 var:a const:1:i32)". */
TermPtr parseTerm(std::string_view text);

/** The fields of a symbol of the form "a:b:c": views split once, when
 *  the symbol was interned (Symbol::fields), valid for the process
 *  lifetime. */
inline std::span<const std::string_view>
splitSymbol(Symbol symbol)
{
    return symbol.fields();
}

/** Join fields into a symbol. */
Symbol joinSymbol(const std::vector<std::string> &fields);

} // namespace seer::eg

#endif // SEER_EGRAPH_TERM_H_
