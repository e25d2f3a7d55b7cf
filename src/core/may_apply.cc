#include "core/may_apply.h"

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "ir/ops.h"
#include "seerlang/encoding.h"

namespace seer::core {

using eg::Term;
using eg::TermPtr;

namespace {

namespace opnames = ir::opnames;

// --- statement walks ------------------------------------------------------

/** Calls `visit` on each child of `term` that is a statement: both
 *  sides of a seq, a loop's body, an if's branches, a while's
 *  cond-effects and body, a function's body. */
template <typename Visit>
bool
anyStatementChild(const Term &term, Visit visit)
{
    std::string_view name = sl::opNameOf(term.op());
    auto child = [&](size_t i) {
        return i < term.arity() && visit(*term.child(i));
    };
    if (name == "seq")
        return child(0) || child(1);
    if (name == "affine.for")
        return child(3);
    if (name == "scf.if")
        return child(1) || child(2);
    if (name == "scf.while")
        return child(0) || child(2);
    if (name == "func")
        return child(0);
    return false;
}

/** Does a statement of `term` (itself included) satisfy `pred`? Value
 *  subterms are never entered: no statement sits below a value. */
template <typename Pred>
bool
anyStatement(const Term &term, Pred pred,
             std::unordered_set<const Term *> &seen)
{
    if (!seen.insert(&term).second)
        return false;
    if (pred(term))
        return true;
    return anyStatementChild(term, [&](const Term &child) {
        return anyStatement(child, pred, seen);
    });
}

bool
isFor(const Term &term)
{
    return sl::opNameOf(term.op()) == "affine.for";
}

// --- memory forwarding ----------------------------------------------------

/**
 * ir::LinearExpr over a term: atoms are var/arg leaves keyed by name
 * (the emitter resolves both kinds by name, so equal names are one
 * value). The arithmetic is LinearExpr's, wrapping on overflow.
 */
struct AffineForm
{
    int64_t constant = 0;
    std::map<std::string_view, int64_t> coeffs;

    bool isConstant() const { return coeffs.empty(); }
    bool operator==(const AffineForm &) const = default;
};

int64_t
wrapAdd(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) +
                                static_cast<uint64_t>(b));
}

int64_t
wrapMul(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) *
                                static_cast<uint64_t>(b));
}

AffineForm
scaled(const AffineForm &form, int64_t factor)
{
    AffineForm out;
    if (factor == 0)
        return out;
    out.constant = wrapMul(form.constant, factor);
    for (const auto &[atom, coeff] : form.coeffs)
        out.coeffs[atom] = wrapMul(coeff, factor);
    return out;
}

AffineForm
plus(const AffineForm &lhs, const AffineForm &rhs)
{
    AffineForm out = lhs;
    out.constant = wrapAdd(out.constant, rhs.constant);
    for (const auto &[atom, coeff] : rhs.coeffs) {
        int64_t &sum = out.coeffs[atom];
        sum = wrapAdd(sum, coeff);
        if (sum == 0)
            out.coeffs.erase(atom);
    }
    return out;
}

/** The var/arg leaf's name; nullopt for any other term. */
std::optional<std::string_view>
leafName(const Term &term)
{
    auto fields = eg::splitSymbol(term.op());
    if ((fields.size() == 2 && fields[0] == "var") ||
        (fields.size() == 3 && fields[0] == "arg"))
        return fields[1];
    return std::nullopt;
}

/** ir::analyzeAffine's strict rules, depth cap included, on the value
 *  the index term lowers to. */
std::optional<AffineForm>
analyzeAffine(const Term &term, int depth = 0)
{
    if (depth > 64)
        return std::nullopt;
    if (auto name = leafName(term)) {
        AffineForm form;
        form.coeffs[*name] = 1;
        return form;
    }
    if (auto constant = sl::decodeIntConst(term.op())) {
        AffineForm form;
        form.constant = constant->first;
        return form;
    }
    std::string_view name = sl::opNameOf(term.op());
    if ((name == opnames::kAddI || name == opnames::kSubI ||
         name == opnames::kMulI) &&
        term.arity() == 2) {
        auto lhs = analyzeAffine(*term.child(0), depth + 1);
        auto rhs = analyzeAffine(*term.child(1), depth + 1);
        if (!lhs || !rhs)
            return std::nullopt;
        if (name == opnames::kAddI)
            return plus(*lhs, *rhs);
        if (name == opnames::kSubI)
            return plus(*lhs, scaled(*rhs, -1));
        if (lhs->isConstant())
            return scaled(*rhs, lhs->constant);
        if (rhs->isConstant())
            return scaled(*lhs, rhs->constant);
        return std::nullopt;
    }
    if ((name == opnames::kIndexCast || name == opnames::kExtSI) &&
        term.arity() == 1)
        return analyzeAffine(*term.child(0), depth + 1);
    return std::nullopt;
}

/**
 * Could the two index terms lower to one SSA value? The emitter gives
 * structurally equal value terms one value (node memo and value
 * numbering), a load tag one value, and a name one binding. Different
 * operators never share a value. Past `budget` node pairs the answer
 * is "maybe", which can only keep the screen from rejecting.
 */
bool
maySameValue(const Term &a, const Term &b, int &budget)
{
    if (&a == &b)
        return true;
    auto name_a = leafName(a);
    auto name_b = leafName(b);
    if (name_a || name_b)
        return name_a && name_b && *name_a == *name_b;
    if (a.op() != b.op() || a.arity() != b.arity())
        return false;
    std::string_view name = sl::opNameOf(a.op());
    if (name == opnames::kLoad || name == "memref.alloc")
        return true; // the same tag: one value
    if (--budget < 0)
        return true;
    for (size_t i = 0; i < a.arity(); ++i) {
        if (!maySameValue(*a.child(i), *b.child(i), budget))
            return false;
    }
    return true;
}

/**
 * Replays passes::forwardMemory (forwardInBlock on every block) on
 * the snippet a term lowers to, without lowering it.
 *
 * Emission order is the Emitter's (seerlang/from_term.cc): a tagged
 * load or store becomes an op once, in the block where the pre-order
 * walk first reaches it, after the loads its operands read; an
 * affine.for's bounds and an scf.if's condition are emitted in the
 * enclosing block before the op; a while's cond-effects and condition
 * share one block. Every for/if/while op clears the enclosing block's
 * state, as forwardInBlock does at control flow.
 */
class ForwardScreen
{
  public:
    bool run(const Term &root)
    {
        Block top;
        return statement(root, top);
    }

  private:
    /** A load or store as forwardInBlock sees it. */
    struct Access
    {
        /** The memref's binding: an arg/var name or an alloc tag. */
        std::pair<bool, std::string_view> memref;
        std::vector<const Term *> indices;
        std::vector<std::optional<AffineForm>> forms;
    };

    /** forwardInBlock's state over the current block's ops so far. */
    struct Block
    {
        std::vector<const Access *> available;
        std::vector<const Access *> unread_stores;

        void
        clear()
        {
            available.clear();
            unread_stores.clear();
        }
    };

    // Each step returns true as soon as the pass may change the IR.

    bool
    statement(const Term &term, Block &block)
    {
        std::string_view name = sl::opNameOf(term.op());
        if (name == "nop")
            return false;
        if (name == "seq" || name == "func")
            return anyStatementChild(term, [&](const Term &child) {
                return statement(child, block);
            });
        if (name == opnames::kLoad || name == "memref.alloc")
            return value(term, block);
        if (name == opnames::kStore)
            return store(term, block);
        if (name == "affine.for" && term.arity() == 4) {
            if (value(*term.child(0), block) ||
                value(*term.child(1), block))
                return true;
            block.clear();
            Block body;
            return statement(*term.child(3), body);
        }
        if (name == "scf.if" && term.arity() == 3) {
            if (value(*term.child(0), block))
                return true;
            block.clear();
            Block then_block, else_block;
            return statement(*term.child(1), then_block) ||
                   statement(*term.child(2), else_block);
        }
        if (name == "scf.while" && term.arity() == 3) {
            block.clear();
            Block cond, body;
            return statement(*term.child(0), cond) ||
                   value(*term.child(1), cond) ||
                   statement(*term.child(2), body);
        }
        return true; // not a shape the screen knows
    }

    bool
    value(const Term &term, Block &block)
    {
        // A value met again emits no memory op: its loads are tagged.
        if (!values_seen_.insert(&term).second)
            return false;
        auto fields = eg::splitSymbol(term.op());
        if (fields[0] == "memref.alloc") {
            if (fields.size() == 3)
                tags_.insert(fields[2]);
            return false;
        }
        if (fields[0] == opnames::kLoad) {
            if (fields.size() != 2 || term.arity() < 1)
                return true;
            if (!tags_.insert(fields[1]).second)
                return false;
        }
        for (const TermPtr &child : term.children()) {
            if (value(*child, block))
                return true;
        }
        return fields[0] == opnames::kLoad && load(term, block);
    }

    bool
    store(const Term &term, Block &block)
    {
        auto fields = eg::splitSymbol(term.op());
        if (fields.size() != 2 || term.arity() < 2)
            return true;
        if (!stored_tags_.insert(fields[1]).second)
            return false;
        for (const TermPtr &child : term.children()) {
            if (value(*child, block))
                return true;
        }
        const Access *access = record(term, 1);
        if (!access)
            return true;
        for (const Access *earlier : block.unread_stores) {
            if (sameAddress(*earlier, *access))
                return true; // a dead store to kill
        }
        std::erase_if(block.available, [&](const Access *entry) {
            return !provablyDistinct(*entry, *access);
        });
        block.available.push_back(access);
        block.unread_stores.push_back(access);
        return false;
    }

    bool
    load(const Term &term, Block &block)
    {
        const Access *access = record(term, 0);
        if (!access)
            return true;
        for (const Access *entry : block.available) {
            if (sameAddress(*entry, *access))
                return true; // a load to forward
        }
        std::erase_if(block.unread_stores, [&](const Access *earlier) {
            return earlier->memref == access->memref;
        });
        block.available.push_back(access);
        return false;
    }

    /** The access of a load (memref at child 0) or store (child 1);
     *  nullptr when its memref is not a binding the screen can name. */
    const Access *
    record(const Term &term, size_t mem)
    {
        const Term &memref = *term.child(mem);
        Access access;
        if (auto name = leafName(memref)) {
            access.memref = {false, *name};
        } else {
            auto fields = eg::splitSymbol(memref.op());
            if (fields[0] != "memref.alloc" || fields.size() != 3)
                return nullptr;
            access.memref = {true, fields[2]};
        }
        for (size_t i = mem + 1; i < term.arity(); ++i) {
            access.indices.push_back(term.child(i).get());
            access.forms.push_back(analyzeAffine(*term.child(i)));
        }
        return &accesses_.emplace_back(std::move(access));
    }

    /** passes::sameAddress, answering true where it cannot tell. */
    static bool
    sameAddress(const Access &a, const Access &b)
    {
        if (a.memref != b.memref || a.indices.size() != b.indices.size())
            return false;
        for (size_t d = 0; d < a.indices.size(); ++d) {
            int budget = 256;
            if (maySameValue(*a.indices[d], *b.indices[d], budget))
                continue;
            if (!a.forms[d] || !b.forms[d] || !(*a.forms[d] == *b.forms[d]))
                return false;
        }
        return true;
    }

    /** forwardInBlock's provably_distinct: another memref, or some
     *  dimension whose affine indices differ by a nonzero constant. */
    static bool
    provablyDistinct(const Access &a, const Access &b)
    {
        if (a.memref != b.memref || a.indices.size() != b.indices.size())
            return true;
        for (size_t d = 0; d < a.indices.size(); ++d) {
            if (!a.forms[d] || !b.forms[d])
                continue;
            AffineForm diff = plus(*a.forms[d], scaled(*b.forms[d], -1));
            if (diff.isConstant() && diff.constant != 0)
                return true;
        }
        return false;
    }

    std::deque<Access> accesses_;
    std::unordered_set<const Term *> values_seen_;
    /** Load and alloc tags already emitted (the Emitter's tagged_). */
    std::unordered_set<std::string_view> tags_;
    /** Store tags already emitted. */
    std::unordered_set<std::string_view> stored_tags_;
};

} // namespace

bool
mayForwardMemory(const TermPtr &term)
{
    return ForwardScreen().run(*term);
}

bool
hasIfStatement(const TermPtr &term)
{
    std::unordered_set<const Term *> seen;
    return anyStatement(
        *term,
        [](const Term &t) { return sl::opNameOf(t.op()) == "scf.if"; },
        seen);
}

bool
hasNestedLoop(const TermPtr &term)
{
    std::unordered_set<const Term *> seen;
    return anyStatement(
        *term,
        [](const Term &t) {
            if (!isFor(t) || t.arity() != 4)
                return false;
            std::unordered_set<const Term *> inner;
            return anyStatement(*t.child(3), isFor, inner);
        },
        seen);
}

} // namespace seer::core
