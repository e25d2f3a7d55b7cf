#include "seerlang/canonical.h"

#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "seerlang/encoding.h"
#include "support/hashing.h"

namespace seer::sl {

using eg::TermPtr;

namespace {

/** Bound-name environment: the binders in scope, innermost last. The
 *  names are views into interned symbol text. */
using Env = std::vector<std::pair<std::string_view, uint64_t>>;

/** Binder number of the innermost binding of `name`; nullopt if free. */
std::optional<uint64_t>
lookup(const Env &env, std::string_view name)
{
    for (auto it = env.rbegin(); it != env.rend(); ++it) {
        if (it->first == name)
            return it->second;
    }
    return std::nullopt;
}

/** The iv name an affine.for symbol binds; nullopt for other symbols. */
std::optional<std::string_view>
forBinder(Symbol op)
{
    auto fields = eg::splitSymbol(op);
    if (fields.size() != 3 || fields[0] != "affine.for")
        return std::nullopt;
    return fields[1];
}

/**
 * One canonical-hash walk. Binders are numbered in pre-order, so a
 * subterm whose walk binds a loop hashes differently at each visit. A
 * subterm that binds none hashes the same wherever the same binders
 * are in scope: it is memoized per (node, binder context), which keeps
 * the walk linear in the distinct nodes of a shared value DAG.
 */
class CanonicalHasher
{
  public:
    uint64_t
    hashTerm(const TermPtr &term)
    {
        Symbol op = term->op();
        uint64_t hash = kHashSeed;

        if (auto iv_name = forBinder(op)) {
            // Binder: op name + binder number stand in for the iv name
            // and the loop id. lb/ub/step are evaluated outside the
            // binding; only the body (child 3) sees the iv.
            uint64_t binder = binder_count_++;
            hash = hashString("affine.for#", hash);
            hash = hashValue(binder, hash);
            hash = hashValue(term->arity(), hash);
            size_t body_index = term->arity() - 1;
            for (size_t i = 0; i < term->arity(); ++i) {
                if (i != body_index)
                    hash = hashCombine(hash, hashTerm(term->child(i)));
            }
            env_.emplace_back(*iv_name, binder);
            uint32_t outer = context_;
            context_ = next_context_++;
            hash = hashCombine(hash, hashTerm(term->child(body_index)));
            context_ = outer;
            env_.pop_back();
            return hash;
        }

        if (auto var = decodeVar(op)) {
            if (auto binder = lookup(env_, *var)) {
                hash = hashString("%bvar", hash);
                return hashValue(*binder, hash);
            }
            // Free variable: semantic payload, hash by name.
        }

        // hash is still kHashSeed here, so the interned text hash
        // equals hashString(op.str(), hash): persisted cache keys do
        // not move.
        hash = op.textHash();
        hash = hashValue(term->arity(), hash);
        if (term->isLeaf())
            return hash;
        std::pair<const eg::Term *, uint32_t> key{term.get(), context_};
        if (auto it = memo_.find(key); it != memo_.end())
            return it->second;
        uint64_t binders_before = binder_count_;
        for (const TermPtr &child : term->children())
            hash = hashCombine(hash, hashTerm(child));
        if (binder_count_ == binders_before)
            memo_.emplace(key, hash);
        return hash;
    }

  private:
    struct KeyHash
    {
        size_t
        operator()(const std::pair<const eg::Term *, uint32_t> &key) const
        {
            return std::hash<const eg::Term *>()(key.first) ^
                   (static_cast<size_t>(key.second) * 0x9e3779b97f4a7c15);
        }
    };

    Env env_;
    uint64_t binder_count_ = 0;
    /** The binder context: one id per entry into a loop body, so equal
     *  ids mean equal environments. */
    uint32_t context_ = 0;
    uint32_t next_context_ = 1;
    std::unordered_map<std::pair<const eg::Term *, uint32_t>, uint64_t,
                       KeyHash>
        memo_;
};

bool
alphaRec(const TermPtr &a, const TermPtr &b, Env &env_a, Env &env_b,
         uint64_t &binder_count)
{
    if (a->arity() != b->arity())
        return false;
    auto iv_a = forBinder(a->op());
    auto iv_b = forBinder(b->op());
    if (iv_a.has_value() != iv_b.has_value())
        return false;
    if (iv_a) {
        if (a->arity() < 1)
            return false;
        size_t body_index = a->arity() - 1;
        for (size_t i = 0; i < a->arity(); ++i) {
            if (i == body_index)
                continue;
            if (!alphaRec(a->child(i), b->child(i), env_a, env_b,
                          binder_count))
                return false;
        }
        uint64_t binder = binder_count++;
        env_a.emplace_back(*iv_a, binder);
        env_b.emplace_back(*iv_b, binder);
        bool ok = alphaRec(a->child(body_index), b->child(body_index),
                           env_a, env_b, binder_count);
        env_a.pop_back();
        env_b.pop_back();
        return ok;
    }
    auto var_a = decodeVar(a->op());
    auto var_b = decodeVar(b->op());
    if (var_a.has_value() != var_b.has_value())
        return false;
    if (var_a) {
        auto bound_a = lookup(env_a, *var_a);
        auto bound_b = lookup(env_b, *var_b);
        if (bound_a.has_value() != bound_b.has_value())
            return false;
        if (bound_a)
            return *bound_a == *bound_b;
        return *var_a == *var_b; // free: names are payload
    }
    if (a->op() != b->op())
        return false;
    for (size_t i = 0; i < a->arity(); ++i) {
        if (!alphaRec(a->child(i), b->child(i), env_a, env_b,
                      binder_count))
            return false;
    }
    return true;
}

} // namespace

uint64_t
canonicalTermHash(const TermPtr &term)
{
    return CanonicalHasher().hashTerm(term);
}

bool
alphaEquivalent(const TermPtr &a, const TermPtr &b)
{
    Env env_a, env_b;
    uint64_t binder_count = 0;
    return alphaRec(a, b, env_a, env_b, binder_count);
}

} // namespace seer::sl
