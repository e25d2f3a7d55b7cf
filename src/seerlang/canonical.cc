#include "seerlang/canonical.h"

#include <optional>
#include <string_view>
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

uint64_t
hashRec(const TermPtr &term, Env &env, uint64_t &binder_count)
{
    Symbol op = term->op();
    uint64_t hash = kHashSeed;

    if (auto iv_name = forBinder(op)) {
        // Binder: op name + binder number stand in for the iv name and
        // the loop id. lb/ub/step are evaluated outside the binding;
        // only the body (child 3) sees the iv.
        uint64_t binder = binder_count++;
        hash = hashString("affine.for#", hash);
        hash = hashValue(binder, hash);
        hash = hashValue(term->arity(), hash);
        size_t body_index = term->arity() - 1;
        for (size_t i = 0; i < term->arity(); ++i) {
            if (i != body_index) {
                hash = hashCombine(
                    hash, hashRec(term->child(i), env, binder_count));
            }
        }
        env.emplace_back(*iv_name, binder);
        hash = hashCombine(
            hash, hashRec(term->child(body_index), env, binder_count));
        env.pop_back();
        return hash;
    }

    if (auto var = decodeVar(op)) {
        if (auto binder = lookup(env, *var)) {
            hash = hashString("%bvar", hash);
            return hashValue(*binder, hash);
        }
        // Free variable: semantic payload, hash by name.
    }

    // hash is still kHashSeed here, so the interned text hash equals
    // hashString(op.str(), hash): persisted cache keys do not move.
    hash = op.textHash();
    hash = hashValue(term->arity(), hash);
    for (const TermPtr &child : term->children())
        hash = hashCombine(hash, hashRec(child, env, binder_count));
    return hash;
}

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
    Env env;
    uint64_t binder_count = 0;
    return hashRec(term, env, binder_count);
}

bool
alphaEquivalent(const TermPtr &a, const TermPtr &b)
{
    Env env_a, env_b;
    uint64_t binder_count = 0;
    return alphaRec(a, b, env_a, env_b, binder_count);
}

} // namespace seer::sl
