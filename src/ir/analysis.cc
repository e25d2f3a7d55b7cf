#include "ir/analysis.h"

#include <algorithm>

#include "support/error.h"

namespace seer::ir {

int64_t
LinearExpr::coeff(Value v) const
{
    auto it = coeffs.find(v.impl());
    return it == coeffs.end() ? 0 : it->second;
}

LinearExpr
LinearExpr::operator+(const LinearExpr &other) const
{
    LinearExpr out = *this;
    out.constant += other.constant;
    for (const auto &[base, coeff] : other.coeffs) {
        out.coeffs[base] += coeff;
        if (out.coeffs[base] == 0)
            out.coeffs.erase(base);
    }
    return out;
}

LinearExpr
LinearExpr::operator-(const LinearExpr &other) const
{
    return *this + other.scaled(-1);
}

LinearExpr
LinearExpr::scaled(int64_t factor) const
{
    LinearExpr out;
    if (factor == 0)
        return out;
    out.constant = constant * factor;
    for (const auto &[base, coeff] : coeffs)
        out.coeffs[base] = coeff * factor;
    return out;
}

namespace {

std::optional<LinearExpr>
analyzeAffineImpl(Value v, int depth, bool lenient)
{
    if (depth > 64)
        return std::nullopt;
    Operation *def = v.definingOp();
    if (!def) {
        // A block argument: loop iv or function argument — a base symbol.
        LinearExpr e;
        e.coeffs[v.impl()] = 1;
        return e;
    }
    const std::string &name = def->nameStr();
    if (name == opnames::kConstant && def->attr("value").isInt()) {
        LinearExpr e;
        e.constant = def->intAttr("value");
        return e;
    }
    if (name == opnames::kAddI || name == opnames::kSubI) {
        auto lhs = analyzeAffineImpl(def->operand(0), depth + 1, lenient);
        auto rhs = analyzeAffineImpl(def->operand(1), depth + 1, lenient);
        if (!lhs || !rhs)
            return std::nullopt;
        return name == opnames::kAddI ? *lhs + *rhs : *lhs - *rhs;
    }
    if (name == opnames::kMulI) {
        auto lhs = analyzeAffineImpl(def->operand(0), depth + 1, lenient);
        auto rhs = analyzeAffineImpl(def->operand(1), depth + 1, lenient);
        if (!lhs || !rhs)
            return std::nullopt;
        if (lhs->isConstant())
            return rhs->scaled(lhs->constant);
        if (rhs->isConstant())
            return lhs->scaled(rhs->constant);
        return std::nullopt; // variable * variable: not affine
    }
    if (name == opnames::kIndexCast || name == opnames::kExtSI) {
        return analyzeAffineImpl(def->operand(0), depth + 1, lenient);
    }
    if (lenient && name == opnames::kShLI) {
        // SCEV view: x << c == x * 2^c for constant c.
        auto amount = getConstantInt(def->operand(1));
        if (amount && *amount >= 0 && *amount < 62) {
            auto base =
                analyzeAffineImpl(def->operand(0), depth + 1, lenient);
            if (base)
                return base->scaled(int64_t{1} << *amount);
        }
        return std::nullopt;
    }
    // Shifts, bitwise ops, selects, loads, ... — a polyhedral analyzer
    // gives up here. This strictness is load-bearing (see Figure 9).
    return std::nullopt;
}

MemAccess
classify(Operation &op, bool lenient = false)
{
    MemAccess access;
    access.op = &op;
    access.is_store = isa(op, opnames::kStore);
    size_t mem_index = access.is_store ? 1 : 0;
    access.memref = op.operand(mem_index);
    for (size_t i = mem_index + 1; i < op.numOperands(); ++i) {
        access.indices.push_back(
            lenient ? analyzeAffineLenient(op.operand(i))
                    : analyzeAffine(op.operand(i)));
    }
    return access;
}

/** Flatten a (possibly multi-dim) affine access into one LinearExpr. */
std::optional<LinearExpr>
flattenAccess(const MemAccess &access)
{
    if (!access.allAffine())
        return std::nullopt;
    const auto &shape = access.memref.type().shape();
    LinearExpr flat;
    for (size_t d = 0; d < access.indices.size(); ++d) {
        int64_t stride = 1;
        for (size_t rest = d + 1; rest < shape.size(); ++rest)
            stride *= shape[rest];
        flat = flat + access.indices[d]->scaled(stride);
    }
    return flat;
}

/**
 * Split a flattened access into (coefficient of iv, residual expr).
 * Returns nullopt if the residual contains values defined *inside* the
 * loop (a non-invariant symbolic part no static test can handle).
 */
std::optional<std::pair<int64_t, LinearExpr>>
splitOnIv(const LinearExpr &expr, Operation &loop)
{
    Value iv = inductionVar(loop);
    LinearExpr residual = expr;
    int64_t iv_coeff = 0;
    auto it = residual.coeffs.find(iv.impl());
    if (it != residual.coeffs.end()) {
        iv_coeff = it->second;
        residual.coeffs.erase(it);
    }
    for (const auto &[base, coeff] : residual.coeffs) {
        (void)coeff;
        Value base_value(base);
        if (!isDefinedOutside(base_value, loop))
            return std::nullopt;
    }
    return std::make_pair(iv_coeff, residual);
}

bool
sameBuffer(Value a, Value b)
{
    return a == b;
}

} // namespace

std::optional<LinearExpr>
analyzeAffine(Value v)
{
    return analyzeAffineImpl(v, 0, /*lenient=*/false);
}

std::optional<LinearExpr>
analyzeAffineLenient(Value v)
{
    return analyzeAffineImpl(v, 0, /*lenient=*/true);
}

std::vector<MemAccess>
collectAccesses(Operation &root, bool lenient)
{
    std::vector<MemAccess> out;
    walk(root, [&](Operation &op) {
        if (isa(op, opnames::kLoad) || isa(op, opnames::kStore))
            out.push_back(classify(op, lenient));
    });
    return out;
}

std::vector<MemAccess>
collectAccesses(Block &block, bool lenient)
{
    std::vector<MemAccess> out;
    walk(block, [&](Operation &op) {
        if (isa(op, opnames::kLoad) || isa(op, opnames::kStore))
            out.push_back(classify(op, lenient));
    });
    return out;
}

bool
isDefinedOutside(Value v, const Operation &loop)
{
    if (Operation *def = v.definingOp())
        return !def->isInside(&loop) && def != &loop;
    // Block argument: outside unless it belongs to a block nested in
    // (or owned by) the loop.
    Block *owner = v.ownerBlock();
    for (const Operation *op = owner->parentRegion()->parentOp(); op;
         op = op->parentOp()) {
        if (op == &loop)
            return false;
    }
    return true;
}

std::vector<Operation *>
topLevelLoops(Block &block)
{
    std::vector<Operation *> loops;
    for (auto &op : block.ops()) {
        if (isa(*op, opnames::kAffineFor))
            loops.push_back(op.get());
    }
    return loops;
}

Operation *
perfectlyNestedInner(Operation &loop)
{
    if (!isa(loop, opnames::kAffineFor))
        return nullptr;
    Block &body = loop.region(0).block();
    Operation *inner = nullptr;
    for (auto &op : body.ops()) {
        if (isTerminator(*op))
            continue;
        if (inner)
            return nullptr; // more than one non-terminator op
        if (!isa(*op, opnames::kAffineFor))
            return nullptr;
        inner = op.get();
    }
    return inner;
}

namespace {

/**
 * Check that every conflict between an access in loop1 (iteration i1) and
 * an access in loop2 (iteration i2) has i1 <= i2 at equal addresses:
 *   a1*i1 + r1 == a2*i2 + r2  with  i1 > i2  must be unsatisfiable.
 */
bool
pairFusionSafe(const MemAccess &first, const MemAccess &second,
               Operation &loop1, Operation &loop2, int64_t trip_count)
{
    auto flat1 = flattenAccess(first);
    auto flat2 = flattenAccess(second);
    if (!flat1 || !flat2)
        return false; // non-affine conflict: conservatively unsafe
    auto split1 = splitOnIv(*flat1, loop1);
    auto split2 = splitOnIv(*flat2, loop2);
    if (!split1 || !split2)
        return false;
    auto [a1, r1] = *split1;
    auto [a2, r2] = *split2;
    // Symbolic residuals must cancel for a decidable test.
    LinearExpr diff = r2 - r1; // a1*i1 == a2*i2 + diff
    if (!diff.isConstant())
        return false;
    int64_t c = diff.constant;

    if (a1 == a2) {
        if (a1 == 0)
            return c != 0; // same fixed address every iteration: unsafe
        // a1*i1 == a1*i2 + c  =>  i1 == i2 + c/a1. Unsafe iff a feasible
        // solution has i1 > i2, i.e. the shift is strictly positive and
        // small enough to land inside the iteration space.
        if (c % a1 != 0)
            return true;
        int64_t delta = c / a1;
        return !(delta > 0 && delta < trip_count);
    }
    if (a1 == 0) {
        // Loop1's address is fixed: it matches the i2 solving
        // a2*i2 + c == 0, and then *every* i1 pairs with that i2.
        if (a2 != 0 && c % a2 == 0) {
            int64_t i2 = -c / a2;
            if (i2 >= 0 && i2 < trip_count && trip_count - 1 > i2)
                return false;
        }
        return true;
    }
    // Mismatched strides: enumerate when small, else conservative.
    if (trip_count > (1 << 14))
        return false;
    for (int64_t i2 = 0; i2 < trip_count; ++i2) {
        int64_t rhs = a2 * i2 + c;
        if (rhs % a1 != 0)
            continue;
        int64_t i1 = rhs / a1;
        if (i1 >= 0 && i1 < trip_count && i1 > i2)
            return false;
    }
    return true;
}

} // namespace

bool
canFuseLoops(Operation &loop1, Operation &loop2)
{
    if (!isa(loop1, opnames::kAffineFor) ||
        !isa(loop2, opnames::kAffineFor)) {
        return false;
    }
    // Require identical constant bounds and step.
    auto trips1 = constantTripCount(loop1);
    auto trips2 = constantTripCount(loop2);
    if (!trips1 || !trips2 || *trips1 != *trips2)
        return false;
    AffineBound lb1 = getLowerBound(loop1), lb2 = getLowerBound(loop2);
    if (!lb1.isConstant() || !lb2.isConstant() ||
        lb1.constant != lb2.constant ||
        getStep(loop1) != getStep(loop2)) {
        return false;
    }

    auto accesses1 = collectAccesses(loop1);
    auto accesses2 = collectAccesses(loop2);
    for (const auto &first : accesses1) {
        for (const auto &second : accesses2) {
            if (!sameBuffer(first.memref, second.memref))
                continue;
            if (!first.is_store && !second.is_store)
                continue;
            if (!pairFusionSafe(first, second, loop1, loop2, *trips1))
                return false;
        }
    }
    return true;
}

bool
canInterchangeLoops(Operation &outer, Operation &inner)
{
    if (perfectlyNestedInner(outer) != &inner)
        return false;
    // Rectangular: inner bounds must not reference the outer iv.
    Value outer_iv = inductionVar(outer);
    for (Value operand : inner.operands()) {
        if (operand == outer_iv)
            return false;
    }
    auto inner_trips = constantTripCount(inner);
    auto outer_trips = constantTripCount(outer);
    if (!inner_trips || !outer_trips)
        return false;

    // Conservative dependence rule: every conflicting pair must have
    // identical flattened address functions (distance-zero in both ivs).
    auto accesses = collectAccesses(inner);
    for (size_t i = 0; i < accesses.size(); ++i) {
        for (size_t j = 0; j < accesses.size(); ++j) {
            if (i == j)
                continue;
            const auto &a = accesses[i];
            const auto &b = accesses[j];
            if (!sameBuffer(a.memref, b.memref))
                continue;
            if (!a.is_store && !b.is_store)
                continue;
            auto flat_a = flattenAccess(a);
            auto flat_b = flattenAccess(b);
            if (!flat_a || !flat_b || !(*flat_a == *flat_b))
                return false;
        }
    }
    return true;
}

bool
hasLoopCarriedDependence(Operation &loop, bool lenient)
{
    auto accesses = collectAccesses(loop, lenient);
    for (size_t i = 0; i < accesses.size(); ++i) {
        for (size_t j = 0; j < accesses.size(); ++j) {
            const auto &a = accesses[i];
            const auto &b = accesses[j];
            if (!a.is_store)
                continue;
            if (!sameBuffer(a.memref, b.memref))
                continue;
            auto flat_a = flattenAccess(a);
            auto flat_b = flattenAccess(b);
            if (!flat_a || !flat_b)
                return true; // non-affine: conservatively carried
            auto split_a = splitOnIv(*flat_a, loop);
            auto split_b = splitOnIv(*flat_b, loop);
            if (!split_a || !split_b)
                return true;
            auto [ca, ra] = *split_a;
            auto [cb, rb] = *split_b;
            LinearExpr diff = rb - ra;
            if (!diff.isConstant())
                return true;
            // ca*i + ra == cb*j + rb with i != j?
            if (ca == cb) {
                if (ca == 0) {
                    if (diff.constant == 0)
                        return true; // same scalar cell every iteration
                    continue;
                }
                if (diff.constant != 0 && diff.constant % ca == 0)
                    return true; // fixed nonzero distance
                continue;
            }
            return true; // mismatched strides: assume carried
        }
    }
    return false;
}

std::optional<int64_t>
minCarriedDependenceDistance(Operation &loop, bool lenient)
{
    auto accesses = collectAccesses(loop, lenient);
    std::optional<int64_t> min_distance;
    for (const auto &store : accesses) {
        if (!store.is_store)
            continue;
        for (const auto &other : accesses) {
            if (!sameBuffer(store.memref, other.memref))
                continue;
            if (other.op == store.op)
                continue;
            auto flat_s = flattenAccess(store);
            auto flat_o = flattenAccess(other);
            if (!flat_s || !flat_o)
                return std::nullopt;
            auto split_s = splitOnIv(*flat_s, loop);
            auto split_o = splitOnIv(*flat_o, loop);
            if (!split_s || !split_o)
                return std::nullopt;
            auto [cs, rs] = *split_s;
            auto [co, ro] = *split_o;
            LinearExpr diff = rs - ro; // cs*i + rs == co*j + ro
            if (!diff.isConstant())
                return std::nullopt;
            if (cs != co)
                return std::nullopt;
            if (cs == 0) {
                if (diff.constant == 0) {
                    min_distance = 1; // tightest possible recurrence
                }
                continue;
            }
            if (diff.constant % cs != 0)
                continue;
            // cs*i + rs == cs*j + ro  =>  j = i + (rs - ro)/cs.
            int64_t distance = diff.constant / cs;
            if (distance > 0) {
                if (!min_distance || distance < *min_distance)
                    min_distance = distance;
            }
        }
    }
    return min_distance;
}

} // namespace seer::ir
