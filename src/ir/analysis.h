/**
 * @file
 * Program analyses shared by the control-path passes, the HLS scheduler
 * and the SeerLang bridge.
 *
 * The affine analysis here is *deliberately strict*, modeling what the
 * paper says about polyhedral tooling: it understands constants, +, -, and
 * multiplication by constants, but refuses shifts and bitwise tricks. The
 * datapath rewrites' job (Figure 9) is to rewrite `(i << 1) + i` into
 * `3 * i` so that this analyzer succeeds.
 */
#ifndef SEER_IR_ANALYSIS_H_
#define SEER_IR_ANALYSIS_H_

#include <optional>

#include "ir/ops.h"

namespace seer::ir {

/**
 * A linear integer expression: constant + sum(coeff * base). Bases are SSA
 * values the analysis could not decompose further (loop ivs, arguments).
 */
struct LinearExpr
{
    int64_t constant = 0;
    std::map<ValueImpl *, int64_t> coeffs;

    bool isConstant() const { return coeffs.empty(); }

    /** Coefficient of `v` (0 if absent). */
    int64_t coeff(Value v) const;

    LinearExpr operator+(const LinearExpr &other) const;
    LinearExpr operator-(const LinearExpr &other) const;
    LinearExpr scaled(int64_t factor) const;

    bool operator==(const LinearExpr &other) const
    {
        return constant == other.constant && coeffs == other.coeffs;
    }
};

/**
 * Strict affine analysis of an index expression. Returns nullopt when the
 * def chain contains anything a polyhedral analyzer would not interpret
 * (shifts, and/or/xor, multiplication of two variables, loads, selects...).
 */
std::optional<LinearExpr> analyzeAffine(Value v);

/**
 * Lenient variant modeling an SCEV-style scalar-evolution analysis (the
 * downstream HLS scheduler's view): additionally understands left shift
 * by a constant as multiplication by a power of two. The source-level
 * polyhedral passes must NOT use this — the gap between the two
 * analyses is the Figure 9 tension.
 */
std::optional<LinearExpr> analyzeAffineLenient(Value v);

/** A classified memory access inside some region. */
struct MemAccess
{
    Operation *op = nullptr; ///< the load or store
    Value memref;            ///< the accessed buffer (root operand)
    bool is_store = false;
    /** Per-dimension strict-affine index forms; nullopt = non-affine. */
    std::vector<std::optional<LinearExpr>> indices;

    bool
    allAffine() const
    {
        for (const auto &index : indices) {
            if (!index)
                return false;
        }
        return true;
    }
};

/** Collect all loads/stores nested under `root` (including nested loops).
 *  `lenient` selects the SCEV-style index analysis. */
std::vector<MemAccess> collectAccesses(Operation &root,
                                       bool lenient = false);

/** Collect loads/stores in `block` only at this nesting depth and below. */
std::vector<MemAccess> collectAccesses(Block &block,
                                       bool lenient = false);

/** True if `v` is defined outside of `loop` (i.e., loop-invariant). */
bool isDefinedOutside(Value v, const Operation &loop);

/** All top-level affine.for ops directly inside `block` in order. */
std::vector<Operation *> topLevelLoops(Block &block);

/**
 * Perfect-nest check: `loop` contains exactly one op besides its
 * terminator and that op is an affine.for. Returns the inner loop or null.
 */
Operation *perfectlyNestedInner(Operation &loop);

/**
 * Fusion legality for two adjacent sibling loops with identical constant
 * bounds and step. Checks every pair of conflicting accesses (same buffer,
 * at least one store): fusion is legal iff every dependence from loop1
 * iteration i1 to loop2 iteration i2 satisfies i1 <= i2, so the fused loop
 * still executes the producer before the consumer.
 *
 * Non-affine accesses to a shared buffer make the answer conservatively
 * "illegal" — this is the Figure 9 behaviour the datapath rewrites unlock.
 */
bool canFuseLoops(Operation &loop1, Operation &loop2);

/**
 * Interchange legality for a perfect 2-nest: requires rectangular bounds
 * (inner bounds invariant of the outer iv) and no loop-carried dependence
 * that interchange would reverse. Conservative.
 */
bool canInterchangeLoops(Operation &outer, Operation &inner);

/** True if the loop body carries a memory dependence across iterations
 *  (store in iteration i conflicting with an access in iteration j != i).
 *  Used by the HLS scheduler to derive the recurrence-constrained II. */
bool hasLoopCarriedDependence(Operation &loop, bool lenient = false);

/**
 * Distance of the tightest loop-carried store->load dependence (in
 * iterations), when it can be proven; nullopt = unknown/none provable.
 */
std::optional<int64_t> minCarriedDependenceDistance(Operation &loop,
                                                    bool lenient = false);

} // namespace seer::ir

#endif // SEER_IR_ANALYSIS_H_
