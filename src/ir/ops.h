/**
 * @file
 * The dialect op set: names, structural traits, and typed helpers.
 *
 * The IR core (op.h) is generic; this header pins down the concrete ops of
 * the five dialects the SEER paper uses and provides typed accessors for
 * the structured ones (affine.for bounds, constants, cmp predicates).
 */
#ifndef SEER_IR_OPS_H_
#define SEER_IR_OPS_H_

#include <optional>
#include <string_view>

#include "ir/op.h"

namespace seer::ir {

/** Canonical op names. */
namespace opnames {
// arith
inline constexpr std::string_view kConstant = "arith.constant";
inline constexpr std::string_view kAddI = "arith.addi";
inline constexpr std::string_view kSubI = "arith.subi";
inline constexpr std::string_view kMulI = "arith.muli";
inline constexpr std::string_view kDivSI = "arith.divsi";
inline constexpr std::string_view kDivUI = "arith.divui";
inline constexpr std::string_view kRemSI = "arith.remsi";
inline constexpr std::string_view kRemUI = "arith.remui";
inline constexpr std::string_view kAndI = "arith.andi";
inline constexpr std::string_view kOrI = "arith.ori";
inline constexpr std::string_view kXOrI = "arith.xori";
inline constexpr std::string_view kShLI = "arith.shli";
inline constexpr std::string_view kShRSI = "arith.shrsi";
inline constexpr std::string_view kShRUI = "arith.shrui";
inline constexpr std::string_view kCmpI = "arith.cmpi";
inline constexpr std::string_view kSelect = "arith.select";
inline constexpr std::string_view kExtSI = "arith.extsi";
inline constexpr std::string_view kExtUI = "arith.extui";
inline constexpr std::string_view kTruncI = "arith.trunci";
inline constexpr std::string_view kIndexCast = "arith.index_cast";
inline constexpr std::string_view kMinSI = "arith.minsi";
inline constexpr std::string_view kMaxSI = "arith.maxsi";
inline constexpr std::string_view kAddF = "arith.addf";
inline constexpr std::string_view kSubF = "arith.subf";
inline constexpr std::string_view kMulF = "arith.mulf";
inline constexpr std::string_view kDivF = "arith.divf";
inline constexpr std::string_view kNegF = "arith.negf";
inline constexpr std::string_view kCmpF = "arith.cmpf";
inline constexpr std::string_view kSIToFP = "arith.sitofp";
inline constexpr std::string_view kFPToSI = "arith.fptosi";
// memref
inline constexpr std::string_view kAlloc = "memref.alloc";
inline constexpr std::string_view kLoad = "memref.load";
inline constexpr std::string_view kStore = "memref.store";
// affine
inline constexpr std::string_view kAffineFor = "affine.for";
inline constexpr std::string_view kAffineYield = "affine.yield";
// scf
inline constexpr std::string_view kIf = "scf.if";
inline constexpr std::string_view kWhile = "scf.while";
inline constexpr std::string_view kCondition = "scf.condition";
inline constexpr std::string_view kYield = "scf.yield";
// func
inline constexpr std::string_view kFunc = "func.func";
inline constexpr std::string_view kReturn = "func.return";
inline constexpr std::string_view kCall = "func.call";
} // namespace opnames

/** Structural traits of an op kind, consulted by the verifier and passes. */
struct OpInfo
{
    /** Exact operand count, or -1 if variadic. */
    int numOperands = -1;
    /** Exact result count, or -1 if variadic. */
    int numResults = -1;
    /** Number of held regions. */
    int numRegions = 0;
    /** Terminates its block (yield/return/condition). */
    bool isTerminator = false;
    /** No side effects and no regions: safe to DCE / put in an e-graph. */
    bool isPure = false;
    /** Binary op with commutative semantics. */
    bool isCommutative = false;
    /** Structured control flow op (for/if/while). */
    bool isControlFlow = false;
    /** Touches memory (load/store/alloc). */
    bool isMemory = false;
};

/** Look up traits; fatal() on unknown op names (catches typos early). */
const OpInfo &opInfo(Symbol name);

/** True if `name` is a registered op. */
bool isRegisteredOp(Symbol name);

inline bool
isa(const Operation &op, std::string_view name)
{
    return op.nameStr() == name;
}

// --- Constants ----------------------------------------------------------

/** Build an integer/index constant op (no parent). */
Operation::Ptr makeIntConstant(Type type, int64_t value);

/** Build an f64 constant op. */
Operation::Ptr makeFloatConstant(double value);

/** If `v` is defined by an integer arith.constant, return its value. */
std::optional<int64_t> getConstantInt(Value v);

// --- Comparison predicates ------------------------------------------------

enum class CmpPred { EQ, NE, SLT, SLE, SGT, SGE, ULT, ULE, UGT, UGE };

/** Parse "slt" etc.; fatal() on unknown predicate. */
CmpPred parseCmpPred(const std::string &text);
std::string cmpPredName(CmpPred pred);

/** Evaluate an integer comparison. */
bool evalCmpI(CmpPred pred, int64_t lhs, int64_t rhs, unsigned width);

// --- affine.for helpers -----------------------------------------------

/**
 * An affine loop bound: constant + sum(coeff * value). Values must be
 * index-typed (enclosing ivs or index arguments).
 */
struct AffineBound
{
    int64_t constant = 0;
    std::vector<std::pair<Value, int64_t>> terms;

    bool isConstant() const { return terms.empty(); }

    static AffineBound fromConstant(int64_t c) { return {c, {}}; }
    static AffineBound fromValue(Value v, int64_t coeff = 1,
                                 int64_t c = 0)
    {
        return {c, {{v, coeff}}};
    }
};

/**
 * Build an affine.for op with the given bounds and step; its body block is
 * created with one index-typed induction variable argument.
 */
Operation::Ptr makeAffineFor(const AffineBound &lb, const AffineBound &ub,
                             int64_t step, std::string iv_name = "i");

/** Read back the encoded bounds. Valid only on affine.for. */
AffineBound getLowerBound(const Operation &for_op);
AffineBound getUpperBound(const Operation &for_op);
int64_t getStep(const Operation &for_op);

/** Re-encode the bounds (replaces operands and bound attributes). */
void setLoopBounds(Operation &for_op, const AffineBound &lb,
                   const AffineBound &ub, int64_t step);

/** The loop induction variable (body block argument 0). */
Value inductionVar(const Operation &for_op);

/** Trip count when both bounds are constant: ceil((ub-lb)/step), >= 0. */
std::optional<int64_t> constantTripCount(const Operation &for_op);

/** True for ops that must appear last in their block. */
bool isTerminator(const Operation &op);

} // namespace seer::ir

#endif // SEER_IR_OPS_H_
