#include "ir/ops.h"

#include <unordered_map>

#include "support/error.h"

namespace seer::ir {

namespace {

struct Registry
{
    std::unordered_map<Symbol, OpInfo> table;

    void
    add(std::string_view name, OpInfo info)
    {
        table.emplace(Symbol(name), info);
    }

    Registry()
    {
        using namespace opnames;
        OpInfo binop{2, 1, 0, false, true, false, false, false};
        OpInfo binop_comm = binop;
        binop_comm.isCommutative = true;
        OpInfo unop{1, 1, 0, false, true, false, false, false};

        add(kConstant, OpInfo{0, 1, 0, false, true, false, false, false});
        add(kAddI, binop_comm);
        add(kSubI, binop);
        add(kMulI, binop_comm);
        add(kDivSI, binop);
        add(kDivUI, binop);
        add(kRemSI, binop);
        add(kRemUI, binop);
        add(kAndI, binop_comm);
        add(kOrI, binop_comm);
        add(kXOrI, binop_comm);
        add(kShLI, binop);
        add(kShRSI, binop);
        add(kShRUI, binop);
        add(kCmpI, binop);
        add(kSelect, OpInfo{3, 1, 0, false, true, false, false, false});
        add(kExtSI, unop);
        add(kExtUI, unop);
        add(kTruncI, unop);
        add(kIndexCast, unop);
        add(kMinSI, binop_comm);
        add(kMaxSI, binop_comm);
        add(kAddF, binop_comm);
        add(kSubF, binop);
        add(kMulF, binop_comm);
        add(kDivF, binop);
        add(kNegF, unop);
        add(kCmpF, binop);
        add(kSIToFP, unop);
        add(kFPToSI, unop);

        add(kAlloc, OpInfo{0, 1, 0, false, false, false, false, true});
        add(kLoad, OpInfo{-1, 1, 0, false, false, false, false, true});
        add(kStore, OpInfo{-1, 0, 0, false, false, false, false, true});

        add(kAffineFor, OpInfo{-1, 0, 1, false, false, false, true, false});
        add(kAffineYield, OpInfo{0, 0, 0, true, false, false, false, false});

        add(kIf, OpInfo{1, -1, 2, false, false, false, true, false});
        add(kWhile, OpInfo{0, 0, 2, false, false, false, true, false});
        add(kCondition, OpInfo{1, 0, 0, true, false, false, false, false});
        add(kYield, OpInfo{-1, 0, 0, true, false, false, false, false});

        add(kFunc, OpInfo{0, 0, 1, false, false, false, false, false});
        add(kReturn, OpInfo{-1, 0, 0, true, false, false, false, false});
        add(kCall, OpInfo{-1, -1, 0, false, false, false, false, false});
    }
};

Registry &
registry()
{
    static Registry instance;
    return instance;
}

} // namespace

const OpInfo &
opInfo(Symbol name)
{
    auto it = registry().table.find(name);
    if (it == registry().table.end())
        fatal(MsgBuilder() << "unknown operation '" << name.str() << "'");
    return it->second;
}

bool
isRegisteredOp(Symbol name)
{
    return registry().table.count(name) > 0;
}

// --- Constants --------------------------------------------------------

Operation::Ptr
makeIntConstant(Type type, int64_t value)
{
    SEER_ASSERT(type.isInteger() || type.isIndex(),
                "makeIntConstant with type " << type.str());
    auto op = std::make_unique<Operation>(Symbol(opnames::kConstant));
    op->setAttr("value", Attribute(value));
    op->addResult(type);
    return op;
}

Operation::Ptr
makeFloatConstant(double value)
{
    auto op = std::make_unique<Operation>(Symbol(opnames::kConstant));
    op->setAttr("value", Attribute(value));
    op->addResult(Type::f64());
    return op;
}

std::optional<int64_t>
getConstantInt(Value v)
{
    Operation *def = v.definingOp();
    if (!def || !isa(*def, opnames::kConstant))
        return std::nullopt;
    if (!def->attr("value").isInt())
        return std::nullopt;
    return def->intAttr("value");
}

// --- Comparison predicates ------------------------------------------------

CmpPred
parseCmpPred(const std::string &text)
{
    static const std::unordered_map<std::string, CmpPred> map = {
        {"eq", CmpPred::EQ},   {"ne", CmpPred::NE},
        {"slt", CmpPred::SLT}, {"sle", CmpPred::SLE},
        {"sgt", CmpPred::SGT}, {"sge", CmpPred::SGE},
        {"ult", CmpPred::ULT}, {"ule", CmpPred::ULE},
        {"ugt", CmpPred::UGT}, {"uge", CmpPred::UGE},
    };
    auto it = map.find(text);
    if (it == map.end())
        fatal(MsgBuilder() << "unknown cmp predicate '" << text << "'");
    return it->second;
}

std::string
cmpPredName(CmpPred pred)
{
    switch (pred) {
      case CmpPred::EQ: return "eq";
      case CmpPred::NE: return "ne";
      case CmpPred::SLT: return "slt";
      case CmpPred::SLE: return "sle";
      case CmpPred::SGT: return "sgt";
      case CmpPred::SGE: return "sge";
      case CmpPred::ULT: return "ult";
      case CmpPred::ULE: return "ule";
      case CmpPred::UGT: return "ugt";
      case CmpPred::UGE: return "uge";
    }
    return "?";
}

bool
evalCmpI(CmpPred pred, int64_t lhs, int64_t rhs, unsigned width)
{
    uint64_t mask =
        width >= 64 ? ~0ULL : ((1ULL << width) - 1);
    uint64_t ul = static_cast<uint64_t>(lhs) & mask;
    uint64_t ur = static_cast<uint64_t>(rhs) & mask;
    switch (pred) {
      case CmpPred::EQ: return lhs == rhs;
      case CmpPred::NE: return lhs != rhs;
      case CmpPred::SLT: return lhs < rhs;
      case CmpPred::SLE: return lhs <= rhs;
      case CmpPred::SGT: return lhs > rhs;
      case CmpPred::SGE: return lhs >= rhs;
      case CmpPred::ULT: return ul < ur;
      case CmpPred::ULE: return ul <= ur;
      case CmpPred::UGT: return ul > ur;
      case CmpPred::UGE: return ul >= ur;
    }
    return false;
}

// --- affine.for -----------------------------------------------------------

namespace {

/** Encode bound coefficients; operand slots are appended by the caller. */
std::vector<int64_t>
boundCoeffs(const AffineBound &bound)
{
    std::vector<int64_t> coeffs;
    coeffs.reserve(bound.terms.size());
    for (const auto &[value, coeff] : bound.terms)
        coeffs.push_back(coeff);
    return coeffs;
}

AffineBound
decodeBound(const Operation &for_op, const std::string &prefix,
            size_t operand_offset)
{
    AffineBound bound;
    bound.constant = for_op.intAttr(prefix + "_const");
    const auto &coeffs = for_op.attr(prefix + "_coeffs").asIntArray();
    for (size_t i = 0; i < coeffs.size(); ++i)
        bound.terms.emplace_back(for_op.operand(operand_offset + i),
                                 coeffs[i]);
    return bound;
}

} // namespace

Operation::Ptr
makeAffineFor(const AffineBound &lb, const AffineBound &ub, int64_t step,
              std::string iv_name)
{
    auto op = std::make_unique<Operation>(Symbol(opnames::kAffineFor));
    Block &body = op->addRegion().block();
    body.addArg(Type::index(), std::move(iv_name));
    setLoopBounds(*op, lb, ub, step);
    return op;
}

void
setLoopBounds(Operation &for_op, const AffineBound &lb,
              const AffineBound &ub, int64_t step)
{
    SEER_ASSERT(isa(for_op, opnames::kAffineFor), "not an affine.for");
    SEER_ASSERT(step > 0, "affine.for step must be positive");
    std::vector<Value> operands;
    for (const auto &[value, coeff] : lb.terms)
        operands.push_back(value);
    for (const auto &[value, coeff] : ub.terms)
        operands.push_back(value);
    for_op.setOperands(std::move(operands));
    for_op.setAttr("lb_const", Attribute(lb.constant));
    for_op.setAttr("lb_coeffs", Attribute(boundCoeffs(lb)));
    for_op.setAttr("ub_const", Attribute(ub.constant));
    for_op.setAttr("ub_coeffs", Attribute(boundCoeffs(ub)));
    for_op.setAttr("step", Attribute(step));
}

AffineBound
getLowerBound(const Operation &for_op)
{
    return decodeBound(for_op, "lb", 0);
}

AffineBound
getUpperBound(const Operation &for_op)
{
    size_t lb_terms = for_op.attr("lb_coeffs").asIntArray().size();
    return decodeBound(for_op, "ub", lb_terms);
}

int64_t
getStep(const Operation &for_op)
{
    return for_op.intAttr("step");
}

Value
inductionVar(const Operation &for_op)
{
    return for_op.region(0).block().arg(0);
}

std::optional<int64_t>
constantTripCount(const Operation &for_op)
{
    AffineBound lb = getLowerBound(for_op);
    AffineBound ub = getUpperBound(for_op);
    if (!lb.isConstant() || !ub.isConstant())
        return std::nullopt;
    int64_t step = getStep(for_op);
    int64_t span = ub.constant - lb.constant;
    if (span <= 0)
        return 0;
    return (span + step - 1) / step;
}

bool
isTerminator(const Operation &op)
{
    return opInfo(op.name()).isTerminator;
}

} // namespace seer::ir
