#include "seerlang/to_term.h"

#include <set>

#include "ir/ops.h"
#include "ir/printer.h"
#include "seerlang/encoding.h"
#include "support/error.h"

namespace seer::sl {

using namespace ir;
using eg::makeTerm;
using eg::TermPtr;

namespace {

class Translator
{
  public:
    Translation
    run(Operation &func)
    {
        SEER_ASSERT(isa(func, opnames::kFunc), "funcToTerm on non-func");
        if (func.hasAttr("result_type")) {
            fatal("SeerLang: functions returning values are not "
                  "supported; return through memref arguments");
        }
        out_.func_name = func.strAttr("sym_name");
        Block &body = func.region(0).block();
        for (size_t i = 0; i < body.numArgs(); ++i) {
            Value arg = body.arg(i);
            std::string name = arg.impl()->nameHint().empty()
                                   ? "a" + std::to_string(i)
                                   : arg.impl()->nameHint();
            out_.args.emplace_back(name, arg.type());
            values_[arg.impl()] =
                makeTerm(encodeArg(name, arg.type()));
        }
        TermPtr body_term = translateBlock(body);
        out_.term =
            makeTerm(funcSymbol(out_.func_name), {body_term});
        return std::move(out_);
    }

  private:
    TermPtr
    translateBlock(Block &block)
    {
        std::vector<TermPtr> statements;
        for (const auto &op : block.ops()) {
            if (isTerminator(*op)) {
                if (op->numOperands() > 0) {
                    fatal("SeerLang: value-carrying terminator in "
                          "statement context: " + toString(*op));
                }
                continue;
            }
            if (auto stmt = translateStatement(*op))
                statements.push_back(stmt);
        }
        if (statements.empty())
            return makeTerm(nopSymbol());
        TermPtr chain = statements.back();
        for (size_t i = statements.size() - 1; i-- > 0;)
            chain = makeTerm(seqSymbol(), {statements[i], chain});
        return chain;
    }

    /**
     * Translate one op in statement position. Pure ops return nullptr
     * (they are embedded in consumers on demand); effectful ops return
     * their statement term.
     */
    TermPtr
    translateStatement(Operation &op)
    {
        const std::string &name = op.nameStr();
        if (name == opnames::kLoad)
            return translateLoad(op);
        if (name == opnames::kStore) {
            std::vector<TermPtr> children{valueTerm(op.operand(0)),
                                          valueTerm(op.operand(1))};
            for (size_t i = 2; i < op.numOperands(); ++i)
                children.push_back(valueTerm(op.operand(i)));
            return makeTerm(encodeStore(freshTag()),
                            std::move(children));
        }
        if (name == opnames::kAlloc) {
            // Preserve buffer identity across round trips: an alloc's
            // tag IS the buffer, so a rewritten subterm must keep
            // referring to the same one.
            std::string tag = op.hasAttr("seer.tag")
                                  ? op.strAttr("seer.tag")
                                  : freshTag();
            TermPtr term =
                makeTerm(encodeAlloc(op.result().type(), tag));
            values_[op.result().impl()] = term;
            return term;
        }
        if (name == opnames::kAffineFor)
            return translateFor(op);
        if (name == opnames::kIf)
            return translateIf(op);
        if (name == opnames::kWhile)
            return translateWhile(op);
        if (name == opnames::kCall)
            fatal("SeerLang: func.call is not supported");
        const OpInfo &info = opInfo(op.name());
        if (info.isPure)
            return nullptr; // embedded on demand
        fatal("SeerLang: unsupported statement op " + name);
    }

    TermPtr
    translateLoad(Operation &op)
    {
        std::vector<TermPtr> children{valueTerm(op.operand(0))};
        for (size_t i = 1; i < op.numOperands(); ++i)
            children.push_back(valueTerm(op.operand(i)));
        TermPtr term =
            makeTerm(encodeLoad(freshTag()), std::move(children));
        values_[op.result().impl()] = term;
        return term;
    }

    TermPtr
    boundToTerm(const AffineBound &bound)
    {
        Type index = Type::index();
        TermPtr acc;
        for (const auto &[value, coeff] : bound.terms) {
            TermPtr piece = valueTerm(value);
            if (coeff != 1) {
                piece = makeTerm(
                    encodeOp(std::string(opnames::kMulI), {"index"}),
                    {piece,
                     makeTerm(encodeIntConst(coeff, index))});
            }
            acc = acc ? makeTerm(encodeOp(std::string(opnames::kAddI),
                                          {"index"}),
                                 {acc, piece})
                      : piece;
        }
        TermPtr constant = makeTerm(encodeIntConst(bound.constant, index));
        if (!acc)
            return constant;
        if (bound.constant == 0)
            return acc;
        return makeTerm(encodeOp(std::string(opnames::kAddI), {"index"}),
                        {acc, constant});
    }

    TermPtr
    translateFor(Operation &op)
    {
        std::string iv_name = uniqueIvName(
            inductionVar(op).impl()->nameHint());
        // Preserve an existing loop id (registry key) across round
        // trips; only brand-new loops get fresh ids.
        std::string loop_id = op.hasAttr("seer.loop_id")
                                  ? op.strAttr("seer.loop_id")
                                  : freshLoopId();
        out_.loops[loop_id] = &op;

        TermPtr lb = boundToTerm(getLowerBound(op));
        TermPtr ub = boundToTerm(getUpperBound(op));
        TermPtr step =
            makeTerm(encodeIntConst(getStep(op), Type::index()));

        Block &body = op.region(0).block();
        values_[body.arg(0).impl()] = makeTerm(encodeVar(iv_name));
        TermPtr body_term = translateBlock(body);
        return makeTerm(encodeFor(iv_name, loop_id),
                        {lb, ub, step, body_term});
    }

    TermPtr
    translateIf(Operation &op)
    {
        if (op.numResults() > 0) {
            fatal("SeerLang: value-yielding scf.if is not supported; "
                  "run if-conversion first");
        }
        TermPtr cond = valueTerm(op.operand(0));
        TermPtr then_term = translateBlock(op.region(0).block());
        TermPtr else_term = translateBlock(op.region(1).block());
        return makeTerm(ifSymbol(), {cond, then_term, else_term});
    }

    TermPtr
    translateWhile(Operation &op)
    {
        Block &cond_block = op.region(0).block();
        // Condition region: effects first, then the condition value.
        std::vector<TermPtr> cond_statements;
        TermPtr cond_value;
        for (const auto &inner : cond_block.ops()) {
            if (isa(*inner, opnames::kCondition)) {
                cond_value = valueTerm(inner->operand(0));
                break;
            }
            if (auto stmt = translateStatement(*inner))
                cond_statements.push_back(stmt);
        }
        SEER_ASSERT(cond_value, "scf.while without condition");
        TermPtr cond_chain;
        if (cond_statements.empty()) {
            cond_chain = makeTerm(nopSymbol());
        } else {
            cond_chain = cond_statements.back();
            for (size_t i = cond_statements.size() - 1; i-- > 0;) {
                cond_chain = makeTerm(seqSymbol(),
                                      {cond_statements[i], cond_chain});
            }
        }
        TermPtr body_term = translateBlock(op.region(1).block());
        return makeTerm(encodeWhile(freshTag()),
                        {cond_chain, cond_value, body_term});
    }

    TermPtr
    valueTerm(Value v)
    {
        auto it = values_.find(v.impl());
        if (it != values_.end())
            return it->second;
        Operation *def = v.definingOp();
        if (!def) {
            fatal("SeerLang: unmapped block argument (is a while loop "
                  "iv escaping?)");
        }
        const std::string &name = def->nameStr();
        TermPtr term;
        if (name == opnames::kConstant) {
            const Attribute &value = def->attr("value");
            term = value.isInt()
                       ? makeTerm(encodeIntConst(value.asInt(),
                                                 v.type()))
                       : makeTerm(encodeFloatConst(value.asFloat()));
        } else if (name == opnames::kCmpI || name == opnames::kCmpF) {
            term = makeTerm(
                encodeOp(name, {def->strAttr("predicate"),
                                def->operand(0).type().str()}),
                {valueTerm(def->operand(0)),
                 valueTerm(def->operand(1))});
        } else if (name == opnames::kExtSI || name == opnames::kExtUI ||
                   name == opnames::kTruncI ||
                   name == opnames::kIndexCast ||
                   name == opnames::kSIToFP ||
                   name == opnames::kFPToSI) {
            term = makeTerm(
                encodeOp(name, {def->operand(0).type().str(),
                                v.type().str()}),
                {valueTerm(def->operand(0))});
        } else if (opInfo(def->name()).isPure &&
                   def->numRegions() == 0 && def->numResults() == 1) {
            std::vector<TermPtr> children;
            for (Value operand : def->operands())
                children.push_back(valueTerm(operand));
            term = makeTerm(encodeOp(name, {v.type().str()}),
                            std::move(children));
        } else {
            fatal("SeerLang: cannot express value defined by " + name);
        }
        values_[v.impl()] = term;
        return term;
    }

    std::string
    uniqueIvName(const std::string &hint)
    {
        std::string base = hint.empty() ? "i" : hint;
        std::string candidate = base;
        int suffix = 0;
        while (!iv_names_.insert(candidate).second)
            candidate = base + "_" + std::to_string(++suffix);
        return candidate;
    }

    Translation out_;
    std::map<ValueImpl *, TermPtr> values_;
    std::set<std::string> iv_names_;
};

} // namespace

Translation
funcToTerm(Operation &func)
{
    return Translator().run(func);
}

} // namespace seer::sl
