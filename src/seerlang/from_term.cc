#include "seerlang/from_term.h"

#include <set>
#include <unordered_map>
#include <unordered_set>

#include "ir/builder.h"
#include "ir/parser.h"
#include "seerlang/encoding.h"
#include "support/error.h"

namespace seer::sl {

using namespace ir;
using eg::Term;
using eg::TermPtr;

namespace {

/**
 * The free leaves of a term, one visit per (node, binder context). A
 * context is one entry into an affine.for body; it names its iv and its
 * parent, so a node reached twice under the same context sees the same
 * bound names. Names are views into interned symbol text.
 */
class FreeLeafCollector
{
  public:
    void run(const Term *root) { visit(root, kTopLevel); }

    std::map<std::string_view, Type> args;
    std::set<std::string_view> free_vars;

  private:
    /** The context outside every loop body: nothing bound. */
    static constexpr uint32_t kTopLevel = UINT32_MAX;

    struct Context
    {
        uint32_t parent;
        std::string_view iv;
    };

    struct VisitHash
    {
        size_t
        operator()(const std::pair<const Term *, uint32_t> &key) const
        {
            return std::hash<const Term *>()(key.first) ^
                   (static_cast<size_t>(key.second) * 0x9e3779b97f4a7c15);
        }
    };

    bool
    bound(std::string_view name, uint32_t ctx) const
    {
        for (; ctx != kTopLevel; ctx = contexts_[ctx].parent) {
            if (contexts_[ctx].iv == name)
                return true;
        }
        return false;
    }

    void
    visit(const Term *term, uint32_t ctx)
    {
        if (!seen_.emplace(term, ctx).second)
            return;
        Symbol op = term->op();
        if (auto arg = decodeArg(op)) {
            auto [name, type] = *arg;
            auto it = args.find(name);
            if (it != args.end() && !(it->second == type)) {
                fatal("SeerLang: arg '" + std::string(name) +
                      "' used at two types");
            }
            args.emplace(name, type);
            return;
        }
        if (auto var = decodeVar(op)) {
            if (!bound(*var, ctx))
                free_vars.insert(*var);
            return;
        }
        if (isForSymbol(op)) {
            // Bounds and step are outside the iv scope.
            for (size_t i = 0; i < 3; ++i)
                visit(term->child(i).get(), ctx);
            contexts_.push_back({ctx, eg::splitSymbol(op)[1]});
            visit(term->child(3).get(),
                  static_cast<uint32_t>(contexts_.size() - 1));
            return;
        }
        for (const auto &child : term->children())
            visit(child.get(), ctx);
    }

    std::vector<Context> contexts_;
    std::unordered_set<std::pair<const Term *, uint32_t>, VisitHash>
        seen_;
};

class Emitter
{
  public:
    Module
    run(const TermPtr &term, const EmitSpec &spec)
    {
        Module module;
        auto func = std::make_unique<Operation>(
            Symbol(ir::opnames::kFunc));
        func->setAttr("sym_name", Attribute(spec.func_name));
        Block &body = func->addRegion().block();
        pushScope();
        for (const auto &[name, type] : spec.args)
            scopes_.back()[name] = body.addArg(type, name);

        TermPtr body_term = term;
        if (opNameOf(term->op()) == "func")
            body_term = term->child(0);
        entry_block_ = &body;
        OpBuilder builder = OpBuilder::atEnd(body);
        emitStatement(body_term, builder);
        builder.create(ir::opnames::kReturn, {}, {});
        popScope();
        module.push_back(std::move(func));
        return module;
    }

  private:
    using VnKey = std::pair<Symbol, std::vector<ValueImpl *>>;

    void
    pushScope()
    {
        scopes_.emplace_back();
        vn_.emplace_back();
        memo_.emplace_back();
    }

    void
    popScope()
    {
        scopes_.pop_back();
        vn_.pop_back();
        memo_.pop_back();
    }

    const Value *
    findName(std::string_view name) const
    {
        for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
            auto found = it->find(name);
            if (found != it->end())
                return &found->second;
        }
        return nullptr;
    }

    Value
    lookupName(std::string_view name)
    {
        if (const Value *value = findName(name))
            return *value;
        fatal("SeerLang emission: unbound name '" + std::string(name) +
              "'");
    }

    std::optional<Value>
    vnLookup(const VnKey &key)
    {
        for (auto it = vn_.rbegin(); it != vn_.rend(); ++it) {
            auto found = it->find(key);
            if (found != it->end())
                return found->second;
        }
        return std::nullopt;
    }

    void
    emitStatement(const TermPtr &term, OpBuilder &builder)
    {
        Symbol op = term->op();
        std::string_view name = opNameOf(op);
        if (name == "nop")
            return;
        if (name == "seq") {
            emitStatement(term->child(0), builder);
            emitStatement(term->child(1), builder);
            return;
        }
        if (name == "memref.load" || name == "memref.alloc") {
            emitValue(term, builder);
            return;
        }
        if (name == "memref.store") {
            emitStore(term, builder);
            return;
        }
        if (name == "affine.for") {
            emitFor(term, builder);
            return;
        }
        if (name == "scf.if") {
            emitIf(term, builder);
            return;
        }
        if (name == "scf.while") {
            emitWhile(term, builder);
            return;
        }
        fatal("SeerLang emission: '" + std::string(name) +
              "' is not a statement operator");
    }

    void
    emitStore(const TermPtr &term, OpBuilder &builder)
    {
        std::string_view tag = eg::splitSymbol(term->op())[1];
        if (!emitted_stores_.insert(tag).second)
            return; // already materialized at an earlier chain position
        Value value = emitValue(term->child(0), builder);
        Value memref = emitValue(term->child(1), builder);
        std::vector<Value> indices;
        for (size_t i = 2; i < term->arity(); ++i)
            indices.push_back(emitValue(term->child(i), builder));
        builder.store(value, memref, indices);
    }

    /**
     * Turn a bound term into an AffineBound: decompose linear structure
     * when present; otherwise emit the whole expression as one value.
     */
    AffineBound
    emitBound(const TermPtr &term, OpBuilder &builder)
    {
        Symbol op = term->op();
        if (auto constant = decodeIntConst(op))
            return AffineBound::fromConstant(constant->first);
        std::string_view name = opNameOf(op);
        if (name == ir::opnames::kAddI) {
            AffineBound lhs = emitBound(term->child(0), builder);
            AffineBound rhs = emitBound(term->child(1), builder);
            AffineBound out;
            out.constant = lhs.constant + rhs.constant;
            out.terms = lhs.terms;
            out.terms.insert(out.terms.end(), rhs.terms.begin(),
                             rhs.terms.end());
            return out;
        }
        if (name == ir::opnames::kMulI) {
            auto c0 = decodeIntConst(term->child(0)->op());
            auto c1 = decodeIntConst(term->child(1)->op());
            if (c1 && !c0) {
                AffineBound base = emitBound(term->child(0), builder);
                AffineBound out;
                out.constant = base.constant * c1->first;
                for (auto &[v, coeff] : base.terms)
                    out.terms.emplace_back(v, coeff * c1->first);
                return out;
            }
            if (c0 && !c1) {
                AffineBound base = emitBound(term->child(1), builder);
                AffineBound out;
                out.constant = base.constant * c0->first;
                for (auto &[v, coeff] : base.terms)
                    out.terms.emplace_back(v, coeff * c0->first);
                return out;
            }
        }
        // Fallback: a single opaque index value.
        return AffineBound::fromValue(emitValue(term, builder));
    }

    void
    emitFor(const TermPtr &term, OpBuilder &builder)
    {
        auto fields = eg::splitSymbol(term->op());
        std::string iv_name(fields[1]);
        std::string loop_id(fields[2]);

        AffineBound lb = emitBound(term->child(0), builder);
        AffineBound ub = emitBound(term->child(1), builder);
        auto step = decodeIntConst(term->child(2)->op());
        if (!step)
            fatal("SeerLang emission: non-constant loop step");

        Operation *loop =
            builder.affineFor(lb, ub, step->first, iv_name);
        loop->setAttr("seer.loop_id", Attribute(loop_id));
        Block &body = loop->region(0).block();
        // An iv that rebinds an outer name (outer iv or function arg)
        // changes what a memoized subterm reading that name means:
        // emit this body without the memo.
        bool shadows = findName(iv_name) != nullptr;
        shadowing_ += shadows;
        pushScope();
        scopes_.back()[iv_name] = body.arg(0);
        OpBuilder body_builder = OpBuilder::atEnd(body);
        emitStatement(term->child(3), body_builder);
        body_builder.create(ir::opnames::kAffineYield, {}, {});
        popScope();
        shadowing_ -= shadows;
    }

    void
    emitIf(const TermPtr &term, OpBuilder &builder)
    {
        Value cond = emitValue(term->child(0), builder);
        Operation *if_op = builder.scfIf(cond);
        for (int branch = 0; branch < 2; ++branch) {
            pushScope();
            OpBuilder branch_builder =
                OpBuilder::atEnd(if_op->region(branch).block());
            emitStatement(term->child(1 + branch), branch_builder);
            branch_builder.create(ir::opnames::kYield, {}, {});
            popScope();
        }
    }

    void
    emitWhile(const TermPtr &term, OpBuilder &builder)
    {
        Operation *while_op = builder.scfWhile();
        pushScope();
        OpBuilder cond_builder =
            OpBuilder::atEnd(while_op->region(0).block());
        emitStatement(term->child(0), cond_builder);
        Value cond = emitValue(term->child(1), cond_builder);
        cond_builder.create(ir::opnames::kCondition, {cond}, {});
        popScope();
        pushScope();
        OpBuilder body_builder =
            OpBuilder::atEnd(while_op->region(1).block());
        emitStatement(term->child(2), body_builder);
        body_builder.create(ir::opnames::kYield, {}, {});
        popScope();
    }

    /**
     * Emit a value term, reusing the value of an earlier emission of
     * the same node when that entry is still in scope. Sound because
     * re-emitting a node creates no op: its children resolve to the
     * same values (names, tags, memo entries, all still visible), so
     * its own value-number or tag lookup hits. Only a rebound name
     * breaks that, and emitFor turns the memo off under a rebinding.
     */
    Value
    emitValue(const TermPtr &term, OpBuilder &builder)
    {
        if (shadowing_ > 0)
            return emitValueOnce(term, builder);
        const Term *node = term.get();
        for (auto it = memo_.rbegin(); it != memo_.rend(); ++it) {
            auto found = it->find(node);
            if (found != it->end())
                return found->second;
        }
        Value value = emitValueOnce(term, builder);
        memo_.back().emplace(node, value);
        return value;
    }

    Value
    emitValueOnce(const TermPtr &term, OpBuilder &builder)
    {
        Symbol op = term->op();
        if (auto constant = decodeIntConst(op)) {
            VnKey key{op, {}};
            if (auto hit = vnLookup(key))
                return *hit;
            Value v =
                builder.intConstant(constant->second, constant->first);
            vn_.back()[key] = v;
            return v;
        }
        if (auto constant = decodeFloatConst(op)) {
            VnKey key{op, {}};
            if (auto hit = vnLookup(key))
                return *hit;
            Value v = builder.floatConstant(*constant);
            vn_.back()[key] = v;
            return v;
        }
        if (auto arg = decodeArg(op))
            return lookupName(arg->first);
        if (auto var = decodeVar(op))
            return lookupName(*var);

        auto fields = eg::splitSymbol(op).subspan(1);
        std::string_view name = opNameOf(op);

        if (name == "memref.load") {
            std::string_view tag = fields[0];
            auto it = tagged_.find(tag);
            if (it != tagged_.end())
                return it->second;
            Value memref = emitValue(term->child(0), builder);
            std::vector<Value> indices;
            for (size_t i = 1; i < term->arity(); ++i)
                indices.push_back(emitValue(term->child(i), builder));
            Value v = builder.load(memref, indices);
            tagged_[tag] = v;
            return v;
        }
        if (name == "memref.alloc") {
            std::string_view tag = fields[1];
            auto it = tagged_.find(tag);
            if (it != tagged_.end())
                return it->second;
            // Buffers live at function scope: emit at the entry so
            // every region (and every clone a pass makes of the
            // referencing code) sees the same buffer.
            OpBuilder entry_builder =
                entry_block_->empty()
                    ? OpBuilder::atEnd(*entry_block_)
                    : OpBuilder::before(&entry_block_->front());
            Value v = entry_builder.alloc(parseType(fields[0]));
            v.definingOp()->setAttr("seer.tag",
                                    Attribute(std::string(tag)));
            tagged_[tag] = v;
            return v;
        }
        if (isStatementSymbol(op)) {
            fatal("SeerLang emission: statement operator '" +
                  std::string(name) + "' in value position");
        }

        // Generic value op: children first, then value-number.
        std::vector<Value> operands;
        operands.reserve(term->arity());
        for (const auto &child : term->children())
            operands.push_back(emitValue(child, builder));
        std::vector<ValueImpl *> key_operands;
        for (Value operand : operands)
            key_operands.push_back(operand.impl());
        VnKey key{op, key_operands};
        if (auto hit = vnLookup(key))
            return *hit;

        Value result;
        if (name == ir::opnames::kCmpI || name == ir::opnames::kCmpF) {
            Operation *cmp = builder.create(name, std::move(operands),
                                            {Type::i1()});
            cmp->setAttr("predicate", Attribute(std::string(fields[0])));
            result = cmp->result();
        } else if (fields.size() == 2) {
            // Cast: fields are (from, to).
            result = builder
                         .create(name, std::move(operands),
                                 {parseType(fields[1])})
                         ->result();
        } else {
            SEER_ASSERT(fields.size() == 1,
                        "unexpected symbol encoding: " << op.str());
            result = builder
                         .create(name, std::move(operands),
                                 {parseType(fields[0])})
                         ->result();
        }
        vn_.back()[key] = result;
        return result;
    }

    ir::Block *entry_block_ = nullptr;
    std::vector<std::map<std::string, Value, std::less<>>> scopes_;
    std::vector<std::map<VnKey, Value>> vn_;
    /** Per scope, like vn_: each value node's value. */
    std::vector<std::unordered_map<const Term *, Value>> memo_;
    /** Loop bodies open whose iv rebinds an outer name. */
    int shadowing_ = 0;
    // Tags are views into interned symbol text.
    std::map<std::string_view, Value> tagged_;
    std::set<std::string_view> emitted_stores_;
};

} // namespace

EmitSpec
inferSpec(const TermPtr &term, const std::string &func_name)
{
    FreeLeafCollector leaves;
    leaves.run(term.get());
    EmitSpec spec;
    spec.func_name = func_name;
    for (const auto &[name, type] : leaves.args)
        spec.args.emplace_back(std::string(name), type);
    for (std::string_view name : leaves.free_vars) {
        spec.args.emplace_back(std::string(name), Type::index());
        if (!leaves.args.count(name))
            spec.free_vars.emplace_back(name);
    }
    return spec;
}

Module
termToFunc(const TermPtr &term, const EmitSpec &spec)
{
    return Emitter().run(term, spec);
}

} // namespace seer::sl
