#include "ir/op.h"

#include <bit>
#include <unordered_map>

#include "support/error.h"

namespace seer::ir {

// --- Region -------------------------------------------------------------

Block &
Region::block()
{
    if (blocks_.empty())
        addBlock();
    return *blocks_.front();
}

const Block &
Region::block() const
{
    SEER_ASSERT(!blocks_.empty(), "region has no block");
    return *blocks_.front();
}

Block &
Region::addBlock()
{
    blocks_.push_back(std::make_unique<Block>(this));
    return *blocks_.back();
}

// --- Operation ------------------------------------------------------------

std::string
Operation::dialect() const
{
    const std::string &n = nameStr();
    auto dot = n.find('.');
    return dot == std::string::npos ? n : n.substr(0, dot);
}

std::vector<Value>
Operation::results() const
{
    std::vector<Value> out;
    out.reserve(results_.size());
    for (const auto &r : results_)
        out.push_back(Value(r.get()));
    return out;
}

Value
Operation::addResult(Type type)
{
    results_.push_back(std::make_unique<ValueImpl>(
        type, this, nullptr, static_cast<unsigned>(results_.size())));
    return Value(results_.back().get());
}

const Attribute &
Operation::attr(const std::string &key) const
{
    auto it = attrs_.find(key);
    SEER_ASSERT(it != attrs_.end(),
                "op " << nameStr() << " missing attribute '" << key << "'");
    return it->second;
}

Region &
Operation::addRegion()
{
    regions_.push_back(std::make_unique<Region>(this));
    return *regions_.back();
}

Operation *
Operation::parentOp() const
{
    if (!parent_ || !parent_->parentRegion())
        return nullptr;
    return parent_->parentRegion()->parentOp();
}

bool
Operation::isInside(const Operation *ancestor) const
{
    for (const Operation *op = parentOp(); op; op = op->parentOp()) {
        if (op == ancestor)
            return true;
    }
    return false;
}

// --- Block ----------------------------------------------------------------

Value
Block::addArg(Type type, std::string name_hint)
{
    args_.push_back(std::make_unique<ValueImpl>(
        type, nullptr, this, static_cast<unsigned>(args_.size())));
    args_.back()->setNameHint(std::move(name_hint));
    return Value(args_.back().get());
}

Operation *
Block::push_back(Operation::Ptr op)
{
    op->setParentBlock(this);
    ops_.push_back(std::move(op));
    return ops_.back().get();
}

Operation *
Block::insert(iterator pos, Operation::Ptr op)
{
    op->setParentBlock(this);
    auto it = ops_.insert(pos, std::move(op));
    return it->get();
}

Block::iterator
Block::erase(iterator pos)
{
    return ops_.erase(pos);
}

Operation::Ptr
Block::take(iterator pos)
{
    Operation::Ptr op = std::move(*pos);
    ops_.erase(pos);
    op->setParentBlock(nullptr);
    return op;
}

Block::iterator
Block::find(Operation *op)
{
    for (auto it = ops_.begin(); it != ops_.end(); ++it) {
        if (it->get() == op)
            return it;
    }
    return ops_.end();
}

// --- Module -----------------------------------------------------------

Operation *
Module::push_back(Operation::Ptr op)
{
    ops_.push_back(std::move(op));
    return ops_.back().get();
}

Operation *
Module::lookupFunc(const std::string &name) const
{
    for (const auto &op : ops_) {
        if (op->nameStr() == "func.func" && op->hasAttr("sym_name") &&
            op->strAttr("sym_name") == name) {
            return op.get();
        }
    }
    return nullptr;
}

Operation *
Module::firstFunc() const
{
    for (const auto &op : ops_) {
        if (op->nameStr() == "func.func")
            return op.get();
    }
    return nullptr;
}

// --- Cloning ------------------------------------------------------------

namespace {

void
cloneBlockInto(const Block &src, Block &dst,
               std::map<ValueImpl *, Value> &mapping)
{
    for (size_t i = 0; i < src.numArgs(); ++i) {
        Value old_arg = src.arg(i);
        Value new_arg =
            dst.addArg(old_arg.type(), old_arg.impl()->nameHint());
        mapping[old_arg.impl()] = new_arg;
    }
    for (const auto &op : src.ops())
        dst.push_back(cloneOp(*op, mapping));
}

} // namespace

Operation::Ptr
cloneOp(const Operation &op, std::map<ValueImpl *, Value> &mapping)
{
    auto clone = std::make_unique<Operation>(op.name());
    for (Value operand : op.operands()) {
        auto it = mapping.find(operand.impl());
        clone->addOperand(it != mapping.end() ? it->second : operand);
    }
    for (size_t i = 0; i < op.numResults(); ++i) {
        Value old_res = op.result(i);
        Value new_res = clone->addResult(old_res.type());
        new_res.impl()->setNameHint(old_res.impl()->nameHint());
        mapping[old_res.impl()] = new_res;
    }
    for (const auto &[key, value] : op.attrs())
        clone->setAttr(key, value);
    for (size_t i = 0; i < op.numRegions(); ++i) {
        Region &new_region = clone->addRegion();
        if (!op.region(i).empty())
            cloneBlockInto(op.region(i).block(), new_region.block(),
                           mapping);
    }
    return clone;
}

Module
cloneModule(const Module &module)
{
    Module out;
    std::map<ValueImpl *, Value> mapping;
    for (const auto &op : module.ops())
        out.push_back(cloneOp(*op, mapping));
    return out;
}

// --- Replace-uses and walking -------------------------------------------

void
replaceAllUsesIn(Operation &root, Value from, Value to)
{
    walk(root, [&](Operation &op) {
        for (size_t i = 0; i < op.numOperands(); ++i) {
            if (op.operand(i) == from)
                op.setOperand(i, to);
        }
    });
}

void
replaceAllUsesIn(Block &root, Value from, Value to)
{
    walk(root, [&](Operation &op) {
        for (size_t i = 0; i < op.numOperands(); ++i) {
            if (op.operand(i) == from)
                op.setOperand(i, to);
        }
    });
}

void
walk(Operation &root, const std::function<void(Operation &)> &fn)
{
    fn(root);
    for (size_t i = 0; i < root.numRegions(); ++i) {
        if (!root.region(i).empty())
            walk(root.region(i).block(), fn);
    }
}

void
walk(Block &root, const std::function<void(Operation &)> &fn)
{
    // Snapshot pointers so fn may erase/insert other ops; callers that
    // delete ops must only delete ops they have not yet visited or the
    // currently visited one via returned iterators.
    for (auto it = root.ops().begin(); it != root.ops().end();) {
        Operation *op = it->get();
        ++it;
        walk(*op, fn);
    }
}

void
walk(const Module &module, const std::function<void(Operation &)> &fn)
{
    for (const auto &op : module.ops())
        walk(*op, fn);
}

void
walkPruned(Operation &root, const std::function<bool(Operation &)> &fn)
{
    if (!fn(root))
        return;
    for (size_t i = 0; i < root.numRegions(); ++i) {
        if (root.region(i).empty())
            continue;
        for (auto it = root.region(i).block().ops().begin();
             it != root.region(i).block().ops().end();) {
            Operation *op = it->get();
            ++it;
            walkPruned(*op, fn);
        }
    }
}

size_t
countOps(const Module &module)
{
    size_t n = 0;
    walk(module, [&](Operation &) { ++n; });
    return n;
}

// --- Structural identity ------------------------------------------------

namespace {

/** Attribute equality as the interpreter reads it: a float compares by
 *  its bits, so -0.0 differs from 0.0 and a NaN matches itself. */
bool
sameAttribute(const Attribute &a, const Attribute &b)
{
    if (a.isFloat() && b.isFloat()) {
        return std::bit_cast<uint64_t>(a.asFloat()) ==
               std::bit_cast<uint64_t>(b.asFloat());
    }
    return a == b;
}

/** `seer.` attributes annotate ops for the SEER flow (loop ids, buffer
 *  tags, scheduling hints); the interpreter never reads them. */
bool
isAnnotation(const std::string &key)
{
    return key.starts_with("seer.");
}

bool
sameAttributes(const AttrMap &a, const AttrMap &b)
{
    auto ia = a.begin(), ib = b.begin();
    while (true) {
        while (ia != a.end() && isAnnotation(ia->first))
            ++ia;
        while (ib != b.end() && isAnnotation(ib->first))
            ++ib;
        if (ia == a.end() || ib == b.end())
            return ia == a.end() && ib == b.end();
        if (ia->first != ib->first ||
            !sameAttribute(ia->second, ib->second))
            return false;
        ++ia;
        ++ib;
    }
}

/** The lockstep walk behind identical(). `values_` maps each lhs value
 *  to the rhs value defined at the same point of the walk. */
class IdentityWalk
{
  public:
    bool
    sameOps(const Block::OpList &a, const Block::OpList &b)
    {
        if (a.size() != b.size())
            return false;
        for (auto ia = a.begin(), ib = b.begin(); ia != a.end();
             ++ia, ++ib) {
            if (!sameOp(**ia, **ib))
                return false;
        }
        return true;
    }

  private:
    bool
    sameOp(const Operation &a, const Operation &b)
    {
        if (a.name() != b.name() || a.numOperands() != b.numOperands() ||
            a.numResults() != b.numResults() ||
            a.numRegions() != b.numRegions() ||
            !sameAttributes(a.attrs(), b.attrs()))
            return false;
        for (size_t i = 0; i < a.numOperands(); ++i) {
            auto it = values_.find(a.operand(i).impl());
            if (it == values_.end() || it->second != b.operand(i).impl())
                return false;
        }
        for (size_t i = 0; i < a.numResults(); ++i) {
            if (a.result(i).type() != b.result(i).type())
                return false;
            values_.emplace(a.result(i).impl(), b.result(i).impl());
        }
        for (size_t i = 0; i < a.numRegions(); ++i) {
            const Region &ra = a.region(i), &rb = b.region(i);
            if (ra.empty() != rb.empty())
                return false;
            if (!ra.empty() && !sameBlock(ra.block(), rb.block()))
                return false;
        }
        return true;
    }

    bool
    sameBlock(const Block &a, const Block &b)
    {
        if (a.numArgs() != b.numArgs())
            return false;
        for (size_t i = 0; i < a.numArgs(); ++i) {
            if (a.arg(i).type() != b.arg(i).type())
                return false;
            values_.emplace(a.arg(i).impl(), b.arg(i).impl());
        }
        return sameOps(a.ops(), b.ops());
    }

    std::unordered_map<const ValueImpl *, const ValueImpl *> values_;
};

} // namespace

bool
identical(const Module &lhs, const Module &rhs)
{
    return IdentityWalk().sameOps(lhs.ops(), rhs.ops());
}

} // namespace seer::ir
