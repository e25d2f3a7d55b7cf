/**
 * @file
 * Core IR graph: values, operations, blocks, regions, modules.
 *
 * A deliberately compact re-implementation of MLIR's structural core.
 * Operations are generic (identified by an interned name such as
 * "arith.addi") and carry operands, owned results, an attribute dictionary
 * and owned regions. All control flow is structured: every region holds
 * exactly one block and blocks have no successors.
 */
#ifndef SEER_IR_OP_H_
#define SEER_IR_OP_H_

#include <functional>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/attribute.h"
#include "ir/type.h"
#include "support/symbol.h"

namespace seer::ir {

class Operation;
class Block;
class Region;

/**
 * Backing storage for an SSA value: either an operation result or a block
 * argument. Stable address for the lifetime of its owner.
 */
class ValueImpl
{
  public:
    ValueImpl(Type type, Operation *def_op, Block *owner_block,
              unsigned index)
        : type_(type), defOp_(def_op), ownerBlock_(owner_block),
          index_(index)
    {}

    Type type() const { return type_; }
    void setType(Type t) { type_ = t; }

    /** Defining op, or nullptr for block arguments. */
    Operation *definingOp() const { return defOp_; }

    /** Owning block for block arguments, else nullptr. */
    Block *ownerBlock() const { return ownerBlock_; }

    /** Result index / argument index within the owner. */
    unsigned index() const { return index_; }

    /** Printer name hint (without the leading %); may be empty. */
    const std::string &nameHint() const { return nameHint_; }
    void setNameHint(std::string hint) { nameHint_ = std::move(hint); }

  private:
    Type type_;
    Operation *defOp_;
    Block *ownerBlock_;
    unsigned index_;
    std::string nameHint_;
};

/** A lightweight SSA value handle. */
class Value
{
  public:
    Value() : impl_(nullptr) {}
    explicit Value(ValueImpl *impl) : impl_(impl) {}

    explicit operator bool() const { return impl_ != nullptr; }
    bool operator==(const Value &o) const { return impl_ == o.impl_; }
    bool operator!=(const Value &o) const { return impl_ != o.impl_; }
    bool operator<(const Value &o) const { return impl_ < o.impl_; }

    Type type() const { return impl_->type(); }
    Operation *definingOp() const { return impl_->definingOp(); }
    Block *ownerBlock() const { return impl_->ownerBlock(); }
    bool isBlockArgument() const { return impl_->ownerBlock() != nullptr; }
    ValueImpl *impl() const { return impl_; }

  private:
    ValueImpl *impl_;
};

/** A region: an owned list of blocks (always exactly one in this IR). */
class Region
{
  public:
    explicit Region(Operation *parent = nullptr) : parent_(parent) {}

    Operation *parentOp() const { return parent_; }
    void setParentOp(Operation *op) { parent_ = op; }

    bool empty() const { return blocks_.empty(); }

    /** The single block; creates it on first access. */
    Block &block();
    const Block &block() const;

    /** Append a new empty block (used by clone/parse). */
    Block &addBlock();

  private:
    Operation *parent_;
    std::vector<std::unique_ptr<Block>> blocks_;
};

/** An operation: the unit of IR semantics. */
class Operation
{
  public:
    using Ptr = std::unique_ptr<Operation>;

    explicit Operation(Symbol name) : name_(name) {}
    Operation(const Operation &) = delete;
    Operation &operator=(const Operation &) = delete;

    Symbol name() const { return name_; }
    const std::string &nameStr() const { return name_.str(); }

    /** Dialect prefix, e.g. "arith" for "arith.addi". */
    std::string dialect() const;

    // --- Operands ------------------------------------------------------
    size_t numOperands() const { return operands_.size(); }
    Value operand(size_t i) const { return operands_[i]; }
    const std::vector<Value> &operands() const { return operands_; }
    void setOperand(size_t i, Value v) { operands_[i] = v; }
    void addOperand(Value v) { operands_.push_back(v); }
    void setOperands(std::vector<Value> vs) { operands_ = std::move(vs); }

    // --- Results -------------------------------------------------------
    size_t numResults() const { return results_.size(); }
    Value result(size_t i = 0) const { return Value(results_[i].get()); }
    std::vector<Value> results() const;
    Value addResult(Type type);

    // --- Attributes ----------------------------------------------------
    const AttrMap &attrs() const { return attrs_; }
    bool hasAttr(const std::string &key) const { return attrs_.count(key); }
    const Attribute &attr(const std::string &key) const;
    void setAttr(const std::string &key, Attribute value)
    {
        attrs_[key] = std::move(value);
    }
    void removeAttr(const std::string &key) { attrs_.erase(key); }

    int64_t intAttr(const std::string &key) const
    {
        return attr(key).asInt();
    }
    const std::string &strAttr(const std::string &key) const
    {
        return attr(key).asString();
    }

    // --- Regions -------------------------------------------------------
    size_t numRegions() const { return regions_.size(); }
    Region &region(size_t i = 0) { return *regions_[i]; }
    const Region &region(size_t i = 0) const { return *regions_[i]; }
    Region &addRegion();

    // --- Structure -----------------------------------------------------
    Block *parentBlock() const { return parent_; }
    void setParentBlock(Block *b) { parent_ = b; }

    /** The op owning the block this op lives in, or nullptr at top level. */
    Operation *parentOp() const;

    /** True if `this` is inside (possibly nested in) `ancestor`. */
    bool isInside(const Operation *ancestor) const;

  private:
    Symbol name_;
    std::vector<Value> operands_;
    std::vector<std::unique_ptr<ValueImpl>> results_;
    AttrMap attrs_;
    std::vector<std::unique_ptr<Region>> regions_;
    Block *parent_ = nullptr;
};

/** A basic block: owned arguments and an owned op list. */
class Block
{
  public:
    using OpList = std::list<Operation::Ptr>;
    using iterator = OpList::iterator;

    explicit Block(Region *parent = nullptr) : parent_(parent) {}

    Region *parentRegion() const { return parent_; }
    void setParentRegion(Region *r) { parent_ = r; }

    // --- Arguments -----------------------------------------------------
    size_t numArgs() const { return args_.size(); }
    Value arg(size_t i) const { return Value(args_[i].get()); }
    Value addArg(Type type, std::string name_hint = "");

    // --- Operations ----------------------------------------------------
    OpList &ops() { return ops_; }
    const OpList &ops() const { return ops_; }
    bool empty() const { return ops_.empty(); }
    size_t size() const { return ops_.size(); }
    Operation &front() { return *ops_.front(); }
    Operation &back() { return *ops_.back(); }

    /** Append an op, taking ownership. Returns the raw pointer. */
    Operation *push_back(Operation::Ptr op);

    /** Insert before `pos`, taking ownership. */
    Operation *insert(iterator pos, Operation::Ptr op);

    /** Remove and destroy the op at `pos`; returns the next iterator. */
    iterator erase(iterator pos);

    /** Remove without destroying; caller takes ownership. */
    Operation::Ptr take(iterator pos);

    /** Find the list position of an op owned by this block. */
    iterator find(Operation *op);

  private:
    Region *parent_;
    std::vector<std::unique_ptr<ValueImpl>> args_;
    OpList ops_;
};

/** A module: a list of top-level ops (func.func definitions). */
class Module
{
  public:
    Module() = default;
    Module(const Module &) = delete;
    Module &operator=(const Module &) = delete;
    Module(Module &&) = default;
    Module &operator=(Module &&) = default;

    Block::OpList &ops() { return ops_; }
    const Block::OpList &ops() const { return ops_; }

    Operation *push_back(Operation::Ptr op);

    /** Find a func.func by symbol name; nullptr if absent. */
    Operation *lookupFunc(const std::string &name) const;

    /** The first (often only) function in the module. */
    Operation *firstFunc() const;

  private:
    Block::OpList ops_;
};

// --- Utilities ---------------------------------------------------------

/** Deep-clone an op, mapping operands through `mapping` when present. */
Operation::Ptr cloneOp(const Operation &op,
                       std::map<ValueImpl *, Value> &mapping);

/** Deep-clone a whole module. */
Module cloneModule(const Module &module);

/** Replace all uses of `from` with `to` inside `root` (recursively). */
void replaceAllUsesIn(Operation &root, Value from, Value to);
void replaceAllUsesIn(Block &root, Value from, Value to);

/** Walk every op nested under `root` (pre-order). */
void walk(Operation &root, const std::function<void(Operation &)> &fn);
void walk(Block &root, const std::function<void(Operation &)> &fn);
void walk(const Module &module, const std::function<void(Operation &)> &fn);

/** Walk with early exit: return false from fn to stop descending. */
void walkPruned(Operation &root,
                const std::function<bool(Operation &)> &fn);

/** Count all ops nested under the module (for stats). */
size_t countOps(const Module &module);

/**
 * True when the two modules are the same program: the same ops in the
 * same order, with equal names, attributes (floats compared bit for
 * bit), result types, block-argument types and region shapes, and
 * operands that name corresponding values. Values correspond by where
 * the lockstep walk defines them. Name hints and `seer.` annotation
 * attributes (loop ids, buffer tags, scheduling hints) are ignored:
 * neither changes what the program computes. Exits at the first
 * difference and builds no strings.
 */
bool identical(const Module &lhs, const Module &rhs);

} // namespace seer::ir

#endif // SEER_IR_OP_H_
