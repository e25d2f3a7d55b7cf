#include "passes/transform_utils.h"

#include "ir/ops.h"
#include "support/error.h"

namespace seer::passes {

using namespace ir;

void
inlineLoopBody(Operation &src_loop, Block &dst_block, Value new_iv)
{
    Block &src = src_loop.region(0).block();
    std::map<ValueImpl *, Value> mapping;
    mapping[src.arg(0).impl()] = new_iv;

    // Insert before the destination terminator if one exists.
    auto pos = dst_block.ops().end();
    if (!dst_block.empty() && isTerminator(dst_block.back()))
        --pos;
    for (const auto &op : src.ops()) {
        if (isTerminator(*op))
            continue;
        dst_block.insert(pos, cloneOp(*op, mapping));
    }
}

void
eraseOp(Operation *op)
{
    Block *parent = op->parentBlock();
    SEER_ASSERT(parent, "eraseOp on detached op");
    auto it = parent->find(op);
    SEER_ASSERT(it != parent->ops().end(), "op not in its parent block");
    parent->erase(it);
}

bool
sameAddress(const Operation &a, const Operation &b)
{
    size_t mem_a = isa(a, opnames::kStore) ? 1 : 0;
    size_t mem_b = isa(b, opnames::kStore) ? 1 : 0;
    if (a.operand(mem_a) != b.operand(mem_b))
        return false;
    size_t rank = a.numOperands() - mem_a - 1;
    if (b.numOperands() - mem_b - 1 != rank)
        return false;
    for (size_t d = 0; d < rank; ++d) {
        Value ia = a.operand(mem_a + 1 + d);
        Value ib = b.operand(mem_b + 1 + d);
        if (ia == ib)
            continue;
        auto ea = analyzeAffine(ia);
        auto eb = analyzeAffine(ib);
        if (!ea || !eb || !(*ea == *eb))
            return false;
    }
    return true;
}

size_t
numRealOps(const Block &block)
{
    size_t n = 0;
    for (const auto &op : block.ops()) {
        if (!isTerminator(*op))
            ++n;
    }
    return n;
}

} // namespace seer::passes
