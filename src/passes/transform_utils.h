/**
 * @file
 * Shared helpers for IR-mutating transformations.
 */
#ifndef SEER_PASSES_TRANSFORM_UTILS_H_
#define SEER_PASSES_TRANSFORM_UTILS_H_

#include <optional>

#include "ir/analysis.h"
#include "ir/builder.h"

namespace seer::passes {

/**
 * Clone the non-terminator body ops of `src_loop` to the end of
 * `dst_block` (before its terminator if present), substituting
 * `src_loop`'s induction variable with `new_iv`.
 */
void inlineLoopBody(ir::Operation &src_loop, ir::Block &dst_block,
                    ir::Value new_iv);

/** Erase an op from its parent block. */
void eraseOp(ir::Operation *op);

/** True if two index operand lists refer to provably equal addresses. */
bool sameAddress(const ir::Operation &a, const ir::Operation &b);

/** Number of non-terminator ops in a block. */
size_t numRealOps(const ir::Block &block);

} // namespace seer::passes

#endif // SEER_PASSES_TRANSFORM_UTILS_H_
