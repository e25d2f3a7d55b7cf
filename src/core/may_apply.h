/**
 * @file
 * May-apply screens: tests on an external rule's candidate term that
 * tell, without lowering it, when the rule's pass would decline it.
 *
 * Each screen answers false only when the pass returns false on the
 * snippet function the term lowers to (sl::inferSpec + sl::termToFunc).
 * Wherever a screen cannot tell, it answers true ("may apply"): a
 * candidate screened in is evaluated as before, so a screen can waste
 * work but never change an outcome. tests/core_may_apply_test.cc checks
 * each screen against its pass.
 */
#ifndef SEER_CORE_MAY_APPLY_H_
#define SEER_CORE_MAY_APPLY_H_

#include "egraph/term.h"

namespace seer::core {

/**
 * May passes::forwardMemory change the snippet `term` lowers to? The
 * screen replays the pass on the term: it visits memory operations in
 * the order the emitter creates them, one straight-line block at a
 * time, and keeps the pass's per-block state (available accesses,
 * stores not yet read) with its address tests. True at the first load
 * that may be forwarded or store that may kill an earlier one.
 */
bool mayForwardMemory(const eg::TermPtr &term);

/** Does the term hold an scf.if? passes::convertIf and
 *  passes::muxControlFlow need one. */
bool hasIfStatement(const eg::TermPtr &term);

/** Does some affine.for of the term hold another in its body? The
 *  nest passes (interchange, flatten, perfection, inner unrolling)
 *  need one inside the snippet's first loop. */
bool hasNestedLoop(const eg::TermPtr &term);

} // namespace seer::core

#endif // SEER_CORE_MAY_APPLY_H_
