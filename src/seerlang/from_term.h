/**
 * @file
 * SeerLang -> IR translation (the SEER back end).
 *
 * Emits a single func.func from a func:<name> term, or a synthetic
 * "snippet" function from any statement term (used by the dynamic
 * rewrites to hand a matched sub-program to an external pass). Free
 * `arg:` and `var:` leaves become function arguments.
 *
 * Terms are often hash-consed DAGs. Both entry points cost one visit
 * per distinct subterm (per binder context), not one per tree path.
 */
#ifndef SEER_SEERLANG_FROM_TERM_H_
#define SEER_SEERLANG_FROM_TERM_H_

#include "egraph/term.h"
#include "ir/op.h"

namespace seer::sl {

/** Function signature for emission. */
struct EmitSpec
{
    std::string func_name;
    std::vector<std::pair<std::string, ir::Type>> args;
    /** The arg names that come from free var:<name> leaves no
     *  arg:<name> leaf names, sorted. Filled by inferSpec; snippet
     *  re-entry turns these index args back into vars. */
    std::vector<std::string> free_vars = {};
};

/**
 * Infer a snippet signature from the free leaves of `term`: every
 * distinct arg:<name>:<type> (sorted by name), then every var:<name>
 * not bound by an enclosing affine.for (sorted by name; free vars
 * become index arguments). One walk visits each (subterm, enclosing
 * loop-body context) pair once, so a shared subterm is not re-walked,
 * yet a var leaf free in one place and bound in another is classified
 * in both. Throws FatalError when an arg name is used at two types.
 */
EmitSpec inferSpec(const eg::TermPtr &term, const std::string &func_name);

/**
 * Emit `term` as a module holding one function. `term` is either a
 * func:<name> root (body = child 0) or a bare statement term. A value
 * subterm met again where its first emission is still in scope reuses
 * that value (memoized per scope by node), so a shared DAG emits in
 * time linear in its distinct nodes; the IR is the one a tree walk
 * gives. Throws FatalError on malformed terms.
 */
ir::Module termToFunc(const eg::TermPtr &term, const EmitSpec &spec);

} // namespace seer::sl

#endif // SEER_SEERLANG_FROM_TERM_H_
