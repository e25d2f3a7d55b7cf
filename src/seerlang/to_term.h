/**
 * @file
 * IR -> SeerLang translation (the SEER front end of Section 4.2).
 *
 * Blocks become right-associated `seq` chains over the effectful
 * statements; pure arithmetic is reconstructed into expression trees
 * that consumers embed (hash-consing in the e-graph recovers sharing).
 * Memory operations are tagged so program order is preserved exactly —
 * the paper's "assume a dependence between every two memory operations".
 */
#ifndef SEER_SEERLANG_TO_TERM_H_
#define SEER_SEERLANG_TO_TERM_H_

#include <map>

#include "egraph/term.h"
#include "ir/op.h"

namespace seer::sl {

/** Result of translating a function to SeerLang. */
struct Translation
{
    eg::TermPtr term; ///< the func:<name> root term
    /** Loop id -> source loop op (borrowed; valid while the IR lives). */
    std::map<std::string, ir::Operation *> loops;
    /** Function signature in argument order. */
    std::vector<std::pair<std::string, ir::Type>> args;
    std::string func_name;
};

/**
 * Translate a func.func into a SeerLang term. Throws FatalError on
 * constructs SeerLang does not model (value-yielding scf.if — run
 * if-conversion first — function calls, or functions returning values).
 */
Translation funcToTerm(ir::Operation &func);

} // namespace seer::sl

#endif // SEER_SEERLANG_TO_TERM_H_
