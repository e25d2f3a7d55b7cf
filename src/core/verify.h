/**
 * @file
 * Translation validation (Section 4.7).
 *
 * The paper decomposes "original == optimized" into one equivalence
 * check per applied rewrite, each discharged by a commercial checker.
 * Here every recorded union (rule name + concrete lhs/rhs terms) is
 * checked by emitting both sides as snippet functions and co-executing
 * them on matched deterministic-random inputs; an end-to-end module
 * check closes the chain. A failing record names the offending rule.
 */
#ifndef SEER_CORE_VERIFY_H_
#define SEER_CORE_VERIFY_H_

#include <chrono>
#include <optional>

#include "core/seer.h"
#include "support/exec_context.h"
#include "support/rng.h"

namespace seer::core {

struct VerifyOptions
{
    int runs = 4;             ///< random input vectors per check
    uint64_t seed = 0x5EEE;   ///< base RNG seed
    uint64_t max_steps = 20'000'000; ///< interpreter budget per run
    size_t max_failures = 8;  ///< stop collecting after this many
    /**
     * Cooperative cancellation: checked before each run and polled
     * inside the interpreter, so a check never outlives the caller's
     * budget (deadline, memory, SIGINT) by more than a few thousand
     * interpreter steps. A canceled check can report acceptance with
     * zero conclusive runs ("<inconclusive>") — governed callers must
     * re-check the context before treating the verdict as meaningful
     * (and must never cache it). Runtime buffers are accounted against
     * MemSubsystem::Interp on the context's governor.
     */
    ExecContext exec;
};

struct VerifyReport
{
    size_t total_checks = 0;
    size_t passed = 0;
    /** Checks where one or both sides trapped on every input (treated
     *  as neither pass nor failure; reported for transparency). */
    size_t inconclusive = 0;
    std::vector<std::string> failures;

    bool ok() const { return failures.empty(); }
};

/** Check every recorded rewrite: the decomposed proof chain. */
VerifyReport verifyRecords(const std::vector<eg::RewriteRecord> &records,
                           const VerifyOptions &options = {});

/** Check two terms for input/output + memory-state equivalence. */
bool checkTermEquivalence(const eg::TermPtr &lhs, const eg::TermPtr &rhs,
                          const VerifyOptions &options = {},
                          std::string *diagnostic = nullptr);

/**
 * Check two modules' functions on matched random workloads. `lhs` is the
 * reference (the input program): a run where it traps is inconclusive,
 * while a run where only `rhs` traps is a failure. Accepts with
 * diagnostic "<inconclusive>" when no run was conclusive.
 */
bool checkModuleEquivalence(const ir::Module &lhs, const ir::Module &rhs,
                            const std::string &func_name,
                            const VerifyOptions &options = {},
                            std::string *diagnostic = nullptr);

/** Fills the argument buffers with a valid workload (e.g. in-range
 *  neighbour indices); used when plain random inputs would trap. */
using InputPreparer =
    std::function<void(std::vector<ir::Buffer> &, Rng &)>;

/** As above, but with a domain-aware input preparer. */
bool checkModuleEquivalence(const ir::Module &lhs, const ir::Module &rhs,
                            const std::string &func_name,
                            const InputPreparer &prepare,
                            const VerifyOptions &options = {},
                            std::string *diagnostic = nullptr);

} // namespace seer::core

#endif // SEER_CORE_VERIFY_H_
