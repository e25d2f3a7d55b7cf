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
 * A check whose two sides emit identical IR is proved without running.
 */
#ifndef SEER_CORE_VERIFY_H_
#define SEER_CORE_VERIFY_H_

#include <chrono>
#include <map>
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
    /** Passed checks whose two sides lowered to identical IR: a proof
     *  on every input, with nothing interpreted. A subset of `passed`. */
    size_t proved_identical = 0;
    /** Checks where one or both sides trapped on every input (treated
     *  as neither pass nor failure; reported for transparency). */
    size_t inconclusive = 0;
    /**
     * Per cause, the inconclusive checks whose runs hit it: an
     * interpreter trap kind (ir::trapKindName; "deadline" is the
     * caller's budget expiring), "unemittable" for a side that could
     * not be lowered, or "other" for any other contained fault. A
     * check counts once under each cause it hit.
     */
    std::map<std::string, size_t> inconclusive_causes;
    std::vector<std::string> failures;

    bool ok() const { return failures.empty(); }
};

/**
 * The report's deterministic counters (`checks`, `proved_identical`,
 * `inconclusive`, `inconclusive_causes`): the `verify` section of
 * seer-opt's --stats.
 */
json::Value toJson(const VerifyReport &report);

/** Check every recorded rewrite: the decomposed proof chain. */
VerifyReport verifyRecords(const std::vector<eg::RewriteRecord> &records,
                           const VerifyOptions &options = {});

/**
 * Check two terms for input/output + memory-state equivalence. Both
 * sides are lowered once (see lowerTerms). When they lower to
 * identical IR (ir::identical) the check is a proof: it returns true
 * with the diagnostic untouched and interprets nothing, so a pair that
 * traps on every input passes instead of being inconclusive. Otherwise
 * both sides are co-simulated on `options.runs` seeded inputs. Nothing
 * is lowered, and so nothing proved, when `options.runs` is 0 or the
 * context is already canceled. When the check accepts with no
 * conclusive run, `inconclusive_causes` (if given) receives the causes
 * hit, named as in VerifyReport::inconclusive_causes.
 */
bool checkTermEquivalence(
    const eg::TermPtr &lhs, const eg::TermPtr &rhs,
    const VerifyOptions &options = {}, std::string *diagnostic = nullptr,
    std::vector<std::string> *inconclusive_causes = nullptr);

/** The two sides of a term check as lowered for co-simulation. */
struct LoweredTerms
{
    std::optional<ir::Module> lhs; ///< nullopt: cannot be emitted
    std::optional<ir::Module> rhs;
};

/**
 * Lower both sides as checkTermEquivalence does: a value term is
 * wrapped as a store into a synthetic `__out` buffer, and both sides
 * are emitted under one spec unified from their free names. Returns
 * nullopt, with a diagnostic, when the sides cannot share a spec.
 */
std::optional<LoweredTerms> lowerTerms(const eg::TermPtr &lhs,
                                       const eg::TermPtr &rhs,
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
