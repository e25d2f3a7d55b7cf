/**
 * @file
 * The propose/evaluate seam of the optimization driver: the pluggable,
 * budget-aware proposal scheduler.
 *
 * Every external rule generates (pass, site) proposals each runner
 * iteration. Its prepare hook collects the iteration's cold candidates
 * (one "wave"), hands them to the ProposalScheduler, and evaluates the
 * batch it returns on the worker pool; the rule's serial applier then
 * consults the recorded outcomes and reports each one back
 * (core/external_rules.cc). `schedule(wave)` orders and truncates one
 * wave, `observe(candidate, outcome)` feeds evaluation results back.
 *
 * Determinism contract: schedule() runs on the runner thread (prepare
 * hooks are serial) and observe() runs only in the serial apply fold,
 * so scheduler state advances in canonical order regardless of the
 * worker-pool width — `-j1 ≡ -jN` holds for every scheduler. Decisions
 * may read only deterministic candidate features (pass id, structural
 * hash, term size) and seeded randomness; wall-clock measurements are
 * telemetry, never decision inputs, so a fixed seed replays exactly
 * across runs, processes, and job counts.
 */
#ifndef SEER_CORE_SCHEDULER_H_
#define SEER_CORE_SCHEDULER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/pass_eval.h"
#include "egraph/egraph.h"
#include "support/json.h"

namespace seer::core {

/** Which ProposalScheduler optimize() plugs into the seam. */
enum class ScheduleKind
{
    /** Evaluate every candidate, in enumeration order — the
     *  refactor-validation baseline (bit-identical to the pre-seam
     *  loop). */
    Exhaustive,
    /** Seeded contextual bandit: UCB over (pass, structural-hash
     *  bucket) arms with an epsilon exploration floor and a
     *  per-iteration eval budget. */
    Bandit,
};

/** Parse a --schedule value ("exhaustive" | "bandit"). */
bool parseScheduleKind(const std::string &text, ScheduleKind *kind);
/** Stable lowercase name (CLI values, stats JSON). */
const char *scheduleKindName(ScheduleKind kind);

/** One cold (pass, site) proposal offered to the scheduler. */
struct ProposalCandidate
{
    /** Pass id (the rule name). */
    std::string rule;
    /** Content-addressed evaluation key (alpha-canonical snippet hash
     *  + rule + config). Doubles as the structural-hash feature. */
    uint64_t key = 0;
    /** The locally extracted snippet term. */
    eg::TermPtr term;
    /** Deterministic eval-cost proxy: node count of the snippet. */
    size_t term_size = 0;
};

/** Serial-fold feedback for one consulted candidate. */
struct ProposalOutcome
{
    PassOutcome::Status status = PassOutcome::Status::NotApplied;
    /** The outcome was memoized (no cold evaluation this consult). */
    bool from_cache = false;
    /** Consult had to evaluate inline (prepare-stage extraction
     *  drift); counted so budget accounting stays honest. */
    bool inline_eval = false;
    /** Deterministic reward signal: snippet nodes minus replacement
     *  nodes (Status::Replaced only). Never a wall-clock measurement —
     *  rewards drive decisions, and decisions must replay. */
    double cost_delta = 0;
};

/** Per-arm telemetry (stats JSON "scheduler.arms"). */
struct SchedulerArmStats
{
    std::string pass;     ///< rule name
    unsigned bucket = 0;  ///< structural-hash bucket
    size_t pulls = 0;     ///< times scheduled for cold evaluation
    size_t observations = 0;
    double reward_total = 0;
};

/** Counters of one scheduler's run — counts only, no timing, so the
 *  section is byte-identical across machines and job counts. */
struct SchedulerStats
{
    std::string name;     ///< "exhaustive" | "bandit"
    uint64_t seed = 0;    ///< replay seed (bandit)
    double eval_budget = 1.0;
    size_t waves = 0;      ///< schedule() calls (rule x iteration)
    size_t candidates = 0; ///< cold candidates offered
    size_t scheduled = 0;  ///< candidates allowed a cold evaluation
    size_t deferred = 0;   ///< candidates budgeted out (evals saved)
    size_t epsilon_promotions = 0; ///< coverage-floor promotions
    size_t observations = 0;       ///< serial-fold observe() calls
    size_t cached_observations = 0;
    size_t inline_evaluations = 0; ///< consult-time drift evaluations
    double reward_total = 0;
    /** Cumulative (best arm mean - chosen arm mean) over decisions —
     *  a deterministic regret proxy, not true regret. */
    double regret_proxy = 0;
    std::vector<SchedulerArmStats> arms; ///< canonical (pass, bucket) order
};

json::Value toJson(const SchedulerStats &stats);

/**
 * The pluggable policy between candidate enumeration and batch
 * evaluation. Contract:
 *
 *  - schedule() is called once per proposal wave (one rule, one runner
 *    iteration) with the wave's cold candidates in canonical
 *    enumeration order; it returns the ordered batch to evaluate.
 *    Candidates left out are "deferred": remembered until the next
 *    iteration boundary so the serial consult skips them without an
 *    inline evaluation, and never recorded in the attempt memo — they
 *    stay eligible for later waves.
 *  - observe() is called from the serial apply fold, once per
 *    consulted candidate, in canonical union order.
 *  - The only run state a scheduler may read is what these two calls
 *    hand it. Reads of the e-graph, the cache, or the clock would
 *    break replay and the -j1 ≡ -jN contract.
 */
class ProposalScheduler
{
  public:
    virtual ~ProposalScheduler() = default;

    virtual const char *name() const = 0;
    /** True when schedule() can ever defer a candidate (false lets the
     *  hot consult path skip deferral lookups entirely). */
    virtual bool mayDefer() const = 0;
    /** Driver phase boundary (rover rounds change class contents). */
    virtual void beginPhase() = 0;
    /** Runner iteration boundary: the deferred set resets — budgets
     *  are per iteration. */
    virtual void beginIteration() = 0;
    virtual std::vector<ProposalCandidate>
    schedule(std::vector<ProposalCandidate> wave) = 0;
    /** Is `key` deferred in the current iteration? */
    virtual bool deferred(uint64_t key) const = 0;
    virtual void observe(const ProposalCandidate &candidate,
                         const ProposalOutcome &outcome) = 0;
    virtual SchedulerStats stats() const = 0;
};

/** Bandit policy knobs (seer-opt --schedule=bandit). */
struct BanditConfig
{
    /** Replay seed of the epsilon-exploration stream. */
    uint64_t seed = 0x5EED;
    /** Per-wave cold-evaluation budget as a fraction of the wave
     *  (clamped to (0, 1]; every wave keeps at least one slot). */
    double eval_budget = 1.0;
    /** Per-wave probability that a parked (budgeted-out) candidate is
     *  promoted anyway, so every arm is eventually pulled (the
     *  coverage floor). Deferrals are sticky within a phase, so this
     *  compounds per wave: over a phase's W waves a parked candidate
     *  re-enters with probability 1 - (1 - epsilon)^W. */
    double epsilon = 0.05;
    /** UCB exploration constant. */
    double ucb_c = 0.5;
    /** Structural-hash buckets per pass (arm granularity). */
    unsigned buckets = 8;
};

std::unique_ptr<ProposalScheduler> makeExhaustiveScheduler();
std::unique_ptr<ProposalScheduler>
makeBanditScheduler(const BanditConfig &config);

/** Node count of a term as a tree — the deterministic eval-cost
 *  proxy. Shared nodes are walked once; the count saturates at
 *  SIZE_MAX. */
size_t proposalTermSize(const eg::TermPtr &term);

} // namespace seer::core

#endif // SEER_CORE_SCHEDULER_H_
