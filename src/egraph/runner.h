/**
 * @file
 * The rewriting engine: repeatedly e-match all rules, apply the resulting
 * unions, and rebuild, until saturation or a limit is reached.
 *
 * Includes a backoff scheduler (egg's BackoffScheduler): a rule whose
 * match count exceeds its budget still applies its first budget-many
 * matches, then sits out an exponentially growing ban span so one
 * explosive rule cannot starve the rest. The budget itself doubles with
 * every ban (match_limit << times_banned), and bans decay again after a
 * run of clean iterations. Saturation is only reported when zero unions
 * happened *and* no rule is banned — a quiet iteration with pending bans
 * keeps iterating (or stops as StopReason::BannedOut when every rule is
 * banned past the iteration horizon).
 *
 * Every applied union is recorded with concrete lhs/rhs terms; the
 * verification flow (core/verify.h) replays these records through the
 * equivalence checker — the paper's translation-validation decomposition.
 *
 * The runner also keeps per-rule statistics (matches, applications, bans,
 * search/apply seconds) for the bench harnesses; reports serialize to
 * JSON (support/json.h) so bench runs emit machine-readable trajectories.
 *
 * Fault isolation: every rule application runs inside a guard. A
 * FatalError thrown by a (dynamic) rule is recovered — logged in the
 * report, counted per rule — and a circuit breaker quarantines the rule
 * for the rest of the run after `quarantine_after` consecutive failures,
 * so one misbehaving external pass cannot take down the exploration.
 * Strict mode (catch_rule_errors = false) restores fail-fast semantics.
 */
#ifndef SEER_EGRAPH_RUNNER_H_
#define SEER_EGRAPH_RUNNER_H_

#include <chrono>
#include <optional>

#include "egraph/rewrite.h"
#include "support/exec_context.h"
#include "support/json.h"

namespace seer::eg {

/** Why the runner stopped. */
enum class StopReason {
    Saturated, ///< no rule produced a new union and no rule was banned
    IterLimit,
    NodeLimit,
    TimeLimit,
    /** Every rule is banned past the iteration horizon: exploration is
     *  throttled out, not saturated. */
    BannedOut,
    /** Every rule tripped the failure circuit breaker: nothing left to
     *  run. The e-graph is still consistent (failed applications never
     *  union). */
    Quarantined,
    /** The ExecContext was canceled (memory budget breach, SIGINT, or
     *  an explicit request — a plain deadline still reports TimeLimit,
     *  since it only tightens the per-run time budget). */
    Canceled,
};

std::string stopReasonName(StopReason reason);

/** One applied union, with ground terms for translation validation. */
struct RewriteRecord
{
    std::string rule;
    TermPtr lhs;
    TermPtr rhs;
};

/** Per-iteration statistics. */
struct IterationStats
{
    size_t iter = 0; ///< 1-based; gaps appear when banned spans are skipped
    size_t matches = 0;
    size_t applied = 0; ///< unions that changed the e-graph
    size_t banned_rules = 0; ///< rules sitting out this iteration
    size_t nodes = 0;
    size_t classes = 0;
    double seconds = 0;
};

/** Per-rule scheduler and profiling statistics for one run. */
struct RuleStats
{
    std::string name;
    size_t matches = 0;      ///< matches kept (after backoff truncation)
    size_t applications = 0; ///< unions that changed the e-graph
    size_t bans = 0;         ///< times the backoff scheduler banned it
    size_t times_banned = 0; ///< scheduler ban level at end of run
    size_t failures = 0;     ///< recovered FatalErrors while applying
    bool quarantined = false; ///< circuit breaker tripped this run
    double search_seconds = 0;
    double apply_seconds = 0;
    size_t search_candidates = 0; ///< classes actually matched against
    size_t search_skipped_clean = 0; ///< skipped via watermark
};

/**
 * Aggregate e-matching instrumentation for one run: how much work the
 * operator index, the watermarks, and the match cache saved.
 */
struct MatchPhaseStats
{
    /** Candidate classes actually run through the match machine. */
    size_t candidates_visited = 0;
    /** Candidates skipped because their class was unmodified since the
     *  rule's watermark. */
    size_t skipped_clean = 0;
    /** Previously found matches reused verbatim (clean roots). */
    size_t cached_matches_reused = 0;
    /** ematch calls where the (op, arity) index pruned candidates. */
    size_t index_scans = 0;
    /** ematch calls that had to scan every class (bare-variable
     *  patterns, or the naive reference matcher). */
    size_t full_scans = 0;
    /** Watermark-filtered (incremental) searches. */
    size_t incremental_scans = 0;
    /** Wall-clock time spent inside the search phases. */
    double search_wall_seconds = 0;
    // Kept (out of the JSON) only because bench/e2e/seer_bench.cc reads
    // them: summed per-rule search time, and a search that is serial.
    double shard_seconds = 0;
    size_t jobs = 1;
};

struct RunnerOptions
{
    size_t max_iters = 30;
    /** Node budget. The flat SoA storage (storage.h) holds million-node
     *  graphs comfortably, so the default budget no longer caps
     *  exploration at toy sizes. */
    size_t max_nodes = 10000000;
    double time_limit_seconds = 20.0;
    /** Per-rule per-iteration match budget before backoff banning; the
     *  effective budget is match_limit << times_banned (egg). */
    size_t match_limit = 1000;
    /** Base ban span in iterations; a rule's n-th ban lasts
     *  ban_length << n iterations (egg's ban_length). */
    size_t ban_length = 5;
    /** Clean (under-budget) iterations after which a rule's ban level
     *  decays one step, restoring its original budget over time. */
    size_t ban_decay_iters = 3;
    /** Record lhs/rhs terms for each union (needed for verification). */
    bool record_proofs = true;
    /**
     * Fault isolation: when true (default) a FatalError thrown while
     * searching or applying one rule is caught, logged in the report,
     * and counted against that rule instead of aborting the whole run.
     * Strict mode (seer-opt --strict) disables this and lets the first
     * error propagate.
     */
    bool catch_rule_errors = true;
    /** Circuit breaker: permanently quarantine a rule for the rest of
     *  the run after this many *consecutive* recovered failures
     *  (distinct from backoff bans, which always expire). */
    size_t quarantine_after = 3;
    /** Use the pre-index whole-graph reference matcher (ematchNaive)
     *  instead of the indexed compiled one. For differential testing;
     *  implies no incremental matching. */
    bool naive_match = false;
    /**
     * Reuse each rule's previous full match set and re-search only
     * classes modified since that rule's last scan (timestamp
     * watermarks). Produces exactly the same per-iteration match lists
     * as a full scan — clean classes can neither gain nor lose matches
     * — so scheduler behavior is unchanged. Falls back to a full rescan
     * whenever the e-graph's rollback generation changes (fault
     * isolation can make matches disappear, which watermarks cannot
     * see).
     */
    bool incremental_match = true;
    /** Unified governance: the context's deadline tightens
     *  time_limit_seconds when it expires sooner (the driver threads
     *  its --deadline through every phase this way), and cancellation
     *  (budget breach, SIGINT) stops the run between applications with
     *  StopReason::Canceled. The default (inert) context imposes
     *  nothing. */
    ExecContext exec;
};

struct RunnerReport
{
    StopReason stop = StopReason::Saturated;
    std::vector<IterationStats> iterations;
    std::vector<RuleStats> rules; ///< one entry per registered rule
    std::vector<RewriteRecord> records;
    double total_seconds = 0;
    size_t total_applied = 0;
    /** Errors caught and recovered from during the run, "rule: what"
     *  (capped; see recovered_errors_dropped). */
    std::vector<std::string> recovered_errors;
    /** Recovered errors beyond the log cap (counted, not stored). */
    size_t recovered_errors_dropped = 0;
    size_t rules_quarantined = 0;
    MatchPhaseStats match_phase;
};

/** JSON views of the statistics (records are deliberately omitted). */
json::Value toJson(const RuleStats &stats);
json::Value toJson(const IterationStats &stats);
json::Value toJson(const MatchPhaseStats &stats);
json::Value toJson(const RunnerReport &report);

/** Drives a rule set over an e-graph. */
class Runner
{
  public:
    Runner(EGraph &egraph, RunnerOptions options = {})
        : egraph_(egraph), options_(options)
    {}

    void addRule(Rewrite rule) { rules_.push_back(std::move(rule)); }

    void
    addRules(std::vector<Rewrite> rules)
    {
        for (auto &rule : rules)
            rules_.push_back(std::move(rule));
    }

    size_t numRules() const { return rules_.size(); }

    /** Run to saturation or limits. May be called repeatedly. */
    RunnerReport run();

  private:
    struct RuleState
    {
        size_t times_banned = 0;
        size_t banned_until_iter = 0;
        size_t clean_streak = 0; ///< consecutive under-budget iterations
        size_t consecutive_failures = 0; ///< recovered errors in a row
        bool quarantined = false; ///< circuit breaker tripped
        /** Incremental matching: the tick at which `cache` was last
         *  refreshed (valid only while cache_valid). */
        uint64_t watermark = 0;
        /** True when `cache` holds this rule's complete, untruncated
         *  match set as of `watermark`. */
        bool cache_valid = false;
        std::vector<Match> cache;
    };

    /** Effective match budget: match_limit << times_banned, saturating. */
    size_t thresholdFor(const RuleState &state) const;

    /** Ban span for the *next* ban: ban_length << times_banned. */
    size_t banSpanFor(const RuleState &state) const;

    /** Search rule `r` up to its budget + 1, refresh its match cache
     *  (watermark `scan_tick`) and account the search in `report`. */
    std::vector<Match> search(size_t r, uint64_t scan_tick,
                              RunnerReport &report);

    EGraph &egraph_;
    RunnerOptions options_;
    std::vector<Rewrite> rules_;
    std::vector<RuleState> states_;
};

} // namespace seer::eg

#endif // SEER_EGRAPH_RUNNER_H_
