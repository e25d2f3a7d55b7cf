/**
 * @file
 * Memoized, parallel-ready evaluation of external-pass snippets.
 *
 * SEER's dominant exploration cost (Table 5's "Time in MLIR") is the
 * external rule pipeline: term -> IR snippet emission, an MLIR-style
 * pass, IR -> term back-translation, and a simulation-based equivalence
 * gate — repeated serially on structurally identical snippets across
 * runner iterations and phases. This layer makes that stage a *pure
 * function* of its inputs and exploits it twice over:
 *
 *  - a content-addressed, two-level cache: pass outcomes keyed by the
 *    alpha-canonical snippet hash (+ rule + evaluation config), and
 *    equivalence verdicts keyed by (before, after, seed, runs), with
 *    optional on-disk persistence so repeated benchmark runs start
 *    warm;
 *  - a deterministic worker pool: per runner iteration, candidate
 *    snippets are collected, deduped, and evaluated on N threads, then
 *    consumed serially in canonical candidate order.
 *
 * Purity is engineered, not assumed: evaluation runs under an
 * sl::NameScope seeded with the cache key, so the fresh memory tags and
 * loop ids drawn during back-translation are a deterministic function
 * of the snippet content. Re-evaluating a snippet — cold, warm, on any
 * thread, in any process — reproduces a byte-identical replacement
 * term. That is the determinism contract behind `-j 1` == `-j N` and
 * cache-on == cache-off explorations.
 */
#ifndef SEER_CORE_PASS_EVAL_H_
#define SEER_CORE_PASS_EVAL_H_

#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/cost.h"
#include "hls/hls.h"
#include "support/exec_context.h"
#include "support/json.h"
#include "support/striped_map.h"

namespace seer::ir {
class Operation;
}

namespace seer::core {

/** Outcome of one pure snippet -> pass -> verify evaluation. */
struct PassOutcome
{
    enum class Status : uint8_t {
        NotApplied = 0, ///< pass declined / untranslatable shape
        Rejected = 1,   ///< pass applied but the validation gate refused
        Replaced = 2,   ///< validated replacement available
    };
    Status status = Status::NotApplied;
    /** Rejection diagnostic (Status::Rejected). */
    std::string detail;
    /** The validated replacement term (Status::Replaced). */
    eg::TermPtr replacement;
    /**
     * Schedule-oracle results for every loop of the transformed
     * snippet (loop id -> registry entry), computed in the pure stage
     * so the serial consult only has to pick law vs. oracle and write
     * the registry.
     */
    std::vector<std::pair<std::string, LoopRegistryEntry>> schedule;
};

/** Cached tri-state verdict of one equivalence check. */
struct VerifyVerdict
{
    enum class Result : uint8_t {
        Equivalent = 0,
        Inconclusive = 1, ///< nothing falsified (every run trapped)
        Mismatch = 2,
    };
    Result result = Result::Equivalent;
    std::string diag; ///< counterexample / trap diagnostic

    /** The validation gate accepts anything not falsified. */
    bool accepted() const { return result != Result::Mismatch; }
};

/** Counters and per-stage timing of the evaluation layer. */
struct ExternalEvalStats
{
    size_t pass_cache_hits = 0;
    size_t pass_cache_misses = 0;
    size_t verify_cache_hits = 0;
    size_t verify_cache_misses = 0;
    /** Structurally identical candidates folded within one batch. */
    size_t candidates_deduped = 0;
    /** Cold pipelines actually run (pass executions). */
    size_t evaluations = 0;
    /** Prepare-stage batches handed to the worker pool. */
    size_t batches = 0;
    /** Jobs evaluated inside those batches. */
    size_t batch_jobs = 0;
    /** Worker threads handed to those batches (`-j` per batch),
     *  summed. Not in the --stats JSON, whose counters stay
     *  byte-identical across -j; tests read it to see -j arrive. */
    size_t batch_workers = 0;
    /** Evaluations cut short by the cooperative deadline (uncached). */
    size_t canceled = 0;
    // Per-stage seconds, summed over evaluations (CPU-parallel stages
    // can sum to more than the wall clock).
    double emit_seconds = 0;      ///< term -> IR snippet emission
    double pass_seconds = 0;      ///< the external pass + cleanup
    double translate_seconds = 0; ///< IR -> term back-translation
    double verify_seconds = 0;    ///< validation-gate co-simulation
    double schedule_seconds = 0;  ///< oracle schedule of the result
    /** Entries adopted from --pass-cache at startup. */
    size_t disk_entries_loaded = 0;
    /** The persistence file existed but failed to parse (cold start). */
    bool disk_load_failed = false;
    /**
     * Records scanned but rejected when a persisted cache failed to
     * load (corrupt line, bad checksum, torn tail): the honest size of
     * what the cold start threw away, instead of a silent zero.
     */
    size_t disk_entries_rejected = 0;
    /** Why the persisted cache was rejected (empty: loaded or absent). */
    std::string disk_load_error;
    uint64_t resident_entries = 0;   ///< entries currently held
    uint64_t resident_bytes = 0;     ///< estimated bytes currently held
};

json::Value toJson(const ExternalEvalStats &stats);

/**
 * The two-level evaluation cache, held in a mutex-striped concurrent
 * store (support/striped_map.h). Thread-safe: the prepare stage's
 * worker pool inserts concurrently while stats accumulate — lookups on
 * distinct shards never contend.
 *
 * Persistent mode memoizes across iterations, phases, optimize() calls
 * and (via load/save) processes. Ephemeral mode (--no-pass-cache) is an
 * iteration-scoped staging buffer: the prepare stage still needs a
 * channel to hand parallel results to the serial consult, but entries
 * are dropped at the next iteration boundary so nothing is ever reused
 * across iterations.
 */
class ExternalEvalCache
{
  public:
    explicit ExternalEvalCache(bool persistent = true);

    bool persistent() const { return persistent_; }

    /** Attach a governance context: memoized entries are accounted
     *  against MemSubsystem::Caches on its governor (approximate
     *  per-entry byte estimates; credited back on clearOutcomes). */
    void setExecContext(const ExecContext &exec);

    /** Pass-outcome lookup. `count` tallies a hit in the stats. */
    std::optional<PassOutcome> lookupPass(uint64_t key,
                                          bool count = false);
    /** True when `key` has an outcome; counts a hit or a miss. */
    bool probePass(uint64_t key);
    void insertPass(uint64_t key, PassOutcome outcome);

    std::optional<VerifyVerdict> lookupVerify(uint64_t key);
    void insertVerify(uint64_t key, VerifyVerdict verdict);

    /** Drop memoized outcomes (ephemeral mode's iteration boundary). */
    void clearOutcomes();

    // --- stats ----------------------------------------------------------
    void countMiss();
    void countDeduped(size_t n);
    void countBatch(size_t jobs, unsigned workers);
    struct EvalCharge
    {
        double emit_seconds = 0;
        double pass_seconds = 0;
        double translate_seconds = 0;
        double verify_seconds = 0;
        double schedule_seconds = 0;
        bool canceled = false;
    };
    void chargeEvaluation(const EvalCharge &charge);
    /** Total seconds across all evaluation stages so far. */
    double evalSeconds() const;
    ExternalEvalStats stats() const;

    // --- persistence ----------------------------------------------------
    /**
     * Load a persisted cache. Returns the number of entries adopted;
     * 0 with *error set when the file is unreadable or corrupt — the
     * cache is then left empty (cold start), never half-loaded. Files
     * must carry a valid trailing checksum line; a truncated or torn
     * file is rejected as corrupt, never partially adopted.
     */
    size_t loadFile(const std::string &path, std::string *error);
    /**
     * Persist atomically: the cache is serialized (with a trailing
     * whole-file checksum) to `path + ".tmp"`, flushed and fsync'd,
     * then renamed over `path`. A crash mid-save leaves the previous
     * file intact; readers never observe a torn cache.
     */
    bool saveFile(const std::string &path, std::string *error) const;

  private:
    /** Account `delta` bytes to the Caches subsystem. */
    void charge(int64_t delta);

    bool persistent_;
    StripedMap<PassOutcome> pass_;
    StripedMap<VerifyVerdict> verify_;
    /** Guards the counters + timing accumulators. */
    mutable std::mutex stats_mutex_;
    ExternalEvalStats stats_;
    mutable std::mutex exec_mutex_;
    ExecContext exec_;
};

using EvalCachePtr = std::shared_ptr<ExternalEvalCache>;

/** The pure-stage inputs of one snippet evaluation. */
struct SnippetEvalConfig
{
    /** Co-simulation budget of the validation gate, which every pass
     *  result passes before it may be unioned. */
    int validation_runs = 2;
    uint64_t validation_seed = 0x5EEE;
    /** Scheduling options for the oracle stage. */
    hls::HlsOptions hls;
    /** Cooperative cancellation: checked between stages and inside the
     *  co-simulation; a canceled evaluation is discarded, not cached. */
    ExecContext exec;
};

/**
 * Run the pure snippet -> pass -> verify -> schedule pipeline on
 * `term`. `key` seeds the deterministic name scope (pass the full
 * cache key so distinct rules/configs draw distinct name streams) and
 * `cache` serves the verification sub-cache and accumulates stats.
 *
 * Returns nullopt when the context was canceled mid-evaluation
 * (deadline, memory budget, signal): a truncated result is
 * budget-dependent, not content-dependent, and must never be cached.
 * Thread-safe; called from the worker pool.
 */
std::optional<PassOutcome>
evaluateSnippet(const eg::TermPtr &term, uint64_t key,
                const std::function<bool(ir::Operation &)> &transform,
                const SnippetEvalConfig &config,
                ExternalEvalCache &cache);

/** One cold candidate of a scheduled evaluation batch. */
struct EvalBatchItem
{
    uint64_t key = 0;
    eg::TermPtr term;
};

/**
 * Worker-pool fan-out over one scheduled batch, counted in `cache`'s
 * stats: each item runs evaluateSnippet on one of `jobs` threads and
 * lands its outcome in `cache`. Pure fan-out — each job touches only
 * the thread-safe cache, and union order is untouched (the apply phase
 * stays serial), so any jobs count produces bit-identical e-graphs.
 * Jobs must not throw (worker-thread contract): an evaluation that
 * crashes or fails to allocate is simply not cached — the serial
 * consult re-evaluates inline, where the runner's containment applies.
 */
void evaluateBatch(const std::vector<EvalBatchItem> &batch,
                   const std::function<bool(ir::Operation &)> &transform,
                   const SnippetEvalConfig &config,
                   ExternalEvalCache &cache, unsigned jobs,
                   const std::function<bool()> &cancelled);

/** Append the loop ids of every affine.for in `term`, pre-order. */
void collectLoopIds(const eg::TermPtr &term,
                    std::vector<std::string> &out);

/**
 * Equivalence-verdict key: alpha-canonical hashes of both sides plus
 * the simulation budget. Alpha-equivalent pairs share verdicts — a
 * bound-name renaming cannot change interpreter semantics.
 */
uint64_t verifyKey(const eg::TermPtr &lhs, const eg::TermPtr &rhs,
                   int runs, uint64_t seed, uint64_t max_steps);

} // namespace seer::core

#endif // SEER_CORE_PASS_EVAL_H_
