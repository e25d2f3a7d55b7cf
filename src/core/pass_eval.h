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
 *  - a content-addressed cache of pass outcomes keyed by the
 *    alpha-canonical snippet hash (+ rule + evaluation config), with
 *    optional on-disk persistence so repeated benchmark runs start
 *    warm. A miss runs the whole pipeline, validation gate included;
 *    the gate's verdicts are not memoized on their own (a fresh
 *    evaluation's (before, after) pair never recurs: see DESIGN.md);
 *  - a deterministic worker pool: per runner iteration, candidate
 *    snippets are collected, deduped, and evaluated on N threads. The
 *    workers only compute: each returns its outcome into its own slot,
 *    and the runner thread folds the slots into the cache in batch
 *    order, then consumes them serially in canonical candidate order.
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
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/cost.h"
#include "hls/hls.h"
#include "support/exec_context.h"
#include "support/json.h"

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

/** Counters and per-stage timing of the evaluation layer. */
struct ExternalEvalStats
{
    size_t pass_cache_hits = 0;
    size_t pass_cache_misses = 0;
    /** Structurally identical candidates folded within one batch. */
    size_t candidates_deduped = 0;
    /** Cold pipelines actually run (pass executions). */
    size_t evaluations = 0;
    /** Evaluations whose pass declined the snippet (NotApplied). */
    size_t not_applied = 0;
    /** Candidates a rule's may-apply screen dropped before lowering,
     *  counted once per (rule, candidate) per run. */
    size_t screened = 0;
    /** Prepare-stage batches handed to the worker pool. */
    size_t batches = 0;
    /** Jobs evaluated inside those batches. */
    size_t batch_jobs = 0;
    /** Worker threads handed to those batches (`-j` per batch),
     *  summed. Not in the --stats JSON, whose counters stay
     *  byte-identical across -j; tests read it to see -j arrive. */
    size_t batch_workers = 0;
    /** Evaluations cut short by the cooperative deadline, or tainted
     *  by an injected pass fault (uncached). */
    size_t canceled = 0;
    /**
     * Gate verdicts accepted with no conclusive co-simulation run
     * (every run trapped): nothing was falsified, so the replacement
     * was kept, but nothing was shown either. Canceled evaluations are
     * not counted.
     */
    size_t gate_inconclusive = 0;
    /** Per cause, the inconclusive gate verdicts that hit it (the
     *  names of VerifyReport::inconclusive_causes). */
    std::map<std::string, size_t> gate_inconclusive_causes;
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

/** What one snippet evaluation costs, folded into the cache's stats. */
struct EvalCharge
{
    double emit_seconds = 0;
    double pass_seconds = 0;
    double translate_seconds = 0;
    double verify_seconds = 0;
    double schedule_seconds = 0;
    bool canceled = false;
    /** The pass declined the snippet (not set when canceled). */
    bool not_applied = false;
    /** The gate accepted with no conclusive run, for these causes. */
    bool gate_inconclusive = false;
    std::vector<std::string> gate_inconclusive_causes;
};

/**
 * The pass-outcome cache: a plain map from cache key to outcome, used
 * by one thread at a time. The `-j` worker pool never touches it:
 * workers return their outcomes and charges, and the runner thread
 * folds them in (evaluateBatch), so no store here needs a lock.
 *
 * Persistent mode memoizes across iterations and phases of one
 * optimize() call, and (via load/save) across calls and processes.
 * Ephemeral mode (--no-pass-cache) is an iteration-scoped staging
 * buffer: the prepare stage still needs a channel to hand batch
 * results to the serial consult, but entries are dropped at the next
 * iteration boundary so nothing is ever reused across iterations.
 */
class ExternalEvalCache
{
  public:
    explicit ExternalEvalCache(bool persistent = true);

    bool persistent() const { return persistent_; }

    /** Attach a governance context: memoized entries are accounted
     *  against MemSubsystem::Caches on its governor (approximate
     *  per-entry byte estimates; credited back on clearOutcomes). */
    void setExecContext(const ExecContext &exec) { exec_ = exec; }

    /** Pass-outcome lookup (nullptr: absent); counts nothing. The
     *  pointer stays valid until the next insertPass or clearOutcomes. */
    const PassOutcome *lookupPass(uint64_t key) const;
    /** True when `key` has an outcome; counts a hit or a miss. */
    bool probePass(uint64_t key);
    /** Memoize an outcome. May throw std::bad_alloc (the `cache-alloc`
     *  fault point); the outcome is then simply not cached. */
    void insertPass(uint64_t key, PassOutcome outcome);

    /** Drop memoized outcomes (ephemeral mode's iteration boundary). */
    void clearOutcomes();

    // --- stats ----------------------------------------------------------
    /** Count one evaluation and add its stage timings. */
    void chargeEvaluation(const EvalCharge &charge);
    /** The counters, for direct updates by the runner thread; the
     *  resident_* fields track the store and are kept by insertPass and
     *  clearOutcomes. */
    ExternalEvalStats &counters() { return stats_; }
    const ExternalEvalStats &stats() const { return stats_; }

    // --- persistence ----------------------------------------------------
    /**
     * Load a persisted cache. Returns the number of outcomes adopted
     * (the `V` verdict records older files carry are skipped, not
     * counted); 0 with *error set when the file is unreadable or
     * corrupt — the cache is then left empty (cold start), never
     * half-loaded. Files
     * must carry a valid trailing checksum line; a truncated or torn
     * file is rejected as corrupt, never partially adopted.
     */
    size_t loadFile(const std::string &path, std::string *error);
    /**
     * Persist atomically: the cache is serialized in sorted key order
     * (with a trailing whole-file checksum) to `path + ".tmp"`, flushed
     * and fsync'd, then renamed over `path`. A crash mid-save leaves
     * the previous file intact; readers never observe a torn cache.
     */
    bool saveFile(const std::string &path, std::string *error) const;

  private:
    /** Insert or overwrite `key`, keeping the resident byte total and
     *  the governor's Caches level current. */
    void store(uint64_t key, PassOutcome outcome);

    bool persistent_;
    std::unordered_map<uint64_t, PassOutcome> pass_;
    ExternalEvalStats stats_;
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
 * cache key so distinct rules/configs draw distinct name streams);
 * `charge` receives the evaluation's timings and verdict flags, for
 * the caller to fold in with ExternalEvalCache::chargeEvaluation
 * (unless this throws: an injected crash is charged nothing).
 *
 * Returns nullopt when the context was canceled mid-evaluation
 * (deadline, memory budget, signal): a truncated result is
 * budget-dependent, not content-dependent, and must never be cached.
 * So is one an injected pass fault (timeout, garbage output) tainted.
 * Touches no shared store; called from the worker pool.
 */
std::optional<PassOutcome>
evaluateSnippet(const eg::TermPtr &term, uint64_t key,
                const std::function<bool(ir::Operation &)> &transform,
                const SnippetEvalConfig &config, EvalCharge &charge);

/** One cold candidate of a scheduled evaluation batch. */
struct EvalBatchItem
{
    uint64_t key = 0;
    eg::TermPtr term;
};

/**
 * Worker-pool fan-out over one scheduled batch, counted in `cache`'s
 * stats: each item runs evaluateSnippet on one of `jobs` threads into
 * its own result slot; after the join the calling thread charges the
 * slots and inserts their outcomes into `cache`, in batch order. Jobs
 * touch no shared store and union order is untouched (the apply phase
 * stays serial), so any jobs count produces bit-identical e-graphs.
 * Jobs must not throw (worker-thread contract): an evaluation that
 * crashes or fails to allocate, and an outcome whose insert fails to
 * allocate, are simply not cached — the serial consult re-evaluates
 * inline, where the runner's containment applies.
 */
void evaluateBatch(const std::vector<EvalBatchItem> &batch,
                   const std::function<bool(ir::Operation &)> &transform,
                   const SnippetEvalConfig &config,
                   ExternalEvalCache &cache, unsigned jobs,
                   const std::function<bool()> &cancelled);

/** Append the loop ids of every affine.for in `term`, pre-order. */
void collectLoopIds(const eg::TermPtr &term,
                    std::vector<std::string> &out);

} // namespace seer::core

#endif // SEER_CORE_PASS_EVAL_H_
