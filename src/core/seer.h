/**
 * @file
 * The SEER super-optimizer: the paper's end-to-end toolflow
 * (Figure 5).
 *
 *  1. pre-normalize the input (value-yielding ifs converted),
 *  2. call the HLS schedule oracle once to seed the loop registry,
 *  3. translate to SeerLang and grow an e-graph, interleaving control
 *     (external-pass) rounds with datapath (ROVER) rounds,
 *  4. extract in two phases: latency-greedy control flow, then
 *     exact-area datapath refinement,
 *  5. emit IR, with trusted-coalesced markers for the HLS back end.
 */
#ifndef SEER_CORE_SEER_H_
#define SEER_CORE_SEER_H_

#include "core/external_rules.h"
#include "egraph/runner.h"

namespace seer::core {

/** Configuration of one SEER run. */
struct SeerOptions
{
    /** Enable ROVER datapath rules (off = the paper's "SEER (C)"). */
    bool use_rover = true;
    /** Enable control-path rules (off = the paper's "ROVER" only). */
    bool use_control = true;
    /** Interleaved control/data phases (Section 4.4). */
    int max_phases = 3;
    /**
     * Runner limits per phase. optimize() derives two of its fields
     * and overwrites whatever the caller set there: `catch_rule_errors`
     * (from `strict`) and `exec` (the run's governance context). The
     * runner's search is serial; `jobs` does not reach it.
     */
    eg::RunnerOptions runner;
    /** Exact (branch-and-bound "ILP") datapath extraction; greedy
     *  fallback when disabled (ablation). */
    bool exact_datapath = true;
    /** Reference extraction: from-scratch bounds, no incremental
     *  cost-bound analyses, weak exact-search bound (`seer-opt
     *  --extract=naive`). The extracted terms are bit-identical to the
     *  incremental path — this is the differential/benchmark arm. */
    bool naive_extract = false;
    /** Use the Section 4.6 approximation laws (false = oracle mode). */
    bool use_laws = true;
    /** Analysis-friendly local extraction (Section 4.5); disable for
     *  the Figure 9 ablation. */
    bool analysis_friendly_extraction = true;
    /** Unrolling bound (0 = disabled, the paper's default; the Intel
     *  case study enables it). */
    int64_t unroll_max_trip = 0;
    /** HLS oracle options (clock period etc.). */
    hls::HlsOptions hls;

    // --- fault isolation -------------------------------------------------
    /**
     * Fail-fast mode: the first FatalError anywhere in the rewrite
     * stack propagates out of optimize() (the pre-fault-isolation
     * behavior). When false (default), errors are recovered: rules are
     * guarded and quarantined, phases roll back, and optimize() always
     * returns valid IR with stats.degraded set when it had to recover.
     */
    bool strict = false;
    /** Whole-run wall-clock budget in seconds (0 = none). Propagated
     *  into every runner phase and into external pass execution. */
    double deadline_seconds = 0;
    /**
     * Whole-run memory budget in bytes (0 = accounting only, no limit).
     * Tracked subsystems — e-graph storage, evaluation caches,
     * interpreter buffers, exact-extraction memos — charge a shared
     * ResourceGovernor; a breach cancels exploration cooperatively and
     * degrades to best-so-far extraction instead of dying of OOM.
     * Estimates are approximate (object-model bytes, not allocator
     * truth): budget a margin below the hard limit.
     */
    uint64_t mem_budget_bytes = 0;
    /**
     * External governance context. When valid, optimize() threads it
     * everywhere instead of making its own — the caller can share one
     * context (and its governor/cancellation) across runs, and SIGINT
     * handling installed by the CLI cancels mid-run. deadline_seconds
     * and mem_budget_bytes are still applied to it when set.
     */
    ExecContext exec;
    /** Co-simulation runs of the validation gate that every
     *  external-pass result must pass (the verifier + a before/after
     *  co-simulation) before it is unioned. More runs = a stronger gate
     *  and more interpreter time; the verification cache is keyed on
     *  this, so changing it never reuses stale verdicts. */
    int validation_runs = 2;
    /** Seed of the validation input generator (cache-keyed). */
    uint64_t validation_seed = 0x5EEE;
    /** Test/chaos hook: extra rules appended to every control phase
     *  (used to inject faulty rules in robustness tests). */
    std::vector<eg::Rewrite> extra_control_rules;

    // --- memoized + parallel external-pass evaluation --------------------
    /**
     * Worker threads for external-pass evaluation (`seer-opt -j N`),
     * the only parallel stage. Snippet evaluation is a pure function
     * under a content-seeded name scope, and search and unions stay
     * serial in canonical order, so any value of `jobs` produces
     * bit-identical results — e-graphs, stats, extracted terms.
     */
    unsigned jobs = 1;
    /**
     * Memoize pass outcomes and equivalence verdicts across iterations,
     * phases and optimize() calls. Off: outcomes are staged per
     * iteration only (the honest cold baseline). The exploration result
     * is identical either way — the cache is a transparent memo over a
     * pure function.
     */
    bool use_pass_cache = true;
    /** Load/save the pass-outcome cache here (empty = in-memory only;
     *  `seer-opt --pass-cache <path>`). A corrupt file cold-starts; a
     *  run that loaded the file and memoized nothing new leaves it
     *  untouched. */
    std::string pass_cache_file;
    /** Share one evaluation cache across optimize() calls (e.g. a
     *  design-space sweep over one kernel); overrides use_pass_cache
     *  and pass_cache_file when set. */
    EvalCachePtr shared_eval_cache;

    // --- proposal scheduling ---------------------------------------------
    /**
     * Which ProposalScheduler the driver plugs into the
     * propose/evaluate seam (`seer-opt --schedule`). Exhaustive (the
     * default) evaluates every candidate in enumeration order and is
     * bit-identical to the pre-seam loop; bandit prioritizes by learned
     * (pass, structural-hash bucket) value under an eval budget. A
     * bandit run may settle on a *different* optimum — every candidate
     * it does evaluate still passes the same validation gate, so
     * soundness is unaffected.
     */
    ScheduleKind schedule = ScheduleKind::Exhaustive;
    /**
     * Per-iteration cold-evaluation budget as a fraction of each
     * candidate wave, clamped to (0, 1] (`--eval-budget`; bandit only
     * — exhaustive ignores it). Every wave keeps at least one slot, so
     * exploration always progresses.
     */
    double eval_budget = 1.0;
    /** Replay seed of the bandit's epsilon-exploration stream
     *  (`--schedule-seed`). Same seed -> byte-identical exploration
     *  across runs, processes, and -j values. */
    uint64_t schedule_seed = 0x5EED;

    SeerOptions()
    {
        // Budgets sized for the now-honest backoff scheduler: explosive
        // rules apply their first match_limit matches instead of being
        // silently discarded, so the graph genuinely reaches these caps.
        runner.max_iters = 4;
        // Two orders of magnitude over the historical 16k cap: the flat
        // SoA storage (egraph/storage.h) holds million-node graphs, so
        // exploration depth is now bounded by time, not by node count.
        runner.max_nodes = 1600000;
        runner.time_limit_seconds = 10;
        runner.match_limit = 1000;
    }
};

/** Per-phase extraction report (the "extraction" section of --stats). */
struct ExtractionPhaseStats
{
    std::string name;
    /** "greedy", "exact" or "naive" (greedy with from-scratch bounds
     *  and no analysis: the reference arm). */
    std::string extractor;
    /** False when the run was canceled before this phase. */
    bool ran = false;
    /** Extraction calls (1 for the root phase, one per refined
     *  sub-expression for the refinement phase). */
    size_t extractions = 0;
    size_t classes_visited = 0;
    size_t classes_recomputed = 0;
    size_t bound_prunes = 0;
    size_t expansions = 0;
    /** Exact searches that ran out of budget (result then best-effort,
     *  not proven optimal). */
    size_t budget_exhaustions = 0;
    /** Bounds came from a registered cost-bound analysis. */
    bool used_analysis = false;
    double seconds = 0;
    /** Costs of this phase's result under its own model (root phase:
     *  the extraction's costs; refinement: summed over refined
     *  sub-expressions). */
    double tree_cost = 0;
    double dag_cost = 0;
};

/** Statistics of a run (the Table 5 columns). */
struct SeerStats
{
    size_t egraph_nodes = 0;
    size_t egraph_classes = 0;
    double time_in_passes_seconds = 0; ///< "Time in MLIR"
    double time_in_egraph_seconds = 0; ///< "Time in egg"
    double total_seconds = 0;
    size_t unions_applied = 0;
    /** Local extractions (Section 4.5) made by the external rules, and
     *  those the context's greedy memo answered from an earlier call
     *  on the unchanged e-graph. */
    size_t local_extractions = 0;
    size_t local_extraction_hits = 0;
    /** Every applied rewrite, for translation validation. */
    std::vector<eg::RewriteRecord> records;
    /** Per-rule scheduler/profiling stats, aggregated by rule name over
     *  every runner invocation of the interleaved phases. */
    std::vector<eg::RuleStats> rule_stats;
    /** Why each saturation (one runner invocation per phase) stopped,
     *  in run order — including phases later rolled back. */
    std::vector<eg::StopReason> stop_reasons;
    /** The concatenated iteration trajectory across all phases. */
    std::vector<eg::IterationStats> iterations;
    /** Match-phase counters (index hits, watermark skips, cache reuse)
     *  summed over every runner invocation. */
    eg::MatchPhaseStats match_phase;

    // --- health (fault isolation) ---------------------------------------
    /** True when the run had to recover from a fault (guarded-rule
     *  failure, quarantine, phase rollback, or fallback emission); the
     *  output is still valid, verified IR. */
    bool degraded = false;
    /** Phases whose e-graph changes were rolled back. */
    size_t phase_rollbacks = 0;
    /** True when the whole-run deadline cut exploration short. */
    bool deadline_hit = false;
    /** Why the run was canceled, if it was ("deadline", "mem-budget",
     *  "external"); empty for an uncanceled run. */
    std::string cancel_reason;
    /** Per-subsystem memory accounting (the "resource" stats section);
     *  budget breach implies degraded. */
    ResourceStats resource;
    /** Errors caught and recovered from, "rule: what" / phase notes. */
    std::vector<std::string> recovered_errors;
    /** Rules the circuit breaker quarantined in any phase. */
    std::vector<std::string> quarantined_rules;
    /** External-pass results rejected by the validation gate (not
     *  counted as degradation: the gate preserves semantics). */
    size_t rejected_externals = 0;
    /** Diagnostics for the first few rejected external results. */
    std::vector<std::string> rejection_details;

    /** Cache hit rates and per-stage timing of the memoized
     *  external-pass evaluation layer ("external_eval" in --stats). */
    ExternalEvalStats external_eval;

    /** Proposal-scheduler telemetry ("scheduler" in --stats): arms,
     *  pulls, regret proxy, budget spent/saved. Counts only — the
     *  section is byte-identical across machines and -j values. */
    SchedulerStats scheduler;

    /** Per-phase extraction telemetry ("extraction" in --stats). */
    std::vector<ExtractionPhaseStats> extraction;
};

/** JSON view of the statistics (records omitted; they carry terms). */
json::Value toJson(const SeerStats &stats);

/** Result of optimizing one function. */
struct SeerResult
{
    ir::Module module; ///< the optimized program
    SeerStats stats;
    /** Final loop registry (constraints for every loop id). */
    LoopRegistry registry;
    /** The original term and the extracted term (for verification). */
    eg::TermPtr original_term;
    eg::TermPtr extracted_term;
};

/**
 * Optimize `func_name` within `input`. The input module is cloned.
 *
 * Robustness contract: unless options.strict is set, optimize() always
 * returns verifier-clean IR. Faults inside the rewrite stack (a
 * crashing dynamic rule, a semantics-breaking external pass, a phase
 * blowing its budget, an inextractable e-graph) are contained —
 * quarantined, rolled back, or degraded to a weaker result, worst case
 * the pre-normalized input — and reported in stats (degraded flag +
 * health fields). Only unrecoverable user errors still throw: a missing
 * function, or input IR that does not verify. With options.strict, the
 * first FatalError propagates unchanged (fail-fast).
 */
SeerResult optimize(const ir::Module &input, const std::string &func_name,
                    const SeerOptions &options = {});

} // namespace seer::core

#endif // SEER_CORE_SEER_H_
