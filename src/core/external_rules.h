/**
 * @file
 * SEER's external rules: MLIR-style passes wrapped as dynamic e-graph
 * rewrites (Section 4.3/4.4).
 *
 * A dynamic rule matches a SeerLang pattern, locally extracts an
 * analysis-friendly representative (Section 4.5), emits it as a snippet
 * function, runs the corresponding pass, translates the result back and
 * unions it into the matched class. New loops created by a pass receive
 * scheduling constraints either through the paper's approximation laws
 * (fusion / flatten / unroll) or by re-invoking the schedule oracle
 * (ablation mode).
 */
#ifndef SEER_CORE_EXTERNAL_RULES_H_
#define SEER_CORE_EXTERNAL_RULES_H_

#include <chrono>
#include <map>
#include <memory>
#include <optional>

#include "core/cost.h"
#include "core/pass_eval.h"
#include "core/scheduler.h"
#include "egraph/rewrite.h"
#include "hls/hls.h"
#include "rover/rover.h"

namespace seer::core {

/** Shared state of the external rules. */
struct ExternalRuleContext
{
    LoopRegistry registry;
    /** Accumulated seconds spent inside passes + IR translation: the
     *  paper's "Time in MLIR" column of Table 5. */
    double mlir_seconds = 0;
    /** Use the Section 4.6 approximation laws for new loops; when
     *  false, re-run the scheduler oracle instead (ablation). */
    bool use_laws = true;
    /** Enable the loop-unroll rule for trip counts up to this bound
     *  (0 disables it — the paper's default). */
    int64_t unroll_max_trip = 0;
    /** Scheduling options for oracle re-runs. */
    hls::HlsOptions hls;
    /** Use the analysis-friendly cost for local extraction (Section
     *  4.5); false extracts smallest terms instead (ablation: the
     *  Figure 9 fusion then never finds the affine form). */
    bool analysis_friendly = true;
    /** Local-extraction cost models, shared by every rule invocation
     *  (both are class-aware: extraction passes the e-graph itself, so
     *  one stateless instance serves any graph). */
    rover::AnalysisFriendlyCost friendly_cost;
    rover::RoverAreaCost area_cost;
    /** Greedy memo of local extraction over the one e-graph these
     *  rules rewrite. optimize() drops it when exploration ends. */
    eg::GreedyMemo local_extraction;
    /**
     * The propose/evaluate seam: phase objects (attempt memo,
     * worker-pool fan-out, serial-fold feedback) plus the proposal
     * scheduler plugged between them. The driver builds it from
     * SeerOptions (--schedule/--eval-budget); the default keeps
     * legacy/unit contexts on the exhaustive pre-seam behavior. Never
     * null.
     */
    PipelinePtr pipeline =
        makePipeline(ScheduleKind::Exhaustive, BanditConfig{});

    /**
     * Fault isolation: gate every external-pass result through the
     * structural verifier and a before/after co-simulation on
     * deterministic pseudo-random inputs before it is unioned. A
     * semantics-breaking pass is contained — rejected and recorded —
     * instead of poisoning the e-graph (a union is irreversible within
     * a phase).
     */
    bool validate_results = true;
    /** Co-simulation budget for the validation gate. */
    int validation_runs = 2;
    uint64_t validation_seed = 0x5EEE;
    /** Pass results rejected by the validation gate. */
    size_t rejected_results = 0;
    /** Diagnostics for the first few rejections (health reporting). */
    std::vector<std::string> rejections;

    /** Whole-run governance context (deadline, memory budget, signal):
     *  once canceled, external rules stop launching new snippet/pass
     *  work and report "does not apply". Propagated into running
     *  evaluations as a cooperative cancel: long co-simulations stop
     *  shortly after cancellation instead of draining their full step
     *  budget, and a canceled evaluation is never cached. */
    ExecContext exec;

    /**
     * The memoized-evaluation layer. When set, every rule gains a
     * prepare hook that batches the iteration's candidate snippets,
     * dedupes them structurally, and evaluates cold ones on `jobs`
     * worker threads; the serial apply phase then only consults
     * recorded outcomes. Unset (legacy/unit contexts): rules evaluate
     * inline through a throwaway staging cache, exactly as before this
     * layer existed.
     */
    EvalCachePtr eval_cache;
    /** Worker threads for the prepare stage (1 = evaluate inline on
     *  the runner thread; results are identical either way). */
    unsigned jobs = 1;
};

using ContextPtr = std::shared_ptr<ExternalRuleContext>;

/** The internal seq structural rules (associativity, nop elimination). */
std::vector<eg::Rewrite> seqRules();

/** All ten control-path rules, sharing `context`. */
std::vector<eg::Rewrite> controlRules(ContextPtr context);

} // namespace seer::core

#endif // SEER_CORE_EXTERNAL_RULES_H_
