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
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>

#include "core/cost.h"
#include "core/pass_eval.h"
#include "core/scheduler.h"
#include "egraph/rewrite.h"
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
    /** Use the analysis-friendly cost for local extraction (Section
     *  4.5); false extracts the area-cheapest terms instead (ablation:
     *  the Figure 9 fusion then never finds the affine form). */
    bool analysis_friendly = true;
    /** Local-extraction cost models, shared by every rule invocation
     *  (both are class-aware: extraction passes the e-graph itself, so
     *  one stateless instance serves any graph). */
    rover::AnalysisFriendlyCost friendly_cost;
    rover::RoverAreaCost area_cost;
    /** The cost model local extraction reads, per analysis_friendly. */
    const eg::CostModel &
    localCost() const
    {
        if (analysis_friendly)
            return friendly_cost;
        return area_cost;
    }
    /** Greedy memo of local extraction over the one e-graph these
     *  rules rewrite. Its terms, and the candidate roots the rules
     *  build on them, are interned: a candidate whose structure
     *  survives an e-graph change comes back as the same pointer.
     *  optimize() drops it when exploration ends. */
    eg::GreedyMemo local_extraction;

    /** What a rule needs of one candidate term, computed once per run:
     *  its may-apply screen verdict and, only when that is true, its
     *  pass-cache key and its proposal size (proposalTermSize). */
    struct CandidateInfo
    {
        bool may_apply = true;
        uint64_t key = 0;
        size_t term_size = 0;
    };
    /** Key-memo key: a rule's index (its position in controlRules) and
     *  an interned candidate. Holding the TermPtr keeps the address
     *  from being recycled while it is a key. */
    struct CandidateKey
    {
        uint32_t rule = 0;
        eg::TermPtr term;
        bool operator==(const CandidateKey &other) const
        {
            return rule == other.rule && term == other.term;
        }
    };
    struct CandidateKeyHash
    {
        size_t operator()(const CandidateKey &key) const
        {
            return std::hash<const void *>()(key.term.get()) ^
                   (size_t{key.rule} << 1);
        }
    };
    /**
     * Key memo: the prepare hook, the deferral check and the consult
     * read every candidate's screen verdict, key and size here, so
     * each (rule, candidate) is screened and hashed once per run
     * instead of once per e-graph state. Sound because terms are immutable and every key input
     * other than the term (rule name, config, schedule overrides) is
     * fixed for the run. optimize() clears it with local_extraction.
     */
    std::unordered_map<CandidateKey, CandidateInfo, CandidateKeyHash>
        candidate_keys;
    /** Pass keys computed so far (key-memo misses the screen let
     *  through). */
    size_t pass_key_hashes = 0;

    /**
     * Inputs of every snippet evaluation, filled once by the driver and
     * read in place by every consult and batch: the validation gate's
     * co-simulation budget, the HLS options of the schedule oracle, and
     * the whole-run governance context. Once `eval.exec` is canceled
     * (deadline, memory budget, signal), rules stop launching new
     * snippet/pass work and report "does not apply"; running
     * evaluations stop cooperatively and are never cached.
     *
     * Fault isolation: every pass result passes the structural verifier
     * and a before/after co-simulation on deterministic pseudo-random
     * inputs before it is unioned. A semantics-breaking pass is
     * contained — rejected and recorded — instead of poisoning the
     * e-graph (a union is irreversible within a phase).
     */
    SnippetEvalConfig eval;
    /** Pass results rejected by the validation gate. */
    size_t rejected_results = 0;
    /** Diagnostics for the first few rejections (health reporting). */
    std::vector<std::string> rejections;

    /**
     * The proposal scheduler plugged between candidate collection and
     * batch evaluation (core/scheduler.h). The driver installs the one
     * SeerOptions::schedule selects; the default is exhaustive. Never
     * null.
     */
    std::unique_ptr<ProposalScheduler> scheduler =
        makeExhaustiveScheduler();
    /**
     * Attempt memo: (rule index, canonical class), packed into one
     * word, -> class node count at attempt time, so re-matching the
     * same class across runner iterations does not re-run the
     * snippet/pass machinery. A class that absorbed new
     * representatives since the last attempt is retried; stale
     * (merged-away) ids cannot alias a surviving class (ids are not
     * reused). Reset by beginPhase().
     */
    std::unordered_map<uint64_t, size_t> attempted;
    /** E-graph tick at the last prepare hook: a change marks a runner
     *  iteration boundary. */
    uint64_t last_tick = ~uint64_t{0};

    /**
     * The memoized-evaluation layer. Every rule's prepare hook batches
     * the iteration's candidate snippets, dedupes them structurally,
     * and evaluates cold ones on `jobs` worker threads; the serial
     * apply phase then consults the recorded outcomes. The default is
     * an iteration-scoped staging cache (nothing is reused across
     * iterations); the driver attaches a persistent one.
     */
    EvalCachePtr eval_cache =
        std::make_shared<ExternalEvalCache>(/*persistent=*/false);
    /** Worker threads for the prepare stage (1 = evaluate inline on
     *  the runner thread; results are identical either way). */
    unsigned jobs = 1;

    /** Driver phase boundary: the attempt memo resets (rover rounds
     *  change class contents, so every rule retries freshly) and the
     *  scheduler observes the boundary. */
    void beginPhase();
};

using ContextPtr = std::shared_ptr<ExternalRuleContext>;

/**
 * Content-addressed key of one (snippet, rule, config) evaluation. The
 * snippet hashes alpha-canonically (bound loop names/ids abstracted,
 * memory tags kept — they are program-order payload), so renamed but
 * structurally identical candidates share an outcome. Schedule
 * overrides are keyed by concrete loop ids, so any override that names
 * a loop of this snippet is folded in. The rules read it through the
 * context's key memo.
 */
uint64_t passKeyFor(const ExternalRuleContext &ctx, const char *rule,
                    const eg::TermPtr &term);

/** Test hook: sees every key the key memo serves, hit or miss, with
 *  the rule and candidate it was served for. */
using PassKeyProbe =
    std::function<void(const ExternalRuleContext &ctx, const char *rule,
                       const eg::TermPtr &term, uint64_t key)>;

/** Install `probe` (empty to remove) for the calling process; set it
 *  only while no optimize() call runs. */
void setPassKeyProbe(PassKeyProbe probe);

/** The internal seq structural rules (associativity, nop elimination). */
std::vector<eg::Rewrite> seqRules();

/** All ten control-path rules, sharing `context`. */
std::vector<eg::Rewrite> controlRules(ContextPtr context);

/** A control-path rule that has a may-apply screen (core/may_apply.h),
 *  with the pass it screens for: for tests that check the screen
 *  against the pass. */
struct ScreenedPass
{
    std::string rule;
    bool (*may_apply)(const eg::TermPtr &);
    std::function<bool(ir::Operation &)> transform;
};

/** The screened rules of controlRules(context), in its order. */
std::vector<ScreenedPass> screenedPasses(ContextPtr context);

} // namespace seer::core

#endif // SEER_CORE_EXTERNAL_RULES_H_
