#include "core/seer.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <initializer_list>
#include <new>
#include <optional>

#include "ir/printer.h"
#include "ir/verifier.h"
#include "passes/passes.h"
#include "rover/rover.h"
#include "seerlang/encoding.h"
#include "seerlang/from_term.h"
#include "seerlang/to_term.h"
#include "support/error.h"
#include "support/fault_inject.h"
#include "support/hashing.h"

namespace seer::core {

using eg::EClassId;
using eg::EGraph;
using eg::TermPtr;

namespace {

using Clock = std::chrono::steady_clock;

/** Convert value-yielding ifs so SeerLang can express the program. */
void
preNormalize(ir::Operation &func)
{
    bool progress = true;
    while (progress) {
        progress = false;
        std::vector<ir::Operation *> ifs;
        ir::walk(func, [&](ir::Operation &op) {
            if (ir::isa(op, ir::opnames::kIf) && op.numResults() > 0)
                ifs.push_back(&op);
        });
        for (ir::Operation *if_op : ifs) {
            if (passes::convertIf(*if_op)) {
                progress = true;
                break;
            }
        }
    }
    passes::canonicalize(func);
}

/** Seed the registry from the initial HLS schedule (called once). */
LoopRegistry
seedRegistry(const sl::Translation &translation, ir::Operation &func,
             const hls::HlsOptions &hls_options)
{
    hls::OperatorLibrary lib;
    hls::ScheduleOptions options = hls_options.schedule;
    options.pipeline_loops = true; // SEER assumes pipelined loops
    hls::FuncSchedule schedule = hls::scheduleFunc(func, lib, options);
    LoopRegistry registry;
    for (const auto &[loop_id, op] : translation.loops) {
        auto it = schedule.loops.find(op);
        if (it == schedule.loops.end())
            continue;
        LoopRegistryEntry entry;
        entry.constraints = it->second;
        entry.coalesced = op->hasAttr("seer.coalesced");
        registry[loop_id] = entry;
    }
    return registry;
}

/** Fold one runner report's per-rule stats into the run-wide aggregate
 *  (keyed by rule name, since each phase constructs fresh runners). */
void
mergeRuleStats(std::vector<eg::RuleStats> &into,
               const std::vector<eg::RuleStats> &from)
{
    for (const eg::RuleStats &stats : from) {
        if (stats.matches == 0 && stats.bans == 0 &&
            stats.search_seconds == 0) {
            continue; // rule never even searched; keep the aggregate lean
        }
        auto it = std::find_if(into.begin(), into.end(),
                               [&](const eg::RuleStats &existing) {
                                   return existing.name == stats.name;
                               });
        if (it == into.end()) {
            into.push_back(stats);
            continue;
        }
        it->matches += stats.matches;
        it->applications += stats.applications;
        it->bans += stats.bans;
        it->times_banned = stats.times_banned;
        it->search_seconds += stats.search_seconds;
        it->apply_seconds += stats.apply_seconds;
    }
}

/** Apply trusted-coalesced markers to emitted loops. */
void
markTrustedLoops(ir::Module &module, const LoopRegistry &registry)
{
    ir::walk(module, [&](ir::Operation &op) {
        if (!ir::isa(op, ir::opnames::kAffineFor))
            return;
        if (!op.hasAttr("seer.loop_id"))
            return;
        auto it = registry.find(op.strAttr("seer.loop_id"));
        if (it != registry.end() && it->second.coalesced)
            op.setAttr("seer.coalesced", ir::Attribute(int64_t{1}));
    });
}

} // namespace

namespace {

/** Append a recovered-error note (bounded; degraded runs stay cheap). */
void
recordRecovered(SeerStats &stats, const std::string &what)
{
    constexpr size_t kCap = 64;
    if (stats.recovered_errors.size() < kCap)
        stats.recovered_errors.push_back(what);
    stats.degraded = true;
}

} // namespace

namespace {

/**
 * SaturatePhase: one transactional runner invocation — checkpoint →
 * run → validate-or-rollback. A phase that crashes, or leaves the
 * e-graph inconsistent or blown far past its node budget, is undone
 * wholesale; exploration continues with whatever the healthy phases
 * produced.
 */
class SaturatePhase
{
  public:
    SaturatePhase(EGraph &egraph, const eg::RunnerOptions &runner_options,
                  const SeerOptions &options, SeerResult &result)
        : egraph_(egraph), runner_options_(runner_options),
          options_(options), result_(result)
    {
    }

    void
    run(const char *label,
        const std::function<void(eg::Runner &)> &add_rules,
        size_t &applied_this_phase)
    {
        EGraph::Checkpoint cp = egraph_.checkpoint();
        std::optional<eg::RunnerReport> report;
        try {
            eg::Runner runner(egraph_, runner_options_);
            add_rules(runner);
            report = runner.run();
            result_.stats.stop_reasons.push_back(report->stop);
            // Chaos: a fault between exploration and commit — the
            // whole phase must roll back, leaving no partial e-graph.
            if (faultFire(FaultPoint::RollbackMidPhase))
                fatal("injected mid-phase fault");
            // Budget sanity: the runner stops *at* max_nodes, but one
            // pathological dynamic result can overshoot hugely.
            if (egraph_.numNodes() > 4 * runner_options_.max_nodes)
                fatal(MsgBuilder()
                      << "phase exploded to " << egraph_.numNodes()
                      << " nodes (budget " << runner_options_.max_nodes
                      << ")");
            // The commit gate checks what can make a rewrite unsound
            // (structure, rule-read analyses); strict runs the full
            // oracle, cost-bound coherence included.
            std::string diag = options_.strict
                                   ? egraph_.debugCheckInvariants()
                                   : egraph_.checkCommitInvariants();
            if (!diag.empty())
                fatal("e-graph invariants broken: " + diag);
            egraph_.commit(cp);
            absorb(*report, applied_this_phase);
        } catch (const FatalError &err) {
            if (options_.strict)
                throw;
            rollback(cp, report, label, err.what());
        } catch (const std::bad_alloc &) {
            // Allocation failure anywhere in the phase: the journal
            // checkpoint still holds, so the phase is undone wholesale
            // and optimize() keeps its no-throw contract.
            if (options_.strict)
                throw;
            rollback(cp, report, label,
                     "allocation failure (contained)");
        }
    }

    /** The health trail of a runner report (recovered errors,
     *  quarantined rules). Absorbed even from a phase that is later
     *  rolled back: the faults genuinely happened, only their e-graph
     *  effects are undone. */
    void
    absorbHealth(const eg::RunnerReport &report)
    {
        for (const std::string &error : report.recovered_errors)
            recordRecovered(result_.stats, error);
        for (const eg::RuleStats &rule : report.rules) {
            if (!rule.quarantined)
                continue;
            auto &names = result_.stats.quarantined_rules;
            if (std::find(names.begin(), names.end(), rule.name) ==
                names.end())
                names.push_back(rule.name);
            result_.stats.degraded = true;
        }
    }

  private:
    void
    absorb(eg::RunnerReport &report, size_t &applied_this_phase)
    {
        applied_this_phase += report.total_applied;
        result_.stats.unions_applied += report.total_applied;
        for (auto &record : report.records)
            result_.stats.records.push_back(std::move(record));
        mergeRuleStats(result_.stats.rule_stats, report.rules);
        for (const eg::IterationStats &stats : report.iterations)
            result_.stats.iterations.push_back(stats);
        eg::MatchPhaseStats &mp = result_.stats.match_phase;
        mp.candidates_visited += report.match_phase.candidates_visited;
        mp.index_scans += report.match_phase.index_scans;
        mp.full_scans += report.match_phase.full_scans;
        mp.shard_seconds += report.match_phase.shard_seconds;
        mp.search_wall_seconds +=
            report.match_phase.search_wall_seconds;
        absorbHealth(report);
    }

    void
    rollback(const EGraph::Checkpoint &cp,
             const std::optional<eg::RunnerReport> &report,
             const char *label, const std::string &why)
    {
        egraph_.rollback(cp);
        ++result_.stats.phase_rollbacks;
        if (report)
            absorbHealth(*report);
        recordRecovered(result_.stats, std::string(label) +
                                           " phase rolled back: " + why);
    }

    EGraph &egraph_;
    const eg::RunnerOptions &runner_options_;
    const SeerOptions &options_;
    SeerResult &result_;
};

/**
 * ExtractPhase: two-phase extraction (Section 4.6). Phase 1 pins the
 * control skeleton under the latency cost (Eqn 3); phase 2 keeps that
 * skeleton and re-extracts every pure sub-expression under the ROVER
 * area cost (Eqn 4). Both phases read the frozen graph and a frozen
 * loop registry, so a model saturation did not register gets its cost
 * bounds computed from scratch per call. Degrades to the original term
 * when extraction crashes or finds nothing.
 */
class ExtractPhase
{
  public:
    ExtractPhase(const SeerOptions &options, const ExecContext &exec,
                 SeerResult &result)
        : options_(options), exec_(exec), result_(result)
    {
    }

    /** Returns the term to emit (extracted, or the original on
     *  degrade). Throws only in strict mode. */
    TermPtr
    run(const EGraph &egraph, EClassId root, const LatencyCost &latency,
        const rover::RoverAreaCost &area_cost, const TermPtr &original)
    {
        // Extraction under governance: a canceled context skips the
        // area phase and bounds the exact search from inside
        // (best-so-far, never optimal-or-nothing). A crash or
        // allocation failure degrades to emitting the original program.
        TermPtr term;
        try {
            term = extract(egraph, root, latency, area_cost);
        } catch (const FatalError &err) {
            if (options_.strict)
                throw;
            result_.stats.extraction.clear();
            recordRecovered(result_.stats,
                            std::string("extraction failed: ") +
                                err.what());
        } catch (const std::bad_alloc &) {
            if (options_.strict)
                throw;
            result_.stats.extraction.clear();
            recordRecovered(result_.stats,
                            "extraction failed: allocation failure "
                            "(contained)");
        }
        if (term)
            return term;
        if (options_.strict)
            fatal("seer: extraction found no implementation");
        recordRecovered(result_.stats,
                        "extraction found no implementation; emitting "
                        "the original program");
        return original;
    }

  private:
    /** Both phases, reporting into stats.extraction. Null when the
     *  latency phase finds no finite-cost implementation. */
    TermPtr
    extract(const EGraph &egraph, EClassId root,
            const LatencyCost &latency,
            const rover::RoverAreaCost &area_cost)
    {
        std::vector<ExtractionPhaseStats> &phases = result_.stats.extraction;
        phases.assign(2, ExtractionPhaseStats{});
        ExtractionPhaseStats &control = phases[0];
        ExtractionPhaseStats &datapath = phases[1];
        control.name = "control-latency";
        control.extractor = options_.naive_extract ? "naive" : "greedy";
        datapath.name = "datapath-area";
        datapath.extractor = options_.naive_extract     ? "naive"
                             : options_.exact_datapath ? "exact"
                                                       : "greedy";

        auto t0 = Clock::now();
        eg::ExtractStats stats;
        control.ran = true;
        control.extractions = 1;
        auto extraction = eg::extractGreedy(egraph, root, latency,
                                            extractOptions(stats));
        control.budget_exhaustions = stats.budget_exhausted ? 1 : 0;
        foldStats(control, stats, t0);
        if (!extraction)
            return nullptr;
        control.tree_cost = extraction->tree_cost;
        control.dag_cost = extraction->dag_cost;
        if (exec_.canceled())
            return extraction->term; // the area phase stays ran = false

        t0 = Clock::now();
        stats = eg::ExtractStats{};
        datapath.ran = true;
        TermPtr term =
            refine(egraph, extraction->term, area_cost, stats, datapath);
        foldStats(datapath, stats, t0);
        return term;
    }

    eg::ExtractOptions
    extractOptions(eg::ExtractStats &stats) const
    {
        eg::ExtractOptions options;
        options.naive = options_.naive_extract;
        options.stats = &stats;
        options.exec = exec_;
        return options;
    }

    /**
     * Area refinement walk: keep the statement skeleton of `term`
     * pinned and re-extract every maximal pure sub-expression under the
     * area cost. Sub-expressions unknown to the e-graph (or infeasible)
     * are kept as-is — refinement can only improve the term.
     */
    TermPtr
    refine(const EGraph &egraph, const TermPtr &term,
           const rover::RoverAreaCost &area_cost, eg::ExtractStats &stats,
           ExtractionPhaseStats &phase)
    {
        if (sl::isStatementSymbol(term->op())) {
            std::vector<TermPtr> children;
            children.reserve(term->arity());
            bool changed = false;
            for (const auto &child : term->children()) {
                TermPtr refined =
                    refine(egraph, child, area_cost, stats, phase);
                changed |= refined != child;
                children.push_back(std::move(refined));
            }
            return changed ? eg::makeTerm(term->op(), std::move(children))
                           : term;
        }
        auto id = egraph.lookupTerm(term);
        if (!id)
            return term;
        ++phase.extractions;
        eg::ExtractStats one;
        bool exact = !options_.naive_extract && options_.exact_datapath;
        auto extraction =
            exact ? eg::extractExact(egraph, *id, area_cost,
                                     extractOptions(one))
                  : eg::extractGreedy(egraph, *id, area_cost,
                                      extractOptions(one));
        stats.classes_visited += one.classes_visited;
        stats.classes_recomputed += one.classes_recomputed;
        stats.bound_prunes += one.bound_prunes;
        stats.expansions += one.expansions;
        if (one.budget_exhausted)
            ++phase.budget_exhaustions;
        if (!extraction)
            return term;
        phase.tree_cost += extraction->tree_cost;
        phase.dag_cost += extraction->dag_cost;
        return extraction->term;
    }

    static void
    foldStats(ExtractionPhaseStats &phase, const eg::ExtractStats &stats,
              Clock::time_point t0)
    {
        phase.classes_visited = stats.classes_visited;
        phase.classes_recomputed = stats.classes_recomputed;
        phase.bound_prunes = stats.bound_prunes;
        phase.expansions = stats.expansions;
        phase.seconds =
            std::chrono::duration<double>(Clock::now() - t0).count();
    }

    const SeerOptions &options_;
    const ExecContext &exec_;
    SeerResult &result_;
};

/**
 * OptimizeDriver: the slim coordinator of the optimization phases.
 * Setup (pre-normalize, translate, seed) runs once; exploration
 * interleaves SaturatePhase invocations whose external rules consult
 * the proposal scheduler selected by SeerOptions::schedule
 * (core/scheduler.h); ExtractPhase and the emission ladder produce the
 * result. Each stage degrades per the robustness contract instead of
 * throwing (non-strict mode).
 */
class OptimizeDriver
{
  public:
    OptimizeDriver(const ir::Module &input, const std::string &func_name,
                   const SeerOptions &options)
        : input_(input), func_name_(func_name), options_(options),
          start_(Clock::now())
    {
    }

    SeerResult
    run()
    {
        setupGovernance();
        if (!prenormalize() || !translateAndSeed() || !seedGraph()) {
            finish();
            return std::move(result_);
        }
        explore();
        extractAndEmit();
        finalize();
        finish();
        return std::move(result_);
    }

  private:
    void
    setupGovernance()
    {
        // Unified governance: one context carries the wall-clock
        // deadline, the memory budget (via its ResourceGovernor) and
        // any external cancellation (SIGINT through the process-global
        // signal flag, or a caller-provided context). Everything
        // downstream — runner phases, external-pass evaluation, the
        // interpreter, extraction — polls this one object.
        exec_ = options_.exec.valid() ? options_.exec
                                      : ExecContext::make();
        if (options_.deadline_seconds > 0)
            exec_.setDeadlineIn(options_.deadline_seconds);
        if (!exec_.governor()) {
            // Always attach a governor: budget 0 means accounting
            // only, so the "resource" stats section is populated on
            // every run.
            exec_.setGovernor(std::make_shared<ResourceGovernor>(
                options_.mem_budget_bytes));
        }
    }

    bool
    prenormalize()
    {
        working_ = ir::cloneModule(input_);
        ir::Operation *func = working_.lookupFunc(func_name_);
        if (!func)
            fatal("seer: no function named '" + func_name_ + "'");
        // Pre-normalization. Failure here (or anywhere later, in
        // non-strict mode) degrades to the best module produced so far
        // — worst case the unmodified input. Invalid *input* IR stays
        // fatal in every mode: valid output cannot be conjured from an
        // invalid program.
        try {
            preNormalize(*func);
            ir::verifyOrDie(working_);
        } catch (const FatalError &err) {
            if (options_.strict)
                throw;
            result_.module = ir::cloneModule(input_);
            ir::verifyOrDie(result_.module);
            recordRecovered(result_.stats,
                            std::string("pre-normalization failed: ") +
                                err.what());
            return false;
        }
        return true;
    }

    bool
    translateAndSeed()
    {
        context_ = std::make_shared<ExternalRuleContext>();
        context_->use_laws = options_.use_laws;
        context_->analysis_friendly =
            options_.analysis_friendly_extraction;
        context_->unroll_max_trip = options_.unroll_max_trip;
        context_->eval.validation_runs = options_.validation_runs;
        context_->eval.validation_seed = options_.validation_seed;
        context_->eval.hls = options_.hls;
        context_->eval.exec = exec_;
        // The propose/evaluate seam: the scheduler selected by
        // --schedule, shared by every external rule.
        if (options_.schedule == ScheduleKind::Bandit) {
            BanditConfig bandit;
            bandit.seed = options_.schedule_seed;
            bandit.eval_budget = options_.eval_budget;
            context_->scheduler = makeBanditScheduler(bandit);
        }
        // Memoized + parallel external-pass evaluation. The run's
        // cache is persistent (memoizing) or an iteration-scoped
        // staging buffer, per use_pass_cache. Either way the
        // exploration result is identical — the cache memoizes a pure
        // function and unions stay serial.
        context_->eval_cache =
            std::make_shared<ExternalEvalCache>(options_.use_pass_cache);
        ExternalEvalCache &cache = *context_->eval_cache;
        if (options_.use_pass_cache && !options_.pass_cache_file.empty()) {
            std::string cache_error;
            cache.loadFile(options_.pass_cache_file, &cache_error);
            if (!cache_error.empty()) {
                // Corrupt persistence is recovered by a cold start;
                // the run itself is unaffected.
                recordRecovered(result_.stats, cache_error);
            }
        }
        cache.setExecContext(exec_);
        context_->jobs = options_.jobs > 0 ? options_.jobs : 1;

        // Deterministic run-level name scope: every fresh tag /
        // loop id drawn anywhere in this run (translation,
        // exploration, emission) comes from a stream seeded by the
        // *content* of the normalized input. Two runs over the same
        // function — in this process, another process, or against a
        // --pass-cache file from last week — generate identical names,
        // so snippet content hashes (and therefore cache keys) are
        // stable across runs instead of depending on how far the
        // process-global name counters happened to have advanced.
        run_scope_.emplace(hashString(func_name_) ^
                           hashString(ir::toString(working_)));
        try {
            translation_ = sl::funcToTerm(*working_.lookupFunc(func_name_));
            context_->registry = seedRegistry(
                translation_, *working_.lookupFunc(func_name_),
                options_.hls);
        } catch (const FatalError &err) {
            if (options_.strict)
                throw;
            result_.module =
                std::move(working_); // pre-normalized, verified
            recordRecovered(result_.stats,
                            std::string("translation failed: ") +
                                err.what());
            return false;
        }
        return true;
    }

    bool
    seedGraph()
    {
        // Registered cost-bound analyses hold references to their
        // models, which must outlive the e-graph.
        static const eg::TermSizeCost term_size;

        egraph_.emplace(rover::roverAnalysisHooks());
        egraph_->setExecContext(exec_);
        if (!options_.naive_extract) {
            // The cost models saturation reads, so their per-class
            // bounds are maintained incrementally through exploration:
            // local extraction inside external rules (analysis-friendly,
            // or the area model when that is off) and the runner's
            // record extraction (term-size). Every checkpoint drains
            // them. No rule reads them, so the phase commit gate skips
            // their from-scratch recomputation; `strict` runs and the
            // unit tests check it (EGraph::debugCheckInvariants). The
            // models only extraction reads (latency, and area by
            // default) are never registered: extraction computes their
            // bounds from scratch on the frozen graph.
            eg::registerCostBound(*egraph_, context_->localCost());
            eg::registerCostBound(*egraph_, term_size);
        }
        try {
            root_ = egraph_->addTerm(translation_.term);
            egraph_->rebuild();
        } catch (const std::bad_alloc &) {
            // Cannot even seed the e-graph: degrade to the
            // pre-normalized (verified) input instead of propagating
            // the failure.
            if (options_.strict)
                throw;
            result_.module = std::move(working_);
            result_.original_term = translation_.term;
            recordRecovered(result_.stats,
                            "initial e-graph construction failed: "
                            "allocation failure (contained)");
            return false;
        }
        result_.original_term = translation_.term;

        runner_options_ = options_.runner;
        runner_options_.catch_rule_errors = !options_.strict;
        runner_options_.exec = exec_;
        return true;
    }

    /** Interleaved exploration (Section 4.4). */
    void
    explore()
    {
        SaturatePhase saturate(*egraph_, runner_options_, options_,
                               result_);
        for (int phase = 0; phase < options_.max_phases; ++phase) {
            if (exec_.canceled())
                break; // reported by noteCancellation in finish()
            size_t applied_this_phase = 0;
            // Phase boundary: the attempt memo resets (rover rounds
            // change class contents, so external rules retry freshly
            // each phase).
            context_->beginPhase();
            if (options_.use_control) {
                saturate.run(
                    "control",
                    [&](eg::Runner &runner) {
                        runner.addRules(seqRules());
                        runner.addRules(controlRules(context_));
                        runner.addRules(options_.extra_control_rules);
                    },
                    applied_this_phase);
            }
            if (options_.use_rover) {
                saturate.run(
                    "datapath",
                    [&](eg::Runner &runner) {
                        runner.addRules(rover::roverRules());
                    },
                    applied_this_phase);
            }
            if (applied_this_phase == 0)
                break; // joint saturation
        }
        result_.stats.rejected_externals = context_->rejected_results;
        result_.stats.rejection_details = context_->rejections;
        result_.stats.local_extractions =
            context_->local_extraction.calls();
        result_.stats.local_extraction_hits =
            context_->local_extraction.hits();
        result_.stats.local_terms_interned =
            context_->local_extraction.interned();
        result_.stats.pass_key_hashes = context_->pass_key_hashes;
        // Exploration is over: release the terms the memos pin.
        context_->local_extraction = eg::GreedyMemo{};
        context_->candidate_keys.clear();
    }

    void
    extractAndEmit()
    {
        ExtractPhase extract(options_, exec_, result_);
        TermPtr final_term =
            extract.run(*egraph_, root_, LatencyCost(context_->registry),
                        context_->area_cost, translation_.term);
        result_.extracted_term = final_term;

        // Emit, degrading stepwise on failure: extracted term →
        // original term → pre-normalized input module. The last rung
        // cannot fail (`working` was verified above), so optimize()
        // always returns valid IR in non-strict mode.
        auto emit = [&](const TermPtr &term) {
            sl::EmitSpec spec;
            spec.func_name = translation_.func_name;
            spec.args = translation_.args;
            ir::Module module = sl::termToFunc(term, spec);
            markTrustedLoops(module, context_->registry);
            passes::canonicalize(*module.firstFunc());
            ir::verifyOrDie(module);
            return module;
        };
        auto emit_guarded =
            [&](const TermPtr &term,
                std::string *why) -> std::optional<ir::Module> {
            try {
                return emit(term);
            } catch (const FatalError &err) {
                if (options_.strict)
                    throw;
                *why = err.what();
            } catch (const std::bad_alloc &) {
                if (options_.strict)
                    throw;
                *why = "allocation failure (contained)";
            }
            return std::nullopt;
        };
        std::string emit_why;
        if (auto module = emit_guarded(final_term, &emit_why)) {
            result_.module = std::move(*module);
        } else {
            recordRecovered(result_.stats,
                            "emission of the extracted term failed: " +
                                emit_why);
            if (auto module =
                    emit_guarded(translation_.term, &emit_why)) {
                result_.module = std::move(*module);
                result_.extracted_term = translation_.term;
            } else {
                recordRecovered(result_.stats,
                                "emission of the original term "
                                "failed: " +
                                    emit_why);
                result_.module = std::move(working_);
                result_.extracted_term = nullptr;
            }
        }
    }

    void
    finalize()
    {
        result_.registry = std::move(context_->registry);
        result_.stats.egraph_nodes = egraph_->numNodes();
        result_.stats.egraph_classes = egraph_->numClasses();
        result_.stats.checkpoints = egraph_->numCheckpoints();
        result_.stats.checkpoint_snapshots =
            egraph_->numCheckpointSnapshots();
        // "Time in MLIR": wall-clock spent evaluating external passes
        // this run (batches block the main loop, so wall time is the
        // honest figure under -j; per-stage thread-seconds live in
        // external_eval).
        result_.stats.time_in_passes_seconds = context_->mlir_seconds;
        const ExternalEvalCache &cache = *context_->eval_cache;
        result_.stats.external_eval = cache.stats();
        const ExternalEvalStats &eval = result_.stats.external_eval;
        result_.stats.scheduler = context_->scheduler->stats();
        // A warm run that loaded the file and memoized nothing new
        // would rewrite identical bytes: skip it. Persistent entries
        // are never dropped, so an unchanged count means no insert.
        bool cache_unchanged =
            eval.disk_entries_loaded > 0 &&
            eval.resident_entries == eval.disk_entries_loaded;
        if (options_.use_pass_cache && !options_.pass_cache_file.empty() &&
            !cache_unchanged) {
            std::string cache_error;
            if (!cache.saveFile(options_.pass_cache_file, &cache_error)) {
                recordRecovered(result_.stats, cache_error);
            }
        }
    }

    /** Map a cancellation onto the health report. A plain deadline
     *  keeps its historical meaning (deadline_hit, not degraded: the
     *  budget was honored, the result is simply the best found in
     *  time); a memory-budget breach or an external cancel degrades
     *  the run. */
    void
    noteCancellation()
    {
        CancelReason reason = exec_.reason();
        if (reason == CancelReason::None)
            return;
        bool first = result_.stats.cancel_reason.empty();
        result_.stats.cancel_reason = cancelReasonName(reason);
        if (reason == CancelReason::Deadline) {
            result_.stats.deadline_hit = true;
        } else if (first && reason == CancelReason::MemBudget) {
            recordRecovered(result_.stats,
                            "memory budget breached; degraded to the "
                            "best result found within budget");
        } else if (first && reason == CancelReason::External) {
            recordRecovered(result_.stats,
                            "canceled by external request (signal)");
        }
    }

    void
    finish()
    {
        noteCancellation();
        if (exec_.governor())
            result_.stats.resource = exec_.governor()->stats();
        result_.stats.total_seconds =
            std::chrono::duration<double>(Clock::now() - start_)
                .count();
        result_.stats.time_in_egraph_seconds =
            std::max(0.0, result_.stats.total_seconds -
                              result_.stats.time_in_passes_seconds);
    }

    const ir::Module &input_;
    const std::string func_name_;
    const SeerOptions &options_;
    Clock::time_point start_;

    ExecContext exec_;
    SeerResult result_;
    ir::Module working_;
    sl::Translation translation_;
    ContextPtr context_;
    std::optional<sl::NameScope> run_scope_;
    std::optional<EGraph> egraph_;
    EClassId root_{};
    eg::RunnerOptions runner_options_;
};

} // namespace

SeerResult
optimize(const ir::Module &input, const std::string &func_name,
         const SeerOptions &options)
{
    return OptimizeDriver(input, func_name, options).run();
}

json::Value
toJson(const SeerStats &stats)
{
    json::Value out{json::Object{}};
    out.set("egraph_nodes", stats.egraph_nodes);
    out.set("egraph_classes", stats.egraph_classes);
    out.set("unions_applied", stats.unions_applied);
    out.set("checkpoints", stats.checkpoints);
    out.set("checkpoint_snapshots", stats.checkpoint_snapshots);
    json::Value stops{json::Array{}};
    for (eg::StopReason stop : stats.stop_reasons)
        stops.push(json::Value{eg::stopReasonName(stop)});
    out.set("stop_reasons", std::move(stops));
    out.set("local_extractions", stats.local_extractions);
    out.set("local_extraction_hits", stats.local_extraction_hits);
    out.set("local_terms_interned", stats.local_terms_interned);
    out.set("pass_key_hashes", stats.pass_key_hashes);
    out.set("time_in_passes_seconds", stats.time_in_passes_seconds);
    out.set("time_in_egraph_seconds", stats.time_in_egraph_seconds);
    out.set("total_seconds", stats.total_seconds);
    json::Value rules{json::Array{}};
    for (const eg::RuleStats &rule : stats.rule_stats)
        rules.push(eg::toJson(rule));
    out.set("rules", std::move(rules));
    json::Value iterations{json::Array{}};
    for (const eg::IterationStats &iteration : stats.iterations)
        iterations.push(eg::toJson(iteration));
    out.set("iterations", std::move(iterations));
    out.set("match_phase", eg::toJson(stats.match_phase));
    out.set("external_eval", toJson(stats.external_eval));
    out.set("scheduler", toJson(stats.scheduler));
    json::Value extraction{json::Array{}};
    for (const ExtractionPhaseStats &phase : stats.extraction) {
        json::Value p{json::Object{}};
        p.set("name", phase.name);
        p.set("extractor", phase.extractor);
        p.set("ran", phase.ran);
        p.set("extractions", phase.extractions);
        p.set("classes_visited", phase.classes_visited);
        p.set("classes_recomputed", phase.classes_recomputed);
        p.set("bound_prunes", phase.bound_prunes);
        p.set("expansions", phase.expansions);
        p.set("budget_exhaustions", phase.budget_exhaustions);
        p.set("seconds", phase.seconds);
        p.set("tree_cost", phase.tree_cost);
        p.set("dag_cost", phase.dag_cost);
        extraction.push(std::move(p));
    }
    out.set("extraction", std::move(extraction));
    out.set("resource", toJson(stats.resource));
    out.set("degraded", stats.degraded);
    json::Value health{json::Object{}};
    health.set("degraded", stats.degraded);
    health.set("phase_rollbacks", stats.phase_rollbacks);
    health.set("deadline_hit", stats.deadline_hit);
    health.set("cancel_reason", stats.cancel_reason);
    health.set("rejected_externals", stats.rejected_externals);
    json::Value quarantined{json::Array{}};
    for (const std::string &name : stats.quarantined_rules)
        quarantined.push(json::Value{name});
    health.set("quarantined_rules", std::move(quarantined));
    json::Value recovered{json::Array{}};
    for (const std::string &error : stats.recovered_errors)
        recovered.push(json::Value{error});
    health.set("recovered_errors", std::move(recovered));
    json::Value rejections{json::Array{}};
    for (const std::string &rejection : stats.rejection_details)
        rejections.push(json::Value{rejection});
    health.set("rejections", std::move(rejections));
    out.set("health", std::move(health));
    return out;
}

} // namespace seer::core
