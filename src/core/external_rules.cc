#include "core/external_rules.h"

#include <chrono>
#include <cstring>
#include <new>
#include <set>

#include "core/may_apply.h"
#include "core/verify.h"
#include "hls/pragmas.h"
#include "ir/analysis.h"
#include "ir/builder.h"
#include "ir/verifier.h"
#include "passes/passes.h"
#include "rover/rover.h"
#include "seerlang/canonical.h"
#include "seerlang/encoding.h"
#include "seerlang/from_term.h"
#include "seerlang/to_term.h"
#include "support/error.h"
#include "support/hashing.h"

namespace seer::core {

using eg::EClassId;
using eg::EGraph;
using eg::makeDynRewrite;
using eg::makeRewrite;
using eg::Match;
using eg::Rewrite;
using eg::TermPtr;

namespace {

using Clock = std::chrono::steady_clock;

using SymbolPred = bool (*)(Symbol);

bool
isForNode(Symbol symbol)
{
    return sl::opNameOf(symbol) == "affine.for";
}

bool
isIfNode(Symbol symbol)
{
    return sl::opNameOf(symbol) == "scf.if";
}

bool
isStatementRoot(Symbol symbol)
{
    std::string_view name = sl::opNameOf(symbol);
    return name == "seq" || name == "affine.for" || name == "scf.while";
}

bool
classHas(const EGraph &egraph, EClassId id, SymbolPred pred)
{
    for (const eg::ENode &node : egraph.eclass(id).nodes) {
        if (pred(node.op))
            return true;
    }
    return false;
}

/**
 * Local extraction (Section 4.5): pick nodes satisfying `pred` as the
 * root and extract children with the analysis-friendly cost, so the
 * external pass is handed polyhedral-analyzable index expressions.
 * Children go through the context's greedy memo: the prepare hook and
 * the applier extract the same classes, and many matches share
 * children, on an e-graph that has not changed in between. The root is
 * interned there too, so an unchanged candidate keeps its pointer (and
 * its key-memo entry) across e-graph changes.
 * Returns up to `max_candidates` candidate terms (a class may hold both
 * the original loop and, say, its unrolled chain; the pass may apply to
 * either representative).
 */
std::vector<TermPtr>
extractAllRooted(const EGraph &egraph, EClassId id, SymbolPred pred,
                 const ContextPtr &ctx, size_t max_candidates = 3)
{
    // Ablation: without the analysis-friendly cost, local extraction
    // hands the external pass the hardware-cheapest representative —
    // which for indices is the shift form no polyhedral analysis can
    // read (Figure 9's failure mode).
    const eg::CostModel &cost = ctx->localCost();
    std::vector<TermPtr> out;
    const eg::EClass &cls = egraph.eclass(id);
    for (const eg::ENode &node : cls.nodes) {
        if (out.size() >= max_candidates)
            break;
        if (!pred(node.op))
            continue;
        std::vector<TermPtr> children;
        bool feasible = true;
        for (EClassId child : node.children) {
            TermPtr term = ctx->local_extraction.extract(egraph, child, cost);
            if (!term) {
                feasible = false;
                break;
            }
            children.push_back(std::move(term));
        }
        if (feasible)
            out.push_back(
                ctx->local_extraction.intern(node.op, std::move(children)));
    }
    return out;
}

std::optional<TermPtr>
extractRooted(const EGraph &egraph, EClassId id, SymbolPred pred,
              const ContextPtr &ctx)
{
    auto candidates = extractAllRooted(egraph, id, pred, ctx, 1);
    if (candidates.empty())
        return std::nullopt;
    return candidates[0];
}

// --- cache keys -----------------------------------------------------------

/** Bump when key semantics change: persisted caches must not alias. */
constexpr uint64_t kPassCacheKeyVersion = 1;

/** Evaluation-relevant context configuration, hashed into every key. */
uint64_t
configFingerprint(const ExternalRuleContext &ctx)
{
    uint64_t h = hashValue(kPassCacheKeyVersion);
    // The validation gate always runs; the constant stands where an
    // on/off flag was once hashed, so persisted keys stay valid.
    h = hashValue(uint64_t{1}, h);
    h = hashValue(static_cast<uint64_t>(ctx.eval.validation_runs), h);
    h = hashValue(ctx.eval.validation_seed, h);
    h = hashValue(static_cast<uint64_t>(ctx.unroll_max_trip), h);
    const double &clock_period = ctx.eval.hls.schedule.clock_period_ns;
    uint64_t clock_bits = 0;
    static_assert(sizeof clock_bits == sizeof clock_period);
    std::memcpy(&clock_bits, &clock_period, sizeof clock_bits);
    h = hashValue(clock_bits, h);
    return h;
}

PassKeyProbe &
passKeyProbe()
{
    static PassKeyProbe probe;
    return probe;
}

} // namespace

uint64_t
passKeyFor(const ExternalRuleContext &ctx, const char *rule,
           const TermPtr &term)
{
    uint64_t h = sl::canonicalTermHash(term);
    h = hashCombine(h, hashString(rule));
    h = hashCombine(h, configFingerprint(ctx));
    const auto &overrides = ctx.eval.hls.schedule.overrides;
    if (!overrides.empty()) {
        std::vector<std::string> ids;
        collectLoopIds(term, ids);
        for (const std::string &id : ids) {
            auto it = overrides.find(id);
            if (it == overrides.end())
                continue;
            h = hashCombine(h, hashString(id));
            const hls::LoopOverride &o = it->second;
            h = hashValue(o.ii ? static_cast<uint64_t>(*o.ii) + 1 : 0,
                          h);
            h = hashValue(
                o.latency ? static_cast<uint64_t>(*o.latency) + 1 : 0,
                h);
            h = hashValue(o.pipelined ? uint64_t(*o.pipelined) + 1 : 0,
                          h);
        }
    }
    return h;
}

void
setPassKeyProbe(PassKeyProbe probe)
{
    passKeyProbe() = std::move(probe);
}

namespace {

// --- spec-driven rule construction ---------------------------------------

/**
 * One external rule, split along the serial/parallel seam:
 * `precheck` + `extract` run serially (they read the e-graph);
 * `transform` runs in the pure evaluation stage (worker pool or
 * inline). The same spec builds both the dyn applier and the prepare
 * hook, so the two stages can never disagree about candidates.
 */
struct SnippetRuleSpec
{
    const char *name;
    /** Dense rule index, assigned by controlRules: the rule's identity
     *  in the attempt memo and the key memo. */
    uint32_t index = 0;
    const char *pattern;
    std::function<bool(const EGraph &, const Match &)> precheck;
    std::function<std::vector<TermPtr>(const EGraph &, const Match &)>
        extract;
    std::function<bool(ir::Operation &)> transform;
    /** May-apply screen (core/may_apply.h), null when the rule has
     *  none: false only when `transform` would decline the snippet the
     *  candidate lowers to, so the candidate is never keyed, scheduled,
     *  lowered or cached. */
    bool (*may_apply)(const TermPtr &) = nullptr;
    const char *law = nullptr;
};

/** Screen verdict, key and proposal size of `term` under `rule`, from
 *  the key memo. A screened-out candidate has no key. */
const ExternalRuleContext::CandidateInfo &
candidateInfo(ExternalRuleContext &ctx, const SnippetRuleSpec &rule,
              const TermPtr &term)
{
    auto [it, fresh] = ctx.candidate_keys.try_emplace({rule.index, term});
    ExternalRuleContext::CandidateInfo &info = it->second;
    if (fresh) {
        info.may_apply = !rule.may_apply || rule.may_apply(term);
        if (info.may_apply) {
            ++ctx.pass_key_hashes;
            info.key = passKeyFor(ctx, rule.name, term);
            info.term_size = proposalTermSize(term);
        } else {
            ++ctx.eval_cache->counters().screened;
        }
    }
    const PassKeyProbe &probe = passKeyProbe();
    if (probe && info.may_apply)
        probe(ctx, rule.name, term, info.key);
    return info;
}

// --- attempt memo and iteration boundary ---------------------------------

uint64_t
attemptKey(uint32_t rule, EClassId canon)
{
    return (uint64_t{rule} << 32) | canon;
}

/** Has `rule` been attempted on `root` since the class last grew? Does
 *  not record: the prepare stage must not make the apply-time check
 *  skip itself. */
bool
attemptedPeek(const ExternalRuleContext &ctx, const EGraph &egraph,
              uint32_t rule, EClassId root)
{
    EClassId canon = egraph.find(root);
    auto it = ctx.attempted.find(attemptKey(rule, canon));
    return it != ctx.attempted.end() &&
           it->second == egraph.eclass(canon).nodes.size();
}

void
recordAttempt(ExternalRuleContext &ctx, const EGraph &egraph,
              uint32_t rule, EClassId root)
{
    EClassId canon = egraph.find(root);
    ctx.attempted.insert_or_assign(attemptKey(rule, canon),
                                   egraph.eclass(canon).nodes.size());
}

/**
 * Iteration-boundary probe, called from every prepare hook (the first
 * serial code each iteration runs). The e-graph is frozen from match
 * through apply, so its tick only moves between iterations — a cheap,
 * rollback-safe signal. On a boundary the scheduler starts a new
 * iteration and a staging (non-persistent) cache drops its outcomes:
 * nothing is reused across iterations.
 */
void
syncIteration(ExternalRuleContext &ctx, const EGraph &egraph)
{
    if (egraph.tick() == ctx.last_tick)
        return;
    ctx.last_tick = egraph.tick();
    ctx.scheduler->beginIteration();
    if (!ctx.eval_cache->persistent())
        ctx.eval_cache->clearOutcomes();
}

/**
 * Serial consult: fetch (or inline-evaluate) the outcome for `term`
 * and apply its effects — rejection accounting and loop-registry
 * maintenance happen *here*, at consult time, so they are identical
 * whether the outcome came from the worker pool, the cache, a disk
 * load, or a cold inline evaluation. The rule's `law` selects the
 * paper's approximation law ("fuse") or nullptr for the schedule
 * oracle.
 * Consults run on the runner thread in canonical union order, so the
 * scheduler's observe() history replays identically under any
 * worker-pool width.
 */
std::optional<TermPtr>
consultSnippet(const ContextPtr &ctx, const SnippetRuleSpec &rule,
               const TermPtr &term,
               const ExternalRuleContext::CandidateInfo &info)
{
    // Cancellation propagation: once the driver's whole-run budget
    // (deadline, memory, signal) is spent, stop launching snippet/pass
    // work entirely.
    if (ctx->eval.exec.canceled())
        return std::nullopt;

    uint64_t key = info.key;
    ExternalEvalCache &cache = *ctx->eval_cache;
    const PassOutcome *outcome = cache.lookupPass(key);
    bool from_cache = outcome != nullptr;
    bool inline_eval = false;
    std::optional<PassOutcome> fresh;
    if (!outcome) {
        // The prepare stage missed this candidate (extraction can drift
        // as earlier applications mutate the e-graph): evaluate inline.
        // Same key, same name scope — the result is byte-identical to
        // what the pool would have produced.
        ++cache.counters().pass_cache_misses;
        inline_eval = true;
        auto t0 = Clock::now();
        EvalCharge charge;
        fresh = evaluateSnippet(term, key, rule.transform, ctx->eval,
                                charge);
        cache.chargeEvaluation(charge);
        ctx->mlir_seconds +=
            std::chrono::duration<double>(Clock::now() - t0).count();
        if (!fresh)
            return std::nullopt; // evaluation canceled: not an outcome
        cache.insertPass(key, *fresh);
        outcome = &*fresh;
    }

    {
        ProposalCandidate candidate;
        candidate.rule = rule.name;
        candidate.key = key;
        candidate.term = term;
        candidate.term_size = info.term_size;
        ProposalOutcome fed;
        fed.status = outcome->status;
        fed.from_cache = from_cache;
        fed.inline_eval = inline_eval;
        if (outcome->status == PassOutcome::Status::Replaced) {
            fed.cost_delta =
                static_cast<double>(candidate.term_size) -
                static_cast<double>(
                    proposalTermSize(outcome->replacement));
        }
        ctx->scheduler->observe(candidate, fed);
    }

    switch (outcome->status) {
    case PassOutcome::Status::NotApplied:
        return std::nullopt;
    case PassOutcome::Status::Rejected:
        // Fault isolation: a rejected replacement leaves no trace
        // beyond its diagnostic.
        ++ctx->rejected_results;
        if (ctx->rejections.size() < 16)
            ctx->rejections.push_back(outcome->detail);
        return std::nullopt;
    case PassOutcome::Status::Replaced:
        break;
    }

    // Registry maintenance for loops in the transformed snippet.
    std::vector<std::string> input_ids;
    collectLoopIds(term, input_ids);
    std::vector<std::string> output_ids;
    collectLoopIds(outcome->replacement, output_ids);
    std::vector<std::string> new_ids;
    for (const std::string &id : output_ids) {
        if (!ctx->registry.count(id))
            new_ids.push_back(id);
    }
    bool law_applied = false;
    if (ctx->use_laws && rule.law && std::string(rule.law) == "fuse" &&
        input_ids.size() == 2 && output_ids.size() == 1 &&
        new_ids.size() == 1 && ctx->registry.count(input_ids[0]) &&
        ctx->registry.count(input_ids[1])) {
        ctx->registry[new_ids[0]] =
            fuseLaw(ctx->registry.at(input_ids[0]),
                    ctx->registry.at(input_ids[1]));
        law_applied = true;
    }
    if (!law_applied && (!new_ids.empty() || rule.law == nullptr)) {
        // Oracle: adopt the schedule computed in the pure stage.
        for (const auto &[id, entry] : outcome->schedule)
            ctx->registry[id] = entry;
    }
    return outcome->replacement;
}

Rewrite
makeSnippetRule(ContextPtr ctx, SnippetRuleSpec spec)
{
    Rewrite rule = makeDynRewrite(
        spec.name, spec.pattern,
        [ctx, spec](EGraph &egraph,
                    const Match &match) -> std::optional<TermPtr> {
            if (!spec.precheck(egraph, match))
                return std::nullopt;
            if (attemptedPeek(*ctx, egraph, spec.index, match.root))
                return std::nullopt;
            std::vector<TermPtr> terms = spec.extract(egraph, match);
            // Budget gate: a match whose candidate was deferred by the
            // scheduler this iteration is skipped wholesale — no
            // attempt recorded (it stays eligible for later waves) and
            // no inline evaluation (which would defeat the budget).
            if (ctx->scheduler->mayDefer()) {
                for (const TermPtr &term : terms) {
                    const ExternalRuleContext::CandidateInfo &info =
                        candidateInfo(*ctx, spec, term);
                    if (info.may_apply &&
                        ctx->scheduler->deferred(info.key))
                        return std::nullopt;
                }
            }
            recordAttempt(*ctx, egraph, spec.index, match.root);
            for (const TermPtr &term : terms) {
                const ExternalRuleContext::CandidateInfo &info =
                    candidateInfo(*ctx, spec, term);
                if (!info.may_apply)
                    continue;
                auto result = consultSnippet(ctx, spec, term, info);
                if (result)
                    return result;
            }
            return std::nullopt;
        });
    rule.prepare = [ctx, spec](const EGraph &egraph,
                               const std::vector<Match> &matches) {
        ExternalEvalCache &cache = *ctx->eval_cache;
        syncIteration(*ctx, egraph);
        auto past = [&ctx] { return ctx->eval.exec.canceled(); };
        if (past())
            return;
        // Propose: this iteration's unique, uncached candidates, in
        // canonical enumeration order.
        std::vector<ProposalCandidate> wave;
        std::set<uint64_t> seen;
        for (const Match &match : matches) {
            if (!spec.precheck(egraph, match))
                continue;
            if (attemptedPeek(*ctx, egraph, spec.index, match.root))
                continue;
            for (const TermPtr &term : spec.extract(egraph, match)) {
                const ExternalRuleContext::CandidateInfo &info =
                    candidateInfo(*ctx, spec, term);
                if (!info.may_apply)
                    continue;
                uint64_t key = info.key;
                if (!seen.insert(key).second) {
                    ++cache.counters().candidates_deduped;
                    continue;
                }
                if (!cache.probePass(key)) {
                    ProposalCandidate candidate;
                    candidate.rule = spec.name;
                    candidate.key = key;
                    candidate.term = term;
                    candidate.term_size = info.term_size;
                    wave.push_back(std::move(candidate));
                }
            }
        }
        if (wave.empty())
            return;
        // Schedule, then evaluate the ordered batch on the pool.
        std::vector<ProposalCandidate> batch =
            ctx->scheduler->schedule(std::move(wave));
        if (batch.empty())
            return;
        std::vector<EvalBatchItem> items;
        items.reserve(batch.size());
        for (const ProposalCandidate &candidate : batch)
            items.push_back({candidate.key, candidate.term});
        // "Time in MLIR" is wall-clock: the batch blocks the main loop,
        // so the elapsed span (not summed thread-seconds) is charged.
        auto t0 = Clock::now();
        evaluateBatch(items, spec.transform, ctx->eval, cache, ctx->jobs,
                      past);
        ctx->mlir_seconds +=
            std::chrono::duration<double>(Clock::now() - t0).count();
    };
    return rule;
}

/** First top-level loop of a snippet function. */
ir::Operation *
firstLoop(ir::Operation &func)
{
    auto loops = ir::topLevelLoops(func.region(0).block());
    return loops.empty() ? nullptr : loops[0];
}

ir::Operation *
firstIf(ir::Operation &func)
{
    ir::Operation *found = nullptr;
    ir::walk(func, [&](ir::Operation &op) {
        if (!found && ir::isa(op, ir::opnames::kIf))
            found = &op;
    });
    return found;
}

} // namespace

void
ExternalRuleContext::beginPhase()
{
    attempted.clear();
    scheduler->beginPhase();
}

std::vector<Rewrite>
seqRules()
{
    std::vector<Rewrite> rules;
    // One direction suffices: left-grouping a right-associated chain
    // already surfaces every adjacent statement pair as a (seq a b)
    // class; the reverse direction only multiplies class count.
    rules.push_back(makeRewrite("seq-assoc",
                                "(seq ?a (seq ?b ?c))",
                                "(seq (seq ?a ?b) ?c)"));
    rules.push_back(makeRewrite("seq-nop-l", "(seq nop ?a)", "?a"));
    rules.push_back(makeRewrite("seq-nop-r", "(seq ?a nop)", "?a"));
    return rules;
}

namespace {

/** The ten control-path rules' specs, sharing `context`. */
std::vector<SnippetRuleSpec>
snippetRuleSpecs(const ContextPtr &context)
{
    std::vector<SnippetRuleSpec> specs;
    // A snippet rule's dense index is its position in this list.
    auto add_snippet_rule = [&](SnippetRuleSpec spec) {
        spec.index = static_cast<uint32_t>(specs.size());
        specs.push_back(std::move(spec));
    };
    Symbol var_a("a"), var_b("b");

    // --- loop fusion over adjacent statements --------------------------
    {
        SnippetRuleSpec spec;
        spec.name = "loop-fusion";
        spec.pattern = "(seq ?a ?b)";
        spec.precheck = [var_a, var_b](const EGraph &egraph,
                                       const Match &match) {
            return classHas(egraph, match.subst.at(var_a), isForNode) &&
                   classHas(egraph, match.subst.at(var_b), isForNode);
        };
        spec.extract = [context, var_a, var_b](const EGraph &egraph,
                                               const Match &match) {
            std::vector<TermPtr> out;
            auto ta = extractRooted(egraph, match.subst.at(var_a),
                                    isForNode, context);
            auto tb = extractRooted(egraph, match.subst.at(var_b),
                                    isForNode, context);
            if (ta && tb)
                out.push_back(context->local_extraction.intern(
                    sl::seqSymbol(), {*ta, *tb}));
            return out;
        };
        spec.transform = [](ir::Operation &func) {
            auto loops = ir::topLevelLoops(func.region(0).block());
            if (loops.size() < 2)
                return false;
            return passes::fuseLoopPair(*loops[0], *loops[1]);
        };
        spec.law = "fuse";
        add_snippet_rule(std::move(spec));
    }

    // --- single-class loop rules ------------------------------------
    auto add_loop_rule = [&](const char *name,
                             std::function<bool(ir::Operation &)>
                                 transform,
                             bool (*may_apply)(const TermPtr &) =
                                 nullptr) {
        SnippetRuleSpec spec;
        spec.name = name;
        spec.may_apply = may_apply;
        spec.pattern = "?x";
        spec.precheck = [](const EGraph &egraph, const Match &match) {
            return classHas(egraph, match.root, isForNode);
        };
        spec.extract = [context](const EGraph &egraph,
                                 const Match &match) {
            std::vector<TermPtr> out;
            auto term = extractRooted(egraph, match.root, isForNode,
                                      context);
            if (term)
                out.push_back(*term);
            return out;
        };
        spec.transform = std::move(transform);
        add_snippet_rule(std::move(spec));
    };

    if (context->unroll_max_trip > 0) {
        int64_t max_trip = context->unroll_max_trip;
        add_loop_rule("loop-unroll", [max_trip](ir::Operation &func) {
            ir::Operation *loop = firstLoop(func);
            return loop && passes::unrollLoop(*loop, max_trip);
        });
        // Composite exploration (a pass *sequence*, which is exactly
        // what SEER searches over): unroll every small inner loop of a
        // nest, then forward memory through the unrolled bodies. This
        // surfaces the "pipelined outer loop with flattened inner
        // datapath" design point of the Intel case study.
        add_loop_rule("loop-unroll-inner",
                      [max_trip](ir::Operation &func) {
                          ir::Operation *outer = firstLoop(func);
                          if (!outer)
                              return false;
                          bool changed = false;
                          bool progress = true;
                          while (progress) {
                              progress = false;
                              std::vector<ir::Operation *> inner_loops;
                              ir::walk(*outer, [&](ir::Operation &op) {
                                  if (&op != outer &&
                                      ir::isa(op,
                                              ir::opnames::kAffineFor))
                                      inner_loops.push_back(&op);
                              });
                              for (ir::Operation *inner : inner_loops) {
                                  if (passes::unrollLoop(*inner,
                                                         max_trip)) {
                                      changed = true;
                                      progress = true;
                                      break;
                                  }
                              }
                          }
                          if (!changed)
                              return false;
                          // The case study's sequence: unroll, convert
                          // the now-replicated ifs to selects, then
                          // forward the scalar chain away.
                          bool if_progress = true;
                          while (if_progress) {
                              if_progress = false;
                              std::vector<ir::Operation *> ifs;
                              ir::walk(func, [&](ir::Operation &op) {
                                  if (ir::isa(op, ir::opnames::kIf))
                                      ifs.push_back(&op);
                              });
                              for (ir::Operation *if_op : ifs) {
                                  if (passes::convertIf(*if_op)) {
                                      if_progress = true;
                                      break;
                                  }
                              }
                          }
                          passes::forwardMemory(func);
                          passes::canonicalize(func);
                          return true;
                      },
                      hasNestedLoop);
    }
    // The nest passes need a loop inside the snippet's first loop.
    add_loop_rule(
        "loop-interchange",
        [](ir::Operation &func) {
            ir::Operation *loop = firstLoop(func);
            return loop && passes::interchangeLoops(*loop);
        },
        hasNestedLoop);
    add_loop_rule(
        "loop-flatten",
        [](ir::Operation &func) {
            // SEER's flatten handles perfect 2-nests; the commercial
            // tool's coalesce pragma (Figure 15) takes whole nests.
            ir::Operation *loop = firstLoop(func);
            return loop && hls::coalesceNest(*loop, 2);
        },
        hasNestedLoop);
    add_loop_rule(
        "loop-perfection",
        [](ir::Operation &func) {
            ir::Operation *loop = firstLoop(func);
            return loop && passes::perfectLoop(*loop);
        },
        hasNestedLoop);
    add_loop_rule("memory-reuse", [](ir::Operation &func) {
        ir::Operation *loop = firstLoop(func);
        return loop && passes::reuseMemory(*loop);
    });

    // --- if rules ----------------------------------------------------
    // They fire on if-rooted classes and on loop-rooted classes (the
    // latter so speculation-safety checks can see the loop context that
    // bounds the indices).
    auto add_if_rule = [&](const char *name,
                           std::function<bool(ir::Operation &)>
                               transform) {
        SnippetRuleSpec spec;
        spec.name = name;
        spec.pattern = "?x";
        spec.precheck = [](const EGraph &egraph, const Match &match) {
            return classHas(egraph, match.root, isIfNode) ||
                   classHas(egraph, match.root, isForNode);
        };
        spec.extract = [context](const EGraph &egraph,
                                 const Match &match) {
            SymbolPred pred = classHas(egraph, match.root, isIfNode)
                                  ? isIfNode
                                  : isForNode;
            std::vector<TermPtr> out;
            auto term = extractRooted(egraph, match.root, pred,
                                      context);
            if (term)
                out.push_back(*term);
            return out;
        };
        spec.transform = std::move(transform);
        // Both passes start from the snippet's first scf.if.
        spec.may_apply = hasIfStatement;
        add_snippet_rule(std::move(spec));
    };
    add_if_rule("if-conversion", [](ir::Operation &func) {
        ir::Operation *if_op = firstIf(func);
        return if_op && passes::convertIf(*if_op);
    });
    add_if_rule("cf-mux", [](ir::Operation &func) {
        ir::Operation *if_op = firstIf(func);
        return if_op && passes::muxControlFlow(*if_op);
    });

    // --- if correlation over adjacent statements ----------------------
    {
        SnippetRuleSpec spec;
        spec.name = "if-correlation";
        spec.pattern = "(seq ?a ?b)";
        spec.precheck = [var_a, var_b](const EGraph &egraph,
                                       const Match &match) {
            return classHas(egraph, match.subst.at(var_a), isIfNode) &&
                   classHas(egraph, match.subst.at(var_b), isIfNode);
        };
        spec.extract = [context, var_a, var_b](const EGraph &egraph,
                                               const Match &match) {
            std::vector<TermPtr> out;
            auto ta = extractRooted(egraph, match.subst.at(var_a),
                                    isIfNode, context);
            auto tb = extractRooted(egraph, match.subst.at(var_b),
                                    isIfNode, context);
            if (ta && tb)
                out.push_back(context->local_extraction.intern(
                    sl::seqSymbol(), {*ta, *tb}));
            return out;
        };
        spec.transform = [](ir::Operation &func) {
            // Hoist interleaved constants first so replicated ifs
            // become adjacent.
            passes::canonicalize(func);
            std::vector<ir::Operation *> ifs;
            for (auto &op : func.region(0).block().ops()) {
                if (ir::isa(*op, ir::opnames::kIf))
                    ifs.push_back(op.get());
            }
            if (ifs.size() < 2)
                return false;
            return passes::correlateIfs(*ifs[0], *ifs[1]);
        };
        add_snippet_rule(std::move(spec));
    }

    // --- memory forwarding over statement chains ------------------------
    {
        SnippetRuleSpec spec;
        spec.name = "memory-forward";
        spec.pattern = "?x";
        spec.precheck = [](const EGraph &egraph, const Match &match) {
            return classHas(egraph, match.root, isStatementRoot);
        };
        spec.extract = [context](const EGraph &egraph,
                                 const Match &match) {
            return extractAllRooted(egraph, match.root, isStatementRoot,
                                    context);
        };
        spec.transform = [](ir::Operation &func) {
            return passes::forwardMemory(func);
        };
        spec.may_apply = mayForwardMemory;
        add_snippet_rule(std::move(spec));
    }

    return specs;
}

} // namespace

std::vector<Rewrite>
controlRules(ContextPtr context)
{
    std::vector<Rewrite> rules;
    for (SnippetRuleSpec &spec : snippetRuleSpecs(context))
        rules.push_back(makeSnippetRule(context, std::move(spec)));
    return rules;
}

std::vector<ScreenedPass>
screenedPasses(ContextPtr context)
{
    std::vector<ScreenedPass> out;
    for (SnippetRuleSpec &spec : snippetRuleSpecs(context)) {
        if (spec.may_apply)
            out.push_back({spec.name, spec.may_apply,
                           std::move(spec.transform)});
    }
    return out;
}

} // namespace seer::core
