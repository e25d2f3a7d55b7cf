#include "egraph/runner.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <new>

#include "egraph/extract.h"
#include "egraph/pattern.h"
#include "support/error.h"

namespace seer::eg {

std::string
stopReasonName(StopReason reason)
{
    switch (reason) {
      case StopReason::Saturated: return "saturated";
      case StopReason::IterLimit: return "iteration-limit";
      case StopReason::NodeLimit: return "node-limit";
      case StopReason::TimeLimit: return "time-limit";
      case StopReason::BannedOut: return "banned-out";
      case StopReason::Quarantined: return "quarantined";
      case StopReason::Canceled: return "canceled";
    }
    return "?";
}

json::Value
toJson(const RuleStats &stats)
{
    json::Value out{json::Object{}};
    out.set("name", stats.name);
    out.set("matches", stats.matches);
    out.set("applications", stats.applications);
    out.set("bans", stats.bans);
    out.set("times_banned", stats.times_banned);
    out.set("failures", stats.failures);
    out.set("quarantined", stats.quarantined);
    out.set("search_seconds", stats.search_seconds);
    out.set("apply_seconds", stats.apply_seconds);
    out.set("search_candidates", stats.search_candidates);
    return out;
}

json::Value
toJson(const MatchPhaseStats &stats)
{
    json::Value out{json::Object{}};
    out.set("candidates_visited", stats.candidates_visited);
    out.set("index_scans", stats.index_scans);
    out.set("full_scans", stats.full_scans);
    size_t scans = stats.index_scans + stats.full_scans;
    out.set("index_hit_rate",
            scans == 0 ? 0.0
                       : static_cast<double>(stats.index_scans) / scans);
    out.set("search_wall_seconds", stats.search_wall_seconds);
    return out;
}

json::Value
toJson(const IterationStats &stats)
{
    json::Value out{json::Object{}};
    out.set("iter", stats.iter);
    out.set("matches", stats.matches);
    out.set("applied", stats.applied);
    out.set("banned_rules", stats.banned_rules);
    out.set("nodes", stats.nodes);
    out.set("classes", stats.classes);
    out.set("seconds", stats.seconds);
    return out;
}

json::Value
toJson(const RunnerReport &report)
{
    json::Value out{json::Object{}};
    out.set("stop", stopReasonName(report.stop));
    out.set("total_applied", report.total_applied);
    out.set("total_seconds", report.total_seconds);
    out.set("rules_quarantined", report.rules_quarantined);
    out.set("match_phase", toJson(report.match_phase));
    if (!report.recovered_errors.empty() ||
        report.recovered_errors_dropped > 0) {
        json::Value errors{json::Array{}};
        for (const std::string &error : report.recovered_errors)
            errors.push(error);
        out.set("recovered_errors", std::move(errors));
        out.set("recovered_errors_dropped",
                report.recovered_errors_dropped);
    }
    json::Value iterations{json::Array{}};
    for (const IterationStats &stats : report.iterations)
        iterations.push(toJson(stats));
    out.set("iterations", std::move(iterations));
    json::Value rules{json::Array{}};
    for (const RuleStats &stats : report.rules) {
        // Idle rules would drown the interesting ones in large rule sets.
        if (stats.matches > 0 || stats.bans > 0)
            rules.push(toJson(stats));
    }
    out.set("rules", std::move(rules));
    return out;
}

size_t
Runner::thresholdFor(const RuleState &state) const
{
    // Cap the shift: past 2^20x the budget is effectively unlimited and
    // further shifting would overflow.
    size_t shift = std::min<size_t>(state.times_banned, 20);
    return options_.match_limit << shift;
}

size_t
Runner::banSpanFor(const RuleState &state) const
{
    size_t shift = std::min<size_t>(state.times_banned, 20);
    return std::max<size_t>(1, options_.ban_length << shift);
}

std::vector<Match>
Runner::search(size_t r, RunnerReport &report)
{
    MatchPhaseStats &mp = report.match_phase;
    const Pattern &lhs = *rules_[r].lhs;
    const size_t limit = thresholdFor(states_[r]) + 1;
    if (options_.naive_match) {
        ++mp.full_scans;
        return ematchNaive(egraph_, lhs, limit);
    }
    EMatchStats es;
    std::vector<Match> matches = ematch(egraph_, lhs, limit, &es);
    es.used_index ? ++mp.index_scans : ++mp.full_scans;
    mp.candidates_visited += es.candidates_visited;
    report.rules[r].search_candidates += es.candidates_visited;
    return matches;
}

RunnerReport
Runner::run()
{
    using Clock = std::chrono::steady_clock;
    auto start = Clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(Clock::now() - start).count();
    };
    auto since = [](Clock::time_point t0) {
        return std::chrono::duration<double>(Clock::now() - t0).count();
    };
    // The per-run time budget, tightened by the driver's whole-run
    // deadline when that expires sooner.
    double time_limit = options_.time_limit_seconds;
    if (auto deadline = options_.exec.deadline()) {
        double remaining =
            std::chrono::duration<double>(*deadline - start).count();
        time_limit = std::min(time_limit, std::max(0.0, remaining));
    }

    states_.assign(rules_.size(), RuleState{});
    RunnerReport report;
    report.rules.resize(rules_.size());
    for (size_t r = 0; r < rules_.size(); ++r)
        report.rules[r].name = rules_[r].name;
    egraph_.rebuild();

    // Proof records are resolved lazily at the end of the run: resolving
    // a concrete term per union *during* the run costs an extraction
    // fixpoint per union and dominated runtime.
    struct PendingRecord
    {
        size_t rule_index;
        Subst subst;
        TermPtr dyn_rhs; ///< dynamic rules carry their concrete rhs
    };
    std::vector<PendingRecord> pending_records;

    // Fault-isolation accounting shared by the search and apply guards.
    constexpr size_t kMaxRecoveredErrors = 32;
    size_t failures_this_iter = 0;
    auto record_failure = [&](size_t r, const std::string &what) {
        ++failures_this_iter;
        RuleState &state = states_[r];
        RuleStats &rule_stats = report.rules[r];
        ++rule_stats.failures;
        ++state.consecutive_failures;
        if (report.recovered_errors.size() < kMaxRecoveredErrors) {
            report.recovered_errors.push_back(rules_[r].name + ": " +
                                              what);
        } else {
            ++report.recovered_errors_dropped;
        }
        if (state.consecutive_failures >= options_.quarantine_after &&
            !state.quarantined) {
            state.quarantined = true;
            rule_stats.quarantined = true;
        }
    };

    bool timed_out = false;
    bool canceled = false;
    report.stop = StopReason::IterLimit;
    for (size_t iter = 1; iter <= options_.max_iters;) {
        auto iter_start = Clock::now();
        IterationStats stats;
        stats.iter = iter;
        failures_this_iter = 0;

        std::vector<size_t> active;
        size_t banned_now = 0;
        size_t quarantined_now = 0;
        for (size_t r = 0; r < rules_.size(); ++r) {
            if (states_[r].quarantined)
                ++quarantined_now;
            else if (states_[r].banned_until_iter < iter)
                active.push_back(r);
            else
                ++banned_now;
        }
        stats.banned_rules = banned_now;

        if (active.empty()) {
            if (!rules_.empty() && quarantined_now == rules_.size()) {
                // Every rule tripped the circuit breaker.
                report.stop = StopReason::Quarantined;
                break;
            }
            if (banned_now == 0) {
                // No rules at all: trivially saturated.
                report.stop = StopReason::Saturated;
                break;
            }
            // Every runnable rule is banned. Fast-forward to the
            // earliest unban instead of spinning through empty
            // iterations; if that lies beyond the horizon, the run is
            // throttled out, which is *not* saturation.
            size_t next = SIZE_MAX;
            for (const RuleState &state : states_) {
                if (!state.quarantined)
                    next = std::min(next, state.banned_until_iter + 1);
            }
            if (next > options_.max_iters) {
                report.stop = StopReason::BannedOut;
                break;
            }
            iter = next;
            continue;
        }

        // Phase 1: search every active rule, serially and read-only,
        // up to its budget + 1 so overflow is detectable without
        // enumerating every match of an explosive rule. Cancellation
        // and the time limit are polled between rules; a partial phase
        // is discarded, never applied, so the explored graph cannot
        // depend on where the interruption fell.
        struct PendingApply
        {
            size_t rule_index;
            Match match;
        };
        std::vector<std::vector<Match>> per_rule(rules_.size());
        auto phase_start = Clock::now();
        for (size_t r : active) {
            if (options_.exec.canceled()) {
                canceled = true;
                break;
            }
            if (elapsed() > time_limit) {
                timed_out = true;
                break;
            }
            auto t0 = Clock::now();
            try {
                per_rule[r] = search(r, report);
            } catch (const FatalError &err) {
                if (!options_.catch_rule_errors)
                    throw;
                record_failure(r, err.what());
            } catch (const std::bad_alloc &) {
                // Allocation failure while searching one rule is that
                // rule's failure, not the runner's: the e-graph was not
                // mutated.
                if (!options_.catch_rule_errors)
                    throw;
                record_failure(r, "allocation failure during search "
                                  "(contained)");
            }
            double seconds = since(t0);
            report.rules[r].search_seconds += seconds;
            report.match_phase.shard_seconds += seconds;
        }
        report.match_phase.search_wall_seconds += since(phase_start);
        if (canceled || options_.exec.canceled()) {
            canceled = true;
            report.stop = StopReason::Canceled;
            break;
        }
        if (timed_out) {
            report.stop = StopReason::TimeLimit;
            break;
        }

        // Backoff scheduling (egg's BackoffScheduler semantics): an
        // over-budget rule still applies its first budget-many matches
        // and is banned *afterwards*; a clean streak decays the ban
        // level so the budget recovers.
        for (size_t r : active) {
            RuleState &state = states_[r];
            std::vector<Match> &matches = per_rule[r];
            size_t threshold = thresholdFor(state);
            if (matches.size() > threshold) {
                matches.resize(threshold);
                state.banned_until_iter = iter + banSpanFor(state);
                state.times_banned++;
                state.clean_streak = 0;
                report.rules[r].bans++;
            } else if (state.times_banned > 0 &&
                       ++state.clean_streak >= options_.ban_decay_iters) {
                state.times_banned--;
                state.clean_streak = 0;
            }
            stats.matches += matches.size();
            report.rules[r].matches += matches.size();
        }

        // Batch stage: after truncation the iteration's work-list is
        // final, and the e-graph is immutable until the apply phase
        // below. Each rule's prepare hook sees exactly the matches that
        // will be consumed — the external-pass layer uses this window
        // to evaluate deduped snippet candidates on a worker pool while
        // unions stay strictly serial. Guarded like an application: a
        // crashing hook is this rule's failure, not the runner's.
        for (size_t r : active) {
            if (!rules_[r].prepare || per_rule[r].empty() ||
                states_[r].quarantined)
                continue;
            auto t0 = Clock::now();
            try {
                rules_[r].prepare(egraph_, per_rule[r]);
            } catch (const FatalError &err) {
                if (!options_.catch_rule_errors)
                    throw;
                record_failure(r, err.what());
            } catch (const std::bad_alloc &) {
                if (!options_.catch_rule_errors)
                    throw;
                record_failure(r, "allocation failure in prepare hook "
                                  "(contained)");
            }
            report.rules[r].apply_seconds += since(t0);
        }

        std::vector<PendingApply> pending;
        for (size_t r : active) {
            for (Match &match : per_rule[r])
                pending.push_back({r, std::move(match)});
        }

        // Phase 2: apply. Each application runs inside a guard: a
        // FatalError from a (dynamic) rule is recovered and counted,
        // and the circuit breaker drops the rule's remaining matches
        // once it trips.
        for (PendingApply &pa : pending) {
            if (options_.exec.canceled()) {
                canceled = true;
                break;
            }
            if (elapsed() > time_limit) {
                timed_out = true;
                break;
            }
            RuleState &state = states_[pa.rule_index];
            if (state.quarantined)
                continue;
            auto t0 = Clock::now();
            const Rewrite &rule = rules_[pa.rule_index];
            RuleStats &rule_stats = report.rules[pa.rule_index];
            // Guarded dynamic applications are transactional: the
            // applier gets a mutable e-graph, so a crash mid-mutation
            // would otherwise leave half-added junk behind. A failed
            // application must leave no trace.
            std::optional<EGraph::Checkpoint> app_cp;
            try {
                if (rule.condition &&
                    !rule.condition(egraph_, pa.match)) {
                    rule_stats.apply_seconds += since(t0);
                    continue;
                }

                EClassId root = egraph_.find(pa.match.root);
                TermPtr rhs_term;
                EClassId rhs_id;
                if (rule.isDynamic()) {
                    if (options_.catch_rule_errors)
                        app_cp = egraph_.checkpoint();
                    auto produced = rule.dyn(egraph_, pa.match);
                    if (!produced) {
                        if (app_cp) {
                            egraph_.commit(*app_cp);
                            app_cp.reset();
                        }
                        state.consecutive_failures = 0;
                        rule_stats.apply_seconds += since(t0);
                        continue;
                    }
                    rhs_term = *produced;
                    rhs_id = egraph_.addTerm(rhs_term);
                    // Node-budget enforcement *inside* the apply loop:
                    // one dynamic application (an external pass can
                    // return an arbitrarily large term) must not blow
                    // far past max_nodes before the iteration-boundary
                    // check sees it. A guarded application that would
                    // land the graph over budget is rolled back and
                    // counted as that rule's failure — rules that
                    // repeatedly produce oversized terms quarantine out
                    // honestly instead of stopping the whole run.
                    if (app_cp &&
                        egraph_.numNodes() > options_.max_nodes) {
                        size_t nodes = egraph_.numNodes();
                        egraph_.rollback(*app_cp);
                        app_cp.reset();
                        record_failure(
                            pa.rule_index,
                            MsgBuilder()
                                << "application refused: would grow the "
                                   "e-graph to "
                                << nodes << " nodes (budget "
                                << options_.max_nodes << ")");
                        rule_stats.apply_seconds += since(t0);
                        continue;
                    }
                } else {
                    rhs_id =
                        instantiate(egraph_, *rule.rhs, pa.match.subst);
                }
                bool changed = egraph_.merge(root, rhs_id, rule.name);
                if (app_cp) {
                    egraph_.commit(*app_cp);
                    app_cp.reset();
                }
                state.consecutive_failures = 0;
                if (changed) {
                    ++stats.applied;
                    ++rule_stats.applications;
                    if (options_.record_proofs) {
                        pending_records.push_back({pa.rule_index,
                                                   pa.match.subst,
                                                   rhs_term});
                    }
                }
            } catch (const FatalError &err) {
                if (!options_.catch_rule_errors)
                    throw;
                if (app_cp) {
                    egraph_.rollback(*app_cp);
                    app_cp.reset();
                }
                record_failure(pa.rule_index, err.what());
            } catch (const std::bad_alloc &) {
                // The no-throw contract: an allocation failure inside
                // one application must not leak a partial e-graph. The
                // guard's checkpoint restores the pre-application
                // state exactly as for a FatalError.
                if (!options_.catch_rule_errors)
                    throw;
                if (app_cp) {
                    egraph_.rollback(*app_cp);
                    app_cp.reset();
                }
                record_failure(pa.rule_index,
                               "allocation failure during application "
                               "(contained)");
            }
            rule_stats.apply_seconds += since(t0);
            if (egraph_.numNodes() > options_.max_nodes)
                break;
        }

        egraph_.rebuild();

        stats.nodes = egraph_.numNodes();
        stats.classes = egraph_.numClasses();
        stats.seconds = since(iter_start);
        report.iterations.push_back(stats);
        report.total_applied += stats.applied;

        if (canceled) {
            report.stop = StopReason::Canceled;
            break;
        }
        if (timed_out || elapsed() > time_limit) {
            report.stop = StopReason::TimeLimit;
            break;
        }
        if (egraph_.numNodes() > options_.max_nodes) {
            report.stop = StopReason::NodeLimit;
            break;
        }
        if (stats.applied == 0) {
            // A quiet iteration only proves saturation when every rule
            // fully participated: none sat out banned (banned_now), none
            // was banned during the iteration with matches beyond its
            // budget dropped (banned_until >= iter + 1), and no
            // application failed and was recovered (a guarded rule that
            // crashed did match — its fate is quarantine, not a
            // saturation verdict).
            size_t banned_next = 0;
            for (const RuleState &state : states_) {
                if (state.banned_until_iter >= iter + 1)
                    ++banned_next;
            }
            if (banned_now == 0 && banned_next == 0 &&
                failures_this_iter == 0) {
                report.stop = StopReason::Saturated;
                break;
            }
        }
        ++iter;
    }

    for (size_t r = 0; r < rules_.size(); ++r) {
        report.rules[r].times_banned = states_[r].times_banned;
        if (states_[r].quarantined)
            ++report.rules_quarantined;
    }

    // Resolve proof records through one smallest-term memo: the graph
    // no longer changes, so all classes share one greedy state and its
    // subterms. The per-class map keeps one extraction call (and one
    // ExtractAlloc fault hit) per distinct class.
    if (options_.record_proofs && !pending_records.empty()) {
        const TermSizeCost term_size;
        GreedyMemo smallest;
        std::map<EClassId, TermPtr> memo;
        auto resolve = [&](EClassId id) {
            id = egraph_.find(id);
            auto it = memo.find(id);
            if (it != memo.end())
                return it->second;
            TermPtr term = smallest.extract(egraph_, id, term_size);
            SEER_ASSERT(term, "extractSmallest on infeasible class");
            memo.emplace(id, term);
            return term;
        };
        report.records.reserve(pending_records.size());
        for (const PendingRecord &pr : pending_records) {
            const Rewrite &rule = rules_[pr.rule_index];
            RewriteRecord record;
            record.rule = rule.name;
            record.lhs = instantiateTerm(*rule.lhs, pr.subst, resolve);
            record.rhs = pr.dyn_rhs
                             ? pr.dyn_rhs
                             : instantiateTerm(*rule.rhs, pr.subst,
                                               resolve);
            report.records.push_back(std::move(record));
        }
    }

    report.total_seconds = elapsed();
    return report;
}

} // namespace seer::eg
