/**
 * Scheduler-focused runner tests: egg-faithful backoff (over-budget
 * rules still apply their first budget-many matches), no false
 * saturation while bans are pending, ban expiry/decay, in-phase time
 * limits, and per-rule statistics.
 *
 * The first two tests are regressions against the seed scheduler, which
 * (a) discarded *all* matches of an over-limit rule (starving it
 * forever) and (b) reported Saturated whenever an iteration applied
 * zero unions, even when that was only because every rule was banned.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>

#include "egraph/runner.h"
#include "support/error.h"

namespace seer::eg {
namespace {

/** An e-graph holding n distinct (h leaf_i) terms: the rule
 *  (h ?x) -> (h2 ?x) then has exactly n matches, each yielding one
 *  fresh union, and stays at n matches forever (h2 nodes don't match). */
EGraph
fanoutGraph(int n)
{
    EGraph eg;
    for (int i = 0; i < n; ++i)
        eg.addTerm(parseTerm("(h leaf" + std::to_string(i) + ")"));
    return eg;
}

Rewrite
swapRule()
{
    return makeRewrite("swap", "(h ?x)", "(h2 ?x)");
}

TEST(BackoffTest, OverBudgetRuleStillAppliesItsBudget)
{
    // Seed behavior: 50 matches > limit 10 -> everything discarded,
    // total_applied == 0. Egg semantics: the first 10 matches apply,
    // *then* the rule is banned.
    EGraph eg = fanoutGraph(50);
    RunnerOptions options;
    options.match_limit = 10;
    options.max_iters = 1;
    Runner runner(eg, options);
    runner.addRule(swapRule());
    RunnerReport report = runner.run();
    EXPECT_EQ(report.total_applied, 10u);
    ASSERT_EQ(report.rules.size(), 1u);
    EXPECT_EQ(report.rules[0].name, "swap");
    EXPECT_EQ(report.rules[0].matches, 10u);
    EXPECT_EQ(report.rules[0].applications, 10u);
    EXPECT_EQ(report.rules[0].bans, 1u);
}

TEST(BackoffTest, AlwaysExplosiveRuleStillContributesUnions)
{
    // match_limit=1: the rule is over budget every single iteration it
    // runs, yet must keep contributing unions between bans.
    EGraph eg = fanoutGraph(50);
    RunnerOptions options;
    options.match_limit = 1;
    options.ban_length = 1;
    options.max_iters = 30;
    Runner runner(eg, options);
    runner.addRule(swapRule());
    RunnerReport report = runner.run();
    EXPECT_GE(report.total_applied, 4u);
    EXPECT_GE(report.rules[0].bans, 2u);
}

TEST(BackoffTest, BannedOutRunIsNotReportedSaturated)
{
    // Regression: with one explosive rule and match_limit=1, iteration 2
    // has zero active rules and zero unions; the seed reported that as
    // Saturated. It must surface as BannedOut (bans pending past the
    // iteration horizon), never as saturation.
    EGraph eg = fanoutGraph(50);
    RunnerOptions options;
    options.match_limit = 1;
    options.max_iters = 3; // ban span (default 5) outlives the horizon
    Runner runner(eg, options);
    runner.addRule(swapRule());
    RunnerReport report = runner.run();
    EXPECT_NE(report.stop, StopReason::Saturated);
    EXPECT_EQ(report.stop, StopReason::BannedOut);
    EXPECT_EQ(report.total_applied, 1u);
    EXPECT_EQ(stopReasonName(report.stop), "banned-out");
}

TEST(BackoffTest, BansExpireAndRunConvergesToSaturation)
{
    // The escalating budget (match_limit << times_banned) must
    // eventually cover all 50 matches, after which a genuinely quiet,
    // ban-free iteration reports honest saturation.
    EGraph eg = fanoutGraph(50);
    RunnerOptions options;
    options.match_limit = 8;
    options.ban_length = 1;
    options.max_iters = 30;
    Runner runner(eg, options);
    runner.addRule(swapRule());
    RunnerReport report = runner.run();
    EXPECT_EQ(report.total_applied, 50u);
    EXPECT_EQ(report.stop, StopReason::Saturated);
    // Skipped all-banned spans appear as gaps in the trajectory.
    ASSERT_GE(report.iterations.size(), 2u);
    for (size_t i = 1; i < report.iterations.size(); ++i) {
        EXPECT_GT(report.iterations[i].iter,
                  report.iterations[i - 1].iter);
    }
}

TEST(BackoffTest, BanLevelDecaysAfterCleanIterations)
{
    // 6 matches with limit 4: one ban lifts the budget to 8, which then
    // covers everything; ban_decay_iters clean iterations later the ban
    // level must fall back to zero.
    EGraph eg = fanoutGraph(6);
    RunnerOptions options;
    options.match_limit = 4;
    options.ban_length = 1;
    options.ban_decay_iters = 2;
    options.max_iters = 30;
    Runner runner(eg, options);
    runner.addRule(swapRule());
    RunnerReport report = runner.run();
    EXPECT_EQ(report.total_applied, 6u);
    EXPECT_EQ(report.rules[0].bans, 1u);
    EXPECT_EQ(report.rules[0].times_banned, 0u); // decayed back down

    // Control: with decay disabled the elevated ban level persists.
    EGraph eg2 = fanoutGraph(6);
    options.ban_decay_iters = 1000000;
    Runner runner2(eg2, options);
    runner2.addRule(swapRule());
    RunnerReport report2 = runner2.run();
    EXPECT_EQ(report2.rules[0].times_banned, 1u);
}

TEST(TimeLimitTest, EnforcedInsideTheMatchPhase)
{
    // Zero budget: the runner must stop during the first match phase,
    // before applying anything — not after a full iteration.
    EGraph eg = fanoutGraph(50);
    RunnerOptions options;
    options.time_limit_seconds = 0.0;
    options.max_iters = 1000000;
    Runner runner(eg, options);
    runner.addRule(swapRule());
    RunnerReport report = runner.run();
    EXPECT_EQ(report.stop, StopReason::TimeLimit);
    EXPECT_EQ(report.total_applied, 0u);
    EXPECT_TRUE(report.iterations.empty());
}

/** A truncated search stops at the first budget + 1 matches: a fan of
 *  far more candidates than that, each matching once, is visited only
 *  up to the budget + 1st candidate — however wide the fan. */
TEST(RuleStatsTest, TruncatedSearchVisitsBudgetPlusOneCandidates)
{
    EGraph eg = fanoutGraph(1300);
    RunnerOptions options;
    options.match_limit = 7;
    options.max_iters = 1;
    Runner runner(eg, options);
    runner.addRule(swapRule());
    RunnerReport report = runner.run();
    EXPECT_EQ(report.rules[0].bans, 1u);
    EXPECT_EQ(report.match_phase.candidates_visited,
              options.match_limit + 1);
    EXPECT_EQ(report.rules[0].search_candidates, options.match_limit + 1);
}

TEST(RuleStatsTest, PerRuleCountersAndTimesAreTracked)
{
    EGraph eg;
    eg.addTerm(parseTerm("(add x y)"));
    Runner runner(eg);
    runner.addRule(makeRewrite("comm", "(add ?a ?b)", "(add ?b ?a)"));
    runner.addRule(makeRewrite("never", "(sub ?a ?b)", "(sub ?b ?a)"));
    RunnerReport report = runner.run();
    ASSERT_EQ(report.rules.size(), 2u);
    EXPECT_EQ(report.rules[0].name, "comm");
    EXPECT_GE(report.rules[0].matches, 1u);
    EXPECT_EQ(report.rules[0].applications, 1u);
    EXPECT_EQ(report.rules[0].bans, 0u);
    EXPECT_GE(report.rules[0].search_seconds, 0.0);
    EXPECT_EQ(report.rules[1].name, "never");
    EXPECT_EQ(report.rules[1].matches, 0u);
    EXPECT_EQ(report.rules[1].applications, 0u);
    // The iteration trajectory carries the scheduler view too.
    ASSERT_FALSE(report.iterations.empty());
    EXPECT_EQ(report.iterations[0].iter, 1u);
    EXPECT_EQ(report.iterations[0].banned_rules, 0u);
}

TEST(RuleStatsTest, ReportSerializesToJson)
{
    EGraph eg = fanoutGraph(5);
    RunnerOptions options;
    options.match_limit = 2;
    options.max_iters = 2;
    Runner runner(eg, options);
    runner.addRule(swapRule());
    RunnerReport report = runner.run();
    std::string text = toJson(report).dump();
    EXPECT_NE(text.find("\"stop\""), std::string::npos);
    EXPECT_NE(text.find("\"rules\""), std::string::npos);
    EXPECT_NE(text.find("\"swap\""), std::string::npos);
    EXPECT_NE(text.find("\"iterations\""), std::string::npos);
    EXPECT_NE(text.find("\"bans\": 1"), std::string::npos);
    // Match-phase instrumentation: per-rule search counters plus the
    // aggregated match_phase block. Existing keys above must stay
    // stable — downstream consumers parse this schema. Every search is
    // a full rescan, so no watermark or match-cache counter is left.
    EXPECT_NE(text.find("\"search_candidates\""), std::string::npos);
    EXPECT_NE(text.find("\"match_phase\""), std::string::npos);
    EXPECT_NE(text.find("\"candidates_visited\""), std::string::npos);
    EXPECT_NE(text.find("\"index_scans\""), std::string::npos);
    EXPECT_NE(text.find("\"full_scans\""), std::string::npos);
    EXPECT_NE(text.find("\"index_hit_rate\""), std::string::npos);
    EXPECT_NE(text.find("\"search_wall_seconds\""), std::string::npos);
    EXPECT_EQ(text.find("skipped_clean"), std::string::npos);
    EXPECT_EQ(text.find("cached_matches_reused"), std::string::npos);
    EXPECT_EQ(text.find("incremental_scans"), std::string::npos);
}

TEST(SchedulerInteractionTest, CleanRulesKeepRunningWhileOneIsBanned)
{
    // A banned explosive rule must not freeze the rest of the rule set:
    // the chain f -> g -> k only completes via the second rule firing in
    // an iteration where the first sits banned.
    EGraph eg = fanoutGraph(50);
    eg.addTerm(parseTerm("(f x)"));
    RunnerOptions options;
    options.match_limit = 5;
    options.ban_length = 2;
    options.max_iters = 10;
    Runner runner(eg, options);
    runner.addRule(swapRule()); // explosive: banned in iteration 1
    runner.addRule(makeRewrite("f-to-g", "(f ?a)", "(g ?a)"));
    runner.addRule(makeRewrite("g-to-k", "(g ?a)", "(k ?a)"));
    RunnerReport report = runner.run();
    auto k = eg.lookupTerm(parseTerm("(k x)"));
    ASSERT_TRUE(k.has_value());
    EXPECT_EQ(eg.find(*k), eg.find(*eg.lookupTerm(parseTerm("(f x)"))));
    EXPECT_GE(report.rules[0].bans, 1u);
}

// --- Fault isolation (PR 2) -------------------------------------------

/** A dynamic rule whose applier always throws. */
Rewrite
crashingRule()
{
    return makeDynRewrite(
        "crasher", "(h ?x)",
        [](EGraph &, const Match &) -> std::optional<TermPtr> {
            fatal("boom");
        });
}

TEST(QuarantineTest, CrashingRuleIsQuarantinedAndRunContinues)
{
    // The crashing rule trips the circuit breaker after
    // quarantine_after consecutive failures; the healthy rule keeps
    // rewriting and the run completes normally.
    EGraph eg = fanoutGraph(10);
    RunnerOptions options;
    options.max_iters = 10;
    options.quarantine_after = 3;
    Runner runner(eg, options);
    runner.addRule(crashingRule());
    runner.addRule(swapRule());
    RunnerReport report = runner.run();

    EXPECT_GT(report.total_applied, 0u); // swap still fired
    EXPECT_EQ(report.rules_quarantined, 1u);
    ASSERT_EQ(report.rules.size(), 2u);
    EXPECT_TRUE(report.rules[0].quarantined);
    EXPECT_GE(report.rules[0].failures, 3u);
    EXPECT_FALSE(report.rules[1].quarantined);
    EXPECT_FALSE(report.recovered_errors.empty());
    EXPECT_NE(report.recovered_errors[0].find("crasher"),
              std::string::npos);
    EXPECT_NE(report.recovered_errors[0].find("boom"),
              std::string::npos);
    EXPECT_EQ(eg.debugCheckInvariants(), "");
}

TEST(QuarantineTest, AllRulesQuarantinedStopsTheRun)
{
    EGraph eg = fanoutGraph(5);
    RunnerOptions options;
    options.max_iters = 100;
    options.quarantine_after = 2;
    Runner runner(eg, options);
    runner.addRule(crashingRule());
    RunnerReport report = runner.run();
    EXPECT_EQ(report.stop, StopReason::Quarantined);
    EXPECT_EQ(report.total_applied, 0u);
    EXPECT_EQ(eg.debugCheckInvariants(), "");
}

TEST(QuarantineTest, StrictModeRethrowsTheFirstFailure)
{
    EGraph eg = fanoutGraph(5);
    RunnerOptions options;
    options.catch_rule_errors = false;
    Runner runner(eg, options);
    runner.addRule(crashingRule());
    EXPECT_THROW(runner.run(), FatalError);
    // The failed application never unioned anything.
    EXPECT_EQ(eg.debugCheckInvariants(), "");
}

TEST(QuarantineTest, IntermittentFailuresDoNotTripTheBreaker)
{
    // Failures must be *consecutive* to quarantine: a rule that
    // recovers in between keeps running (only backoff applies).
    EGraph eg = fanoutGraph(1);
    auto calls = std::make_shared<int>(0);
    Rewrite flaky = makeDynRewrite(
        "flaky", "(h ?x)",
        [calls](EGraph &, const Match &) -> std::optional<TermPtr> {
            if (++*calls <= 2)
                fatal("transient failure");
            return std::nullopt; // applies nothing, but succeeds
        });
    RunnerOptions options;
    options.max_iters = 8;
    options.quarantine_after = 3;
    Runner runner(eg, options);
    runner.addRule(flaky);
    RunnerReport report = runner.run();
    ASSERT_EQ(report.rules.size(), 1u);
    EXPECT_FALSE(report.rules[0].quarantined);
    EXPECT_GE(report.rules[0].failures, 2u);
    EXPECT_EQ(report.rules_quarantined, 0u);
}

TEST(QuarantineTest, FailedApplicationsLeaveNoTrace)
{
    // A guarded dynamic application is transactional: junk the applier
    // added to the e-graph before crashing must be rolled back, not
    // left to poison later matching/extraction.
    EGraph eg = fanoutGraph(3);
    size_t nodes_before = eg.numNodes();
    Rewrite dirty = makeDynRewrite(
        "dirty-crasher", "(h ?x)",
        [](EGraph &egraph, const Match &) -> std::optional<TermPtr> {
            egraph.addTerm(parseTerm("(junk junk-leaf)"));
            fatal("crash after mutating");
        });
    RunnerOptions options;
    options.max_iters = 5;
    Runner runner(eg, options);
    runner.addRule(dirty);
    RunnerReport report = runner.run();
    EXPECT_GE(report.rules[0].failures, 1u);
    EXPECT_EQ(eg.numNodes(), nodes_before);
    EXPECT_FALSE(eg.lookupTerm(parseTerm("(junk junk-leaf)")));
    EXPECT_EQ(eg.debugCheckInvariants(), "");
}

TEST(DeadlineTest, ExpiredDeadlineStopsTheRunImmediately)
{
    EGraph eg = fanoutGraph(50);
    RunnerOptions options;
    options.max_iters = 100;
    options.exec = ExecContext::make();
    options.exec.setDeadline(std::chrono::steady_clock::now());
    Runner runner(eg, options);
    runner.addRule(swapRule());
    RunnerReport report = runner.run();
    EXPECT_EQ(report.stop, StopReason::Canceled);
    EXPECT_EQ(report.total_applied, 0u);
}

} // namespace
} // namespace seer::eg
