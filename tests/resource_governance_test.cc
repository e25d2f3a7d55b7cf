/**
 * Resource-governance and chaos-harness tests (the robustness PR's
 * no-throw contract): optimize() under any seeded fault plan or memory
 * budget must never propagate bad_alloc and must keep delivering
 * verifier-clean IR; cancellation reasons are reported honestly; the
 * pass-cache file survives torn writes; and the corpus chaos sweep
 * both passes on a clean pipeline and still catches a planted
 * miscompile.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/pass_eval.h"
#include "core/seer.h"
#include "core/verify.h"
#include "corpus/oracle.h"
#include "corpus/runner.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "support/exec_context.h"
#include "support/fault_inject.h"

namespace seer {
namespace {

const char *kSmallKernel = R"(
func.func @k(%a: memref<16xi32>, %b: memref<16xi32>) {
  affine.for %i = 0 to 8 {
    %v = memref.load %a[%i] : memref<16xi32>
    %w = arith.addi %v, %v : i32
    memref.store %w, %b[%i] : memref<16xi32>
  }
})";

/** Small, fast pipeline configuration for sweep tests. */
core::SeerOptions
sweepOptions()
{
    core::SeerOptions options;
    options.max_phases = 2;
    options.runner.max_iters = 2;
    return options;
}

// ---------------------------------------------------------------------
// Fault-plan plumbing
// ---------------------------------------------------------------------

TEST(FaultPlanTest, NamesRoundTripThroughTheParser)
{
    for (size_t i = 0; i < kNumFaultPoints; ++i) {
        FaultPoint point = static_cast<FaultPoint>(i);
        auto parsed = parseFaultPoint(faultPointName(point));
        ASSERT_TRUE(parsed.has_value()) << faultPointName(point);
        EXPECT_EQ(*parsed, point);
    }
    EXPECT_FALSE(parseFaultPoint("no-such-point").has_value());
}

TEST(FaultPlanTest, PlanTextRoundTrips)
{
    FaultPlan plan;
    plan.seed = 1234;
    plan.rate = 0.25;
    plan.fixed.push_back({FaultPoint::EGraphAlloc, 3});
    plan.fixed.push_back({FaultPoint::CacheRead, 1});
    auto parsed = FaultPlan::parse(plan.str());
    ASSERT_TRUE(parsed.has_value()) << plan.str();
    EXPECT_EQ(parsed->seed, plan.seed);
    EXPECT_DOUBLE_EQ(parsed->rate, plan.rate);
    ASSERT_EQ(parsed->fixed.size(), 2u);
    EXPECT_EQ(parsed->fixed[0].first, FaultPoint::EGraphAlloc);
    EXPECT_EQ(parsed->fixed[0].second, 3u);
    EXPECT_EQ(parsed->fixed[1].first, FaultPoint::CacheRead);
    EXPECT_EQ(parsed->fixed[1].second, 1u);

    EXPECT_FALSE(FaultPlan::parse("fixed=bogus@1").has_value());
    EXPECT_FALSE(FaultPlan::parse("rate=nope").has_value());
}

TEST(FaultPlanTest, SeededRateFiresDeterministically)
{
    FaultPlan plan;
    plan.seed = 42;
    plan.rate = 0.5;
    std::string first, second;
    for (int round = 0; round < 2; ++round) {
        ScopedFaultPlan armed(plan);
        std::string &bits = round ? second : first;
        for (int i = 0; i < 64; ++i)
            bits += faultFire(FaultPoint::EGraphAlloc) ? '1' : '0';
    }
    EXPECT_EQ(first, second);
    EXPECT_NE(first.find('1'), std::string::npos);
    EXPECT_NE(first.find('0'), std::string::npos);
}

// ---------------------------------------------------------------------
// The no-throw contract: optimize() under every injection point
// ---------------------------------------------------------------------

/**
 * Two fusable loops: external passes apply (and change the IR, so the
 * validation gate co-simulates), so every injection point is on the
 * path of one optimize() call.
 */
const char *kFusableKernel = R"(
func.func @k(%a: memref<64xi32>, %b: memref<64xi32>,
             %c: memref<64xi32>) {
  affine.for %i = 0 to 32 {
    %v = memref.load %a[%i] : memref<64xi32>
    %w = arith.addi %v, %v : i32
    memref.store %w, %b[%i] : memref<64xi32>
  }
  affine.for %j = 0 to 32 {
    %v = memref.load %b[%j] : memref<64xi32>
    %c2 = arith.constant 2 : i32
    %w = arith.muli %v, %c2 : i32
    memref.store %w, %c[%j] : memref<64xi32>
  }
})";

TEST(NoThrowContractTest, OptimizeSurvivesEveryInjectionPoint)
{
    // Fixpoint sweep: fire each point at several hit indices. Whatever
    // the schedule, optimize() must neither throw nor emit invalid IR.
    // The kernel, the phase budget and the pass-cache file put every
    // point on the path, so each armed index must actually be reached.
    ir::Module input = ir::parseModule(kFusableKernel);
    core::SeerOptions options = sweepOptions();
    options.max_phases = 4;
    options.pass_cache_file =
        std::string(::testing::TempDir()) + "sweep_pass_cache.txt";
    for (size_t i = 0; i < kNumFaultPoints; ++i) {
        FaultPoint point = static_cast<FaultPoint>(i);
        for (uint64_t nth : {1ull, 2ull, 8ull}) {
            // Start cold, so the pass-evaluation points are reached.
            std::remove(options.pass_cache_file.c_str());
            FaultPlan plan;
            plan.fixed.push_back({point, nth});
            ScopedFaultPlan armed(plan);
            core::SeerResult result;
            ASSERT_NO_THROW(result = core::optimize(input, "k", options))
                << plan.str();
            EXPECT_EQ(ir::verify(result.module), "")
                << plan.str() << "\n" << ir::toString(result.module);
            // One optimize() saves its cache file once, at the end: a
            // later cache-save index cannot be reached.
            uint64_t reachable =
                point == FaultPoint::CacheSave ? 1 : nth;
            EXPECT_GE(FaultInjector::instance().hits(point), reachable)
                << plan.str();
        }
    }
    std::remove(options.pass_cache_file.c_str());
}

TEST(NoThrowContractTest, AllPointsAtOnceStillDelivers)
{
    ir::Module input = ir::parseModule(kSmallKernel);
    FaultPlan plan;
    for (size_t i = 0; i < kNumFaultPoints; ++i)
        plan.fixed.push_back({static_cast<FaultPoint>(i), 1});
    ScopedFaultPlan armed(plan);
    core::SeerResult result;
    ASSERT_NO_THROW(result = core::optimize(input, "k", sweepOptions()));
    EXPECT_EQ(ir::verify(result.module), "")
        << ir::toString(result.module);
    EXPECT_TRUE(result.stats.degraded);
}

TEST(NoThrowContractTest, RollbackMidPhaseFaultRollsThePhaseBack)
{
    ir::Module input = ir::parseModule(kSmallKernel);
    FaultPlan plan;
    plan.fixed.push_back({FaultPoint::RollbackMidPhase, 1});
    ScopedFaultPlan armed(plan);
    core::SeerResult result = core::optimize(input, "k", sweepOptions());
    EXPECT_TRUE(result.stats.degraded);
    EXPECT_GE(result.stats.phase_rollbacks, 1u);
    EXPECT_EQ(ir::verify(result.module), "");
    std::string diag;
    EXPECT_TRUE(core::checkModuleEquivalence(input, result.module, "k",
                                             {}, &diag))
        << diag;
}

TEST(NoThrowContractTest, StrictModeStillPropagatesInjectedCrashes)
{
    ir::Module input = ir::parseModule(kSmallKernel);
    FaultPlan plan;
    plan.fixed.push_back({FaultPoint::RollbackMidPhase, 1});
    ScopedFaultPlan armed(plan);
    core::SeerOptions options = sweepOptions();
    options.strict = true;
    EXPECT_THROW(core::optimize(input, "k", options), FatalError);
}

// ---------------------------------------------------------------------
// Memory budget: breach degrades, never OOMs
// ---------------------------------------------------------------------

TEST(MemBudgetTest, TinyBudgetDegradesToVerifiedIr)
{
    ir::Module input = ir::parseModule(kSmallKernel);
    core::SeerOptions options = sweepOptions();
    options.mem_budget_bytes = 2 * 1024; // breaches almost immediately
    core::SeerResult result = core::optimize(input, "k", options);

    EXPECT_TRUE(result.stats.degraded);
    EXPECT_TRUE(result.stats.resource.breached);
    EXPECT_EQ(result.stats.cancel_reason, "mem_budget");
    EXPECT_EQ(result.stats.resource.budget_bytes, 2u * 1024);
    EXPECT_EQ(ir::verify(result.module), "")
        << ir::toString(result.module);
    std::string diag;
    EXPECT_TRUE(core::checkModuleEquivalence(input, result.module, "k",
                                             {}, &diag))
        << diag;

    // The breach reaches the --stats JSON resource section.
    std::string text = core::toJson(result.stats).dump();
    EXPECT_NE(text.find("\"resource\""), std::string::npos);
    EXPECT_NE(text.find("\"breached\": true"), std::string::npos);
}

TEST(MemBudgetTest, CleanRunAccountsPeakBytes)
{
    ir::Module input = ir::parseModule(kSmallKernel);
    core::SeerResult result =
        core::optimize(input, "k", sweepOptions());
    EXPECT_FALSE(result.stats.resource.breached);
    EXPECT_TRUE(result.stats.cancel_reason.empty());
    size_t egraph = static_cast<size_t>(MemSubsystem::EGraph);
    EXPECT_GT(result.stats.resource.sub[egraph].peak_bytes, 0u);
    EXPECT_GT(result.stats.resource.peak_bytes, 0u);
}

TEST(MemBudgetTest, PreCanceledContextShortCircuits)
{
    ir::Module input = ir::parseModule(kSmallKernel);
    core::SeerOptions options = sweepOptions();
    options.exec = ExecContext::make();
    options.exec.requestCancel(CancelReason::External);
    core::SeerResult result = core::optimize(input, "k", options);
    EXPECT_TRUE(result.stats.degraded);
    EXPECT_EQ(result.stats.cancel_reason, "external");
    EXPECT_EQ(ir::verify(result.module), "");
}

// ---------------------------------------------------------------------
// Torn pass-cache files
// ---------------------------------------------------------------------

/** Read a whole file (binary). */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream body;
    body << in.rdbuf();
    return body.str();
}

TEST(CachePersistenceTest, SaveIsAtomicUnderInjectedCrash)
{
    std::string path = "governance_cache_atomic.tmp.json";
    core::ExternalEvalCache cache;
    core::PassOutcome outcome;
    outcome.status = core::PassOutcome::Status::NotApplied;
    cache.insertPass(7, outcome);

    std::string error;
    ASSERT_TRUE(cache.saveFile(path, &error)) << error;
    std::string original = slurp(path);
    ASSERT_FALSE(original.empty());

    // A crash injected before the rename must leave the published file
    // untouched (no torn write) and report the failure.
    cache.insertPass(8, outcome);
    {
        FaultPlan plan;
        plan.fixed.push_back({FaultPoint::CacheSave, 1});
        ScopedFaultPlan armed(plan);
        EXPECT_FALSE(cache.saveFile(path, &error));
        EXPECT_FALSE(error.empty());
    }
    EXPECT_EQ(slurp(path), original);

    // Reloading the surviving file round-trips.
    core::ExternalEvalCache reload;
    EXPECT_EQ(reload.loadFile(path, &error), 1u) << error;
    std::remove(path.c_str());
}

TEST(CachePersistenceTest, TruncatedAndCorruptFilesAreRejectedWhole)
{
    std::string path = "governance_cache_torn.tmp.json";
    core::ExternalEvalCache cache;
    core::PassOutcome outcome;
    outcome.status = core::PassOutcome::Status::NotApplied;
    cache.insertPass(7, outcome);
    std::string error;
    ASSERT_TRUE(cache.saveFile(path, &error)) << error;
    std::string full = slurp(path);

    // Truncation (a torn write) fails the checksum: zero entries
    // adopted, not a prefix.
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << full.substr(0, full.size() - 4);
    }
    core::ExternalEvalCache torn;
    error.clear();
    EXPECT_EQ(torn.loadFile(path, &error), 0u);
    EXPECT_FALSE(error.empty());

    // A flipped byte in the body fails the checksum too.
    std::string corrupt = full;
    corrupt[full.size() / 2] ^= 0x20;
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << corrupt;
    }
    core::ExternalEvalCache flipped;
    error.clear();
    EXPECT_EQ(flipped.loadFile(path, &error), 0u);
    EXPECT_FALSE(error.empty());
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Chaos harness: the corpus oracle under randomized fault plans
// ---------------------------------------------------------------------

TEST(ChaosHarnessTest, ChaosSweepUpholdsTheDegradedModeContract)
{
    corpus::CorpusOptions options;
    options.first_seed = 1;
    options.count = 4;
    options.minimize = false;
    options.chaos = true;
    options.chaos_rate = 0.05;
    options.oracle.input_runs = 1;
    options.oracle.deadline_seconds = 60;
    options.oracle.seer.exact_datapath = false;
    corpus::CorpusReport report = corpus::runCorpus(options);
    EXPECT_EQ(report.total, 4u);
    EXPECT_EQ(report.failed, 0u) << corpus::toJson(report, options).dump();
}

TEST(ChaosHarnessTest, ChaosModeStillCatchesAPlantedMiscompile)
{
    // The chaos machinery must not mask real bugs: with the unsound
    // store-dropping rule planted, the sweep still fails the case.
    corpus::CorpusOptions options;
    options.first_seed = 6; // known to trigger the unsound rewrite
    options.count = 1;
    options.minimize = false;
    options.chaos = true;
    options.chaos_rate = 0; // plan machinery on, no fault noise
    options.oracle.input_runs = 1;
    options.oracle.deadline_seconds = 60;
    options.oracle.seer.exact_datapath = false;
    options.oracle.seer.extra_control_rules.push_back(
        corpus::makeUnsoundStoreDropRule());
    corpus::CorpusReport report = corpus::runCorpus(options);
    EXPECT_GE(report.failed, 1u);
}

} // namespace
} // namespace seer
