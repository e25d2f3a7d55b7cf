/**
 * The propose/evaluate seam: ProposalScheduler policies, phase-object
 * bookkeeping, wire plumbing, and the refactor's byte-identity pin.
 *
 * The golden differential at the bottom is the load-bearing test: the
 * files under tests/golden/ were generated by the pre-refactor
 * optimize() monolith (deterministic options: unbounded saturation
 * time, so exploration is budgeted by iterations/nodes, never by
 * machine speed), and the exhaustive scheduler must reproduce them
 * byte for byte — stats counters, extracted-term hash, and printed IR.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "benchmarks/benchmarks.h"
#include "core/scheduler.h"
#include "core/seer.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "seerlang/canonical.h"

namespace seer::core {
namespace {

ProposalCandidate
cand(const char *rule, uint64_t key)
{
    ProposalCandidate c;
    c.rule = rule;
    c.key = key;
    c.term_size = 3;
    return c;
}

TEST(ScheduleKind, ParseAndName)
{
    ScheduleKind kind{};
    EXPECT_TRUE(parseScheduleKind("exhaustive", &kind));
    EXPECT_EQ(kind, ScheduleKind::Exhaustive);
    EXPECT_TRUE(parseScheduleKind("bandit", &kind));
    EXPECT_EQ(kind, ScheduleKind::Bandit);
    EXPECT_FALSE(parseScheduleKind("greedy", &kind));
    EXPECT_FALSE(parseScheduleKind("", &kind));
    EXPECT_STREQ(scheduleKindName(ScheduleKind::Exhaustive),
                 "exhaustive");
    EXPECT_STREQ(scheduleKindName(ScheduleKind::Bandit), "bandit");
}

TEST(ExhaustiveScheduler, PassesEveryCandidateInOrder)
{
    auto sched = makeExhaustiveScheduler();
    EXPECT_FALSE(sched->mayDefer());
    std::vector<ProposalCandidate> wave = {cand("a", 30), cand("b", 10),
                                           cand("a", 20)};
    std::vector<ProposalCandidate> batch = sched->schedule(wave);
    ASSERT_EQ(batch.size(), 3u);
    // Enumeration order untouched: this is what makes the exhaustive
    // arm bit-identical to the pre-seam loop.
    EXPECT_EQ(batch[0].key, 30u);
    EXPECT_EQ(batch[1].key, 10u);
    EXPECT_EQ(batch[2].key, 20u);
    for (const ProposalCandidate &c : wave)
        EXPECT_FALSE(sched->deferred(c.key));
    SchedulerStats stats = sched->stats();
    EXPECT_EQ(stats.name, "exhaustive");
    EXPECT_EQ(stats.candidates, 3u);
    EXPECT_EQ(stats.scheduled, 3u);
    EXPECT_EQ(stats.deferred, 0u);
}

TEST(BanditScheduler, BudgetDefersButKeepsOneSlot)
{
    BanditConfig config;
    config.eval_budget = 0.25;
    config.epsilon = 0; // no promotions: the budget alone decides
    auto sched = makeBanditScheduler(config);
    EXPECT_TRUE(sched->mayDefer());

    std::vector<ProposalCandidate> wave;
    for (uint64_t k = 0; k < 8; ++k)
        wave.push_back(cand("fuse", 100 + k));
    std::vector<ProposalCandidate> batch = sched->schedule(wave);
    // ceil(0.25 * 8) = 2 cold evaluations allowed.
    EXPECT_EQ(batch.size(), 2u);
    SchedulerStats stats = sched->stats();
    EXPECT_EQ(stats.scheduled, 2u);
    EXPECT_EQ(stats.deferred, 6u);
    size_t deferred = 0;
    for (uint64_t k = 0; k < 8; ++k)
        deferred += sched->deferred(100 + k) ? 1 : 0;
    EXPECT_EQ(deferred, 6u);

    // A singleton wave always keeps its slot: budgets never stall
    // exploration outright.
    batch = sched->schedule({cand("fuse", 999)});
    EXPECT_EQ(batch.size(), 1u);

    // Deferral is sticky within a phase: the iteration boundary keeps
    // parked candidates parked (re-entry is epsilon-only, and epsilon
    // is 0 here), so budget savings compound across iterations.
    sched->beginIteration();
    deferred = 0;
    for (uint64_t k = 0; k < 8; ++k)
        deferred += sched->deferred(100 + k) ? 1 : 0;
    EXPECT_EQ(deferred, 6u);
    // With epsilon 0, a parked candidate stays parked even when
    // re-proposed: the wave yields no batch at all.
    std::vector<ProposalCandidate> parked;
    for (uint64_t k = 2; k < 8; ++k)
        parked.push_back(cand("fuse", 100 + k));
    EXPECT_TRUE(sched->schedule(parked).empty());
    // A new phase starts from a clean slate.
    sched->beginPhase();
    for (uint64_t k = 0; k < 8; ++k)
        EXPECT_FALSE(sched->deferred(100 + k));
}

TEST(BanditScheduler, EpsilonFloorEventuallyPullsEveryArm)
{
    BanditConfig config;
    config.eval_budget = 0.125; // 1 of 16 per wave by budget alone
    auto sched = makeBanditScheduler(config);

    // 16 distinct arms: two passes x the full bucket range.
    auto makeWave = [] {
        std::vector<ProposalCandidate> wave;
        for (uint64_t k = 0; k < 8; ++k)
            wave.push_back(cand("fuse", k));
        for (uint64_t k = 0; k < 8; ++k)
            wave.push_back(cand("unroll", k));
        return wave;
    };
    for (int round = 0; round < 200; ++round) {
        sched->beginIteration();
        for (ProposalCandidate &c : sched->schedule(makeWave())) {
            ProposalOutcome outcome; // NotApplied: zero reward
            sched->observe(c, outcome);
        }
    }
    SchedulerStats stats = sched->stats();
    ASSERT_EQ(stats.arms.size(), 16u);
    for (const SchedulerArmStats &arm : stats.arms)
        EXPECT_GE(arm.pulls, 1u)
            << arm.pass << " bucket " << arm.bucket << " never pulled";
    // The seeded epsilon stream fired at least once over 200 waves of
    // 15 deferred candidates each.
    EXPECT_GT(stats.epsilon_promotions, 0u);
    EXPECT_GT(stats.deferred, 0u);
}

TEST(BanditScheduler, SameSeedReplaysIdentically)
{
    BanditConfig config;
    config.eval_budget = 0.5;
    config.seed = 1234;
    auto a = makeBanditScheduler(config);
    auto b = makeBanditScheduler(config);
    for (int round = 0; round < 50; ++round) {
        a->beginIteration();
        b->beginIteration();
        std::vector<ProposalCandidate> wave;
        for (uint64_t k = 0; k < 6; ++k)
            wave.push_back(
                cand(k % 2 ? "fuse" : "unroll", round * 100 + k));
        std::vector<ProposalCandidate> batch_a = a->schedule(wave);
        std::vector<ProposalCandidate> batch_b = b->schedule(wave);
        ASSERT_EQ(batch_a.size(), batch_b.size());
        for (size_t i = 0; i < batch_a.size(); ++i) {
            EXPECT_EQ(batch_a[i].key, batch_b[i].key);
            ProposalOutcome outcome;
            outcome.status = PassOutcome::Status::Replaced;
            outcome.cost_delta = 1;
            a->observe(batch_a[i], outcome);
            b->observe(batch_b[i], outcome);
        }
    }
    EXPECT_EQ(toJson(a->stats()).dump(2), toJson(b->stats()).dump(2));
}

TEST(SchedulerStats, JsonHasAllCounters)
{
    auto sched = makeExhaustiveScheduler();
    sched->schedule({cand("fuse", 7)});
    ProposalOutcome outcome;
    outcome.status = PassOutcome::Status::Replaced;
    outcome.from_cache = true;
    sched->observe(cand("fuse", 7), outcome);
    std::string text = toJson(sched->stats()).dump(2);
    for (const char *field :
         {"\"name\"", "\"waves\"", "\"candidates\"", "\"scheduled\"",
          "\"deferred\"", "\"epsilon_promotions\"", "\"observations\"",
          "\"cached_observations\"", "\"inline_evaluations\"",
          "\"reward_total\"", "\"regret_proxy\"", "\"arms\""}) {
        EXPECT_NE(text.find(field), std::string::npos) << field;
    }
}

// --- end-to-end ------------------------------------------------------------

const char *kTwoLoops = R"(
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

SeerOptions
deterministicOptions()
{
    SeerOptions options;
    // Unbounded saturation time: exploration is budgeted by
    // iterations/nodes, so results cannot depend on machine speed.
    options.runner.time_limit_seconds = 100000;
    return options;
}

TEST(OptimizeSchedule, StatsJsonCarriesSchedulerSection)
{
    ir::Module input = ir::parseModule(kTwoLoops);
    SeerResult result = optimize(input, "k", deterministicOptions());
    SchedulerStats sched = result.stats.scheduler;
    EXPECT_EQ(sched.name, "exhaustive");
    EXPECT_GT(sched.candidates, 0u);
    EXPECT_EQ(sched.candidates, sched.scheduled); // exhaustive
    EXPECT_EQ(sched.deferred, 0u);
    EXPECT_GT(sched.observations, 0u);
    std::string text = toJson(result.stats).dump(2);
    EXPECT_NE(text.find("\"scheduler\""), std::string::npos);
}

TEST(OptimizeSchedule, BanditBudgetSavesColdEvaluations)
{
    ir::Module input = ir::parseModule(kTwoLoops);
    SeerOptions exhaustive = deterministicOptions();
    SeerResult base = optimize(input, "k", exhaustive);

    SeerOptions bandit = deterministicOptions();
    bandit.schedule = ScheduleKind::Bandit;
    bandit.eval_budget = 0.25;
    SeerResult budgeted = optimize(input, "k", bandit);

    EXPECT_EQ(budgeted.stats.scheduler.name, "bandit");
    EXPECT_GT(budgeted.stats.scheduler.deferred, 0u);
    // Deferred proposals are exactly the cold evaluations not spent.
    EXPECT_LT(budgeted.stats.external_eval.evaluations,
              base.stats.external_eval.evaluations);
    // The budgeted run still emits verified IR (optimize() would have
    // thrown otherwise) and a nonempty module.
    EXPECT_NE(ir::toString(budgeted.module), "");
}

TEST(OptimizeSchedule, BanditReplaysByteIdenticallyAcrossJobs)
{
    ir::Module input = ir::parseModule(kTwoLoops);
    auto run = [&](unsigned jobs) {
        SeerOptions options = deterministicOptions();
        options.schedule = ScheduleKind::Bandit;
        options.eval_budget = 0.5;
        options.schedule_seed = 77;
        options.jobs = jobs;
        SeerResult result = optimize(input, "k", options);
        return std::make_pair(ir::toString(result.module),
                              toJson(result.stats.scheduler).dump(2));
    };
    auto j1 = run(1);
    auto j1_again = run(1);
    auto j4 = run(4);
    EXPECT_EQ(j1.first, j1_again.first);   // output IR, same run twice
    EXPECT_EQ(j1.second, j1_again.second); // scheduler stats JSON
    EXPECT_EQ(j1.first, j4.first);         // -j1 == -j4, IR
    EXPECT_EQ(j1.second, j4.second);       // -j1 == -j4, stats
}

// --- the refactor's byte-identity pin --------------------------------------

/** Reproduce tests/golden/<name>.golden (written by the pre-refactor
 *  monolith) with today's exhaustive scheduler, on `jobs` workers. */
void
checkGolden(const std::string &name, unsigned jobs = 1)
{
    const bench::Benchmark *bench = nullptr;
    for (const auto &b : bench::allBenchmarks()) {
        if (b.name == name)
            bench = &b;
    }
    ASSERT_NE(bench, nullptr) << name;

    std::ifstream file(std::string(SEER_GOLDEN_DIR) + "/" + name +
                       ".golden");
    ASSERT_TRUE(file.good()) << "missing golden for " << name;
    std::stringstream golden;
    golden << file.rdbuf();

    ir::Module module = bench::parseBenchmark(*bench);
    SeerOptions options = deterministicOptions();
    options.unroll_max_trip = bench->unroll_max_trip;
    options.jobs = jobs;
    SeerResult result = optimize(module, bench->func, options);
    // -j reached the evaluation pool: every batch ran on `jobs` workers.
    const ExternalEvalStats &eval = result.stats.external_eval;
    EXPECT_GT(eval.batches, 0u);
    EXPECT_EQ(eval.batch_workers, jobs * eval.batches);

    std::ostringstream actual;
    actual << "unions " << result.stats.unions_applied << "\n";
    actual << "nodes " << result.stats.egraph_nodes << "\n";
    actual << "classes " << result.stats.egraph_classes << "\n";
    actual << "rejected " << result.stats.rejected_externals << "\n";
    actual << "evaluations " << result.stats.external_eval.evaluations
           << "\n";
    actual << "extracted_hash "
           << (result.extracted_term
                   ? sl::canonicalTermHash(result.extracted_term)
                   : 0)
           << "\n";
    actual << "---\n";
    actual << ir::toString(result.module);
    EXPECT_EQ(actual.str(), golden.str());
}

#define SEER_GOLDEN_TEST(name)                                         \
    TEST(ExhaustiveGolden, name) { checkGolden(#name); }

SEER_GOLDEN_TEST(seq_loops)
SEER_GOLDEN_TEST(byte_enable_calc)
SEER_GOLDEN_TEST(kmp)
SEER_GOLDEN_TEST(gemm_ncubed)
SEER_GOLDEN_TEST(gemm_blocked)
SEER_GOLDEN_TEST(md_knn)
SEER_GOLDEN_TEST(md_grid)
SEER_GOLDEN_TEST(sort_merge)
SEER_GOLDEN_TEST(sort_radix)

#undef SEER_GOLDEN_TEST

// -j drives the pass-evaluation pool; at 4 workers it must reproduce
// the same goldens.
TEST(ExhaustiveGolden, seq_loops_jobs4) { checkGolden("seq_loops", 4); }
TEST(ExhaustiveGolden, kmp_jobs4) { checkGolden("kmp", 4); }

/** Under the default options (10 s runner limit included), every
 *  saturation of seq_loops stops on its deterministic fuel, never on
 *  the wall clock, and the stop reasons do not depend on -j. */
TEST(StopReasons, SeqLoopsNeverHitsTheTimeLimit)
{
    const bench::Benchmark &bench = bench::findBenchmark("seq_loops");
    auto stops = [&](unsigned jobs) {
        ir::Module module = bench::parseBenchmark(bench);
        SeerOptions options;
        options.jobs = jobs;
        SeerResult result = optimize(module, bench.func, options);
        std::string json = toJson(result.stats).dump();
        EXPECT_NE(json.find("\"stop_reasons\": ["), std::string::npos);
        std::vector<std::string> names;
        for (eg::StopReason stop : result.stats.stop_reasons)
            names.push_back(eg::stopReasonName(stop));
        return names;
    };
    std::vector<std::string> j1 = stops(1);
    EXPECT_FALSE(j1.empty());
    for (const std::string &name : j1)
        EXPECT_NE(name, "time-limit");
    EXPECT_EQ(stops(4), j1);
}

// --- pass-cache key pin ----------------------------------------------------

TEST(PassCacheKeys, SeqLoopsKeysArePinned)
{
    // --pass-cache files outlive the binary that wrote them, so any
    // change to key derivation (snippet hashing, the evaluation config
    // fingerprint, the run's name scope) would silently turn every
    // persisted cache cold. These keys were recorded from a --pass-cache
    // file written for seq_loops under these options.
    const bench::Benchmark &bench = bench::findBenchmark("seq_loops");
    ir::Module module = bench::parseBenchmark(bench);
    SeerOptions options = deterministicOptions();
    options.shared_eval_cache = std::make_shared<ExternalEvalCache>();
    optimize(module, bench.func, options);

    ExternalEvalCache &cache = *options.shared_eval_cache;
    const uint64_t replaced = 0x0da4e95470b01904ULL;
    const uint64_t declined = 0x0676288caa498227ULL;
    ASSERT_TRUE(cache.probePass(replaced));
    EXPECT_EQ(cache.lookupPass(replaced)->status,
              PassOutcome::Status::Replaced);
    ASSERT_TRUE(cache.probePass(declined));
    EXPECT_EQ(cache.lookupPass(declined)->status,
              PassOutcome::Status::NotApplied);
}

} // namespace
} // namespace seer::core
