/**
 * @file
 * Verification-flow tests: the translation validator must catch unsound
 * rewrites injected into the exploration (Section 4.7's motivation —
 * "these passes may be unverified and could introduce non-equivalent
 * representations"), and must certify sound runs.
 */
#include <gtest/gtest.h>

#include "benchmarks/benchmarks.h"
#include "core/verify.h"
#include "egraph/runner.h"
#include "ir/parser.h"
#include "rover/rover.h"
#include "seerlang/to_term.h"

namespace seer::core {
namespace {

using eg::EGraph;
using eg::makeRewrite;
using eg::parseTerm;
using eg::Runner;
using eg::RunnerReport;

TEST(UnsoundRuleTest, ValidatorCatchesWrongArithmetic)
{
    // Deliberately wrong: a + b -> a - b.
    EGraph egraph(rover::roverAnalysisHooks());
    egraph.addTerm(
        parseTerm("(arith.addi:i32 arg:x:i32 arg:y:i32)"));
    Runner runner(egraph);
    runner.addRule(makeRewrite("bogus-add-sub",
                               "(arith.addi:i32 ?a ?b)",
                               "(arith.subi:i32 ?a ?b)"));
    RunnerReport report = runner.run();
    ASSERT_GE(report.records.size(), 1u);

    VerifyReport verification = verifyRecords(report.records);
    EXPECT_FALSE(verification.ok());
    ASSERT_FALSE(verification.failures.empty());
    EXPECT_NE(verification.failures[0].find("bogus-add-sub"),
              std::string::npos);
}

TEST(UnsoundRuleTest, ValidatorCatchesWidthIgnorantRule)
{
    // x * 2 -> x << 2 (wrong shift amount).
    EGraph egraph(rover::roverAnalysisHooks());
    egraph.addTerm(
        parseTerm("(arith.muli:i32 arg:x:i32 const:2:i32)"));
    Runner runner(egraph);
    runner.addRule(makeRewrite("bogus-mul-shift",
                               "(arith.muli:i32 ?a const:2:i32)",
                               "(arith.shli:i32 ?a const:2:i32)"));
    RunnerReport report = runner.run();
    VerifyReport verification = verifyRecords(report.records);
    EXPECT_FALSE(verification.ok());
}

TEST(UnsoundRuleTest, ValidatorCatchesWrongStatementRewrite)
{
    // A "memory forwarding" that forwards the wrong value.
    EGraph egraph(rover::roverAnalysisHooks());
    egraph.addTerm(parseTerm(
        "(seq (memref.store:t80001 arg:v:i32 arg:m:memref<4xi32> "
        "const:0:index) (memref.store:t80002 arg:w:i32 "
        "arg:m:memref<4xi32> const:1:index))"));
    Runner runner(egraph);
    runner.addRule(makeRewrite(
        "bogus-forward",
        "(seq (memref.store:t80001 ?v ?m const:0:index) "
        "(memref.store:t80002 ?w ?m const:1:index))",
        "(seq (memref.store:t80003 ?v ?m const:0:index) "
        "(memref.store:t80004 ?v ?m const:1:index))"));
    RunnerReport report = runner.run();
    ASSERT_GE(report.records.size(), 1u);
    VerifyReport verification = verifyRecords(report.records);
    EXPECT_FALSE(verification.ok());
}

TEST(SoundRuleTest, SoundRunsProduceCleanCertificates)
{
    EGraph egraph(rover::roverAnalysisHooks());
    egraph.addTerm(parseTerm(
        "(arith.addi:i32 (arith.muli:i32 arg:x:i32 const:12:i32) "
        "arg:y:i32)"));
    eg::RunnerOptions options;
    options.max_iters = 4;
    Runner runner(egraph, options);
    runner.addRules(rover::roverRules());
    RunnerReport report = runner.run();
    ASSERT_GT(report.records.size(), 5u);
    VerifyOptions verify_options;
    verify_options.runs = 3;
    VerifyReport verification =
        verifyRecords(report.records, verify_options);
    EXPECT_TRUE(verification.ok())
        << (verification.failures.empty() ? std::string()
                                          : verification.failures[0]);
    EXPECT_EQ(verification.passed + verification.inconclusive,
              verification.total_checks);
}

TEST(DeadlineTest, ExpiredDeadlineIsInconclusiveNotFail)
{
    // Two genuinely different modules: a conclusive check would FAIL.
    // With an already-expired deadline the interpreter cancels
    // (ir::InterpError, TrapKind::Deadline) before any run finishes,
    // and the check must report the documented inconclusive
    // acceptance — never a spurious failure, never a thrown error.
    ir::Module lhs = ir::parseModule(R"(
func.func @f(%a: memref<8xi32>) {
  %c0 = arith.constant 0 : index
  %k = arith.constant 1 : i32
  memref.store %k, %a[%c0] : memref<8xi32>
  func.return
})");
    ir::Module rhs = ir::parseModule(R"(
func.func @f(%a: memref<8xi32>) {
  %c0 = arith.constant 0 : index
  %k = arith.constant 2 : i32
  memref.store %k, %a[%c0] : memref<8xi32>
  func.return
})");
    VerifyOptions expired;
    expired.exec = ExecContext::make();
    expired.exec.setDeadline(std::chrono::steady_clock::now());
    std::string diagnostic;
    EXPECT_TRUE(
        checkModuleEquivalence(lhs, rhs, "f", expired, &diagnostic));
    EXPECT_EQ(diagnostic, "<inconclusive>");

    // Sanity: without the deadline the same pair fails conclusively.
    std::string diff;
    EXPECT_FALSE(checkModuleEquivalence(lhs, rhs, "f", {}, &diff));
}

TEST(TermEquivalenceTest, UnemittableSideIsInconclusiveForAnyRunCount)
{
    // `nop` is a statement operator in value position: the rhs cannot
    // be emitted, so every run traps and the check proves nothing.
    eg::TermPtr lhs = parseTerm("(arith.addi:i32 arg:x:i32 const:1:i32)");
    eg::TermPtr rhs = parseTerm("(arith.addi:i32 arg:x:i32 nop)");
    for (int runs : {2, 0}) {
        VerifyOptions options;
        options.runs = runs;
        std::string diagnostic;
        EXPECT_TRUE(checkTermEquivalence(lhs, rhs, options, &diagnostic))
            << runs;
        EXPECT_EQ(diagnostic, "<inconclusive>") << runs;
    }
}

TEST(TermEquivalenceTest, CounterexampleSeedIsPinned)
{
    // max(x, -25) and x differ only for x below -25. Runs 0-2 draw
    // larger x and agree; the fourth run (seed 0x5EEE + 3 * 7919) is
    // the counterexample, with both sides lowered once for all runs.
    eg::TermPtr lhs =
        parseTerm("(arith.maxsi:i32 arg:x:i32 const:-25:i32)");
    eg::TermPtr rhs = parseTerm("arg:x:i32");
    VerifyOptions options;
    options.runs = 8;
    std::string diagnostic;
    EXPECT_FALSE(checkTermEquivalence(lhs, rhs, options, &diagnostic));
    EXPECT_EQ(diagnostic.substr(0, diagnostic.find('\n')),
              "counterexample at seed 48059");
}

// --- Identity proofs ----------------------------------------------------

/** One memref store to `m`, each with its own tag. */
std::string
store(int tag, int value, int index)
{
    return "(memref.store:t" + std::to_string(81000 + tag) + " const:" +
           std::to_string(value) + ":i32 arg:m:memref<4xi32> const:" +
           std::to_string(index) + ":index)";
}

TEST(IdentityProofTest, SeqAssocIsProvedWithoutRunning)
{
    // seq-assoc's sides differ only in how `seq` nests, so they lower
    // to the same IR. Under a one-step budget any run would trap, so an
    // accepted check with an empty diagnostic was proved, not run.
    eg::TermPtr lhs = parseTerm("(seq " + store(1, 1, 0) + " (seq " +
                                store(2, 2, 1) + " " + store(3, 3, 2) +
                                "))");
    eg::TermPtr rhs = parseTerm("(seq (seq " + store(1, 1, 0) + " " +
                                store(2, 2, 1) + ") " + store(3, 3, 2) +
                                ")");
    VerifyOptions options;
    options.max_steps = 1;
    std::string diagnostic;
    EXPECT_TRUE(checkTermEquivalence(lhs, rhs, options, &diagnostic));
    EXPECT_EQ(diagnostic, "");
}

TEST(IdentityProofTest, IdenticalPairThatAlwaysTrapsNowPasses)
{
    // Index 8 of a 4-element buffer traps on every input. This used to
    // be inconclusive; identical sides are now a proof, because both
    // trap (or not) together on every input.
    eg::TermPtr lhs = parseTerm(store(1, 1, 8));
    eg::TermPtr rhs = parseTerm(store(2, 1, 8));
    std::string diagnostic;
    EXPECT_TRUE(checkTermEquivalence(lhs, rhs, {}, &diagnostic));
    EXPECT_EQ(diagnostic, "");
    // A different store to the same bad index still has to run, and
    // every run traps.
    eg::TermPtr other = parseTerm(store(3, 2, 8));
    EXPECT_TRUE(checkTermEquivalence(lhs, other, {}, &diagnostic));
    EXPECT_EQ(diagnostic, "<inconclusive>");
}

TEST(IdentityProofTest, NonIdenticalPairStillRuns)
{
    // Swapped operands lower to different IR: the check co-simulates,
    // and under a one-step budget every run traps.
    eg::TermPtr lhs = parseTerm("(arith.addi:i32 arg:x:i32 arg:y:i32)");
    eg::TermPtr rhs = parseTerm("(arith.addi:i32 arg:y:i32 arg:x:i32)");
    VerifyOptions options;
    options.max_steps = 1;
    std::string diagnostic;
    EXPECT_TRUE(checkTermEquivalence(lhs, rhs, options, &diagnostic));
    EXPECT_EQ(diagnostic, "<inconclusive>");
}

TEST(IdentityProofTest, ReportCountsProofsAndInconclusiveCauses)
{
    VerifyOptions options;
    options.max_steps = 1;
    std::vector<eg::RewriteRecord> records = {
        {"seq-assoc",
         parseTerm("(seq " + store(1, 1, 0) + " (seq " + store(2, 2, 1) +
                   " " + store(3, 3, 2) + "))"),
         parseTerm("(seq (seq " + store(1, 1, 0) + " " + store(2, 2, 1) +
                   ") " + store(3, 3, 2) + ")")},
        {"comm-addi", parseTerm("(arith.addi:i32 arg:x:i32 arg:y:i32)"),
         parseTerm("(arith.addi:i32 arg:y:i32 arg:x:i32)")},
        // The rhs cannot be emitted; the lhs runs out of steps.
        {"unemittable", parseTerm("(arith.addi:i32 arg:x:i32 const:1:i32)"),
         parseTerm("(arith.addi:i32 arg:x:i32 nop)")},
    };
    VerifyReport report = verifyRecords(records, options);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.total_checks, 3u);
    EXPECT_EQ(report.passed, 1u);
    EXPECT_EQ(report.proved_identical, 1u);
    EXPECT_EQ(report.inconclusive, 2u);
    std::map<std::string, size_t> causes = {{"step_limit", 2},
                                            {"unemittable", 1}};
    EXPECT_EQ(report.inconclusive_causes, causes);
}

TEST(IdentityProofTest, PlantedSeqSwapStillFails)
{
    // (seq ?a ?b) -> (seq ?b ?a) reorders dependent statements of a
    // kernel; its two sides differ, so the checks run and catch it.
    const bench::Benchmark &kernel = bench::findBenchmark("seq_loops");
    ir::Module module = bench::parseBenchmark(kernel);
    EGraph egraph(rover::roverAnalysisHooks());
    egraph.addTerm(sl::funcToTerm(*module.lookupFunc(kernel.func)).term);
    eg::RunnerOptions runner_options;
    runner_options.max_iters = 1;
    Runner runner(egraph, runner_options);
    runner.addRule(makeRewrite("planted-seq-swap", "(seq ?a ?b)",
                               "(seq ?b ?a)"));
    RunnerReport report = runner.run();
    ASSERT_FALSE(report.records.empty());
    VerifyReport verification = verifyRecords(report.records);
    EXPECT_FALSE(verification.ok());
    ASSERT_FALSE(verification.failures.empty());
    EXPECT_NE(verification.failures[0].find("planted-seq-swap"),
              std::string::npos);
    EXPECT_NE(verification.failures[0].find("counterexample"),
              std::string::npos)
        << verification.failures[0];
}

TEST(ModuleEquivalenceTest, InputTrappingOnRandomInputsIsInconclusive)
{
    // md_knn's neighbour indices come from its inputs: plain random
    // inputs make the *input* program trap (out-of-bounds index), which
    // says nothing about the optimized one. The plain overload (what
    // seer-opt --verify calls) must not report that as a FAIL.
    const bench::Benchmark &knn = bench::findBenchmark("md_knn");
    ir::Module input = bench::parseBenchmark(knn);
    ir::Module copy = bench::parseBenchmark(knn);
    std::string diagnostic;
    EXPECT_TRUE(checkModuleEquivalence(input, copy, knn.func, {},
                                       &diagnostic))
        << diagnostic;
    EXPECT_EQ(diagnostic, "<inconclusive>");

    // With the domain-aware preparer the same pair runs and passes.
    std::string prepared_diagnostic;
    EXPECT_TRUE(checkModuleEquivalence(input, copy, knn.func, knn.prepare,
                                       {}, &prepared_diagnostic));
    EXPECT_EQ(prepared_diagnostic, "");
}

TEST(ModuleEquivalenceTest, OutputTrappingAloneStillFails)
{
    // The optimized side traps (index 8 of an 8-element buffer) on
    // inputs where the input program runs: a conclusive FAIL.
    ir::Module input = ir::parseModule(R"(
func.func @f(%a: memref<8xi32>) {
  %c7 = arith.constant 7 : index
  %k = arith.constant 1 : i32
  memref.store %k, %a[%c7] : memref<8xi32>
  func.return
})");
    ir::Module planted = ir::parseModule(R"(
func.func @f(%a: memref<8xi32>) {
  %c8 = arith.constant 8 : index
  %k = arith.constant 1 : i32
  memref.store %k, %a[%c8] : memref<8xi32>
  func.return
})");
    std::string diagnostic;
    EXPECT_FALSE(
        checkModuleEquivalence(input, planted, "f", {}, &diagnostic));
    EXPECT_EQ(diagnostic.rfind("trap: ", 0), 0u) << diagnostic;
}

TEST(CertificateTest, RecordsCoverTheExtractionPath)
{
    // Every union is recorded, so the record set is a superset of any
    // path the extraction actually used: check all records reference
    // registered rule names.
    EGraph egraph(rover::roverAnalysisHooks());
    egraph.addTerm(
        parseTerm("(arith.muli:i32 arg:x:i32 const:10:i32)"));
    Runner runner(egraph);
    auto rules = rover::roverRules();
    std::set<std::string> names;
    for (const auto &rule : rules)
        names.insert(rule.name);
    runner.addRules(std::move(rules));
    RunnerReport report = runner.run();
    for (const auto &record : report.records)
        EXPECT_TRUE(names.count(record.rule)) << record.rule;
}

TEST(GateVerdictTest, InconclusiveGateVerdictsAreCountedPerCause)
{
    // Some of md_knn's external-pass candidates read memrefs that the
    // gate's random index arguments overrun, so every run traps and
    // the replacement is accepted without a conclusive run. Those
    // verdicts are counted per cause, and the count is a function of
    // the input and options alone: -j must not change it.
    const bench::Benchmark &knn = bench::findBenchmark("md_knn");
    ir::Module input = bench::parseBenchmark(knn);
    std::vector<ExternalEvalStats> runs;
    for (unsigned jobs : {1u, 4u}) {
        SeerOptions options;
        options.runner.time_limit_seconds = 100000;
        options.jobs = jobs;
        runs.push_back(optimize(input, knn.func, options)
                           .stats.external_eval);
    }
    EXPECT_GT(runs[0].gate_inconclusive, 0u);
    EXPECT_GT(runs[0].gate_inconclusive_causes.count("out_of_bounds"),
              0u);
    EXPECT_EQ(runs[0].gate_inconclusive, runs[1].gate_inconclusive);
    EXPECT_EQ(runs[0].gate_inconclusive_causes,
              runs[1].gate_inconclusive_causes);
}

} // namespace
} // namespace seer::core
