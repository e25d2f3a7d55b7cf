/**
 * @file
 * Ablations of SEER's design choices (the DESIGN.md list): laws vs
 * oracle, exact vs greedy datapath extraction, phases, and threading —
 * all configurations must stay semantics-preserving, and the documented
 * orderings must hold.
 */
#include <gtest/gtest.h>

#include "benchmarks/benchmarks.h"
#include "core/seer.h"
#include "core/verify.h"
#include "hls/hls.h"
#include "ir/parser.h"
#include "ir/printer.h"

namespace seer::core {
namespace {

using namespace ir;

SeerResult
run(const bench::Benchmark &benchmark, SeerOptions options)
{
    Module input = bench::parseBenchmark(benchmark);
    options.unroll_max_trip = benchmark.unroll_max_trip;
    return optimize(input, benchmark.func, options);
}

void
expectEquivalentToSource(const bench::Benchmark &benchmark,
                         const SeerResult &result)
{
    Module input = bench::parseBenchmark(benchmark);
    std::string diag;
    EXPECT_TRUE(checkModuleEquivalence(input, result.module,
                                       benchmark.func,
                                       benchmark.prepare, {}, &diag))
        << diag;
}

TEST(AblationTest, OracleModeMatchesLawsSemantics)
{
    const bench::Benchmark &benchmark =
        bench::findBenchmark("seq_loops");
    SeerOptions laws;
    SeerOptions oracle;
    oracle.use_laws = false;
    SeerResult with_laws = run(benchmark, laws);
    SeerResult with_oracle = run(benchmark, oracle);
    expectEquivalentToSource(benchmark, with_laws);
    expectEquivalentToSource(benchmark, with_oracle);
    // Both must find the fused form on seq_loops.
    auto loops_of = [](const Module &m) {
        size_t n = 0;
        walk(m, [&](Operation &op) {
            if (isa(op, opnames::kAffineFor))
                ++n;
        });
        return n;
    };
    EXPECT_EQ(loops_of(with_laws.module), 1u);
    EXPECT_EQ(loops_of(with_oracle.module), 1u);
}

TEST(AblationTest, GreedyDatapathNeverBeatsExactOnArea)
{
    for (const char *name : {"seq_loops", "gemm_ncubed"}) {
        const bench::Benchmark &benchmark = bench::findBenchmark(name);
        SeerOptions exact;
        SeerOptions greedy;
        greedy.exact_datapath = false;
        SeerResult exact_result = run(benchmark, exact);
        SeerResult greedy_result = run(benchmark, greedy);
        expectEquivalentToSource(benchmark, exact_result);
        expectEquivalentToSource(benchmark, greedy_result);
        double exact_area =
            hls::estimateArea(exact_result.module, benchmark.func);
        double greedy_area =
            hls::estimateArea(greedy_result.module, benchmark.func);
        // Exact extraction optimizes the DAG; it must not lose by more
        // than rounding effects of emission CSE.
        EXPECT_LE(exact_area, greedy_area * 1.02) << name;
    }
}

TEST(AblationTest, SinglePhaseWeakerOrEqual)
{
    // One phase cannot interleave control and datapath discoveries, so
    // on the Figure 9 kernel it must not beat the multi-phase run.
    const bench::Benchmark &benchmark =
        bench::findBenchmark("seq_loops");
    SeerOptions one_phase;
    one_phase.max_phases = 1;
    SeerOptions full;
    SeerResult single = run(benchmark, one_phase);
    SeerResult multi = run(benchmark, full);
    expectEquivalentToSource(benchmark, single);
    auto cycles_of = [&](const SeerResult &result) {
        Module m = cloneModule(result.module);
        std::vector<Buffer> buffers =
            bench::makeBuffers(m, benchmark.func);
        Rng rng(3);
        benchmark.prepare(buffers, rng);
        std::vector<RtValue> args;
        for (auto &buffer : buffers)
            args.push_back(&buffer);
        hls::HlsOptions options;
        options.schedule.pipeline_loops = true;
        return hls::evaluate(m, benchmark.func, std::move(args),
                             options)
            .total_cycles;
    };
    EXPECT_LE(cycles_of(multi), cycles_of(single));
}

TEST(AblationTest, ThreadedRunIsDeterministic)
{
    const bench::Benchmark &benchmark =
        bench::findBenchmark("seq_loops");
    SeerOptions serial;
    SeerOptions threaded;
    threaded.jobs = 4;
    SeerResult a = run(benchmark, serial);
    SeerResult b = run(benchmark, threaded);
    // The setting reached the match phase: an ignored threading knob
    // would make this test vacuous.
    EXPECT_EQ(b.stats.match_phase.jobs, 4u);
    // Identical exploration -> identical extraction (modulo fresh tag
    // numbering, which printing normalizes away in op counts).
    EXPECT_EQ(a.stats.egraph_nodes, b.stats.egraph_nodes);
    EXPECT_EQ(a.stats.egraph_classes, b.stats.egraph_classes);
    EXPECT_EQ(countOps(a.module), countOps(b.module));
}

TEST(AblationTest, RecordsDisabledStillOptimizes)
{
    const bench::Benchmark &benchmark =
        bench::findBenchmark("seq_loops");
    SeerOptions options;
    options.runner.record_proofs = false;
    SeerResult result = run(benchmark, options);
    expectEquivalentToSource(benchmark, result);
    EXPECT_TRUE(result.stats.records.empty());
}

} // namespace
} // namespace seer::core
