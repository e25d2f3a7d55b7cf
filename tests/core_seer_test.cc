/** End-to-end SEER tests: optimization quality + translation validity. */
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/external_rules.h"
#include "core/seer.h"
#include "core/verify.h"
#include "egraph/rewrite.h"
#include "hls/hls.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"

namespace seer::core {
namespace {

using namespace ir;

size_t
countLoops(const Module &m)
{
    size_t n = 0;
    walk(m, [&](Operation &op) {
        if (isa(op, opnames::kAffineFor))
            ++n;
    });
    return n;
}

/** Evaluate a module's PPA: SEER designs are pipelined, baselines not. */
hls::HlsReport
evalModule(const Module &m, bool pipeline)
{
    Operation *func = m.firstFunc();
    Block &body = func->region(0).block();
    std::vector<std::unique_ptr<Buffer>> buffers;
    std::vector<RtValue> args;
    for (size_t i = 0; i < body.numArgs(); ++i) {
        buffers.push_back(std::make_unique<Buffer>(body.arg(i).type()));
        args.push_back(buffers.back().get());
    }
    hls::HlsOptions options;
    options.schedule.pipeline_loops = pipeline;
    return hls::evaluate(m, func->strAttr("sym_name"), std::move(args),
                         options);
}

const char *kSeqLoops = R"(
func.func @seq_loops(%a: memref<64xi32>, %b: memref<64xi32>,
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

TEST(SeerTest, FusesSequentialLoops)
{
    Module input = parseModule(kSeqLoops);
    SeerResult result = optimize(input, "seq_loops");
    EXPECT_EQ(countLoops(result.module), 1u) << toString(result.module);
    std::string diag;
    EXPECT_TRUE(checkModuleEquivalence(input, result.module, "seq_loops",
                                       {}, &diag))
        << diag << "\n" << toString(result.module);
}

TEST(SeerTest, OptimizedDesignBeatsBaseline)
{
    Module input = parseModule(kSeqLoops);
    SeerResult result = optimize(input, "seq_loops");
    hls::HlsReport baseline = evalModule(input, /*pipeline=*/false);
    hls::HlsReport optimized =
        evalModule(result.module, /*pipeline=*/true);
    EXPECT_LT(optimized.total_cycles, baseline.total_cycles / 2);
}

TEST(SeerTest, Figure9AffineRecoveryUnlocksFusion)
{
    // Both loops use the non-affine (i<<1)+i index; fusion only becomes
    // possible after ROVER rewrites discover 3*i, which requires the
    // control and datapath rule sets to interleave (Section 4.5).
    const char *text = R"(
func.func @fig9(%a: memref<64xi32>, %b: memref<64xi32>,
                %c: memref<64xi32>) {
  %one = arith.constant 1 : index
  affine.for %i = 0 to 20 {
    %sh = arith.shli %i, %one : index
    %idx = arith.addi %sh, %i : index
    %v = memref.load %a[%idx] : memref<64xi32>
    memref.store %v, %b[%idx] : memref<64xi32>
  }
  affine.for %j = 0 to 20 {
    %sh = arith.shli %j, %one : index
    %idx = arith.addi %sh, %j : index
    %v = memref.load %b[%idx] : memref<64xi32>
    %w = arith.addi %v, %v : i32
    memref.store %w, %c[%idx] : memref<64xi32>
  }
})";
    Module input = parseModule(text);

    // Full SEER fuses.
    SeerResult full = optimize(input, "fig9");
    EXPECT_EQ(countLoops(full.module), 1u) << toString(full.module);

    // Control-only (SEER (C)) cannot: the analyzer refuses shifts.
    SeerOptions control_only;
    control_only.use_rover = false;
    SeerResult seer_c = optimize(input, "fig9", control_only);
    EXPECT_EQ(countLoops(seer_c.module), 2u);

    // Equivalence must hold regardless.
    std::string diag;
    EXPECT_TRUE(
        checkModuleEquivalence(input, full.module, "fig9", {}, &diag))
        << diag;
}

TEST(SeerTest, RoverOnlyLeavesControlPathUntouched)
{
    Module input = parseModule(kSeqLoops);
    SeerOptions rover_only;
    rover_only.use_control = false;
    SeerResult result = optimize(input, "seq_loops", rover_only);
    EXPECT_EQ(countLoops(result.module), 2u);
    std::string diag;
    EXPECT_TRUE(checkModuleEquivalence(input, result.module, "seq_loops",
                                       {}, &diag))
        << diag;
}

TEST(SeerTest, DatapathStrengthReductionInFinalProgram)
{
    // x * 12 should leave as shift-add/shift network, not a multiplier.
    const char *text = R"(
func.func @sr(%a: memref<32xi32>) {
  %c12 = arith.constant 12 : i32
  affine.for %i = 0 to 32 {
    %v = memref.load %a[%i] : memref<32xi32>
    %w = arith.muli %v, %c12 : i32
    memref.store %w, %a[%i] : memref<32xi32>
  }
})";
    Module input = parseModule(text);
    SeerResult result = optimize(input, "sr");
    double base_area = hls::estimateArea(input, "sr");
    double seer_area = hls::estimateArea(result.module, "sr");
    EXPECT_LT(seer_area, base_area) << toString(result.module);
    std::string diag;
    EXPECT_TRUE(
        checkModuleEquivalence(input, result.module, "sr", {}, &diag))
        << diag << toString(result.module);
}

TEST(SeerTest, UnrollPlusForwardingCollapsesScalarLoop)
{
    // The byte_enable pattern with unrolling enabled (case-study mode).
    const char *text = R"(
func.func @be(%flags: memref<8xi32>, %state: memref<1xi32>) {
  %z = arith.constant 0 : index
  affine.for %i = 0 to 8 {
    %s = memref.load %state[%z] : memref<1xi32>
    %f = memref.load %flags[%i] : memref<8xi32>
    %n = arith.ori %s, %f : i32
    memref.store %n, %state[%z] : memref<1xi32>
  }
})";
    Module input = parseModule(text);
    SeerOptions options;
    options.unroll_max_trip = 16;
    SeerResult result = optimize(input, "be", options);
    std::string diag;
    EXPECT_TRUE(
        checkModuleEquivalence(input, result.module, "be", {}, &diag))
        << diag << toString(result.module);

    // Functional win: fewer cycles than the recurrence-bound baseline.
    hls::HlsReport baseline = evalModule(input, false);
    hls::HlsReport optimized = evalModule(result.module, true);
    EXPECT_LT(optimized.total_cycles, baseline.total_cycles);
}

TEST(SeerTest, StatsArePopulated)
{
    Module input = parseModule(kSeqLoops);
    SeerResult result = optimize(input, "seq_loops");
    EXPECT_GT(result.stats.egraph_nodes, 10u);
    EXPECT_GT(result.stats.egraph_classes, 5u);
    EXPECT_GT(result.stats.unions_applied, 0u);
    EXPECT_GT(result.stats.total_seconds, 0.0);
    EXPECT_GE(result.stats.time_in_passes_seconds, 0.0);
    EXPECT_FALSE(result.stats.records.empty());
    // The indexed matcher drives every phase: the aggregated
    // match-phase counters must show index-pruned scans.
    EXPECT_GT(result.stats.match_phase.index_scans, 0u);
    EXPECT_GT(result.stats.match_phase.candidates_visited, 0u);
    std::string text = toJson(result.stats).dump();
    EXPECT_NE(text.find("\"match_phase\""), std::string::npos);
    EXPECT_NE(text.find("\"index_hit_rate\""), std::string::npos);
    EXPECT_NE(result.original_term, nullptr);
    EXPECT_NE(result.extracted_term, nullptr);
}

/** The local-extraction memo belongs to one run. Two runs in a row,
 *  whose e-graphs may occupy the same address with clocks restarting
 *  from zero, make the same extractions with the same memo hits: the
 *  second run found nothing the first left behind. */
TEST(SeerTest, OptimizeCallsShareNoLocalExtractionMemo)
{
    Module input = parseModule(kSeqLoops);
    SeerResult first = optimize(input, "seq_loops");
    SeerResult second = optimize(input, "seq_loops");
    EXPECT_GT(first.stats.local_extraction_hits, 0u);
    EXPECT_LT(first.stats.local_extraction_hits,
              first.stats.local_extractions);
    EXPECT_EQ(second.stats.local_extractions,
              first.stats.local_extractions);
    EXPECT_EQ(second.stats.local_extraction_hits,
              first.stats.local_extraction_hits);
    EXPECT_EQ(toString(second.module), toString(first.module));
}

/** A copy of `term` that shares no node with it. */
eg::TermPtr
deepCopy(const eg::TermPtr &term)
{
    std::vector<eg::TermPtr> children;
    for (const eg::TermPtr &child : term->children())
        children.push_back(deepCopy(child));
    return eg::makeTerm(term->op(), std::move(children));
}

/** Removes the pass-key probe however the test exits. */
struct ScopedPassKeyProbe
{
    explicit ScopedPassKeyProbe(PassKeyProbe probe)
    {
        setPassKeyProbe(std::move(probe));
    }
    ~ScopedPassKeyProbe() { setPassKeyProbe({}); }
};

/** The key memo serves each (rule, interned candidate) the key a fresh
 *  hash of an unshared copy gives. Every candidate is interned whole,
 *  so each distinct (rule, candidate structure) is hashed exactly once
 *  per run, however many e-graph changes it survives. */
TEST(SeerTest, MemoizedPassKeysEqualFreshKeys)
{
    size_t served = 0, mismatches = 0;
    std::string first_mismatch;
    std::set<std::string> distinct;
    SeerResult result;
    {
        ScopedPassKeyProbe probe([&](const ExternalRuleContext &ctx,
                                     const char *rule,
                                     const eg::TermPtr &term,
                                     uint64_t key) {
            ++served;
            distinct.insert(std::string(rule) + " " + term->str());
            if (key != passKeyFor(ctx, rule, deepCopy(term))) {
                if (mismatches++ == 0)
                    first_mismatch = std::string(rule) + " " + term->str();
            }
        });
        result = optimize(parseModule(kSeqLoops), "seq_loops");
    }
    EXPECT_EQ(mismatches, 0u) << first_mismatch;
    EXPECT_EQ(result.stats.pass_key_hashes, distinct.size());
    EXPECT_GT(served, 2 * result.stats.pass_key_hashes);
    EXPECT_LE(result.stats.pass_key_hashes,
              result.stats.scheduler.observations);
    EXPECT_GT(result.stats.local_terms_interned, 0u);
}

/** Which cost-bound analyses a probe rule saw registered while the
 *  control phases ran. */
struct BoundsSeen
{
    size_t calls = 0;
    size_t latency = 0, area = 0, friendly = 0, term_size = 0;
};

SeerResult
optimizeWithBoundsProbe(const std::string &text, const std::string &func,
                        SeerOptions options,
                        const std::shared_ptr<BoundsSeen> &seen)
{
    options.extra_control_rules.push_back(eg::makeDynRewrite(
        "bounds-probe", "?x",
        [seen](eg::EGraph &egraph,
               const eg::Match &) -> std::optional<eg::TermPtr> {
            auto has = [&](const char *model) -> size_t {
                return egraph.findAnalysis(std::string("cost-bound:") +
                                           model) != nullptr;
            };
            ++seen->calls;
            seen->latency += has("latency");
            seen->area += has("rover-area");
            seen->friendly += has("analysis-friendly");
            seen->term_size += has("term-size");
            return std::nullopt;
        }));
    return optimize(parseModule(text), func, options);
}

/** Saturation maintains only the bounds it reads (local extraction,
 *  proof records). Latency and area are never registered: both
 *  extraction phases compute their bounds from scratch on the frozen
 *  graph. */
TEST(SeerTest, ExtractionOnlyBoundsAreNeverRegistered)
{
    auto seen = std::make_shared<BoundsSeen>();
    SeerResult result =
        optimizeWithBoundsProbe(kSeqLoops, "seq_loops", {}, seen);
    ASSERT_GT(seen->calls, 0u);
    EXPECT_EQ(seen->latency, 0u);
    EXPECT_EQ(seen->area, 0u);
    EXPECT_EQ(seen->friendly, seen->calls);
    EXPECT_EQ(seen->term_size, seen->calls);
    EXPECT_FALSE(result.stats.degraded);
    ASSERT_EQ(result.stats.extraction.size(), 2u);
    for (const ExtractionPhaseStats &phase : result.stats.extraction) {
        EXPECT_TRUE(phase.ran) << phase.name;
        EXPECT_GT(phase.extractions, 0u) << phase.name;
        EXPECT_GT(phase.classes_recomputed, 0u) << phase.name;
    }
    EXPECT_GT(result.stats.checkpoints, 0u);
    EXPECT_LE(result.stats.checkpoint_snapshots * 100,
              result.stats.checkpoints);

    // Without the analysis-friendly model, local extraction reads the
    // area model during saturation, so it is maintained from the start;
    // latency still takes the from-scratch path.
    SeerOptions ablation;
    ablation.analysis_friendly_extraction = false;
    seen = std::make_shared<BoundsSeen>();
    result = optimizeWithBoundsProbe(kSeqLoops, "seq_loops", ablation,
                                     seen);
    ASSERT_GT(seen->calls, 0u);
    EXPECT_EQ(seen->latency, 0u);
    EXPECT_EQ(seen->area, seen->calls);
    EXPECT_EQ(seen->friendly, 0u);
    ASSERT_EQ(result.stats.extraction.size(), 2u);
    EXPECT_EQ(result.stats.extraction[0].name, "control-latency");
    EXPECT_GT(result.stats.extraction[0].classes_recomputed, 0u);
}

TEST(SeerTest, RegistryCoversExtractedLoops)
{
    Module input = parseModule(kSeqLoops);
    SeerResult result = optimize(input, "seq_loops");
    walk(result.module, [&](Operation &op) {
        if (!isa(op, opnames::kAffineFor))
            return;
        ASSERT_TRUE(op.hasAttr("seer.loop_id"));
        EXPECT_TRUE(
            result.registry.count(op.strAttr("seer.loop_id")));
    });
}

TEST(SeerVerifyTest, AllRecordsValidate)
{
    Module input = parseModule(kSeqLoops);
    SeerResult result = optimize(input, "seq_loops");
    VerifyOptions options;
    options.runs = 3;
    VerifyReport report = verifyRecords(result.stats.records, options);
    EXPECT_TRUE(report.ok())
        << (report.failures.empty() ? std::string()
                                    : report.failures[0]);
    EXPECT_GT(report.total_checks, 0u);
}

TEST(SeerVerifyTest, TermEquivalenceCatchesBadRewrite)
{
    // A deliberately wrong "rewrite": x + y vs x - y.
    auto lhs = eg::parseTerm("(arith.addi:i32 arg:x:i32 arg:y:i32)");
    auto rhs = eg::parseTerm("(arith.subi:i32 arg:x:i32 arg:y:i32)");
    std::string diag;
    EXPECT_FALSE(checkTermEquivalence(lhs, rhs, {}, &diag));
    EXPECT_NE(diag.find("counterexample"), std::string::npos);
}

TEST(SeerVerifyTest, TermEquivalenceAcceptsTrueRewrite)
{
    auto lhs = eg::parseTerm(
        "(arith.muli:i32 arg:x:i32 const:3:i32)");
    auto rhs = eg::parseTerm(
        "(arith.addi:i32 (arith.shli:i32 arg:x:i32 const:1:i32) "
        "arg:x:i32)");
    EXPECT_TRUE(checkTermEquivalence(lhs, rhs));
}

TEST(SeerVerifyTest, StatementTermEquivalence)
{
    auto lhs = eg::parseTerm(
        "(memref.store:t90001 const:5:i32 arg:m:memref<4xi32> "
        "const:1:index)");
    auto rhs = eg::parseTerm(
        "(memref.store:t90002 const:5:i32 arg:m:memref<4xi32> "
        "const:1:index)");
    EXPECT_TRUE(checkTermEquivalence(lhs, rhs));
    auto bad = eg::parseTerm(
        "(memref.store:t90003 const:6:i32 arg:m:memref<4xi32> "
        "const:1:index)");
    EXPECT_FALSE(checkTermEquivalence(lhs, bad));
}

TEST(SeerVerifyTest, ModuleEquivalenceDetectsDivergence)
{
    Module a = parseModule(R"(
func.func @f(%m: memref<4xi32>) {
  %z = arith.constant 0 : index
  %c = arith.constant 1 : i32
  memref.store %c, %m[%z] : memref<4xi32>
})");
    Module b = parseModule(R"(
func.func @f(%m: memref<4xi32>) {
  %z = arith.constant 0 : index
  %c = arith.constant 2 : i32
  memref.store %c, %m[%z] : memref<4xi32>
})");
    std::string diag;
    EXPECT_FALSE(checkModuleEquivalence(a, b, "f", {}, &diag));
    EXPECT_FALSE(diag.empty());
}

TEST(SeerTest, ValueYieldingIfIsPreNormalized)
{
    const char *text = R"(
func.func @vi(%a: memref<8xi32>) {
  affine.for %i = 0 to 8 {
    %v = memref.load %a[%i] : memref<8xi32>
    %zero = arith.constant 0 : i32
    %c = arith.cmpi slt, %v, %zero : i32
    %r = scf.if %c -> (i32) {
      %n = arith.subi %zero, %v : i32
      scf.yield %n : i32
    } else {
      scf.yield %v : i32
    }
    memref.store %r, %a[%i] : memref<8xi32>
  }
})";
    Module input = parseModule(text);
    SeerResult result = optimize(input, "vi");
    std::string diag;
    EXPECT_TRUE(
        checkModuleEquivalence(input, result.module, "vi", {}, &diag))
        << diag << toString(result.module);
}

} // namespace
} // namespace seer::core
