/**
 * Fault-isolation tests for the SEER driver (PR 2): a crashing injected
 * rule must be quarantined and the run must still deliver valid IR with
 * the degradation reported; strict mode must fail fast instead; the
 * deadline must cut exploration short without compromising the output.
 */
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "core/seer.h"
#include "core/verify.h"
#include "egraph/extract.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "support/error.h"

namespace seer::core {
namespace {

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

/** An always-throwing dynamic rule matching every class. */
eg::Rewrite
crashingRule()
{
    return eg::makeDynRewrite(
        "chaos-crash", "?x",
        [](eg::EGraph &, const eg::Match &)
            -> std::optional<eg::TermPtr> { fatal("injected fault"); });
}

TEST(RobustnessTest, CrashingInjectedRuleDegradesButDelivers)
{
    ir::Module input = ir::parseModule(kSeqLoops);
    SeerOptions options;
    options.extra_control_rules.push_back(crashingRule());
    SeerResult result = optimize(input, "seq_loops", options);

    // The run completed and the output is valid, equivalent IR.
    EXPECT_EQ(ir::verify(result.module), "")
        << ir::toString(result.module);
    std::string diag;
    EXPECT_TRUE(checkModuleEquivalence(input, result.module, "seq_loops",
                                       {}, &diag))
        << diag;

    // ... and the fault shows up in the health stats.
    EXPECT_TRUE(result.stats.degraded);
    EXPECT_FALSE(result.stats.recovered_errors.empty());
    EXPECT_NE(result.stats.recovered_errors[0].find("injected fault"),
              std::string::npos);
    ASSERT_FALSE(result.stats.quarantined_rules.empty());
    EXPECT_EQ(result.stats.quarantined_rules[0], "chaos-crash");

    // The health section reaches the --stats JSON.
    std::string text = toJson(result.stats).dump();
    EXPECT_NE(text.find("\"degraded\": true"), std::string::npos);
    EXPECT_NE(text.find("\"health\""), std::string::npos);
    EXPECT_NE(text.find("chaos-crash"), std::string::npos);
}

TEST(RobustnessTest, StrictModeFailsFastWithTheOriginalError)
{
    ir::Module input = ir::parseModule(kSeqLoops);
    SeerOptions options;
    options.strict = true;
    options.extra_control_rules.push_back(crashingRule());
    try {
        optimize(input, "seq_loops", options);
        FAIL() << "strict mode must propagate the injected fault";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("injected fault"),
                  std::string::npos);
    }
}

/** A balanced binary tree over `width` distinct junk leaves
 *  (~2*width-1 distinct nodes; binary arity keeps per-node parent
 *  bookkeeping cheap and addTerm recursion shallow). */
eg::TermPtr
giantJunkTerm(size_t width)
{
    std::vector<eg::TermPtr> level;
    level.reserve(width);
    for (size_t i = 0; i < width; ++i)
        level.push_back(
            eg::makeTerm(Symbol("junk" + std::to_string(i)), {}));
    while (level.size() > 1) {
        std::vector<eg::TermPtr> next;
        next.reserve(level.size() / 2 + 1);
        for (size_t i = 0; i + 1 < level.size(); i += 2) {
            next.push_back(eg::makeTerm(Symbol("junkpair"),
                                        {level[i], level[i + 1]}));
        }
        if (level.size() % 2)
            next.push_back(level.back());
        level = std::move(next);
    }
    return level[0];
}

TEST(RobustnessTest, ExplodingCrashRuleIsRefusedAndQuarantined)
{
    // The full containment chain in one run. The staged rule throws on
    // its first application, then "succeeds" once with a giant junk
    // term that would blow the graph far past the phase node budget,
    // then throws on every later call. Expected: the oversized
    // application is refused inside the apply loop (rolled back and
    // recorded as that rule's failure, not a phase abort), the throwing
    // calls trip the circuit breaker, and optimize() still returns
    // verifier-clean, equivalent IR with the whole trail in the stats.
    ir::Module input = ir::parseModule(kSeqLoops);
    SeerOptions options;
    options.runner.quarantine_after = 3;
    options.runner.max_nodes = 500;
    auto calls = std::make_shared<size_t>(0);
    options.extra_control_rules.push_back(eg::makeDynRewrite(
        "chaos-explode", "?x",
        [calls](eg::EGraph &, const eg::Match &)
            -> std::optional<eg::TermPtr> {
            if ((*calls)++ == 1)
                return giantJunkTerm(2500); // > 4 x max_nodes
            fatal("exploding fault");
        }));
    SeerResult result = optimize(input, "seq_loops", options);

    EXPECT_TRUE(result.stats.degraded);
    ASSERT_FALSE(result.stats.quarantined_rules.empty());
    EXPECT_EQ(result.stats.quarantined_rules[0], "chaos-explode");
    ASSERT_FALSE(result.stats.recovered_errors.empty());
    bool refused = false;
    for (const std::string &error : result.stats.recovered_errors)
        refused |= error.find("application refused") != std::string::npos;
    EXPECT_TRUE(refused) << "the oversized application must be refused "
                            "in-loop, not absorbed silently";

    EXPECT_EQ(ir::verify(result.module), "")
        << ir::toString(result.module);
    std::string diag;
    EXPECT_TRUE(checkModuleEquivalence(input, result.module, "seq_loops",
                                       {}, &diag))
        << diag;

    std::string text = toJson(result.stats).dump();
    EXPECT_NE(text.find("\"phase_rollbacks\""), std::string::npos);
    EXPECT_NE(text.find("chaos-explode"), std::string::npos);
}

TEST(RobustnessTest, DegradedRunStillOptimizesWhatItCan)
{
    // The crashing rule poisons only itself: the rest of the rule set
    // keeps working, so the degraded run still applies rewrites.
    ir::Module input = ir::parseModule(kSeqLoops);
    SeerOptions options;
    options.extra_control_rules.push_back(crashingRule());
    SeerResult result = optimize(input, "seq_loops", options);
    EXPECT_GT(result.stats.unions_applied, 0u);
}

TEST(RobustnessTest, ExpiredDeadlineReturnsInputEquivalentIr)
{
    ir::Module input = ir::parseModule(kSeqLoops);
    SeerOptions options;
    options.deadline_seconds = 1e-9; // expires immediately
    SeerResult result = optimize(input, "seq_loops", options);
    EXPECT_TRUE(result.stats.deadline_hit);
    EXPECT_EQ(ir::verify(result.module), "");
    std::string diag;
    EXPECT_TRUE(checkModuleEquivalence(input, result.module, "seq_loops",
                                       {}, &diag))
        << diag;
}

TEST(RobustnessTest, MissingFunctionStillThrows)
{
    // Unrecoverable user error: no valid output exists for a function
    // that is not there.
    ir::Module input = ir::parseModule(kSeqLoops);
    EXPECT_THROW(optimize(input, "no_such_func"), FatalError);
}

/**
 * A control rule that plants one fault in the e-graph on its first
 * call and is inert after, so only the first control phase carries
 * the fault.
 */
eg::Rewrite
plantingRule(std::function<void(eg::EGraph &)> plant)
{
    auto planted = std::make_shared<bool>(false);
    return eg::makeDynRewrite(
        "chaos-plant", "?x",
        [planted, plant](eg::EGraph &egraph, const eg::Match &)
            -> std::optional<eg::TermPtr> {
            if (!*planted) {
                *planted = true;
                plant(egraph);
            }
            return std::nullopt;
        });
}

/** A class added mid-phase whose const-fold datum claims a constant
 *  its only node cannot fold to. */
void
plantWrongConstant(eg::EGraph &egraph)
{
    eg::EClassId id = egraph.add(eg::ENode{Symbol("planted.leaf"), {}});
    egraph.findAnalysis("const-fold")
        ->restoreDatum(id, std::make_shared<std::optional<int64_t>>(7));
}

/** Two classes added mid-phase, then the node of one rewritten in
 *  place to equal the other's: the hashcons maps it to the wrong
 *  class. */
void
plantBrokenHashcons(eg::EGraph &egraph)
{
    eg::EClassId a = egraph.add(eg::ENode{Symbol("planted.a"), {}});
    eg::EClassId b = egraph.add(eg::ENode{Symbol("planted.b"), {}});
    eg::EClassId pair =
        egraph.add(eg::ENode{Symbol("planted.pair"), {a}});
    egraph.add(eg::ENode{Symbol("planted.pair"), {b}});
    const_cast<eg::EClass &>(egraph.eclass(pair)).nodes[0].children[0] =
        b;
}

/** A class added mid-phase whose drained cost bounds are then
 *  overwritten with a value no model derives. */
void
plantWrongCostBound(eg::EGraph &egraph)
{
    eg::EClassId id = egraph.add(eg::ENode{Symbol("planted.leaf"), {}});
    for (const auto &analysis : egraph.analyses()) {
        auto *bound = dynamic_cast<eg::CostBoundAnalysis *>(analysis.get());
        if (bound == nullptr)
            continue;
        bound->ensureCurrent(egraph);
        bound->restoreDatum(id, std::make_shared<eg::CostBoundAnalysis::Value>(
                                    eg::CostBoundAnalysis::Value{-1, -1}));
    }
}

TEST(RobustnessTest, CommitGateRollsBackPlantedFaults)
{
    ir::Module input = ir::parseModule(kSeqLoops);
    for (auto plant : {plantWrongConstant, plantBrokenHashcons}) {
        SeerOptions options;
        options.extra_control_rules.push_back(plantingRule(plant));
        SeerResult result = optimize(input, "seq_loops", options);
        EXPECT_EQ(result.stats.phase_rollbacks, 1u);
        EXPECT_TRUE(result.stats.degraded);
        ASSERT_FALSE(result.stats.recovered_errors.empty());
        EXPECT_NE(result.stats.recovered_errors[0].find(
                      "e-graph invariants broken"),
                  std::string::npos)
            << result.stats.recovered_errors[0];
        EXPECT_EQ(ir::verify(result.module), "")
            << ir::toString(result.module);
        std::string diag;
        EXPECT_TRUE(checkModuleEquivalence(input, result.module,
                                           "seq_loops", {}, &diag))
            << diag;
    }
}

TEST(RobustnessTest, StrictCommitGateThrowsOnPlantedFaults)
{
    ir::Module input = ir::parseModule(kSeqLoops);
    for (auto plant :
         {plantWrongConstant, plantBrokenHashcons, plantWrongCostBound}) {
        SeerOptions options;
        options.strict = true;
        options.extra_control_rules.push_back(plantingRule(plant));
        try {
            optimize(input, "seq_loops", options);
            ADD_FAILURE() << "strict mode must propagate the gate failure";
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find(
                          "e-graph invariants broken"),
                      std::string::npos)
                << err.what();
        }
    }
}

TEST(RobustnessTest, CommitGateLeavesCostBoundsToStrictRuns)
{
    // No rule reads cost bounds, so an incoherent one cannot make a
    // rewrite unsound: outside strict mode the phase commits.
    ir::Module input = ir::parseModule(kSeqLoops);
    SeerOptions options;
    options.extra_control_rules.push_back(
        plantingRule(plantWrongCostBound));
    SeerResult result = optimize(input, "seq_loops", options);
    EXPECT_EQ(result.stats.phase_rollbacks, 0u);
    EXPECT_EQ(ir::verify(result.module), "")
        << ir::toString(result.module);
    std::string diag;
    EXPECT_TRUE(checkModuleEquivalence(input, result.module, "seq_loops",
                                       {}, &diag))
        << diag;
}

TEST(RobustnessTest, CleanRunReportsHealthy)
{
    ir::Module input = ir::parseModule(kSeqLoops);
    SeerResult result = optimize(input, "seq_loops");
    EXPECT_FALSE(result.stats.degraded);
    EXPECT_EQ(result.stats.phase_rollbacks, 0u);
    EXPECT_TRUE(result.stats.recovered_errors.empty());
    EXPECT_TRUE(result.stats.quarantined_rules.empty());
    std::string text = toJson(result.stats).dump();
    EXPECT_NE(text.find("\"degraded\": false"), std::string::npos);
}

} // namespace
} // namespace seer::core
