/** Proof production and extraction properties. */
#include <gtest/gtest.h>

#include <algorithm>

#include "egraph/extract.h"
#include "egraph/runner.h"
#include "rover/rover.h"
#include "support/rng.h"

namespace seer::eg {
namespace {

TEST(ExplainTest, DirectUnionHasOneStepPath)
{
    EGraph eg;
    EClassId a = eg.addTerm(parseTerm("(mul x const:2)"));
    EClassId b = eg.addTerm(parseTerm("(shl x const:1)"));
    eg.merge(a, b, "mul2-shl");
    eg.rebuild();
    auto path = eg.explain(a, b);
    ASSERT_TRUE(path.has_value());
    ASSERT_EQ(path->size(), 1u);
    EXPECT_EQ((*path)[0], "mul2-shl");
}

TEST(ExplainTest, ChainedUnionsConcatenate)
{
    EGraph eg;
    EClassId a = eg.addTerm(parseTerm("a"));
    EClassId b = eg.addTerm(parseTerm("b"));
    EClassId c = eg.addTerm(parseTerm("c"));
    eg.merge(a, b, "r1");
    eg.merge(b, c, "r2");
    eg.rebuild();
    auto path = eg.explain(a, c);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(*path, (std::vector<std::string>{"r1", "r2"}));
}

TEST(ExplainTest, SameIdIsEmptyPath)
{
    EGraph eg;
    EClassId a = eg.addTerm(parseTerm("a"));
    auto path = eg.explain(a, a);
    ASSERT_TRUE(path.has_value());
    EXPECT_TRUE(path->empty());
}

TEST(ExplainTest, DistinctClassesHaveNoExplanation)
{
    EGraph eg;
    EClassId a = eg.addTerm(parseTerm("a"));
    EClassId b = eg.addTerm(parseTerm("b"));
    EXPECT_FALSE(eg.explain(a, b).has_value());
}

TEST(ExplainTest, RunnerLabelsUnionsWithRuleNames)
{
    EGraph eg;
    EClassId root = eg.addTerm(parseTerm("(mul a const:2)"));
    EClassId target = eg.addTerm(parseTerm("(shl a const:1)"));
    Runner runner(eg);
    runner.addRule(
        makeRewrite("mul2-shl", "(mul ?a const:2)", "(shl ?a const:1)"));
    runner.run();
    auto path = eg.explain(root, target);
    ASSERT_TRUE(path.has_value());
    ASSERT_FALSE(path->empty());
    EXPECT_NE(std::find(path->begin(), path->end(), "mul2-shl"),
              path->end());
}

TEST(ExplainTest, MultiStepRewriteChain)
{
    // f(x) -> g(x) -> h(x) via two rules; the ids were added up front,
    // so the explanation between the endpoints names both rules.
    EGraph eg;
    EClassId f = eg.addTerm(parseTerm("(f x)"));
    EClassId h = eg.addTerm(parseTerm("(h x)"));
    Runner runner(eg);
    runner.addRule(makeRewrite("f-to-g", "(f ?a)", "(g ?a)"));
    runner.addRule(makeRewrite("g-to-h", "(g ?a)", "(h ?a)"));
    runner.run();
    ASSERT_EQ(eg.find(f), eg.find(h));
    auto path = eg.explain(f, h);
    ASSERT_TRUE(path.has_value());
    EXPECT_FALSE(path->empty());
    EXPECT_NE(std::find(path->begin(), path->end(), "g-to-h"),
              path->end());
    for (const std::string &step : *path)
        EXPECT_FALSE(step.empty());
}

TEST(ProofRecordTest, RecordsStayResolvableAfterHeavyMerging)
{
    // Saturate a graph that merges aggressively (commutativity +
    // associativity over a shared-subterm add tree), then check every
    // recorded union still references canonical classes: both recorded
    // ground terms resolve into the e-graph, land in the same class,
    // and explain() yields a justification path for them.
    EGraph eg;
    EClassId a = eg.addTerm(parseTerm("(add x y)"));
    EClassId b = eg.addTerm(parseTerm("(add y x)"));
    eg.addTerm(parseTerm("(add (add x y) (add (add x y) z))"));
    RunnerOptions options;
    options.max_iters = 4;
    options.max_nodes = 5000;
    Runner runner(eg, options);
    runner.addRule(makeRewrite("comm", "(add ?a ?b)", "(add ?b ?a)"));
    runner.addRule(makeRewrite("assoc", "(add (add ?a ?b) ?c)",
                               "(add ?a (add ?b ?c))"));
    RunnerReport report = runner.run();
    ASSERT_GE(report.records.size(), 5u);
    for (const RewriteRecord &record : report.records) {
        EXPECT_TRUE(record.rule == "comm" || record.rule == "assoc");
        auto lhs = eg.lookupTerm(record.lhs);
        auto rhs = eg.lookupTerm(record.rhs);
        ASSERT_TRUE(lhs.has_value()) << record.rule;
        ASSERT_TRUE(rhs.has_value()) << record.rule;
        EXPECT_EQ(eg.find(*lhs), eg.find(*rhs)) << record.rule;
        auto path = eg.explain(*lhs, *rhs);
        ASSERT_TRUE(path.has_value()) << record.rule;
    }
    // The pre-registered original ids survived the merge storm with a
    // non-trivial explanation chain between them.
    ASSERT_EQ(eg.find(a), eg.find(b));
    auto path = eg.explain(a, b);
    ASSERT_TRUE(path.has_value());
    EXPECT_FALSE(path->empty());
}

// --- Extraction properties over randomized saturations ----------------

class ExtractionProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(ExtractionProperty, ExtractedTermIsInRootClass)
{
    Rng rng(GetParam());
    // Random nested constant-multiply expression.
    std::function<std::string(int)> build = [&](int depth) {
        if (depth == 0)
            return std::string("var:x") +
                   std::to_string(rng.nextBelow(3));
        int64_t c = static_cast<int64_t>(rng.nextBelow(14)) + 2;
        uint64_t kind = rng.nextBelow(3);
        if (kind == 0) {
            return "(arith.muli:i32 " + build(depth - 1) + " const:" +
                   std::to_string(c) + ":i32)";
        }
        if (kind == 1) {
            return "(arith.addi:i32 " + build(depth - 1) + " " +
                   build(depth - 1) + ")";
        }
        return "(arith.xori:i32 " + build(depth - 1) + " " +
               build(depth - 1) + ")";
    };
    EGraph eg(rover::roverAnalysisHooks());
    EClassId root = eg.addTerm(parseTerm(build(3)));
    RunnerOptions options;
    options.max_iters = 4;
    options.max_nodes = 20000;
    options.record_proofs = false;
    Runner runner(eg, options);
    runner.addRules(rover::roverRules());
    runner.run();

    rover::RoverAreaCost area(&eg);
    auto greedy = extractGreedy(eg, root, area);
    ASSERT_TRUE(greedy.has_value());
    // Property 1: the extracted term is a member of the root class.
    auto found = eg.lookupTerm(greedy->term);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(eg.find(*found), eg.find(root));

    // Property 2: exact extraction never does worse on DAG cost.
    auto exact = extractExact(eg, root, area);
    ASSERT_TRUE(exact.has_value());
    EXPECT_LE(exact->dag_cost, greedy->dag_cost + 1e-9);
    auto exact_found = eg.lookupTerm(exact->term);
    ASSERT_TRUE(exact_found.has_value());
    EXPECT_EQ(eg.find(*exact_found), eg.find(root));

    // Property 3: smallest-term extraction is also in class and no
    // larger than the greedy area term.
    TermPtr smallest = extractSmallest(eg, root);
    EXPECT_LE(smallest->size(), greedy->term->size());
    EXPECT_EQ(eg.find(*eg.lookupTerm(smallest)), eg.find(root));
}

INSTANTIATE_TEST_SUITE_P(Random, ExtractionProperty,
                         ::testing::Range<uint64_t>(1, 21));

} // namespace
} // namespace seer::eg
