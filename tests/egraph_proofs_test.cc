/** Proof production and extraction properties. */
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>

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

/** The subterm each pattern variable stands for in `term`, a ground
 *  instance of `pattern`. */
void
bindVariables(const Pattern &pattern, const TermPtr &term,
              std::map<Symbol, TermPtr> &bound)
{
    if (pattern.isVar()) {
        bound.emplace(pattern.var(), term);
        return;
    }
    ASSERT_EQ(pattern.op(), term->op()) << term->str();
    ASSERT_EQ(pattern.children().size(), term->arity()) << term->str();
    for (size_t i = 0; i < term->arity(); ++i)
        bindVariables(*pattern.children()[i], term->child(i), bound);
}

/** Records resolve through one shared smallest-term memo. Each record
 *  must print what resolving its classes one extractSmallest call at a
 *  time prints, records naming the same class share its term, and so
 *  does every subterm standing for a class some record names. */
TEST(ProofRecordTest, SharedResolutionMatchesPerClassExtraction)
{
    EGraph eg(rover::roverAnalysisHooks());
    eg.addTerm(parseTerm(
        "(arith.addi:i32 (arith.muli:i32 (arith.addi:i32 var:a var:b) "
        "const:6:i32) (arith.muli:i32 (arith.addi:i32 var:b var:a) "
        "const:4:i32))"));
    RunnerOptions options;
    options.max_iters = 4;
    options.max_nodes = 20000;
    Runner runner(eg, options);
    std::vector<Rewrite> rules = rover::roverRules();
    runner.addRules(rules);
    RunnerReport report = runner.run();
    ASSERT_GE(report.records.size(), 10u);
    EXPECT_GT(report.total_applied, 0u);

    std::map<EClassId, TermPtr> shared; // class -> first record's term
    size_t shared_hits = 0;
    for (const RewriteRecord &record : report.records) {
        auto rule = std::find_if(rules.begin(), rules.end(),
                                 [&](const Rewrite &r) {
                                     return r.name == record.rule;
                                 });
        ASSERT_NE(rule, rules.end()) << record.rule;
        std::map<Symbol, TermPtr> bound;
        bindVariables(*rule->lhs, record.lhs, bound);
        Subst subst;
        for (const auto &[var, term] : bound) {
            auto id = eg.lookupTerm(term);
            ASSERT_TRUE(id.has_value()) << term->str();
            EClassId canonical = eg.find(*id);
            subst[var] = canonical;
            auto [it, first] = shared.emplace(canonical, term);
            if (!first) {
                EXPECT_EQ(it->second, term) << term->str();
                ++shared_hits;
            }
        }
        auto reference = [&](EClassId id) {
            return extractSmallest(eg, id);
        };
        EXPECT_EQ(record.lhs->str(),
                  instantiateTerm(*rule->lhs, subst, reference)->str());
        if (!rule->isDynamic()) {
            EXPECT_EQ(record.rhs->str(),
                      instantiateTerm(*rule->rhs, subst, reference)
                          ->str());
        }
    }
    EXPECT_GT(shared_hits, 0u);

    size_t nested_hits = 0;
    std::function<void(const TermPtr &)> walk = [&](const TermPtr &term) {
        for (const TermPtr &child : term->children()) {
            auto id = eg.lookupTerm(child);
            ASSERT_TRUE(id.has_value()) << child->str();
            auto it = shared.find(eg.find(*id));
            if (it != shared.end()) {
                EXPECT_EQ(it->second, child) << child->str();
                ++nested_hits;
            }
            walk(child);
        }
    };
    for (const auto &[id, term] : shared)
        walk(term);
    EXPECT_GT(nested_hits, 0u);
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
