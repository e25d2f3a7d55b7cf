/**
 * Differential tests for incremental analysis-driven extraction: with a
 * registered cost-bound analysis, extractGreedy/extractExact must produce
 * results bit-identical (same term, same tree/dag cost doubles) to the
 * from-scratch path (ExtractOptions::naive, or a model with no
 * registered analysis) — on randomized e-graphs, across random
 * add/merge/rebuild schedules, checkpoint rollbacks and runner
 * iterations with quarantined rules.
 */
#include <gtest/gtest.h>

#include <random>

#include "core/cost.h"
#include "egraph/extract.h"
#include "egraph/runner.h"
#include "rover/rover.h"
#include "support/error.h"

namespace seer::eg {
namespace {

/** Deterministic cost over the random-graph op pool. */
class ToyCost : public CostModel
{
  public:
    double
    nodeCost(const ENode &node) const override
    {
        const std::string &op = node.op.str();
        if (op == "f")
            return 2.25;
        if (op == "g")
            return 1.5;
        if (op == "h")
            return 4;
        if (op == "k")
            return 0.75;
        if (op == "a")
            return 1;
        if (op == "b")
            return 2;
        if (op == "c")
            return 0.5;
        if (op == "d")
            return 3;
        return 0;
    }
    std::string name() const override { return "toy"; }
};

const ToyCost kToy;
const TermSizeCost kSize;

/** Incremental (registered analysis) vs from-scratch (naive) — the two
 *  paths must agree bitwise: same feasibility, same term, identical
 *  cost doubles. */
void
expectSameExtraction(const EGraph &eg, EClassId root,
                     const CostModel &cost, const char *what)
{
    ExtractStats inc_stats, naive_stats;
    ExtractOptions inc;
    inc.stats = &inc_stats;
    ExtractOptions naive;
    naive.naive = true;
    naive.stats = &naive_stats;
    auto a = extractGreedy(eg, root, cost, inc);
    auto b = extractGreedy(eg, root, cost, naive);
    ASSERT_EQ(a.has_value(), b.has_value()) << what;
    EXPECT_FALSE(naive_stats.used_analysis) << what;
    if (!a)
        return;
    EXPECT_EQ(a->term->str(), b->term->str()) << what;
    EXPECT_EQ(a->tree_cost, b->tree_cost) << what;
    EXPECT_EQ(a->dag_cost, b->dag_cost) << what;
}

const std::pair<const char *, size_t> kOps[] = {
    {"f", 2}, {"g", 1}, {"h", 2}, {"k", 3},
    {"a", 0}, {"b", 0}, {"c", 0}, {"d", 0},
};

std::vector<EClassId>
seedLeaves(EGraph &eg)
{
    std::vector<EClassId> ids;
    for (size_t i = 4; i < 8; ++i)
        ids.push_back(eg.add(ENode{Symbol(kOps[i].first), {}}));
    return ids;
}

void
mutate(EGraph &eg, std::vector<EClassId> &ids, std::mt19937 &rng,
       size_t steps)
{
    for (size_t i = 0; i < steps; ++i) {
        switch (rng() % 4) {
        case 0:
        case 1: {
            const auto &[op, arity] = kOps[rng() % 8];
            ENode node{Symbol(op), {}};
            for (size_t c = 0; c < arity; ++c)
                node.children.push_back(ids[rng() % ids.size()]);
            ids.push_back(eg.add(node));
            break;
        }
        case 2:
            eg.merge(ids[rng() % ids.size()], ids[rng() % ids.size()]);
            break;
        case 3:
            eg.rebuild();
            break;
        }
    }
    eg.rebuild();
}

/** >= 110 randomized schedules: interleaved adds/merges/rebuilds and
 *  extractions, with a checkpoint span (extraction inside it, then a
 *  rollback) in every schedule. */
TEST(ExtractDifferentialTest, IncrementalEqualsNaiveAcrossRandomSchedules)
{
    for (uint32_t seed = 1; seed <= 110; ++seed) {
        std::mt19937 rng(seed);
        EGraph eg;
        registerCostBound(eg, kToy);
        registerCostBound(eg, kSize);
        std::vector<EClassId> ids = seedLeaves(eg);
        mutate(eg, ids, rng, 40);
        for (int round = 0; round < 4; ++round) {
            expectSameExtraction(eg, ids[rng() % ids.size()], kToy,
                                 "toy");
            expectSameExtraction(eg, ids[rng() % ids.size()], kSize,
                                 "term-size");
            if (round == 1) {
                size_t mark = ids.size();
                EGraph::Checkpoint cp = eg.checkpoint();
                mutate(eg, ids, rng, 15);
                expectSameExtraction(eg, ids[rng() % ids.size()], kToy,
                                     "inside checkpoint");
                eg.rollback(cp);
                ids.resize(mark); // drop ids the rollback deleted
                expectSameExtraction(eg, ids[rng() % ids.size()], kToy,
                                     "after rollback");
                expectSameExtraction(eg, ids[rng() % ids.size()], kSize,
                                     "after rollback (size)");
            } else {
                mutate(eg, ids, rng, 10);
            }
        }
        // Runs each registered analysis's from-scratch coherence check.
        ASSERT_EQ(eg.debugCheckInvariants(), "") << "seed " << seed;
    }
}

/** Runner iterations with a quarantined (always-throwing) rule and a
 *  rolled-back phase: extraction stays bit-identical to naive, and the
 *  rollback restores the pre-checkpoint extraction exactly. */
TEST(ExtractDifferentialTest, RunnerQuarantineAndRollbackKeepBitIdentity)
{
    static const rover::RoverAreaCost kArea;
    EGraph eg(rover::roverAnalysisHooks());
    registerCostBound(eg, kArea);
    registerCostBound(eg, kSize);
    EClassId root = eg.addTerm(parseTerm(
        "(arith.addi:i32 (arith.muli:i32 var:x const:12:i32) "
        "(arith.addi:i32 (arith.muli:i32 var:y const:6:i32) "
        "(arith.muli:i32 var:x const:3:i32)))"));
    eg.rebuild();

    RunnerOptions options;
    options.max_iters = 4;
    options.max_nodes = 20000;
    options.record_proofs = false;
    options.catch_rule_errors = true;
    options.quarantine_after = 2;

    {
        Runner runner(eg, options);
        runner.addRules(rover::roverRules());
        runner.addRule(makeDynRewrite(
            "always-throws", "?x",
            [](EGraph &, const Match &) -> std::optional<TermPtr> {
                fatal("injected failure");
                return std::nullopt;
            }));
        RunnerReport report = runner.run();
        bool quarantined = false;
        for (const RuleStats &rule : report.rules)
            quarantined |= rule.quarantined;
        EXPECT_TRUE(quarantined);
    }
    expectSameExtraction(eg, root, kArea, "after quarantine run");
    expectSameExtraction(eg, root, kSize, "after quarantine run (size)");

    auto before = extractGreedy(eg, root, kArea);
    ASSERT_TRUE(before.has_value());
    EGraph::Checkpoint cp = eg.checkpoint();
    {
        Runner runner(eg, options);
        runner.addRules(rover::roverRules());
        runner.run();
    }
    expectSameExtraction(eg, root, kArea, "inside phase checkpoint");
    eg.rollback(cp);
    expectSameExtraction(eg, root, kArea, "after phase rollback");
    auto after = extractGreedy(eg, root, kArea);
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(before->term->str(), after->term->str());
    EXPECT_EQ(before->tree_cost, after->tree_cost);
    EXPECT_EQ(before->dag_cost, after->dag_cost);
    ASSERT_EQ(eg.debugCheckInvariants(), "");
}

/** ToyCost under another name, never registered: extraction through
 *  it takes the from-scratch path, as the latency and area phases do on
 *  the frozen graph. */
class FrozenToyCost : public ToyCost
{
  public:
    std::string name() const override { return "toy-frozen"; }
};

/** The oracle for extraction on a frozen graph. After saturation,
 *  merges into cycles and a rolled-back phase, extraction through an
 *  unregistered model with the same costs returns, for every class,
 *  the term and tree cost of the bound maintained through that whole
 *  history, registers nothing and leaves the graph unchanged. */
TEST(CostBoundAnalysisTest, FrozenGraphScratchMatchesMaintained)
{
    static const FrozenToyCost kFrozen;
    for (uint32_t seed = 1; seed <= 40; ++seed) {
        std::mt19937 rng(seed);
        EGraph eg;
        CostBoundAnalysis &maintained = registerCostBound(eg, kToy);
        std::vector<EClassId> ids = seedLeaves(eg);
        mutate(eg, ids, rng, 40);
        // Cycles: a class merged with its own parents' classes.
        for (int i = 0; i < 3; ++i) {
            EClassId child = ids[rng() % ids.size()];
            EClassId g = eg.add(ENode{Symbol("g"), {child}});
            EClassId f = eg.add(ENode{Symbol("f"), {g, child}});
            eg.merge(f, child, "cycle");
            ids.push_back(g);
            ids.push_back(f);
        }
        eg.rebuild();
        size_t mark = ids.size();
        EGraph::Checkpoint phase = eg.checkpoint();
        mutate(eg, ids, rng, 20);
        eg.rollback(phase);
        ids.resize(mark);

        maintained.ensureCurrent(eg);
        uint64_t tick = eg.tick();
        for (EClassId id : eg.classIds()) {
            ExtractStats frozen_stats, maintained_stats;
            ExtractOptions frozen_options, maintained_options;
            frozen_options.stats = &frozen_stats;
            maintained_options.stats = &maintained_stats;
            auto frozen = extractGreedy(eg, id, kFrozen, frozen_options);
            auto kept = extractGreedy(eg, id, kToy, maintained_options);
            EXPECT_FALSE(frozen_stats.used_analysis);
            EXPECT_GT(frozen_stats.classes_recomputed, 0u);
            EXPECT_TRUE(maintained_stats.used_analysis);
            ASSERT_EQ(frozen.has_value(), kept.has_value())
                << "seed " << seed << " class " << id;
            ASSERT_EQ(frozen.has_value(),
                      maintained.value(id).cost != CostModel::kInfinity)
                << "seed " << seed << " class " << id;
            if (!frozen)
                continue;
            EXPECT_EQ(frozen->tree_cost, maintained.value(id).cost)
                << "seed " << seed << " class " << id;
            EXPECT_EQ(frozen->tree_cost, kept->tree_cost)
                << "seed " << seed << " class " << id;
            EXPECT_EQ(frozen->term->str(), kept->term->str())
                << "seed " << seed << " class " << id;
            EXPECT_EQ(frozen->dag_cost, kept->dag_cost)
                << "seed " << seed << " class " << id;
        }
        EXPECT_EQ(eg.findAnalysis("cost-bound:toy-frozen"), nullptr);
        EXPECT_EQ(eg.tick(), tick) << "seed " << seed;
        ASSERT_EQ(eg.debugCheckInvariants(), "") << "seed " << seed;
    }
}

/** The random graphs of the exact-extraction tests: 20 mutation steps
 *  from the leaf seeds, rooted at a random id. */
EClassId
seededExactGraph(EGraph &eg, uint32_t seed)
{
    std::mt19937 rng(seed);
    registerCostBound(eg, kToy);
    std::vector<EClassId> ids = seedLeaves(eg);
    mutate(eg, ids, rng, 20);
    return ids[rng() % ids.size()];
}

/** A deep chain with two nodes per class whose child sets differ: the
 *  non-shared children keep the admissible bound strictly below the
 *  optimum, so the search must descend one class per link and a budget
 *  of 1 is guaranteed to run out. */
EClassId
chainExactGraph(EGraph &eg)
{
    registerCostBound(eg, kToy);
    std::vector<EClassId> ids = seedLeaves(eg);
    EClassId root = ids[0];
    for (int i = 0; i < 12; ++i) {
        EClassId next = eg.add(ENode{Symbol("f"), {root, ids[1]}});
        eg.merge(next, eg.add(ENode{Symbol("h"), {root, ids[3]}}));
        eg.rebuild();
        root = eg.find(next);
    }
    return root;
}

/** A six-level lattice of three-node classes over shared neighbours:
 *  enough alternative sharings that the exact search needs a few
 *  thousand expansions, so a mid-size budget cuts it before the
 *  optimum. */
EClassId
gridExactGraph(EGraph &eg)
{
    registerCostBound(eg, kToy);
    std::vector<EClassId> leaves = seedLeaves(eg);
    std::vector<EClassId> row = {leaves[0], leaves[1], leaves[2],
                                 leaves[3], leaves[0]};
    for (size_t level = 0; level < 6; ++level) {
        std::vector<EClassId> next;
        for (size_t j = 0; j + 1 < row.size(); ++j) {
            EClassId x =
                eg.add(ENode{Symbol("f"), {row[j], row[j + 1]}});
            eg.merge(x, eg.add(ENode{Symbol("k"),
                                     {row[j + 1], row[j],
                                      leaves[(j + level) % 4]}}));
            eg.merge(x, eg.add(ENode{Symbol("g"),
                                     {row[(j + 2) % row.size()]}}));
            next.push_back(x);
        }
        eg.rebuild();
        next.push_back(next[0]);
        for (EClassId &id : next)
            id = eg.find(id);
        row = next;
    }
    EClassId root = eg.add(ENode{Symbol("k"), {row[0], row[1], row[2]}});
    eg.rebuild();
    return root;
}

/** Exact extraction: the analysis-backed arm (with the stronger
 *  inevitable-children bound) returns the same optimum as the naive
 *  weak-bound arm whenever neither exhausts its budget, with no more
 *  search expansions; and exact never beats greedy's dag cost. */
TEST(ExtractDifferentialTest, ExactIncrementalEqualsNaive)
{
    for (uint32_t seed = 1; seed <= 25; ++seed) {
        EGraph eg;
        EClassId root = seededExactGraph(eg, seed);

        ExtractStats inc_stats, naive_stats;
        ExtractOptions inc;
        inc.stats = &inc_stats;
        ExtractOptions naive;
        naive.naive = true;
        naive.stats = &naive_stats;
        auto a = extractExact(eg, root, kToy, inc);
        auto b = extractExact(eg, root, kToy, naive);
        ASSERT_EQ(a.has_value(), b.has_value()) << "seed " << seed;
        if (!a)
            continue;
        ASSERT_FALSE(inc_stats.budget_exhausted);
        ASSERT_FALSE(naive_stats.budget_exhausted);
        EXPECT_EQ(a->term->str(), b->term->str()) << "seed " << seed;
        EXPECT_EQ(a->dag_cost, b->dag_cost) << "seed " << seed;
        // The closure bound dominates the weak bound: it can only cut
        // the search tree, never grow it.
        EXPECT_LE(inc_stats.expansions, naive_stats.expansions)
            << "seed " << seed;

        auto greedy = extractGreedy(eg, root, kToy);
        ASSERT_TRUE(greedy.has_value());
        EXPECT_LE(a->dag_cost, greedy->dag_cost + 1e-9)
            << "seed " << seed;
    }
}

/** Class-aware cost that differs from its context-free form: a node
 *  costs 3 plus its arity inside the graph, 1 without it. */
class ArityAwareCost : public CostModel
{
  public:
    double nodeCost(const ENode &) const override { return 1; }
    double
    nodeCostInClass(const EGraph &, const ENode &node) const override
    {
        return 3 + static_cast<double>(node.children.size());
    }
};

/** The exact extractor prices its term's tree cost with the same
 *  class-aware model as its DAG cost, so a shared subterm makes the
 *  tree cost the larger, and it matches greedy on a one-choice graph. */
TEST(ExtractDifferentialTest, ExactTreeCostUsesTheClassAwareModel)
{
    EGraph eg;
    std::vector<EClassId> leaves = seedLeaves(eg);
    EClassId shared =
        eg.add(ENode{Symbol("f"), {leaves[0], leaves[1]}});
    EClassId root = eg.add(ENode{Symbol("h"), {shared, shared}});
    eg.rebuild();
    ArityAwareCost cost;
    auto exact = extractExact(eg, root, cost);
    ASSERT_TRUE(exact.has_value());
    EXPECT_EQ(exact->dag_cost, 5 + 5 + 3 + 3);
    EXPECT_EQ(exact->tree_cost, 5 + 2 * (5 + 3 + 3));
    EXPECT_GE(exact->tree_cost, exact->dag_cost);
    auto greedy = extractGreedy(eg, root, cost);
    ASSERT_TRUE(greedy.has_value());
    EXPECT_EQ(exact->tree_cost, greedy->tree_cost);
}

/** The phase commit gate recomputes only the analyses rules read: a
 *  wrong cost bound fails the full check alone, a wrong constant both. */
TEST(CommitGateTest, CostBoundFaultFailsOnlyTheFullCheck)
{
    EGraph eg(rover::roverAnalysisHooks());
    CostBoundAnalysis &bound = registerCostBound(eg, kToy);
    std::vector<EClassId> leaves = seedLeaves(eg);
    EClassId f = eg.add(ENode{Symbol("f"), {leaves[0], leaves[1]}});
    eg.rebuild();
    bound.ensureCurrent(eg);
    ASSERT_EQ(eg.debugCheckInvariants(), "");
    bound.restoreDatum(f, std::make_shared<CostBoundAnalysis::Value>(
                              CostBoundAnalysis::Value{0.5, 1}));
    EXPECT_EQ(eg.checkCommitInvariants(), "");
    EXPECT_NE(eg.debugCheckInvariants().find("cost-bound:toy incoherent"),
              std::string::npos)
        << eg.debugCheckInvariants();
}

TEST(CommitGateTest, ConstFoldFaultFailsBothChecks)
{
    EGraph eg(rover::roverAnalysisHooks());
    registerCostBound(eg, kToy);
    std::vector<EClassId> leaves = seedLeaves(eg);
    eg.rebuild();
    ASSERT_EQ(eg.checkCommitInvariants(), "");
    eg.findAnalysis("const-fold")
        ->restoreDatum(leaves[0],
                       std::make_shared<std::optional<int64_t>>(7));
    EXPECT_NE(eg.checkCommitInvariants(), "");
    EXPECT_EQ(eg.checkCommitInvariants(), eg.debugCheckInvariants());
}

/** Budget exhaustion is reported, not silent, and the result is still a
 *  valid (at worst greedy) implementation. */
TEST(ExtractDifferentialTest, BudgetExhaustionReported)
{
    EGraph eg;
    EClassId root = chainExactGraph(eg);

    auto greedy = extractGreedy(eg, root, kToy);
    ASSERT_TRUE(greedy.has_value());

    ExtractStats stats;
    ExtractOptions options;
    options.budget = 1;
    options.stats = &stats;
    auto exact = extractExact(eg, root, kToy, options);
    ASSERT_TRUE(exact.has_value());
    EXPECT_TRUE(stats.budget_exhausted);
    EXPECT_LE(exact->dag_cost, greedy->dag_cost + 1e-9);
}

/** One recorded exact-search outcome (see ExactSearchReplaysAtEveryBudget). */
struct ExactReplay
{
    /** 1..25: seededExactGraph(graph); 0: chainExactGraph; -1:
     *  gridExactGraph. */
    int graph;
    bool naive;
    size_t budget;
    size_t expansions;
    size_t bound_prunes;
    bool budget_exhausted;
    double dag_cost;
    const char *term; ///< nullptr: the root is infeasible
};

// clang-format off
const ExactReplay kExactReplays[] = {
    {0, false, 1, 3, 1, true, 30,
     "(f (f (f (f (f (f (f (f (f (f (f (f a b) b) b) b) b) b) b) b) b)"
     " b) b) b)"},
    {0, false, 10, 3, 2, false, 30,
     "(f (f (f (f (f (f (f (f (f (f (f (f a b) b) b) b) b) b) b) b) b)"
     " b) b) b)"},
    {0, false, 1000, 3, 2, false, 30,
     "(f (f (f (f (f (f (f (f (f (f (f (f a b) b) b) b) b) b) b) b) b)"
     " b) b) b)"},
    {0, false, 200000, 3, 2, false, 30,
     "(f (f (f (f (f (f (f (f (f (f (f (f a b) b) b) b) b) b) b) b) b)"
     " b) b) b)"},
    {0, true, 1, 4, 0, true, 30,
     "(f (f (f (f (f (f (f (f (f (f (f (f a b) b) b) b) b) b) b) b) b)"
     " b) b) b)"},
    {0, true, 10, 22, 0, true, 30,
     "(f (f (f (f (f (f (f (f (f (f (f (f a b) b) b) b) b) b) b) b) b)"
     " b) b) b)"},
    {0, true, 1000, 496, 241, false, 30,
     "(f (f (f (f (f (f (f (f (f (f (f (f a b) b) b) b) b) b) b) b) b)"
     " b) b) b)"},
    {0, true, 200000, 496, 241, false, 30,
     "(f (f (f (f (f (f (f (f (f (f (f (f a b) b) b) b) b) b) b) b) b)"
     " b) b) b)"},
    {-1, false, 1, 7, 0, true, 20.25,
     "(k (g (g (g (g (g (g a)))))) (g (g (g (g (g (g a)))))) (g (g (g "
     "(g (g (g c)))))))"},
    {-1, false, 10, 34, 0, true, 20.25,
     "(k (g (g (g (g (g (g a)))))) (g (g (g (g (g (g a)))))) (g (g (g "
     "(g (g (g c)))))))"},
    {-1, false, 1000, 1010, 754, true, 11.25,
     "(k (k (g (g (k (g (g c)) (g (g c)) a))) (k (g (k (g (g c)) (g (g"
     " c)) a)) (g (k (g (g c)) (g (g c)) a)) a) c) (k (g (g (k (g (g c"
     ")) (g (g c)) a))) (k (g (k (g (g c)) (g (g c)) a)) (g (k (g (g c"
     ")) (g (g c)) a)) a) c) (k (k (g (k (g (g c)) (g (g c)) a)) (g (k"
     " (g (g c)) (g (g c)) a)) a) (g (g (k (g (g c)) (g (g c)) a))) a)"
     ")"},
    {-1, false, 200000, 3152, 2365, false, 11.25,
     "(k (k (g (g (k (g (g c)) (g (g c)) a))) (k (g (k (g (g c)) (g (g"
     " c)) a)) (g (k (g (g c)) (g (g c)) a)) a) c) (k (g (g (k (g (g c"
     ")) (g (g c)) a))) (k (g (k (g (g c)) (g (g c)) a)) (g (k (g (g c"
     ")) (g (g c)) a)) a) c) (k (k (g (k (g (g c)) (g (g c)) a)) (g (k"
     " (g (g c)) (g (g c)) a)) a) (g (g (k (g (g c)) (g (g c)) a))) a)"
     ")"},
    {-1, true, 1, 7, 0, true, 20.25,
     "(k (g (g (g (g (g (g a)))))) (g (g (g (g (g (g a)))))) (g (g (g "
     "(g (g (g c)))))))"},
    {-1, true, 10, 34, 0, true, 20.25,
     "(k (g (g (g (g (g (g a)))))) (g (g (g (g (g (g a)))))) (g (g (g "
     "(g (g (g c)))))))"},
    {-1, true, 1000, 1010, 754, true, 11.25,
     "(k (k (g (g (k (g (g c)) (g (g c)) a))) (k (g (k (g (g c)) (g (g"
     " c)) a)) (g (k (g (g c)) (g (g c)) a)) a) c) (k (g (g (k (g (g c"
     ")) (g (g c)) a))) (k (g (k (g (g c)) (g (g c)) a)) (g (k (g (g c"
     ")) (g (g c)) a)) a) c) (k (k (g (k (g (g c)) (g (g c)) a)) (g (k"
     " (g (g c)) (g (g c)) a)) a) (g (g (k (g (g c)) (g (g c)) a))) a)"
     ")"},
    {-1, true, 200000, 3152, 2365, false, 11.25,
     "(k (k (g (g (k (g (g c)) (g (g c)) a))) (k (g (k (g (g c)) (g (g"
     " c)) a)) (g (k (g (g c)) (g (g c)) a)) a) c) (k (g (g (k (g (g c"
     ")) (g (g c)) a))) (k (g (k (g (g c)) (g (g c)) a)) (g (k (g (g c"
     ")) (g (g c)) a)) a) c) (k (k (g (k (g (g c)) (g (g c)) a)) (g (k"
     " (g (g c)) (g (g c)) a)) a) (g (g (k (g (g c)) (g (g c)) a))) a)"
     ")"},
    {1, false, 1, 1, 1, false, 0.5, "c"},
    {1, false, 10, 1, 1, false, 0.5, "c"},
    {1, false, 1000, 1, 1, false, 0.5, "c"},
    {1, false, 200000, 1, 1, false, 0.5, "c"},
    {1, true, 1, 1, 1, false, 0.5, "c"},
    {1, true, 10, 1, 1, false, 0.5, "c"},
    {1, true, 1000, 1, 1, false, 0.5, "c"},
    {1, true, 200000, 1, 1, false, 0.5, "c"},
    {2, false, 1, 1, 1, false, 0.5, "c"},
    {2, false, 10, 1, 1, false, 0.5, "c"},
    {2, false, 1000, 1, 1, false, 0.5, "c"},
    {2, false, 200000, 1, 1, false, 0.5, "c"},
    {2, true, 1, 1, 1, false, 0.5, "c"},
    {2, true, 10, 1, 1, false, 0.5, "c"},
    {2, true, 1000, 1, 1, false, 0.5, "c"},
    {2, true, 200000, 1, 1, false, 0.5, "c"},
    {3, false, 1, 1, 1, false, 0.5, "c"},
    {3, false, 10, 1, 1, false, 0.5, "c"},
    {3, false, 1000, 1, 1, false, 0.5, "c"},
    {3, false, 200000, 1, 1, false, 0.5, "c"},
    {3, true, 1, 1, 1, false, 0.5, "c"},
    {3, true, 10, 1, 1, false, 0.5, "c"},
    {3, true, 1000, 1, 1, false, 0.5, "c"},
    {3, true, 200000, 1, 1, false, 0.5, "c"},
    {4, false, 1, 1, 1, false, 0.5, "c"},
    {4, false, 10, 1, 1, false, 0.5, "c"},
    {4, false, 1000, 1, 1, false, 0.5, "c"},
    {4, false, 200000, 1, 1, false, 0.5, "c"},
    {4, true, 1, 1, 1, false, 0.5, "c"},
    {4, true, 10, 1, 1, false, 0.5, "c"},
    {4, true, 1000, 1, 1, false, 0.5, "c"},
    {4, true, 200000, 1, 1, false, 0.5, "c"},
    {5, false, 1, 1, 1, false, 0.5, "c"},
    {5, false, 10, 1, 1, false, 0.5, "c"},
    {5, false, 1000, 1, 1, false, 0.5, "c"},
    {5, false, 200000, 1, 1, false, 0.5, "c"},
    {5, true, 1, 1, 1, false, 0.5, "c"},
    {5, true, 10, 1, 1, false, 0.5, "c"},
    {5, true, 1000, 1, 1, false, 0.5, "c"},
    {5, true, 200000, 1, 1, false, 0.5, "c"},
    {6, false, 1, 1, 1, false, 5.5, "(h c a)"},
    {6, false, 10, 1, 1, false, 5.5, "(h c a)"},
    {6, false, 1000, 1, 1, false, 5.5, "(h c a)"},
    {6, false, 200000, 1, 1, false, 5.5, "(h c a)"},
    {6, true, 1, 2, 1, false, 5.5, "(h c a)"},
    {6, true, 10, 2, 1, false, 5.5, "(h c a)"},
    {6, true, 1000, 2, 1, false, 5.5, "(h c a)"},
    {6, true, 200000, 2, 1, false, 5.5, "(h c a)"},
    {7, false, 1, 1, 1, false, 7, "(f (f c c) b)"},
    {7, false, 10, 1, 1, false, 7, "(f (f c c) b)"},
    {7, false, 1000, 1, 1, false, 7, "(f (f c c) b)"},
    {7, false, 200000, 1, 1, false, 7, "(f (f c c) b)"},
    {7, true, 1, 3, 0, true, 7, "(f (f c c) b)"},
    {7, true, 10, 4, 1, false, 7, "(f (f c c) b)"},
    {7, true, 1000, 4, 1, false, 7, "(f (f c c) b)"},
    {7, true, 200000, 4, 1, false, 7, "(f (f c c) b)"},
    {8, false, 1, 1, 1, false, 1, "a"},
    {8, false, 10, 1, 1, false, 1, "a"},
    {8, false, 1000, 1, 1, false, 1, "a"},
    {8, false, 200000, 1, 1, false, 1, "a"},
    {8, true, 1, 1, 1, false, 1, "a"},
    {8, true, 10, 1, 1, false, 1, "a"},
    {8, true, 1000, 1, 1, false, 1, "a"},
    {8, true, 200000, 1, 1, false, 1, "a"},
    {9, false, 1, 1, 1, false, 3.5, "(f (k c c c) (k c c c))"},
    {9, false, 10, 1, 1, false, 3.5, "(f (k c c c) (k c c c))"},
    {9, false, 1000, 1, 1, false, 3.5, "(f (k c c c) (k c c c))"},
    {9, false, 200000, 1, 1, false, 3.5, "(f (k c c c) (k c c c))"},
    {9, true, 1, 3, 0, true, 3.5, "(f (k c c c) (k c c c))"},
    {9, true, 10, 3, 1, false, 3.5, "(f (k c c c) (k c c c))"},
    {9, true, 1000, 3, 1, false, 3.5, "(f (k c c c) (k c c c))"},
    {9, true, 200000, 3, 1, false, 3.5, "(f (k c c c) (k c c c))"},
    {10, false, 1, 1, 1, false, 0.5, "c"},
    {10, false, 10, 1, 1, false, 0.5, "c"},
    {10, false, 1000, 1, 1, false, 0.5, "c"},
    {10, false, 200000, 1, 1, false, 0.5, "c"},
    {10, true, 1, 1, 1, false, 0.5, "c"},
    {10, true, 10, 1, 1, false, 0.5, "c"},
    {10, true, 1000, 1, 1, false, 0.5, "c"},
    {10, true, 200000, 1, 1, false, 0.5, "c"},
    {11, false, 1, 6, 1, true, 1, "a"},
    {11, false, 10, 6, 5, false, 1, "a"},
    {11, false, 1000, 6, 5, false, 1, "a"},
    {11, false, 200000, 6, 5, false, 1, "a"},
    {11, true, 1, 6, 1, true, 1, "a"},
    {11, true, 10, 6, 5, false, 1, "a"},
    {11, true, 1000, 6, 5, false, 1, "a"},
    {11, true, 200000, 6, 5, false, 1, "a"},
    {12, false, 1, 1, 1, false, 0.5, "c"},
    {12, false, 10, 1, 1, false, 0.5, "c"},
    {12, false, 1000, 1, 1, false, 0.5, "c"},
    {12, false, 200000, 1, 1, false, 0.5, "c"},
    {12, true, 1, 1, 1, false, 0.5, "c"},
    {12, true, 10, 1, 1, false, 0.5, "c"},
    {12, true, 1000, 1, 1, false, 0.5, "c"},
    {12, true, 200000, 1, 1, false, 0.5, "c"},
    {13, false, 1, 1, 1, false, 0.5, "c"},
    {13, false, 10, 1, 1, false, 0.5, "c"},
    {13, false, 1000, 1, 1, false, 0.5, "c"},
    {13, false, 200000, 1, 1, false, 0.5, "c"},
    {13, true, 1, 1, 1, false, 0.5, "c"},
    {13, true, 10, 1, 1, false, 0.5, "c"},
    {13, true, 1000, 1, 1, false, 0.5, "c"},
    {13, true, 200000, 1, 1, false, 0.5, "c"},
    {14, false, 1, 1, 1, false, 1.25, "(k c c c)"},
    {14, false, 10, 1, 1, false, 1.25, "(k c c c)"},
    {14, false, 1000, 1, 1, false, 1.25, "(k c c c)"},
    {14, false, 200000, 1, 1, false, 1.25, "(k c c c)"},
    {14, true, 1, 2, 1, false, 1.25, "(k c c c)"},
    {14, true, 10, 2, 1, false, 1.25, "(k c c c)"},
    {14, true, 1000, 2, 1, false, 1.25, "(k c c c)"},
    {14, true, 200000, 2, 1, false, 1.25, "(k c c c)"},
    {15, false, 1, 1, 1, false, 0.5, "c"},
    {15, false, 10, 1, 1, false, 0.5, "c"},
    {15, false, 1000, 1, 1, false, 0.5, "c"},
    {15, false, 200000, 1, 1, false, 0.5, "c"},
    {15, true, 1, 1, 1, false, 0.5, "c"},
    {15, true, 10, 1, 1, false, 0.5, "c"},
    {15, true, 1000, 1, 1, false, 0.5, "c"},
    {15, true, 200000, 1, 1, false, 0.5, "c"},
    {16, false, 1, 1, 1, false, 2, "b"},
    {16, false, 10, 1, 1, false, 2, "b"},
    {16, false, 1000, 1, 1, false, 2, "b"},
    {16, false, 200000, 1, 1, false, 2, "b"},
    {16, true, 1, 1, 1, false, 2, "b"},
    {16, true, 10, 1, 1, false, 2, "b"},
    {16, true, 1000, 1, 1, false, 2, "b"},
    {16, true, 200000, 1, 1, false, 2, "b"},
    {17, false, 1, 1, 1, false, 2, "b"},
    {17, false, 10, 1, 1, false, 2, "b"},
    {17, false, 1000, 1, 1, false, 2, "b"},
    {17, false, 200000, 1, 1, false, 2, "b"},
    {17, true, 1, 1, 1, false, 2, "b"},
    {17, true, 10, 1, 1, false, 2, "b"},
    {17, true, 1000, 1, 1, false, 2, "b"},
    {17, true, 200000, 1, 1, false, 2, "b"},
    {18, false, 1, 1, 1, false, 0.5, "c"},
    {18, false, 10, 1, 1, false, 0.5, "c"},
    {18, false, 1000, 1, 1, false, 0.5, "c"},
    {18, false, 200000, 1, 1, false, 0.5, "c"},
    {18, true, 1, 1, 1, false, 0.5, "c"},
    {18, true, 10, 1, 1, false, 0.5, "c"},
    {18, true, 1000, 1, 1, false, 0.5, "c"},
    {18, true, 200000, 1, 1, false, 0.5, "c"},
    {19, false, 1, 1, 1, false, 0.5, "c"},
    {19, false, 10, 1, 1, false, 0.5, "c"},
    {19, false, 1000, 1, 1, false, 0.5, "c"},
    {19, false, 200000, 1, 1, false, 0.5, "c"},
    {19, true, 1, 1, 1, false, 0.5, "c"},
    {19, true, 10, 1, 1, false, 0.5, "c"},
    {19, true, 1000, 1, 1, false, 0.5, "c"},
    {19, true, 200000, 1, 1, false, 0.5, "c"},
    {20, false, 1, 1, 1, false, 1, "a"},
    {20, false, 10, 1, 1, false, 1, "a"},
    {20, false, 1000, 1, 1, false, 1, "a"},
    {20, false, 200000, 1, 1, false, 1, "a"},
    {20, true, 1, 1, 1, false, 1, "a"},
    {20, true, 10, 1, 1, false, 1, "a"},
    {20, true, 1000, 1, 1, false, 1, "a"},
    {20, true, 200000, 1, 1, false, 1, "a"},
    {21, false, 1, 1, 1, false, 0.5, "c"},
    {21, false, 10, 1, 1, false, 0.5, "c"},
    {21, false, 1000, 1, 1, false, 0.5, "c"},
    {21, false, 200000, 1, 1, false, 0.5, "c"},
    {21, true, 1, 1, 1, false, 0.5, "c"},
    {21, true, 10, 1, 1, false, 0.5, "c"},
    {21, true, 1000, 1, 1, false, 0.5, "c"},
    {21, true, 200000, 1, 1, false, 0.5, "c"},
    {22, false, 1, 1, 1, false, 0.5, "c"},
    {22, false, 10, 1, 1, false, 0.5, "c"},
    {22, false, 1000, 1, 1, false, 0.5, "c"},
    {22, false, 200000, 1, 1, false, 0.5, "c"},
    {22, true, 1, 1, 1, false, 0.5, "c"},
    {22, true, 10, 1, 1, false, 0.5, "c"},
    {22, true, 1000, 1, 1, false, 0.5, "c"},
    {22, true, 200000, 1, 1, false, 0.5, "c"},
    {23, false, 1, 1, 1, false, 0.5, "c"},
    {23, false, 10, 1, 1, false, 0.5, "c"},
    {23, false, 1000, 1, 1, false, 0.5, "c"},
    {23, false, 200000, 1, 1, false, 0.5, "c"},
    {23, true, 1, 1, 1, false, 0.5, "c"},
    {23, true, 10, 1, 1, false, 0.5, "c"},
    {23, true, 1000, 1, 1, false, 0.5, "c"},
    {23, true, 200000, 1, 1, false, 0.5, "c"},
    {24, false, 1, 1, 1, false, 0.5, "c"},
    {24, false, 10, 1, 1, false, 0.5, "c"},
    {24, false, 1000, 1, 1, false, 0.5, "c"},
    {24, false, 200000, 1, 1, false, 0.5, "c"},
    {24, true, 1, 1, 1, false, 0.5, "c"},
    {24, true, 10, 1, 1, false, 0.5, "c"},
    {24, true, 1000, 1, 1, false, 0.5, "c"},
    {24, true, 200000, 1, 1, false, 0.5, "c"},
    {25, false, 1, 1, 1, false, 2.75, "(f c c)"},
    {25, false, 10, 1, 1, false, 2.75, "(f c c)"},
    {25, false, 1000, 1, 1, false, 2.75, "(f c c)"},
    {25, false, 200000, 1, 1, false, 2.75, "(f c c)"},
    {25, true, 1, 2, 1, false, 2.75, "(f c c)"},
    {25, true, 10, 2, 1, false, 2.75, "(f c c)"},
    {25, true, 1000, 2, 1, false, 2.75, "(f c c)"},
    {25, true, 200000, 2, 1, false, 2.75, "(f c c)"},
};
// clang-format on

/** The exact search visits classes, sums bounds and cuts at the budget
 *  in one fixed order. On the 25 seeded graphs, the chain and the
 *  lattice, both arms replay the expansion and prune counts, the
 *  exhaustion flag, the term and its DAG cost that the ordered-set
 *  search (a std::set frontier) produced, at budgets that cut the
 *  search early, midway and not at all. */
TEST(ExtractDifferentialTest, ExactSearchReplaysAtEveryBudget)
{
    size_t checked = 0;
    for (const ExactReplay &want : kExactReplays) {
        EGraph eg;
        EClassId root =
            want.graph == 0    ? chainExactGraph(eg)
            : want.graph == -1 ? gridExactGraph(eg)
                               : seededExactGraph(
                                     eg, static_cast<uint32_t>(want.graph));
        ExtractStats stats;
        ExtractOptions options;
        options.naive = want.naive;
        options.budget = want.budget;
        options.stats = &stats;
        auto got = extractExact(eg, root, kToy, options);
        std::string what = "graph " + std::to_string(want.graph) +
                           (want.naive ? " naive" : " incremental") +
                           " budget " + std::to_string(want.budget);
        ASSERT_EQ(got.has_value(), want.term != nullptr) << what;
        EXPECT_EQ(stats.expansions, want.expansions) << what;
        EXPECT_EQ(stats.bound_prunes, want.bound_prunes) << what;
        EXPECT_EQ(stats.budget_exhausted, want.budget_exhausted) << what;
        if (got) {
            EXPECT_EQ(got->term->str(), want.term) << what;
            EXPECT_EQ(got->dag_cost, want.dag_cost) << what;
        }
        ++checked;
    }
    EXPECT_EQ(checked, 27u * 2 * 4);
}

/** The local-extraction memo against fresh extraction. Random adds,
 *  merges, rebuilds and nested checkpoints resolved by rollback or
 *  commit interleave with bursts of memoized extractions under three
 *  models: latency over a fixed loop registry and term size, both
 *  served by a registered bound analysis, and the toy model on
 *  from-scratch bounds. Every memoized term prints what a fresh
 *  extractGreedy builds on the same graph, and asking again before the
 *  graph changes returns the very same term. */
TEST(GreedyMemoTest, MemoizedTermsMatchFreshExtraction)
{
    const std::pair<const char *, size_t> ops[] = {
        {"affine.for:i:L0", 2}, {"affine.for:j:L1", 2},
        {"affine.for:k:L2", 1}, {"seq", 2},
        {"memref.load", 1},     {"scf.if", 2},
        {"f", 2},               {"g", 1},
    };
    size_t hits = 0;
    for (uint32_t seed = 1; seed <= 30; ++seed) {
        std::mt19937 rng(seed);
        core::LoopRegistry registry;
        for (int loop = 0; loop < 3; ++loop)
            registry["L" + std::to_string(loop)].constraints.latency =
                1 + rng() % 9;
        core::LatencyCost latency(registry);
        EGraph eg;
        registerCostBound(eg, latency);
        registerCostBound(eg, kSize);
        std::vector<EClassId> ids = seedLeaves(eg);
        const CostModel *models[] = {&latency, &kSize, &kToy};
        GreedyMemo memo;
        // Memoized against fresh extraction on a few random roots; a
        // repeat before the graph changes returns the same term.
        auto burst = [&](int step) {
            for (int k = 0; k < 4; ++k) {
                EClassId root = ids[rng() % ids.size()];
                for (const CostModel *model : models) {
                    TermPtr got = memo.extract(eg, root, *model);
                    auto fresh = extractGreedy(eg, root, *model);
                    ASSERT_EQ(got != nullptr, fresh.has_value())
                        << "seed " << seed << " step " << step;
                    if (!got)
                        continue;
                    EXPECT_EQ(got->str(), fresh->term->str())
                        << "seed " << seed << " step " << step;
                    EXPECT_EQ(memo.extract(eg, root, *model), got)
                        << "seed " << seed << " step " << step;
                }
            }
        };
        /** Open checkpoints with the id count at opening. */
        std::vector<std::pair<EGraph::Checkpoint, size_t>> open;
        for (int step = 0; step < 160; ++step) {
            switch (rng() % 8) {
            case 0:
            case 1: {
                const auto &[op, arity] = ops[rng() % 8];
                ENode node{Symbol(op), {}};
                for (size_t c = 0; c < arity; ++c)
                    node.children.push_back(ids[rng() % ids.size()]);
                ids.push_back(eg.add(node));
                break;
            }
            case 2:
                eg.merge(ids[rng() % ids.size()], ids[rng() % ids.size()]);
                break;
            case 3:
                eg.rebuild();
                break;
            case 4:
                if (open.size() < 2)
                    open.emplace_back(eg.checkpoint(), ids.size());
                break;
            case 5:
                if (open.empty())
                    break;
                // A rollback does not move the clock: the memo must
                // see it through the rollback generation.
                burst(step);
                if (rng() % 2) {
                    eg.rollback(open.back().first);
                    ids.resize(open.back().second);
                } else {
                    eg.commit(open.back().first);
                }
                open.pop_back();
                burst(step);
                break;
            default:
                burst(step);
            }
        }
        hits += memo.hits();
    }
    EXPECT_GT(hits, 0u);
}

/** intern() is a hash-cons over (op, child pointers): equal keys give
 *  one term, and a structurally equal child built elsewhere is another
 *  key. */
TEST(GreedyMemoTest, InternReturnsOneTermPerOpAndChildren)
{
    GreedyMemo memo;
    TermPtr a = memo.intern(Symbol("a"), {});
    TermPtr b = memo.intern(Symbol("b"), {});
    EXPECT_EQ(memo.intern(Symbol("a"), {}), a);
    TermPtr fab = memo.intern(Symbol("f"), {a, b});
    EXPECT_EQ(memo.intern(Symbol("f"), {a, b}), fab);
    EXPECT_EQ(fab->str(), "(f a b)");
    EXPECT_NE(memo.intern(Symbol("f"), {b, a}), fab);
    EXPECT_NE(memo.intern(Symbol("g"), {a, b}), fab);
    EXPECT_NE(memo.intern(Symbol("f"), {makeTerm("a"), b}), fab);
    // a, b, (f a b), (f b a), (g a b) and (f a' b).
    EXPECT_EQ(memo.interned(), 6u);
}

/** A change outside a class's support starts a new memo state, yet the
 *  class's re-extracted term is the pointer it was before; a change
 *  inside the support yields a new term that still shares the
 *  untouched subterm. */
TEST(GreedyMemoTest, UnchangedSupportKeepsItsTermAcrossGraphChanges)
{
    EGraph eg;
    registerCostBound(eg, kSize);
    EClassId root = eg.addTerm(parseTerm("(f (g (h a)) b)"));
    EClassId other = eg.addTerm(parseTerm("(k c)"));
    EClassId d = eg.addTerm(parseTerm("d"));
    eg.rebuild();
    GreedyMemo memo;
    TermPtr before = memo.extract(eg, root, kSize);
    ASSERT_TRUE(before);
    EXPECT_EQ(before->str(), "(f (g (h a)) b)");

    uint64_t tick = eg.tick();
    eg.add(ENode{Symbol("e"), {}});
    eg.merge(other, d);
    eg.rebuild();
    ASSERT_NE(eg.tick(), tick);
    size_t hits = memo.hits();
    TermPtr after = memo.extract(eg, root, kSize);
    EXPECT_EQ(memo.hits(), hits); // answered by a fresh state
    EXPECT_EQ(after, before);
    EXPECT_EQ(after->str(), extractGreedy(eg, root, kSize)->term->str());

    // (g (h a)) gains the smaller representative (g z): the root term
    // is rebuilt, its untouched child b keeps its pointer.
    auto g = eg.lookupTerm(parseTerm("(g (h a))"));
    ASSERT_TRUE(g.has_value());
    eg.merge(*g, eg.addTerm(parseTerm("(g z)")));
    eg.rebuild();
    TermPtr changed = memo.extract(eg, root, kSize);
    ASSERT_TRUE(changed);
    EXPECT_EQ(changed->str(), "(f (g z) b)");
    EXPECT_EQ(changed->str(),
              extractGreedy(eg, root, kSize)->term->str());
    EXPECT_NE(changed, before);
    EXPECT_EQ(changed->child(1), before->child(1));
}

} // namespace
} // namespace seer::eg
