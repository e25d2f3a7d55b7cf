/**
 * Differential tests for incremental analysis-driven extraction: with a
 * registered cost-bound analysis, extractGreedy/extractExact must produce
 * results bit-identical (same term, same tree/dag cost doubles) to the
 * from-scratch reference path (ExtractOptions::naive) — on randomized
 * e-graphs, across random add/merge/rebuild schedules, checkpoint
 * rollbacks, runner iterations with quarantined rules, and external
 * model-input (registry) updates.
 */
#include <gtest/gtest.h>

#include <map>
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

/** Cost model with mutable external inputs (a registry stand-in): leaf
 *  costs live in a keyed table with a touch log, like LoopRegistry. */
class TableCost : public CostModel
{
  public:
    TableCost()
    {
        table_ = {{"a", 1.0}, {"b", 2.0}, {"c", 0.5}, {"d", 3.0}};
    }

    double
    nodeCost(const ENode &node) const override
    {
        const std::string &op = node.op.str();
        auto it = table_.find(op);
        if (it != table_.end())
            return it->second;
        if (op == "f")
            return 2.25;
        if (op == "g")
            return 1.5;
        if (op == "k")
            return 0.75;
        return 0;
    }
    std::string name() const override { return "toy-table"; }
    uint64_t revision() const override { return touches_.size(); }
    std::vector<std::string>
    touchedSince(uint64_t since) const override
    {
        std::vector<std::string> out;
        for (size_t i = since; i < touches_.size(); ++i) {
            if (std::find(out.begin(), out.end(), touches_[i]) ==
                out.end())
                out.push_back(touches_[i]);
        }
        return out;
    }
    std::optional<std::string_view>
    dependencyKey(const ENode &node) const override
    {
        if (table_.count(node.op.str()))
            return node.op.str();
        return std::nullopt;
    }

    void
    set(const std::string &op, double cost)
    {
        table_[op] = cost;
        touches_.push_back(op);
    }

  private:
    std::map<std::string, double> table_;
    std::vector<std::string> touches_;
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

/** Exact extraction: the analysis-backed arm (with the stronger
 *  inevitable-children bound) returns the same optimum as the naive
 *  weak-bound arm whenever neither exhausts its budget, with no more
 *  search expansions; and exact never beats greedy's dag cost. */
TEST(ExtractDifferentialTest, ExactIncrementalEqualsNaive)
{
    for (uint32_t seed = 1; seed <= 25; ++seed) {
        std::mt19937 rng(seed);
        EGraph eg;
        registerCostBound(eg, kToy);
        std::vector<EClassId> ids = seedLeaves(eg);
        mutate(eg, ids, rng, 20);
        EClassId root = ids[rng() % ids.size()];

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

/** Budget exhaustion is reported, not silent, and the result is still a
 *  valid (at worst greedy) implementation. */
TEST(ExtractDifferentialTest, BudgetExhaustionReported)
{
    EGraph eg;
    registerCostBound(eg, kToy);
    std::vector<EClassId> ids = seedLeaves(eg);
    // A deep chain with two nodes per class whose child sets differ:
    // the non-shared children keep the admissible bound strictly below
    // the optimum, so the search must descend one class per link and a
    // budget of 1 is guaranteed to run out.
    EClassId root = ids[0];
    for (int i = 0; i < 12; ++i) {
        EClassId next = eg.add(ENode{Symbol("f"), {root, ids[1]}});
        eg.merge(next, eg.add(ENode{Symbol("h"), {root, ids[3]}}));
        eg.rebuild();
        root = eg.find(next);
    }

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

/** External model-input updates invalidate only the dependent cones:
 *  after touching one leaf's table entry, the re-drain recomputes a
 *  strict subset of the classes and still matches the naive path. */
TEST(CostBoundAnalysisTest, ModelTouchInvalidatesOnlyDependentCones)
{
    TableCost table;
    EGraph eg;
    CostBoundAnalysis &bound = registerCostBound(eg, table);

    EClassId a = eg.add(ENode{Symbol("a"), {}});
    EClassId b = eg.add(ENode{Symbol("b"), {}});
    EClassId c = eg.add(ENode{Symbol("c"), {}});
    EClassId d = eg.add(ENode{Symbol("d"), {}});
    EClassId t1 = eg.add(ENode{Symbol("f"), {a, b}});
    EClassId t2 = eg.add(ENode{Symbol("g"), {c}});
    EClassId root = eg.add(ENode{Symbol("k"), {t1, t2, d}});
    // An independent cone that never reads "a".
    EClassId u1 = eg.add(ENode{Symbol("f"), {c, c}});
    eg.add(ENode{Symbol("g"), {u1}});
    eg.rebuild();

    auto base = extractGreedy(eg, root, table);
    ASSERT_TRUE(base.has_value());
    uint64_t before = bound.recomputes();

    table.set("a", 10.0);
    auto again = extractGreedy(eg, root, table);
    ASSERT_TRUE(again.has_value());
    uint64_t delta = bound.recomputes() - before;
    EXPECT_GE(delta, 1u);
    EXPECT_LT(delta, eg.numClasses())
        << "invalidation must be targeted, not a global recompute";
    EXPECT_EQ(bound.value(eg.find(a)).cost, 10.0);

    ExtractOptions naive;
    naive.naive = true;
    auto reference = extractGreedy(eg, root, table, naive);
    ASSERT_TRUE(reference.has_value());
    EXPECT_EQ(again->term->str(), reference->term->str());
    EXPECT_EQ(again->tree_cost, reference->tree_cost);
    EXPECT_EQ(again->dag_cost, reference->dag_cost);
    ASSERT_EQ(eg.debugCheckInvariants(), "");
}

/** The loop registry's touch log: operator[] ticks the revision and
 *  records the key (deduplicated by touchedSince); LatencyCost forwards
 *  both to the extraction layer. */
TEST(LoopRegistryTest, TouchLogDrivesLatencyInvalidation)
{
    core::LoopRegistry registry;
    EXPECT_EQ(registry.revision(), 0u);
    registry["L1"].constraints.latency = 3;
    registry["L2"].constraints.latency = 5;
    EXPECT_EQ(registry.revision(), 2u);
    EXPECT_EQ(registry.touchedSince(0),
              (std::vector<std::string>{"L1", "L2"}));
    registry["L1"].constraints.latency = 4;
    EXPECT_EQ(registry.touchedSince(2),
              std::vector<std::string>{"L1"});
    registry["L1"].constraints.latency = 6;
    EXPECT_EQ(registry.touchedSince(2),
              std::vector<std::string>{"L1"})
        << "touchedSince must deduplicate repeated touches";
    EXPECT_EQ(registry.count("L1"), 1u);
    EXPECT_EQ(registry.at("L1").constraints.latency, 6);
    EXPECT_EQ(registry.size(), 2u);

    core::LatencyCost cost(registry);
    EXPECT_EQ(cost.name(), "latency");
    EXPECT_EQ(cost.revision(), registry.revision());
    registry["L3"];
    EXPECT_EQ(cost.touchedSince(4), std::vector<std::string>{"L3"});
}

} // namespace
} // namespace seer::eg
