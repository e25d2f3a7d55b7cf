/**
 * Checkpoint/rollback tests: the journal must restore the exact
 * pre-checkpoint e-graph across adds, merges, rebuilds and analysis
 * updates, and the invariant self-check must pass after every rollback.
 */
#include <gtest/gtest.h>

#include "egraph/egraph.h"
#include "egraph/term.h"

namespace seer::eg {
namespace {

ENode
node(std::string_view op, ChildList children = {})
{
    return ENode{Symbol(op), std::move(children)};
}

/** Structural fingerprint used to compare e-graph states. */
struct Fingerprint
{
    size_t classes;
    size_t nodes;
    std::vector<EClassId> ids;

    bool operator==(const Fingerprint &other) const
    {
        return classes == other.classes && nodes == other.nodes &&
               ids == other.ids;
    }
};

Fingerprint
fingerprint(const EGraph &eg)
{
    Fingerprint fp;
    fp.classes = eg.numClasses();
    fp.nodes = eg.numNodes();
    fp.ids = eg.classIds();
    return fp;
}

TEST(CheckpointTest, RollbackUndoesAdds)
{
    EGraph eg;
    EClassId a = eg.add(node("a"));
    EClassId b = eg.add(node("b"));
    eg.add(node("f", {a, b}));
    eg.rebuild();
    Fingerprint before = fingerprint(eg);

    EGraph::Checkpoint cp = eg.checkpoint();
    EXPECT_EQ(eg.numOpenCheckpoints(), 1u);
    eg.add(node("g", {a}));
    eg.add(node("h", {b}));
    eg.rebuild();
    EXPECT_EQ(eg.numNodes(), 5u);
    eg.rollback(cp);

    EXPECT_EQ(eg.numOpenCheckpoints(), 0u);
    EXPECT_TRUE(fingerprint(eg) == before);
    EXPECT_EQ(eg.debugCheckInvariants(), "");
    // Hashcons restored: re-adding dedups to the original ids.
    EXPECT_EQ(eg.add(node("a")), a);
    EXPECT_EQ(eg.add(node("f", {a, b})), eg.add(node("f", {a, b})));
}

TEST(CheckpointTest, RollbackUndoesMergeAndCongruence)
{
    EGraph eg;
    EClassId a = eg.add(node("a"));
    EClassId b = eg.add(node("b"));
    EClassId fa = eg.add(node("f", {a}));
    EClassId fb = eg.add(node("f", {b}));
    eg.rebuild();
    ASSERT_NE(eg.find(fa), eg.find(fb));
    Fingerprint before = fingerprint(eg);

    EGraph::Checkpoint cp = eg.checkpoint();
    eg.merge(a, b, "test");
    eg.rebuild();
    // Congruence closed: f(a) == f(b) now.
    ASSERT_EQ(eg.find(fa), eg.find(fb));
    eg.rollback(cp);

    EXPECT_TRUE(fingerprint(eg) == before);
    EXPECT_NE(eg.find(a), eg.find(b));
    EXPECT_NE(eg.find(fa), eg.find(fb));
    EXPECT_EQ(eg.debugCheckInvariants(), "");
    // The lookup index must have been restored too.
    EXPECT_EQ(eg.lookup(node("f", {a})), fa);
    EXPECT_EQ(eg.lookup(node("f", {b})), fb);
}

TEST(CheckpointTest, CommitKeepsChanges)
{
    EGraph eg;
    EClassId a = eg.add(node("a"));
    EClassId b = eg.add(node("b"));
    eg.rebuild();

    EGraph::Checkpoint cp = eg.checkpoint();
    eg.merge(a, b, "test");
    eg.rebuild();
    eg.commit(cp);

    EXPECT_EQ(eg.numOpenCheckpoints(), 0u);
    EXPECT_EQ(eg.find(a), eg.find(b));
    EXPECT_EQ(eg.debugCheckInvariants(), "");
}

TEST(CheckpointTest, NestedCheckpointsAreLifo)
{
    EGraph eg;
    EClassId a = eg.add(node("a"));
    eg.rebuild();

    EGraph::Checkpoint outer = eg.checkpoint();
    EClassId b = eg.add(node("b"));
    EGraph::Checkpoint inner = eg.checkpoint();
    eg.merge(a, b, "inner");
    eg.rebuild();
    ASSERT_EQ(eg.find(a), eg.find(b));

    eg.rollback(inner); // undoes the merge only
    EXPECT_NE(eg.find(a), eg.find(b));
    EXPECT_EQ(eg.numClasses(), 2u);

    eg.rollback(outer); // undoes the add of b too
    EXPECT_EQ(eg.numClasses(), 1u);
    EXPECT_EQ(eg.debugCheckInvariants(), "");
}

AnalysisHooks
constHooks()
{
    AnalysisHooks hooks;
    hooks.parse_const = [](Symbol op) -> std::optional<int64_t> {
        auto fields = splitSymbol(op);
        if (fields.size() == 2 && fields[0] == "const")
            return std::stoll(std::string(fields[1]));
        return std::nullopt;
    };
    return hooks;
}

TEST(CheckpointTest, RollbackRestoresConstantAnalysis)
{
    EGraph eg(constHooks());
    EClassId two = eg.addTerm(parseTerm("const:2"));
    EClassId x = eg.addTerm(parseTerm("var:x"));
    eg.rebuild();
    ASSERT_EQ(eg.constantOf(eg.find(two)), std::optional<int64_t>(2));
    ASSERT_FALSE(eg.constantOf(eg.find(x)).has_value());

    EGraph::Checkpoint cp = eg.checkpoint();
    // x learns the constant 2 through a union.
    eg.merge(x, two, "assume x = 2");
    eg.rebuild();
    ASSERT_EQ(eg.constantOf(eg.find(x)), std::optional<int64_t>(2));
    eg.rollback(cp);

    EXPECT_FALSE(eg.constantOf(eg.find(x)).has_value());
    EXPECT_EQ(eg.constantOf(eg.find(two)), std::optional<int64_t>(2));
    EXPECT_EQ(eg.debugCheckInvariants(), "");
}

TEST(CheckpointTest, RollbackTruncatesProofs)
{
    EGraph eg;
    EClassId a = eg.add(node("a"));
    EClassId b = eg.add(node("b"));
    EClassId c = eg.add(node("c"));
    eg.merge(a, b, "before-cp");
    eg.rebuild();
    ASSERT_TRUE(eg.explain(a, b).has_value());

    EGraph::Checkpoint cp = eg.checkpoint();
    eg.merge(a, c, "after-cp");
    eg.rebuild();
    ASSERT_TRUE(eg.explain(a, c).has_value());
    eg.rollback(cp);

    // Pre-checkpoint justification survives; the new one is gone.
    EXPECT_TRUE(eg.explain(a, b).has_value());
    EXPECT_FALSE(eg.explain(a, c).has_value());
    EXPECT_EQ(eg.debugCheckInvariants(), "");
}

TEST(CheckpointTest, RepeatedCheckpointRollbackCyclesAreStable)
{
    EGraph eg;
    EClassId a = eg.add(node("a"));
    EClassId b = eg.add(node("b"));
    eg.add(node("f", {a, b}));
    eg.rebuild();
    Fingerprint before = fingerprint(eg);

    for (int round = 0; round < 5; ++round) {
        EGraph::Checkpoint cp = eg.checkpoint();
        EClassId g = eg.add(node("g", {a}));
        eg.merge(g, b, "round");
        eg.rebuild();
        eg.rollback(cp);
        ASSERT_TRUE(fingerprint(eg) == before) << "round " << round;
        ASSERT_EQ(eg.debugCheckInvariants(), "") << "round " << round;
    }
}

} // namespace
} // namespace seer::eg
