/**
 * Checkpoint/rollback tests: the journal must restore the exact
 * pre-checkpoint e-graph across adds, merges, rebuilds and analysis
 * updates, and the invariant self-check must pass after every rollback.
 * The union-find, worklist and dirty list are copied only at the first
 * write that overwrites them; the lazy-snapshot tests pin both halves.
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

/**
 * Leaves x0..x{n-1} merged into one chain (x0 -> x1 -> ... before
 * rebuild's path halving), so compressing finds have links to rewrite.
 */
std::vector<EClassId>
chain(EGraph &eg, size_t n)
{
    std::vector<EClassId> xs;
    for (size_t i = 0; i < n; ++i)
        xs.push_back(eg.add(node("x" + std::to_string(i))));
    for (size_t i = 0; i + 1 < n; ++i)
        eg.merge(xs[i + 1], xs[i], "chain");
    eg.rebuild();
    return xs;
}

/** Canonical id of every id, read without path compression. */
std::vector<EClassId>
roots(const EGraph &eg)
{
    std::vector<EClassId> out;
    for (EClassId id = 0; id < eg.numIds(); ++id)
        out.push_back(eg.find(id));
    return out;
}

TEST(LazySnapshotTest, ReadOnlyCheckpointCopiesNothing)
{
    EGraph eg;
    std::vector<EClassId> xs = chain(eg, 8);
    eg.add(node("f", {xs[0], xs[3]}));
    eg.rebuild();
    const std::vector<EClassId> links = eg.unionFind();
    uint64_t snapshots = eg.numCheckpointSnapshots();

    for (bool roll_back : {true, false}) {
        EGraph::Checkpoint cp = eg.checkpoint();
        const EGraph &view = eg;
        for (EClassId id = 0; id < view.numIds(); ++id) {
            view.find(id);
            view.eclass(id);
        }
        view.lookup(node("f", {xs[0], xs[3]}));
        view.classIds();
        EXPECT_EQ(view.debugCheckInvariants(), "");
        // Mutable calls that change no entry are not writes either.
        eg.find(xs.back());
        eg.rebuild();
        if (roll_back)
            eg.rollback(cp);
        else
            eg.commit(cp);
        EXPECT_EQ(eg.numCheckpointSnapshots(), snapshots);
        EXPECT_EQ(eg.unionFind(), links);
    }
    EXPECT_EQ(eg.numCheckpoints(), 2u);
}

TEST(LazySnapshotTest, RollbackRestoresLinksCompressedByFind)
{
    EGraph eg;
    chain(eg, 16);
    const std::vector<EClassId> links = eg.unionFind();
    const std::vector<EClassId> canonical = roots(eg);
    uint64_t snapshots = eg.numCheckpointSnapshots();

    EGraph::Checkpoint cp = eg.checkpoint();
    for (EClassId id = 0; id < eg.numIds(); ++id)
        eg.find(id); // path halving
    ASSERT_NE(eg.unionFind(), links) << "no link left to compress";
    EXPECT_EQ(eg.numCheckpointSnapshots(), snapshots + 1);
    eg.rollback(cp);

    EXPECT_EQ(eg.unionFind(), links);
    EXPECT_EQ(roots(eg), canonical);
    EXPECT_EQ(eg.debugCheckInvariants(), "");
}

TEST(LazySnapshotTest, AddOnlyRollbackTruncates)
{
    // Clean graph at open: adds and a requeue only append.
    {
        EGraph eg;
        EClassId a = eg.add(node("a"));
        EClassId b = eg.add(node("b"));
        eg.add(node("f", {a, b}));
        eg.rebuild();
        Fingerprint before = fingerprint(eg);
        size_t ids = eg.numIds();
        const std::vector<EClassId> links = eg.unionFind();

        EGraph::Checkpoint cp = eg.checkpoint();
        eg.add(node("g", {a}));
        eg.add(node("f", {b, a}));
        eg.add(node("h"));
        eg.analysisRequeue(b);
        ASSERT_FALSE(eg.isClean());
        eg.rollback(cp);

        EXPECT_EQ(eg.numCheckpointSnapshots(), 0u);
        EXPECT_EQ(eg.numIds(), ids);
        EXPECT_EQ(eg.unionFind(), links);
        EXPECT_TRUE(eg.isClean()); // worklist truncated
        EXPECT_TRUE(fingerprint(eg) == before);
        // Rollback pops op-index entries; a bucket may stay, empty.
        auto candidates = [&](const char *op, size_t arity) -> size_t {
            const OpBucket *bucket = eg.opCandidates(Symbol(op), arity);
            return bucket ? bucket->size() : 0;
        };
        EXPECT_EQ(candidates("g", 1), 0u);
        EXPECT_EQ(candidates("h", 0), 0u);
        EXPECT_EQ(candidates("f", 2), 1u);
        EXPECT_FALSE(eg.lookup(node("f", {b, a})).has_value());
        EXPECT_FALSE(eg.lookup(node("h")).has_value());
        EXPECT_EQ(eg.debugCheckInvariants(), "");
    }
    // A merge pending rebuild at open: its worklist entry and its
    // pending-merge mark survive the truncation.
    {
        EGraph eg;
        EClassId a = eg.add(node("a"));
        EClassId b = eg.add(node("b"));
        EClassId c = eg.add(node("c"));
        eg.add(node("f", {a}));
        eg.rebuild();
        eg.merge(a, c, "pending");
        ASSERT_EQ(eg.find(c), a);

        EGraph::Checkpoint cp = eg.checkpoint();
        eg.add(node("g", {c}));
        eg.add(node("f", {b}));
        eg.analysisRequeue(b);
        eg.rollback(cp);
        EXPECT_EQ(eg.numCheckpointSnapshots(), 0u);
        EXPECT_FALSE(eg.isClean());

        // The reinstated merge is still pending, so the rebuild that
        // follows it advances tick() once; one with nothing pending
        // does not.
        uint64_t tick = eg.tick();
        eg.rebuild();
        EXPECT_EQ(eg.tick(), tick + 1);
        eg.rebuild();
        EXPECT_EQ(eg.tick(), tick + 1);
        EXPECT_EQ(eg.numClasses(), 3u);
        EXPECT_EQ(eg.debugCheckInvariants(), "");
    }
    // A merge made inside a checkpoint opened on a rebuilt graph is
    // rolled back with its pending mark: the next rebuild, even with
    // repair work queued, leaves tick() alone.
    {
        EGraph eg;
        EClassId a = eg.add(node("a"));
        EClassId b = eg.add(node("b"));
        eg.add(node("f", {a}));
        eg.rebuild();

        EGraph::Checkpoint cp = eg.checkpoint();
        eg.merge(a, b, "undone");
        eg.rollback(cp);
        eg.analysisRequeue(a);
        ASSERT_FALSE(eg.isClean());
        uint64_t tick = eg.tick();
        eg.rebuild();
        EXPECT_EQ(eg.tick(), tick);
        EXPECT_EQ(eg.numClasses(), 3u);
        EXPECT_EQ(eg.debugCheckInvariants(), "");
    }
}

TEST(LazySnapshotTest, NestedRollbacksRestoreTheirOwnOpenState)
{
    EGraph eg;
    std::vector<EClassId> xs = chain(eg, 4);
    EClassId y = eg.add(node("y"));
    eg.rebuild();
    const std::vector<EClassId> outer_links = eg.unionFind();
    Fingerprint outer_state = fingerprint(eg);

    EGraph::Checkpoint outer = eg.checkpoint();
    EClassId z = eg.add(node("z")); // append only: no copy
    eg.add(node("f", {z, y}));
    EXPECT_EQ(eg.numCheckpointSnapshots(), 0u);
    const std::vector<EClassId> inner_links = eg.unionFind();
    Fingerprint inner_state = fingerprint(eg);

    EGraph::Checkpoint inner = eg.checkpoint();
    eg.merge(xs[0], z, "inner");
    eg.merge(y, z, "inner");
    eg.rebuild();
    // The first write copied both open checkpoints, innermost first.
    EXPECT_EQ(eg.numCheckpointSnapshots(), 2u);
    ASSERT_EQ(eg.find(y), eg.find(xs[0]));

    eg.rollback(inner);
    EXPECT_EQ(eg.unionFind(), inner_links);
    EXPECT_TRUE(fingerprint(eg) == inner_state);
    EXPECT_NE(eg.find(y), eg.find(z));
    EXPECT_EQ(eg.debugCheckInvariants(), "");

    eg.rollback(outer);
    EXPECT_EQ(eg.unionFind(), outer_links);
    EXPECT_TRUE(fingerprint(eg) == outer_state);
    EXPECT_EQ(eg.numIds(), outer_links.size());
    EXPECT_EQ(eg.debugCheckInvariants(), "");
    EXPECT_EQ(eg.numCheckpointSnapshots(), 2u);
}

} // namespace
} // namespace seer::eg
