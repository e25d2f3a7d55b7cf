/**
 * Differential tests for the indexed / incremental e-matcher: the
 * compiled, index-driven path (ematch / ematchDirty) must produce the
 * exact match list — same set, same order — as the pre-index reference
 * matcher (ematchNaive), on randomized e-graphs, across random union
 * sequences, and across checkpoint/rollback.
 */
#include <gtest/gtest.h>

#include <random>

#include "egraph/pattern.h"
#include "egraph/runner.h"
#include "rover/rover.h"
#include "support/error.h"

namespace seer::eg {
namespace {

/** Canonicalize a match so lists taken at different times compare. */
Match
canon(const EGraph &eg, const Match &m)
{
    Match out;
    out.root = eg.find(m.root);
    for (const auto &[var, id] : m.subst)
        out.subst[var] = eg.find(id);
    return out;
}

bool
sameMatch(const Match &a, const Match &b)
{
    return a.root == b.root && a.subst == b.subst;
}

/** Exact list equality: same matches in the same order. */
void
expectSameMatchList(const std::vector<Match> &got,
                    const std::vector<Match> &want, const char *what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(sameMatch(got[i], want[i]))
            << what << ": mismatch at index " << i << " (root " << got[i].root
            << " vs " << want[i].root << ")";
    }
}

/** The pattern pool every differential test matches with: linear,
 *  non-linear, nested, wide, and the bare-variable full scan. */
std::vector<PatternPtr>
patternPool()
{
    return {
        parsePattern("(f ?x ?y)"),
        parsePattern("(f ?x ?x)"),
        parsePattern("(f (g ?x) ?y)"),
        parsePattern("(g (f ?x ?y))"),
        parsePattern("(k ?a ?b ?a)"),
        parsePattern("(f (f ?a ?b) (g ?c))"),
        parsePattern("?v"),
    };
}

/** Grow a random e-graph: random nodes over a small op pool wired to
 *  random existing classes, then a burst of random unions + rebuild. */
struct RandomGraph
{
    EGraph eg;
    std::vector<EClassId> ids;

    explicit RandomGraph(uint32_t seed, size_t adds = 120,
                         size_t unions = 25)
    {
        std::mt19937 rng(seed);
        const std::pair<const char *, size_t> ops[] = {
            {"f", 2}, {"g", 1}, {"h", 2}, {"k", 3},
            {"a", 0}, {"b", 0}, {"c", 0}, {"d", 0},
        };
        // Seed with leaves so early nodes have children to pick.
        for (size_t i = 4; i < 8; ++i)
            ids.push_back(eg.add(ENode{Symbol(ops[i].first), {}}));
        for (size_t i = 0; i < adds; ++i) {
            const auto &[op, arity] = ops[rng() % 8];
            ENode node{Symbol(op), {}};
            for (size_t c = 0; c < arity; ++c)
                node.children.push_back(ids[rng() % ids.size()]);
            ids.push_back(eg.add(node));
        }
        for (size_t i = 0; i < unions; ++i) {
            eg.merge(ids[rng() % ids.size()], ids[rng() % ids.size()]);
            if (rng() % 4 == 0)
                eg.rebuild();
        }
        eg.rebuild();
    }
};

TEST(EMatchDifferentialTest, IndexedEqualsNaiveOnRandomGraphs)
{
    for (uint32_t seed = 1; seed <= 8; ++seed) {
        RandomGraph g(seed);
        ASSERT_EQ(g.eg.debugCheckInvariants(), "") << "seed " << seed;
        for (const PatternPtr &p : patternPool()) {
            auto indexed = ematch(g.eg, *p);
            auto naive = ematchNaive(g.eg, *p);
            expectSameMatchList(indexed, naive, p->str().c_str());
        }
    }
}

TEST(EMatchDifferentialTest, LimitTruncatesIdenticalPrefix)
{
    RandomGraph g(42);
    for (const PatternPtr &p : patternPool()) {
        auto full = ematch(g.eg, *p);
        for (size_t limit : {size_t(1), size_t(3), full.size() + 1}) {
            auto capped = ematch(g.eg, *p, limit);
            auto capped_naive = ematchNaive(g.eg, *p, limit);
            size_t want = std::min(limit, full.size());
            ASSERT_EQ(capped.size(), want);
            expectSameMatchList(capped, capped_naive, "limit");
            for (size_t i = 0; i < capped.size(); ++i)
                EXPECT_TRUE(sameMatch(capped[i], full[i]));
        }
    }
}

/** ematchDirty(watermark) + the surviving clean-rooted old matches must
 *  reassemble exactly the fresh full match list (the runner's cache
 *  merge invariant). */
TEST(EMatchDifferentialTest, DirtyPlusCleanCacheEqualsFullRescan)
{
    for (uint32_t seed = 100; seed < 104; ++seed) {
        RandomGraph g(seed);
        std::mt19937 rng(seed * 7 + 1);
        for (const PatternPtr &p : patternPool()) {
            auto before = ematch(g.eg, *p);
            uint64_t watermark = g.eg.tick();

            // Mutate: a few adds and unions, then rebuild (dirtiness
            // propagates to ancestor cones only at rebuild).
            for (int i = 0; i < 6; ++i) {
                ENode node{Symbol("f"),
                           {g.ids[rng() % g.ids.size()],
                            g.ids[rng() % g.ids.size()]}};
                g.ids.push_back(g.eg.add(node));
            }
            g.eg.merge(g.ids[rng() % g.ids.size()],
                       g.ids[rng() % g.ids.size()]);
            g.eg.rebuild();

            auto full = ematch(g.eg, *p);
            auto dirty = ematchDirty(g.eg, *p, watermark);

            std::vector<Match> merged;
            size_t di = 0;
            for (const Match &m : before) {
                if (g.eg.find(m.root) != m.root)
                    continue; // root lost its canonicity: superseded
                if (g.eg.timestampOf(m.root) > watermark)
                    continue; // dirty root: re-found by ematchDirty
                while (di < dirty.size() && dirty[di].root < m.root)
                    merged.push_back(canon(g.eg, dirty[di++]));
                merged.push_back(canon(g.eg, m));
            }
            while (di < dirty.size())
                merged.push_back(canon(g.eg, dirty[di++]));

            std::vector<Match> full_canon;
            for (const Match &m : full)
                full_canon.push_back(canon(g.eg, m));
            expectSameMatchList(merged, full_canon, p->str().c_str());
        }
    }
}

TEST(EMatchDifferentialTest, MatchesRestoredAcrossRollback)
{
    for (uint32_t seed = 7; seed < 10; ++seed) {
        RandomGraph g(seed);
        std::mt19937 rng(seed);
        auto pool = patternPool();

        std::vector<std::vector<Match>> before;
        for (const PatternPtr &p : pool)
            before.push_back(ematch(g.eg, *p));
        uint64_t generation = g.eg.rollbackGeneration();

        auto cp = g.eg.checkpoint();
        for (int i = 0; i < 10; ++i) {
            ENode node{Symbol("g"), {g.ids[rng() % g.ids.size()]}};
            g.eg.add(node);
        }
        g.eg.merge(g.ids[rng() % g.ids.size()],
                   g.ids[rng() % g.ids.size()]);
        g.eg.rebuild();
        g.eg.rollback(cp);

        ASSERT_EQ(g.eg.debugCheckInvariants(), "") << "seed " << seed;
        EXPECT_GT(g.eg.rollbackGeneration(), generation)
            << "rollback must invalidate incremental caches";
        for (size_t i = 0; i < pool.size(); ++i) {
            auto after = ematch(g.eg, *pool[i]);
            auto naive = ematchNaive(g.eg, *pool[i]);
            expectSameMatchList(after, before[i], "restored after rollback");
            expectSameMatchList(after, naive, "vs naive after rollback");
        }
    }
}

TEST(EMatchDifferentialTest, StatsReflectIndexAndWatermark)
{
    RandomGraph g(3);
    PatternPtr p = parsePattern("(f ?x ?y)");

    EMatchStats stats;
    ematch(g.eg, *p, 0, &stats);
    EXPECT_TRUE(stats.used_index);
    EXPECT_GT(stats.candidates_visited, 0u);

    // Nothing changed since the current tick: the watermark filters
    // every candidate out.
    EMatchStats clean;
    auto none = ematchDirty(g.eg, *p, g.eg.tick(), 0, &clean);
    EXPECT_TRUE(none.empty());
    EXPECT_EQ(clean.candidates_visited, 0u);
    EXPECT_GT(clean.skipped_clean, 0u);

    // Bare variable: no head operator to index on.
    EMatchStats bare;
    ematch(g.eg, *parsePattern("?v"), 0, &bare);
    EXPECT_FALSE(bare.used_index);
}

/** Everything a saturation run leaves behind that must not depend on
 *  how the search found its matches: the report JSON with wall-clock
 *  timings and the matcher's own search counters normalized out, the
 *  final e-graph (node/class counts and every pool pattern's match
 *  list) and the proof records. */
struct RunOutcome
{
    std::string report_json;
    size_t nodes = 0;
    size_t classes = 0;
    std::vector<std::string> records;
    std::vector<std::vector<Match>> matches;
};

RunOutcome
observe(const EGraph &eg, RunnerReport report)
{
    RunOutcome out;
    for (const RewriteRecord &record : report.records) {
        out.records.push_back(record.rule + ": " + record.lhs->str() +
                              " => " + record.rhs->str());
    }
    for (RuleStats &rule : report.rules) {
        rule.search_seconds = 0;
        rule.apply_seconds = 0;
        rule.search_candidates = 0;
        rule.search_skipped_clean = 0;
    }
    for (IterationStats &it : report.iterations)
        it.seconds = 0;
    report.total_seconds = 0;
    report.match_phase = MatchPhaseStats{};
    out.report_json = toJson(report).dump(2);
    out.nodes = eg.numNodes();
    out.classes = eg.numClasses();
    for (const PatternPtr &p : patternPool())
        out.matches.push_back(ematch(eg, *p));
    EXPECT_EQ(eg.debugCheckInvariants(), "");
    return out;
}

void
expectSameOutcome(const RunOutcome &got, const RunOutcome &want,
                  const std::string &what)
{
    EXPECT_EQ(got.report_json, want.report_json) << what;
    EXPECT_EQ(got.nodes, want.nodes) << what;
    EXPECT_EQ(got.classes, want.classes) << what;
    EXPECT_EQ(got.records, want.records) << what;
    ASSERT_EQ(got.matches.size(), want.matches.size()) << what;
    for (size_t i = 0; i < want.matches.size(); ++i)
        expectSameMatchList(got.matches[i], want.matches[i],
                            what.c_str());
}

RunnerOptions
matcherOptions(bool naive)
{
    RunnerOptions options;
    options.naive_match = naive;
    options.incremental_match = !naive;
    return options;
}

/** A rover saturation over an arithmetic term. */
RunOutcome
roverRun(bool naive)
{
    EGraph eg(rover::roverAnalysisHooks());
    eg.addTerm(parseTerm(
        "(arith.addi:i32 (arith.muli:i32 var:x const:12:i32) "
        "(arith.addi:i32 (arith.muli:i32 var:y const:6:i32) "
        "(arith.muli:i32 var:x const:3:i32)))"));
    RunnerOptions options = matcherOptions(naive);
    options.max_iters = 6;
    options.max_nodes = 20000;
    options.record_proofs = false;
    Runner runner(eg, options);
    runner.addRules(rover::roverRules());
    return observe(eg, runner.run());
}

/**
 * A random graph with a fan of f-nodes far wider than one match budget,
 * under static and dynamic rules: backoff truncation and bans, a
 * crashing rule whose rolled-back applications invalidate every
 * incremental cache and end in quarantine, and a flaky rule that fails
 * on some of its matches.
 */
RunOutcome
faultyFanRun(uint32_t seed, bool naive)
{
    // Few unions: heavy random merging congruence-collapses a small op
    // alphabet into near-degenerate graphs (single-digit class counts).
    RandomGraph g(seed, 160, 5);
    std::mt19937 rng(seed * 31 + 5);
    for (int i = 0; i < 600; ++i) {
        g.ids.push_back(
            g.eg.add(ENode{Symbol("leaf" + std::to_string(i)), {}}));
    }
    for (int i = 0; i < 1200; ++i) {
        ENode node{Symbol("f"),
                   {g.ids[rng() % g.ids.size()],
                    g.ids[rng() % g.ids.size()]}};
        g.ids.push_back(g.eg.add(node));
    }
    g.eg.rebuild();

    RunnerOptions options = matcherOptions(naive);
    options.max_iters = 5;
    options.match_limit = 7; // force truncation and bans
    options.ban_length = 1;
    options.record_proofs = true;
    options.catch_rule_errors = true;
    options.quarantine_after = 2;

    Runner runner(g.eg, options);
    runner.addRule(makeRewrite("comm", "(f ?x ?y)", "(f ?y ?x)"));
    runner.addRule(makeRewrite("widen", "(g ?x)", "(h ?x ?x)"));
    runner.addRule(makeRewrite("narrow", "(h ?x ?y)", "(g ?x)"));
    // Always throws: every application rolls its checkpoint back
    // (bumping the rollback generation, which invalidates every
    // incremental cache) and the circuit breaker quarantines it.
    runner.addRule(makeDynRewrite(
        "crash", "(k ?a ?b ?c)",
        [](EGraph &, const Match &) -> std::optional<TermPtr> {
            throw FatalError("injected crash");
        }));
    // Throws on the matches rooted at even class ids, so both
    // matchers see the same failures, rollbacks and quarantine.
    runner.addRule(makeDynRewrite(
        "flaky", "(g ?x)",
        [](EGraph &, const Match &m) -> std::optional<TermPtr> {
            if (m.root % 2 == 0)
                throw FatalError("injected flaky crash");
            return parseTerm("flaky_leaf");
        }));
    RunnerReport report = runner.run();

    // The scenario must exercise what it claims to, or the comparison
    // proves nothing: bans, quarantine, recovered flaky failures, and
    // proof records.
    EXPECT_GT(report.rules[0].bans, 0u) << "seed " << seed;
    EXPECT_TRUE(report.rules[3].quarantined) << "seed " << seed;
    EXPECT_GT(report.rules[4].failures, 0u) << "seed " << seed;
    EXPECT_FALSE(report.records.empty()) << "seed " << seed;
    return observe(g.eg, std::move(report));
}

/** End-to-end: a rover saturation run must be bit-identical between the
 *  naive reference matcher and the indexed + incremental default. */
TEST(RunnerDifferentialTest, NaiveAndIndexedRunsAreIdentical)
{
    expectSameOutcome(roverRun(false), roverRun(true), "rover");
}

/** The same contract under truncation, bans, rollbacks, quarantine and
 *  proof recording: the faulty fan run must not depend on the matcher. */
TEST(RunnerDifferentialTest, FaultyFanRunsAreMatcherInvariant)
{
    for (uint32_t seed = 60; seed < 63; ++seed) {
        expectSameOutcome(faultyFanRun(seed, false),
                          faultyFanRun(seed, true),
                          "faulty fan, seed " + std::to_string(seed));
    }
}

/** A mid-run *external* rollback (a caller checkpoint spanning runner
 *  activity: the phase-rollback pattern core/seer.cc uses) must rewind
 *  the graph so completely that a rerun on it equals a fresh run: no
 *  stale stamp or cached match may leak into the second runner. With
 *  the search serial, this is what is left of job invariance here. */
TEST(RunnerDifferentialTest, ExternalCheckpointRollbackIsJobInvariant)
{
    auto runOn = [](EGraph &eg) {
        RunnerOptions options;
        options.max_iters = 3;
        options.match_limit = 16;
        options.record_proofs = false;
        Runner runner(eg, options);
        runner.addRule(makeRewrite("comm", "(f ?x ?y)", "(f ?y ?x)"));
        runner.addRule(makeRewrite("widen", "(g ?x)", "(h ?x ?x)"));
        return observe(eg, runner.run());
    };

    RandomGraph fresh(91, 140, 20);
    RunOutcome want = runOn(fresh.eg);

    RandomGraph g(91, 140, 20);
    auto cp = g.eg.checkpoint();
    runOn(g.eg);
    g.eg.rollback(cp);
    expectSameOutcome(runOn(g.eg), want, "rerun after rollback");
}

} // namespace
} // namespace seer::eg
