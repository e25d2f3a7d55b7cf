/**
 * Tests for the memoized + parallel external-pass evaluation layer:
 * alpha-canonical cache keys, the pass-outcome cache with on-disk
 * persistence, the deterministic name scope, cooperative deadline
 * cancellation, and the determinism contract of the worker pool —
 * `-j 1` == `-j N` and cache-on == cache-off, bit for bit.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "core/pass_eval.h"
#include "core/seer.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "seerlang/canonical.h"
#include "seerlang/encoding.h"
#include "support/fault_inject.h"
#include "support/hashing.h"
#include "support/worker_pool.h"

namespace seer::core {
namespace {

// ---------------------------------------------------------------------
// Cache key canonicalization
// ---------------------------------------------------------------------

TEST(CanonicalHashTest, AlphaEquivalentLoopsHitTheSameKey)
{
    // Same loop up to the induction variable name and the loop id —
    // both are rebound by back-translation, so they must share a key.
    auto a = eg::parseTerm("(affine.for:i:L0 const:0:index const:8:index"
                           " const:1:index (use var:i))");
    auto b = eg::parseTerm("(affine.for:j:L7 const:0:index const:8:index"
                           " const:1:index (use var:j))");
    EXPECT_EQ(sl::canonicalTermHash(a), sl::canonicalTermHash(b));
    EXPECT_TRUE(sl::alphaEquivalent(a, b));
}

TEST(CanonicalHashTest, DifferingAttributesMiss)
{
    auto base = eg::parseTerm("(affine.for:i:L0 const:0:index"
                              " const:8:index const:1:index"
                              " (use var:i))");
    // A different trip count is a different snippet.
    auto other_ub = eg::parseTerm("(affine.for:i:L0 const:0:index"
                                  " const:9:index const:1:index"
                                  " (use var:i))");
    EXPECT_NE(sl::canonicalTermHash(base),
              sl::canonicalTermHash(other_ub));
    EXPECT_FALSE(sl::alphaEquivalent(base, other_ub));
}

TEST(CanonicalHashTest, FreeVariablesAndTagsHashVerbatim)
{
    // Free (unbound) variables are semantic payload.
    auto x = eg::parseTerm("(use var:x)");
    auto y = eg::parseTerm("(use var:y)");
    EXPECT_NE(sl::canonicalTermHash(x), sl::canonicalTermHash(y));

    // Memory tags realize program order and must never be merged.
    auto tag_a = eg::parseTerm("(store:tagA const:1:i32 var:p)");
    auto tag_b = eg::parseTerm("(store:tagB const:1:i32 var:p)");
    EXPECT_NE(sl::canonicalTermHash(tag_a),
              sl::canonicalTermHash(tag_b));
    EXPECT_FALSE(sl::alphaEquivalent(tag_a, tag_b));
}

TEST(CanonicalHashTest, ShadowingResolvesInnermost)
{
    // The inner loop rebinds %i; the renamed twin rebinds consistently.
    auto a = eg::parseTerm(
        "(affine.for:i:L0 const:0:index const:4:index const:1:index"
        " (affine.for:i:L1 const:0:index var:i const:1:index"
        "  (use var:i)))");
    auto b = eg::parseTerm(
        "(affine.for:p:L8 const:0:index const:4:index const:1:index"
        " (affine.for:q:L9 const:0:index var:p const:1:index"
        "  (use var:q)))");
    EXPECT_EQ(sl::canonicalTermHash(a), sl::canonicalTermHash(b));
    EXPECT_TRUE(sl::alphaEquivalent(a, b));
}

TEST(CanonicalHashTest, PinnedValuesNeverChange)
{
    // --pass-cache files persist these hashes: a change to how symbols
    // are decoded or hashed must not move them. The first four literals
    // were recorded before field splitting moved into the interner, the
    // last two before the interner hashed symbol texts; they pin a bound
    // loop iv, a free var, int and float literals, a tagged store,
    // nested and shadowing binders, and a binder-free expression.
    struct Pin
    {
        const char *term;
        uint64_t hash;
    };
    const Pin pins[] = {
        {"(affine.for:i:L3 const:0:index const:16:index const:1:index"
         " (use var:i))",
         0x6446d26c2485c00cULL},
        {"(use var:n)", 0x7a49f6f0c0f52c26ULL},
        {"(arith.mulf:f64 constf:0x1.8p+1:f64"
         " (arith.sitofp:i32:f64 const:-7:i32))",
         0xd6f68840ed56891fULL},
        {"(memref.store:t5 const:1:i32 arg:A:memref<4xi32>"
         " const:2:index)",
         0xfa301483b35ccc76ULL},
        {"(affine.for:i:L1 const:0:index const:8:index const:1:index"
         " (affine.for:j:L2 const:0:index var:i const:1:index"
         " (affine.for:i:L3 var:j const:4:index const:1:index"
         " (memref.store:t3 (arith.addi:i32 var:i var:j)"
         " arg:A:memref<8x8xi32> var:i var:j))))",
         0x89592f84feae12c7ULL},
        {"(arith.addi:i32 (arith.muli:i32 var:x const:3:i32)"
         " (arith.shli:i32 var:y const:2:i32))",
         0x373f99f69edd6008ULL},
    };
    for (const Pin &pin : pins) {
        EXPECT_EQ(sl::canonicalTermHash(eg::parseTerm(pin.term)),
                  pin.hash)
            << pin.term;
    }
}

// ---------------------------------------------------------------------
// Deterministic name scope
// ---------------------------------------------------------------------

TEST(NameScopeTest, SameSeedSameStream)
{
    std::vector<std::string> first, second;
    {
        sl::NameScope scope(0xABCDEF);
        for (int i = 0; i < 4; ++i)
            first.push_back(sl::freshTag());
        first.push_back(sl::freshLoopId());
    }
    {
        sl::NameScope scope(0xABCDEF);
        for (int i = 0; i < 4; ++i)
            second.push_back(sl::freshTag());
        second.push_back(sl::freshLoopId());
    }
    EXPECT_EQ(first, second);

    sl::NameScope other(0x123456);
    EXPECT_NE(first[0], sl::freshTag());
}

TEST(NameScopeTest, NestingRestoresTheOuterStream)
{
    sl::NameScope outer(1);
    std::string a = sl::freshTag();
    {
        sl::NameScope inner(2);
        std::string inner_tag = sl::freshTag();
        EXPECT_NE(inner_tag, a);
    }
    // Back on the outer stream: the next draw continues it, and a
    // rerun of the same nesting reproduces it exactly.
    std::string b = sl::freshTag();
    sl::NameScope replay(1);
    EXPECT_EQ(a, sl::freshTag());
    EXPECT_EQ(b, sl::freshTag());
}

// ---------------------------------------------------------------------
// The pass-outcome cache: memoization + persistence
// ---------------------------------------------------------------------

PassOutcome
replacedOutcome()
{
    PassOutcome outcome;
    outcome.status = PassOutcome::Status::Replaced;
    outcome.replacement = eg::parseTerm(
        "(affine.for:i:L0 const:0:index const:8:index const:1:index"
        " (store:t1 (load:t0 var:i) var:i))");
    LoopRegistryEntry entry;
    entry.constraints.ii = 2;
    entry.constraints.latency = 5;
    entry.constraints.full_latency = 21;
    entry.constraints.trip = 8;
    entry.constraints.pipelined = true;
    entry.constraints.loop_id = "L0";
    entry.constraints.accesses["mem a"] = 3; // space needs escaping
    entry.coalesced = true;
    outcome.schedule.emplace_back("L0", entry);
    return outcome;
}

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

TEST(EvalCacheTest, DiskRoundTripPreservesOutcomes)
{
    ExternalEvalCache cache;
    cache.insertPass(1, PassOutcome{}); // NotApplied
    PassOutcome rejected;
    rejected.status = PassOutcome::Status::Rejected;
    rejected.detail = "co-simulation mismatch: out[3] 1% vs 2";
    cache.insertPass(2, rejected);
    cache.insertPass(3, replacedOutcome());

    std::string path = tempPath("pass_cache_roundtrip.txt");
    std::string error;
    ASSERT_TRUE(cache.saveFile(path, &error)) << error;

    ExternalEvalCache loaded;
    ASSERT_EQ(loaded.loadFile(path, &error), 3u) << error;
    EXPECT_EQ(loaded.stats().disk_entries_loaded, 3u);
    EXPECT_FALSE(loaded.stats().disk_load_failed);

    auto not_applied = loaded.lookupPass(1);
    ASSERT_NE(not_applied, nullptr);
    EXPECT_EQ(not_applied->status, PassOutcome::Status::NotApplied);

    auto rej = loaded.lookupPass(2);
    ASSERT_NE(rej, nullptr);
    EXPECT_EQ(rej->status, PassOutcome::Status::Rejected);
    EXPECT_EQ(rej->detail, rejected.detail);

    auto rep = loaded.lookupPass(3);
    ASSERT_NE(rep, nullptr);
    ASSERT_EQ(rep->status, PassOutcome::Status::Replaced);
    ASSERT_TRUE(rep->replacement != nullptr);
    EXPECT_EQ(rep->replacement->str(),
              replacedOutcome().replacement->str());
    ASSERT_EQ(rep->schedule.size(), 1u);
    EXPECT_EQ(rep->schedule[0].first, "L0");
    const LoopRegistryEntry &entry = rep->schedule[0].second;
    EXPECT_EQ(entry.constraints.ii, 2);
    EXPECT_EQ(entry.constraints.latency, 5);
    EXPECT_EQ(entry.constraints.full_latency, 21);
    ASSERT_TRUE(entry.constraints.trip.has_value());
    EXPECT_EQ(*entry.constraints.trip, 8);
    EXPECT_TRUE(entry.constraints.pipelined);
    EXPECT_TRUE(entry.coalesced);
    ASSERT_EQ(entry.constraints.accesses.size(), 1u);
    EXPECT_EQ(entry.constraints.accesses.at("mem a"), 3);
}

TEST(EvalCacheTest, VerdictRecordsFromOlderFilesAreSkipped)
{
    // Files written before the gate stopped memoizing its verdicts
    // interleave "V <key> <result> <diag>" lines with the outcomes.
    // They load warm: every outcome is adopted, every verdict skipped,
    // and the next save writes outcomes only.
    ExternalEvalCache cache;
    PassOutcome rejected;
    rejected.status = PassOutcome::Status::Rejected;
    rejected.detail = "nope";
    cache.insertPass(1, PassOutcome{});
    cache.insertPass(2, rejected);
    cache.insertPass(3, replacedOutcome());
    std::string path = tempPath("pass_cache_older.txt");
    std::string error;
    ASSERT_TRUE(cache.saveFile(path, &error)) << error;
    std::string current = slurp(path);

    std::string body = current.substr(0, current.rfind("C "));
    body += "V 0000000000000009 2 run%201%20diverged\n"
            "V 000000000000000a 1 <inconclusive>\n";
    uint64_t sum = 14695981039346656037ull; // FNV-1a, as saveFile
    for (unsigned char c : body) {
        sum ^= c;
        sum *= 1099511628211ull;
    }
    char check[32];
    std::snprintf(check, sizeof check, "C %016llx\n",
                  static_cast<unsigned long long>(sum));
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << body << check;
    }

    ExternalEvalCache older;
    EXPECT_EQ(older.loadFile(path, &error), 3u) << error;
    EXPECT_TRUE(error.empty()) << error;
    ExternalEvalStats stats = older.stats();
    EXPECT_FALSE(stats.disk_load_failed);
    EXPECT_EQ(stats.disk_entries_loaded, 3u);
    EXPECT_EQ(stats.resident_entries, 3u);
    for (uint64_t key : {1, 2, 3})
        EXPECT_NE(older.lookupPass(key), nullptr) << key;

    ASSERT_TRUE(older.saveFile(path, &error)) << error;
    std::string resaved = slurp(path);
    EXPECT_EQ(resaved.find("\nV "), std::string::npos) << resaved;
    EXPECT_EQ(resaved, current);
    std::remove(path.c_str());
}

TEST(EvalCacheTest, SaveIsByteStableAcrossInsertionOrder)
{
    ExternalEvalCache forward, backward;
    PassOutcome rejected;
    rejected.status = PassOutcome::Status::Rejected;
    rejected.detail = "nope";
    forward.insertPass(1, PassOutcome{});
    forward.insertPass(2, rejected);
    backward.insertPass(2, rejected);
    backward.insertPass(1, PassOutcome{});

    std::string pa = tempPath("pass_cache_a.txt");
    std::string pb = tempPath("pass_cache_b.txt");
    std::string error;
    ASSERT_TRUE(forward.saveFile(pa, &error)) << error;
    ASSERT_TRUE(backward.saveFile(pb, &error)) << error;
    std::string ca = slurp(pa);
    EXPECT_EQ(ca, slurp(pb));
    EXPECT_NE(ca.find("seer-pass-cache"), std::string::npos);
}

TEST(EvalCacheTest, CorruptFileColdStartsInsteadOfHalfLoading)
{
    std::string path = tempPath("pass_cache_corrupt.txt");
    {
        ExternalEvalCache cache;
        cache.insertPass(1, PassOutcome{});
        std::string error;
        ASSERT_TRUE(cache.saveFile(path, &error)) << error;
    }
    // Truncate/garble the tail: the loader must discard everything.
    std::ofstream out(path, std::ios::app);
    out << "P deadbeef not-a-valid-record\n";
    out.close();

    ExternalEvalCache loaded;
    std::string error;
    EXPECT_EQ(loaded.loadFile(path, &error), 0u);
    EXPECT_FALSE(error.empty());
    EXPECT_TRUE(loaded.stats().disk_load_failed);
    EXPECT_EQ(loaded.lookupPass(1), nullptr);
}

TEST(EvalCache, SaveLoadSaveIsByteStableUnderEviction)
{
    // Two caches fed the same entries in opposite orders must persist
    // byte-identical files: serialization iterates keys in sorted
    // order, not traffic order. The cache never evicts, so every
    // record survives and a save -> load -> save round trip must
    // reproduce the file byte for byte.
    auto fill = [](ExternalEvalCache &cache, bool reversed) {
        for (int i = 0; i < 200; ++i) {
            int n = reversed ? 199 - i : i;
            uint64_t key = static_cast<uint64_t>(n) * 7919 + 17;
            PassOutcome outcome;
            outcome.status = PassOutcome::Status::Rejected;
            outcome.detail = "entry-" + std::to_string(n);
            cache.insertPass(key, std::move(outcome));
        }
    };
    std::string path_a = tempPath("pass_cache_stable_a.txt");
    std::string path_b = tempPath("pass_cache_stable_b.txt");
    std::string path_c = tempPath("pass_cache_stable_c.txt");

    ExternalEvalCache forward, reversed;
    fill(forward, false);
    fill(reversed, true);
    std::string error;
    ASSERT_TRUE(forward.saveFile(path_a, &error)) << error;
    ASSERT_TRUE(reversed.saveFile(path_b, &error)) << error;
    std::string bytes = slurp(path_a);
    EXPECT_EQ(bytes, slurp(path_b))
        << "traffic order leaked into the save file";

    // Loading must neither reorder nor drop entries.
    ExternalEvalCache reloaded;
    ASSERT_EQ(reloaded.loadFile(path_a, &error), 200u) << error;
    EXPECT_EQ(reloaded.stats().resident_entries, 200u);
    ASSERT_TRUE(reloaded.saveFile(path_c, &error)) << error;
    EXPECT_EQ(bytes, slurp(path_c));

    for (const std::string &p : {path_a, path_b, path_c})
        std::remove(p.c_str());
}

TEST(EvalCache, CorruptFileColdStartsWithHonestCounters)
{
    std::string path = tempPath("pass_cache_honest_counters.txt");
    std::string full;
    {
        ExternalEvalCache cache;
        for (uint64_t key = 1; key <= 5; ++key)
            cache.insertPass(key, PassOutcome{});
        std::string error;
        ASSERT_TRUE(cache.saveFile(path, &error)) << error;
        full = slurp(path);
    }
    // A garbled tail and a truncation to half: either way the loader
    // must discard everything and count the records it threw away.
    struct Damage
    {
        std::string text;
        size_t rejected; ///< 0: only "some" records are expected
    };
    for (const Damage &damage :
         {Damage{full + "P deadbeef not-a-valid-record\n", 6},
          Damage{full.substr(0, full.size() / 2), 0}}) {
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << damage.text;
        }
        ExternalEvalCache loaded;
        std::string error;
        EXPECT_EQ(loaded.loadFile(path, &error), 0u);
        EXPECT_FALSE(error.empty());
        ExternalEvalStats stats = loaded.stats();
        EXPECT_TRUE(stats.disk_load_failed);
        EXPECT_FALSE(stats.disk_load_error.empty());
        EXPECT_EQ(stats.disk_entries_loaded, 0u);
        EXPECT_EQ(stats.resident_entries, 0u);
        if (damage.rejected)
            EXPECT_EQ(stats.disk_entries_rejected, damage.rejected);
        else
            EXPECT_GT(stats.disk_entries_rejected, 0u);
        EXPECT_EQ(loaded.lookupPass(1), nullptr);
    }
    std::remove(path.c_str());
}

TEST(EvalCacheTest, MissingFileIsASilentColdStart)
{
    ExternalEvalCache cache;
    std::string error;
    EXPECT_EQ(cache.loadFile(tempPath("no_such_cache.txt"), &error), 0u);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_FALSE(cache.stats().disk_load_failed);
}

TEST(EvalCacheTest, EphemeralModeDropsOutcomesButKeepsStats)
{
    ExternalEvalCache cache(false);
    EXPECT_FALSE(cache.persistent());
    cache.insertPass(5, PassOutcome{});
    EXPECT_TRUE(cache.probePass(5));
    cache.clearOutcomes();
    EXPECT_EQ(cache.lookupPass(5), nullptr);
    // One hit (the probe) and one miss (the post-clear probe).
    EXPECT_FALSE(cache.probePass(5));
    EXPECT_EQ(cache.stats().pass_cache_hits, 1u);
    EXPECT_EQ(cache.stats().pass_cache_misses, 1u);
}

TEST(EvalCacheTest, ResidentBytesTrackTheGovernorsCachesLevel)
{
    // Inserts charge MemSubsystem::Caches, an overwrite charges only
    // the difference, and a clear credits everything back.
    auto governor = std::make_shared<ResourceGovernor>();
    ExecContext exec = ExecContext::make();
    exec.setGovernor(governor);
    ExternalEvalCache cache;
    cache.setExecContext(exec);
    auto caches = [&] {
        return governor->stats()
            .sub[static_cast<size_t>(MemSubsystem::Caches)]
            .current_bytes;
    };
    cache.insertPass(1, PassOutcome{});
    uint64_t one = cache.stats().resident_bytes;
    EXPECT_GT(one, 0u);
    PassOutcome rejected;
    rejected.status = PassOutcome::Status::Rejected;
    rejected.detail = "a longer diagnostic";
    cache.insertPass(2, rejected);
    EXPECT_EQ(caches(), cache.stats().resident_bytes);
    cache.insertPass(2, PassOutcome{}); // overwrite: shrinks to `one`
    EXPECT_EQ(cache.stats().resident_entries, 2u);
    EXPECT_EQ(cache.stats().resident_bytes, 2 * one);
    EXPECT_EQ(caches(), 2 * one);
    cache.clearOutcomes();
    EXPECT_EQ(cache.stats().resident_bytes, 0u);
    EXPECT_EQ(caches(), 0u);
}

// ---------------------------------------------------------------------
// Cooperative deadline cancellation
// ---------------------------------------------------------------------

TEST(DeadlineTest, ExpiredEvaluationIsDiscardedNotCached)
{
    auto term = eg::parseTerm(
        "(affine.for:i:L0 const:0:index const:8:index const:1:index"
        " (store:t0 (load:t0 var:i) var:i))");
    SnippetEvalConfig config;
    config.exec = ExecContext::make();
    config.exec.setDeadline(std::chrono::steady_clock::now() -
                            std::chrono::seconds(1)); // already expired
    auto pass = [](ir::Operation &) { return false; };
    EvalCharge charge;
    EXPECT_FALSE(evaluateSnippet(term, 42, pass, config, charge));
    EXPECT_TRUE(charge.canceled);
    // Through the batch fold: counted as canceled and, being
    // budget-dependent, never memoized.
    ExternalEvalCache cache;
    evaluateBatch({{42, term}}, pass, config, cache, 1, nullptr);
    EXPECT_EQ(cache.stats().canceled, 1u);
    EXPECT_EQ(cache.lookupPass(42), nullptr);
}

// ---------------------------------------------------------------------
// End-to-end determinism: -j 1 == -j N, cache-on == cache-off
// ---------------------------------------------------------------------

const char *kFusable = R"(
func.func @fusable(%a: memref<64xi32>, %b: memref<64xi32>,
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

struct RunSnapshot
{
    std::string module;
    std::string extracted;
    size_t unions;
    size_t nodes;
    size_t classes;
    size_t rejected;

    bool
    operator==(const RunSnapshot &other) const
    {
        return module == other.module && extracted == other.extracted &&
               unions == other.unions && nodes == other.nodes &&
               classes == other.classes && rejected == other.rejected;
    }
};

RunSnapshot
runWith(const SeerOptions &options)
{
    ir::Module input = ir::parseModule(kFusable);
    SeerResult result = optimize(input, "fusable", options);
    RunSnapshot snap;
    snap.module = ir::toString(result.module);
    snap.extracted =
        result.extracted_term ? result.extracted_term->str() : "";
    snap.unions = result.stats.unions_applied;
    snap.nodes = result.stats.egraph_nodes;
    snap.classes = result.stats.egraph_classes;
    snap.rejected = result.stats.rejected_externals;
    return snap;
}

TEST(DeterminismTest, JobsOneEqualsJobsEight)
{
    SeerOptions serial;
    RunSnapshot base = runWith(serial);
    EXPECT_GT(base.unions, 0u);

    for (unsigned jobs : {2u, 8u}) {
        SeerOptions parallel;
        parallel.jobs = jobs;
        EXPECT_TRUE(base == runWith(parallel))
            << "-j " << jobs << " diverged from -j 1";
    }
}

TEST(DeterminismTest, CacheOnEqualsCacheOff)
{
    SeerOptions cached; // default: cache on
    SeerOptions cold;
    cold.use_pass_cache = false;
    EXPECT_TRUE(runWith(cached) == runWith(cold));
}

TEST(DeterminismTest, DiskCacheWarmsAcrossRuns)
{
    std::string path = tempPath("pass_cache_disk_warm.txt");
    std::remove(path.c_str());
    SeerOptions options;
    options.pass_cache_file = path;
    RunSnapshot first = runWith(options);

    ir::Module input = ir::parseModule(kFusable);
    SeerResult second = optimize(input, "fusable", options);
    // Identical exploration, zero cold evaluations the second time.
    EXPECT_EQ(first.module, ir::toString(second.module));
    EXPECT_EQ(first.unions, second.stats.unions_applied);
    EXPECT_GT(second.stats.external_eval.disk_entries_loaded, 0u);
    EXPECT_EQ(second.stats.external_eval.evaluations, 0u);
    EXPECT_GT(second.stats.external_eval.pass_cache_hits, 0u);
    std::remove(path.c_str());
}

TEST(DeterminismTest, PassCacheFileIsJobsInvariant)
{
    // Workers only compute; the runner thread memoizes in batch order.
    // So -j 1 and -j 4 must persist byte-identical cache files.
    std::string saved[2];
    uint64_t resident[2] = {};
    const unsigned jobs[2] = {1, 4};
    for (int run = 0; run < 2; ++run) {
        std::string path = tempPath("pass_cache_jobs_invariant.txt");
        std::remove(path.c_str());
        SeerOptions options;
        options.jobs = jobs[run];
        options.pass_cache_file = path;
        ir::Module input = ir::parseModule(kFusable);
        SeerResult result = optimize(input, "fusable", options);
        EXPECT_GT(result.stats.external_eval.batch_jobs, 1u);
        resident[run] = result.stats.external_eval.resident_entries;
        saved[run] = slurp(path);
        std::remove(path.c_str());
    }
    ASSERT_FALSE(saved[0].empty());
    EXPECT_GT(resident[0], 0u);
    EXPECT_EQ(resident[0], resident[1]);
    EXPECT_EQ(saved[0], saved[1]) << "-j 4 saved a different cache";
}

TEST(EvalFoldTest, InjectedFaultsAtJobsFourAreContained)
{
    // A worker's crashed evaluation and a failed insert in the fold
    // both leave the outcome uncached; the consult re-evaluates it.
    // The crashed job charged nothing, so only the dropped insert costs
    // one extra evaluation.
    SeerOptions options;
    options.jobs = 4;
    ir::Module input = ir::parseModule(kFusable);
    SeerResult unarmed = optimize(input, "fusable", options);

    FaultPlan plan;
    plan.fixed.push_back({FaultPoint::CacheAlloc, 1});
    plan.fixed.push_back({FaultPoint::PassEvalCrash, 1});
    ScopedFaultPlan armed(plan);
    SeerResult result;
    ASSERT_NO_THROW(result = optimize(input, "fusable", options));
    EXPECT_GT(FaultInjector::instance().hits(FaultPoint::CacheAlloc), 0u);
    EXPECT_GT(FaultInjector::instance().hits(FaultPoint::PassEvalCrash),
              0u);
    EXPECT_EQ(ir::toString(result.module), ir::toString(unarmed.module));
    EXPECT_EQ(result.stats.external_eval.evaluations,
              unarmed.stats.external_eval.evaluations + 1);
}

ino_t
inodeOf(const std::string &path)
{
    struct stat st;
    EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
    return st.st_ino;
}

TEST(DiskCacheSaveTest, WarmRunLeavesTheFileUntouched)
{
    std::string path = tempPath("pass_cache_warm_untouched.txt");
    std::remove(path.c_str());
    SeerOptions options;
    options.pass_cache_file = path;
    runWith(options);
    std::string bytes = slurp(path);
    ASSERT_FALSE(bytes.empty());
    ino_t inode = inodeOf(path);

    // A warm run memoizes nothing new, so it must not rewrite the
    // file: a save is an atomic rename, which would change the inode.
    ir::Module input = ir::parseModule(kFusable);
    SeerResult warm = optimize(input, "fusable", options);
    EXPECT_EQ(warm.stats.external_eval.evaluations, 0u);
    EXPECT_EQ(inodeOf(path), inode);
    EXPECT_EQ(slurp(path), bytes);
    std::remove(path.c_str());
}

TEST(DiskCacheSaveTest, RunThatAddsEntriesStillSaves)
{
    std::string path = tempPath("pass_cache_adds_entries.txt");
    std::remove(path.c_str());
    SeerOptions options;
    options.pass_cache_file = path;
    runWith(options);
    ExternalEvalCache first;
    std::string error;
    size_t first_entries = first.loadFile(path, &error);
    ASSERT_GT(first_entries, 0u) << error;
    ino_t inode = inodeOf(path);

    // validation_runs is part of every key: this run evaluates cold
    // and must persist what it learned next to the loaded entries.
    options.validation_runs = 3;
    ir::Module input = ir::parseModule(kFusable);
    SeerResult more = optimize(input, "fusable", options);
    EXPECT_GT(more.stats.external_eval.evaluations, 0u);
    EXPECT_NE(inodeOf(path), inode);
    ExternalEvalCache second;
    EXPECT_GT(second.loadFile(path, &error), first_entries) << error;
    std::remove(path.c_str());
}

TEST(DiskCacheSaveTest, CorruptFileIsReplacedByAValidOne)
{
    std::string path = tempPath("pass_cache_replace_corrupt.txt");
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "seer-pass-cache v2\nP garbage\n";
    }
    SeerOptions options;
    options.pass_cache_file = path;
    ir::Module input = ir::parseModule(kFusable);
    SeerResult result = optimize(input, "fusable", options);
    EXPECT_TRUE(result.stats.external_eval.disk_load_failed);

    ExternalEvalCache reloaded;
    std::string error;
    EXPECT_GT(reloaded.loadFile(path, &error), 0u);
    EXPECT_TRUE(error.empty()) << error;
    std::remove(path.c_str());
}

TEST(DeterminismTest, StatsJsonCarriesExternalEvalSection)
{
    SeerOptions options;
    ir::Module input = ir::parseModule(kFusable);
    SeerResult result = optimize(input, "fusable", options);
    std::string dumped = toJson(result.stats).dump();
    EXPECT_NE(dumped.find("external_eval"), std::string::npos);
    EXPECT_NE(dumped.find("pass_cache_hits"), std::string::npos);
    EXPECT_NE(dumped.find("gate_inconclusive"), std::string::npos);
    EXPECT_NE(dumped.find("candidates_deduped"), std::string::npos);
}

// ---------------------------------------------------------------------
// Thread-safe symbol interner (the worker pool's shared table)
// ---------------------------------------------------------------------

TEST(InternerTest, ConcurrentInternAndStrAgree)
{
    // 8 workers intern an overlapping set of fresh strings while
    // reading others back; every text must map to one stable id.
    constexpr size_t kNames = 512;
    std::vector<std::string> texts;
    for (size_t i = 0; i < kNames; ++i)
        texts.push_back("intern-stress-" + std::to_string(i));
    std::vector<uint32_t> ids(kNames * 8);
    parallelFor(kNames * 8, 8, [&](size_t i) {
        Symbol symbol(texts[i % kNames]);
        EXPECT_EQ(symbol.str(), texts[i % kNames]);
        ids[i] = symbol.id();
    });
    for (size_t i = 0; i < ids.size(); ++i)
        EXPECT_EQ(ids[i], ids[i % kNames]);
}

TEST(InternerTest, TextHashIsHashOfText)
{
    std::string long_const = "const:" + std::string(300, '9') + ":i64";
    for (const std::string &text :
         {std::string(), std::string("affine.for:i:L3"), long_const}) {
        Symbol symbol(text);
        EXPECT_EQ(symbol.textHash(), hashString(symbol.str())) << text;
    }
    EXPECT_EQ(Symbol().textHash(), kHashSeed);
}

TEST(InternerTest, ConcurrentTextHashDuringFirstInserts)
{
    // 8 workers read the text hash of symbols interned before they
    // started while others insert fresh texts for the first time: the
    // hash, stored under the inserting lock, must read back whole.
    constexpr size_t kOld = 256;
    constexpr size_t kFresh = 1024;
    std::vector<Symbol> old_symbols;
    for (size_t i = 0; i < kOld; ++i)
        old_symbols.emplace_back("hash-stress-old-" + std::to_string(i));
    parallelFor(kFresh * 4, 8, [&](size_t i) {
        const Symbol &old = old_symbols[i % kOld];
        EXPECT_EQ(old.textHash(), hashString(old.str()));
        std::string text =
            "hash-stress-fresh:" + std::to_string(i % kFresh);
        Symbol fresh(text);
        EXPECT_EQ(fresh.textHash(), hashString(text));
    });
}

/** Plain "a:b:c" splitter, kept apart from the interner's own. */
std::vector<std::string>
referenceFields(const std::string &text)
{
    std::vector<std::string> fields;
    size_t pos = 0;
    while (true) {
        size_t colon = text.find(':', pos);
        if (colon == std::string::npos) {
            fields.push_back(text.substr(pos));
            return fields;
        }
        fields.push_back(text.substr(pos, colon - pos));
        pos = colon + 1;
    }
}

TEST(InternerTest, ConcurrentDecodeMatchesReferenceSplitter)
{
    // 8 workers intern fresh symbols while decoding them: the fields
    // split at intern time must read back whole from every thread.
    std::vector<std::string> texts = {"", "a:", "::",
                                      "decode-stress-no-colon"};
    for (size_t i = 0; i < 128; ++i) {
        std::string n = std::to_string(i);
        texts.push_back("const:" + n + ":i32");
        texts.push_back("const:-" + n + ":index");
        texts.push_back("var:decode-stress-" + n);
        texts.push_back("affine.for:decode-iv" + n + ":Ldecode" + n);
        texts.push_back("arith.cmpi:slt:i" + std::to_string(i % 64 + 1));
        texts.push_back("memref.store:decode-t" + n);
    }
    parallelFor(texts.size() * 8, 8, [&](size_t i) {
        const std::string &text = texts[i % texts.size()];
        std::vector<std::string> want = referenceFields(text);
        Symbol symbol(text);
        auto fields = eg::splitSymbol(symbol);
        ASSERT_EQ(fields.size(), want.size()) << text;
        for (size_t f = 0; f < want.size(); ++f)
            EXPECT_EQ(fields[f], want[f]) << text;
        EXPECT_EQ(sl::opNameOf(symbol), want[0]);

        bool is_const = want.size() == 3 && want[0] == "const";
        auto constant = sl::decodeIntConst(symbol);
        ASSERT_EQ(constant.has_value(), is_const) << text;
        if (constant) {
            EXPECT_EQ(constant->first, std::stoll(want[1]));
            EXPECT_EQ(constant->second.str(), want[2]);
        }
        bool is_var = want.size() == 2 && want[0] == "var";
        auto var = sl::decodeVar(symbol);
        ASSERT_EQ(var.has_value(), is_var) << text;
        if (var) {
            EXPECT_EQ(*var, want[1]);
        }
        if (want[0] == "affine.for") {
            EXPECT_EQ(sl::loopIdOf(symbol), want[2]);
        }
    });
}

} // namespace
} // namespace seer::core
