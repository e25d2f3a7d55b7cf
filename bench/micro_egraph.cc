/**
 * @file
 * Microbenchmarks for the e-graph substrate (google-benchmark):
 * add/hashcons throughput, union+rebuild (congruence) cost, e-matching,
 * ROVER saturation, and extraction.
 */
#include <benchmark/benchmark.h>

#include <memory>
#include <unordered_map>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "egraph/extract.h"
#include "egraph/pattern.h"
#include "egraph/runner.h"
#include "rover/rover.h"

using namespace seer;
using namespace seer::eg;

namespace {

/** Balanced binary add-tree over `leaves` distinct variables. */
TermPtr
addTree(int depth, int &counter)
{
    if (depth == 0)
        return makeTerm("var:x" + std::to_string(counter++ % 16));
    std::vector<TermPtr> children{addTree(depth - 1, counter),
                                  addTree(depth - 1, counter)};
    return makeTerm(Symbol("arith.addi:i32"), std::move(children));
}

void
BM_AddTerm(benchmark::State &state)
{
    int depth = static_cast<int>(state.range(0));
    int counter = 0;
    TermPtr term = addTree(depth, counter);
    for (auto _ : state) {
        EGraph egraph;
        benchmark::DoNotOptimize(egraph.addTerm(term));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(term->size()));
}
BENCHMARK(BM_AddTerm)->Arg(6)->Arg(10)->Arg(14);

void
BM_UnionRebuildCongruence(benchmark::State &state)
{
    int64_t n = state.range(0);
    for (auto _ : state) {
        state.PauseTiming();
        EGraph egraph;
        std::vector<EClassId> leaves;
        std::vector<EClassId> wrapped;
        for (int64_t i = 0; i < n; ++i) {
            EClassId leaf = egraph.addTerm(
                makeTerm("leaf" + std::to_string(i)));
            leaves.push_back(leaf);
            wrapped.push_back(
                egraph.add(ENode{Symbol("wrap"), {leaf}}));
        }
        state.ResumeTiming();
        for (int64_t i = 1; i < n; ++i)
            egraph.merge(leaves[0], leaves[i]);
        egraph.rebuild();
        benchmark::DoNotOptimize(egraph.numClasses());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_UnionRebuildCongruence)->Arg(64)->Arg(512)->Arg(4096);

void
BM_FindAfterDeepUnions(benchmark::State &state)
{
    // Deep-union workload: merging each fresh leaf *onto* the previous
    // chain head makes the fresh id the root, so the union-find degrades
    // into a length-n chain. Canonicalization-heavy phases (repeated
    // find over original ids, as ematch/rebuild do) are then quadratic
    // without path compression and near-linear with it.
    int64_t n = state.range(0);
    for (auto _ : state) {
        state.PauseTiming();
        EGraph egraph;
        std::vector<EClassId> leaves;
        leaves.reserve(static_cast<size_t>(n));
        for (int64_t i = 0; i < n; ++i)
            leaves.push_back(
                egraph.addTerm(makeTerm("leaf" + std::to_string(i))));
        for (int64_t i = 1; i < n; ++i)
            egraph.merge(leaves[static_cast<size_t>(i)],
                         leaves[static_cast<size_t>(i - 1)]);
        state.ResumeTiming();
        uint64_t acc = 0;
        for (int pass = 0; pass < 16; ++pass) {
            for (EClassId id : leaves)
                acc += egraph.find(id);
        }
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * n * 16);
}
BENCHMARK(BM_FindAfterDeepUnions)->Arg(256)->Arg(2048)->Arg(8192);

void
BM_FindAfterDeepUnionsConstWalk(benchmark::State &state)
{
    // Same workload through the const (non-compressing) overload: the
    // baseline the mutable find's path halving is measured against.
    int64_t n = state.range(0);
    for (auto _ : state) {
        state.PauseTiming();
        EGraph egraph;
        std::vector<EClassId> leaves;
        leaves.reserve(static_cast<size_t>(n));
        for (int64_t i = 0; i < n; ++i)
            leaves.push_back(
                egraph.addTerm(makeTerm("leaf" + std::to_string(i))));
        for (int64_t i = 1; i < n; ++i)
            egraph.merge(leaves[static_cast<size_t>(i)],
                         leaves[static_cast<size_t>(i - 1)]);
        state.ResumeTiming();
        const EGraph &frozen = egraph;
        uint64_t acc = 0;
        for (int pass = 0; pass < 16; ++pass) {
            for (EClassId id : leaves)
                acc += frozen.find(id);
        }
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * n * 16);
}
BENCHMARK(BM_FindAfterDeepUnionsConstWalk)->Arg(256)->Arg(2048)->Arg(8192);

void
BM_EMatch(benchmark::State &state)
{
    EGraph egraph;
    int counter = 0;
    EClassId root = egraph.addTerm(addTree(10, counter));
    (void)root;
    egraph.rebuild();
    PatternPtr pattern = parsePattern("(arith.addi:i32 ?a ?b)");
    for (auto _ : state) {
        auto matches = ematch(egraph, *pattern);
        benchmark::DoNotOptimize(matches.size());
    }
}
BENCHMARK(BM_EMatch);

/** Chain of width mul-by-constant summands: a ROVER-style arithmetic
 *  expression whose saturation grows a matching-heavy e-graph (strength
 *  reduction, reassociation, and shift rewrites all fire). */
TermPtr
mulAddChain(int width)
{
    const int64_t consts[] = {12, 6, 24, 5, 16, 3, 48, 7};
    TermPtr acc = makeTerm("var:x");
    for (int i = 0; i < width; ++i) {
        TermPtr mul = makeTerm(
            Symbol("arith.muli:i32"),
            {makeTerm("var:v" + std::to_string(i % 6)),
             makeTerm("const:" + std::to_string(consts[i % 8]) +
                      ":i32")});
        acc = makeTerm(Symbol("arith.addi:i32"), {acc, mul});
    }
    return acc;
}

/**
 * The tentpole benchmark: the full ~46-rule ROVER set saturating a wide
 * arithmetic expression. naive:1 runs the pre-index whole-graph
 * reference matcher; naive:0 runs the default indexed + incremental
 * path. Both explore the identical e-graph (the match lists are equal),
 * so the ratio isolates the matcher.
 */
void
BM_ManyRuleSaturation(benchmark::State &state)
{
    bool naive = state.range(0) == 1;
    TermPtr expr = mulAddChain(16);
    for (auto _ : state) {
        EGraph egraph(rover::roverAnalysisHooks());
        egraph.addTerm(expr);
        RunnerOptions options;
        options.max_iters = 20;
        options.max_nodes = 100000;
        options.match_limit = 200;
        options.record_proofs = false;
        options.naive_match = naive;
        options.incremental_match = !naive;
        Runner runner(egraph, options);
        runner.addRules(rover::roverRules());
        benchmark::DoNotOptimize(runner.run().total_applied);
    }
}
BENCHMARK(BM_ManyRuleSaturation)->Arg(0)->Arg(1)->ArgNames({"naive"});

/** Deep pattern over a large mixed-op graph: most classes have the
 *  wrong head op, which is exactly what the (op, arity) index prunes. */
void
BM_DeepPatternMatch(benchmark::State &state)
{
    bool naive = state.range(0) == 1;
    EGraph egraph;
    int counter = 0;
    egraph.addTerm(addTree(12, counter));
    for (int i = 0; i < 4000; ++i) {
        egraph.addTerm(makeTerm(
            Symbol("wrap"), {makeTerm("leaf" + std::to_string(i))}));
    }
    egraph.rebuild();
    PatternPtr deep = parsePattern(
        "(arith.addi:i32 (arith.addi:i32 (arith.addi:i32 ?a ?b) ?c) "
        "(arith.addi:i32 ?d (arith.addi:i32 ?e ?f)))");
    for (auto _ : state) {
        auto matches = naive ? ematchNaive(egraph, *deep)
                             : ematch(egraph, *deep);
        benchmark::DoNotOptimize(matches.size());
    }
}
BENCHMARK(BM_DeepPatternMatch)->Arg(0)->Arg(1)->ArgNames({"naive"});

/** Greedy extraction over a ~16k-class balanced reduction tree. */
void
BM_ExtractGreedy10k(benchmark::State &state)
{
    EGraph egraph;
    std::vector<EClassId> layer;
    for (int i = 0; i < 8192; ++i)
        layer.push_back(
            egraph.addTerm(makeTerm("leaf" + std::to_string(i))));
    while (layer.size() > 1) {
        std::vector<EClassId> next;
        for (size_t i = 0; i + 1 < layer.size(); i += 2)
            next.push_back(egraph.add(
                ENode{Symbol("arith.addi:i32"),
                      {layer[i], layer[i + 1]}}));
        if (layer.size() % 2)
            next.push_back(layer.back());
        layer = std::move(next);
    }
    egraph.rebuild();
    TermSizeCost cost;
    for (auto _ : state) {
        auto extraction = extractGreedy(egraph, layer[0], cost);
        benchmark::DoNotOptimize(extraction->dag_cost);
    }
    state.SetLabel(std::to_string(egraph.numClasses()) + " classes");
}
BENCHMARK(BM_ExtractGreedy10k);

void
BM_RoverSaturation(benchmark::State &state)
{
    TermPtr expr = parseTerm(
        "(arith.addi:i32 (arith.muli:i32 var:a const:12:i32) "
        "(arith.muli:i32 var:b const:6:i32))");
    for (auto _ : state) {
        EGraph egraph(rover::roverAnalysisHooks());
        EClassId root = egraph.addTerm(expr);
        (void)root;
        RunnerOptions options;
        options.max_iters = 6;
        options.record_proofs = false;
        Runner runner(egraph, options);
        runner.addRules(rover::roverRules());
        benchmark::DoNotOptimize(runner.run().total_applied);
    }
}
BENCHMARK(BM_RoverSaturation);

void
BM_ExtractGreedyVsExact(benchmark::State &state)
{
    bool exact = state.range(0) == 1;
    EGraph egraph(rover::roverAnalysisHooks());
    EClassId root = egraph.addTerm(parseTerm(
        "(arith.addi:i32 (arith.muli:i32 var:a const:12:i32) "
        "(arith.muli:i32 var:a const:24:i32))"));
    RunnerOptions options;
    options.max_iters = 5;
    options.record_proofs = false;
    Runner runner(egraph, options);
    runner.addRules(rover::roverRules());
    runner.run();
    rover::RoverAreaCost cost(&egraph);
    for (auto _ : state) {
        auto extraction = exact ? extractExact(egraph, root, cost)
                                : extractGreedy(egraph, root, cost);
        benchmark::DoNotOptimize(extraction->dag_cost);
    }
}
BENCHMARK(BM_ExtractGreedyVsExact)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"exact"});

// ---------------------------------------------------------------------
// Million-node arm: the SoA storage scale proof.
// ---------------------------------------------------------------------

/** Live heap bytes per the allocator (glibc); 0 where unavailable. */
size_t
heapNow()
{
#ifdef __GLIBC__
    struct mallinfo2 mi = mallinfo2();
    return static_cast<size_t>(mi.uordblks) +
           static_cast<size_t>(mi.hblkhd);
#else
    return 0;
#endif
}

/**
 * Faithful replica of the pre-SoA e-graph storage: per-node heap child
 * vectors, node-keyed unordered_map hashcons, unordered_map class table
 * and operator index. Only the add path is replicated — that is the
 * entire storage footprint of a freshly built graph.
 */
struct OldENode
{
    Symbol op;
    std::vector<EClassId> children;
    bool
    operator==(const OldENode &other) const
    {
        return op == other.op && children == other.children;
    }
};

struct OldENodeHash
{
    size_t
    operator()(const OldENode &node) const
    {
        uint64_t h = hashMix(static_cast<uint64_t>(node.op.id()) |
                             (static_cast<uint64_t>(
                                  node.children.size())
                              << 32));
        for (EClassId child : node.children)
            h = hashMix(h ^ child);
        return static_cast<size_t>(h);
    }
};

struct OldEClass
{
    std::vector<OldENode> nodes;
    std::vector<std::pair<OldENode, EClassId>> parents;
};

struct MapGraph
{
    std::unordered_map<OldENode, EClassId, OldENodeHash> memo;
    std::unordered_map<EClassId, OldEClass> classes;
    std::unordered_map<uint64_t, std::vector<EClassId>> op_index;
    std::vector<EClassId> parents;
    std::vector<uint64_t> modified;

    EClassId
    add(OldENode node)
    {
        auto it = memo.find(node);
        if (it != memo.end())
            return it->second;
        EClassId id = static_cast<EClassId>(parents.size());
        parents.push_back(id);
        modified.push_back(id);
        classes[id].nodes.push_back(node);
        op_index[(static_cast<uint64_t>(node.op.id()) << 32) |
                 node.children.size()]
            .push_back(id);
        for (EClassId child : node.children)
            classes[child].parents.emplace_back(node, id);
        memo.emplace(std::move(node), id);
        return id;
    }
};

/** DAG with a large leaf alphabet and mixed unary/binary interior ops:
 *  400k leaves + 300k f + 200k g + 100k h = one million e-nodes. */
template <typename G, typename NodeT>
size_t
buildMillionNodeGraph(G &graph)
{
    std::vector<EClassId> leaves, fs, gs;
    leaves.reserve(400000);
    fs.reserve(300000);
    gs.reserve(200000);
    for (int i = 0; i < 400000; ++i)
        leaves.push_back(graph.add(
            NodeT{Symbol("leaf" + std::to_string(i)), {}}));
    for (int i = 0; i < 300000; ++i)
        fs.push_back(graph.add(NodeT{
            Symbol("f"),
            {leaves[i], leaves[(i * 7 + 1) % leaves.size()]}}));
    for (int i = 0; i < 200000; ++i)
        gs.push_back(
            graph.add(NodeT{Symbol("g"), {fs[i % fs.size()]}}));
    for (int i = 0; i < 100000; ++i)
        graph.add(NodeT{Symbol("h"),
                        {gs[i % gs.size()], fs[(i * 3) % fs.size()]}});
    return leaves.size() + fs.size() + gs.size() + 100000;
}

/**
 * Node-storage bytes at million-node scale, old layout vs SoA: the
 * identical graph built into the faithful map-based mirror and into
 * the real e-graph, compared by allocator truth (mallinfo2 deltas).
 * Leaf symbols are interned up front so neither side pays the symbol
 * table. Counters: bytes/node per layout, the reduction ratio, and
 * exactBytes() (the ResourceGovernor's accounting) as a cross-check.
 */
void
BM_MillionNodeStorage(benchmark::State &state)
{
    for (int i = 0; i < 400000; ++i)
        (void)Symbol("leaf" + std::to_string(i));
    double bytes_map = 0, bytes_soa = 0, bytes_exact = 0, nodes = 0;
    for (auto _ : state) {
        state.PauseTiming();
        {
            size_t before = heapNow();
            auto mirror = std::make_unique<MapGraph>();
            nodes = static_cast<double>(
                buildMillionNodeGraph<MapGraph, OldENode>(*mirror));
            bytes_map = static_cast<double>(heapNow() - before);
        }
        state.ResumeTiming();
        // Timed region: the real e-graph build (add + rebuild), so the
        // wall time tracks SoA hashcons throughput at scale.
        size_t before = heapNow();
        auto egraph = std::make_unique<EGraph>();
        buildMillionNodeGraph<EGraph, ENode>(*egraph);
        egraph->rebuild();
        bytes_soa = static_cast<double>(heapNow() - before);
        bytes_exact = static_cast<double>(egraph->exactBytes());
        benchmark::DoNotOptimize(egraph->numNodes());
    }
    state.counters["nodes"] = nodes;
    state.counters["bytes_per_node_map"] = bytes_map / nodes;
    state.counters["bytes_per_node_soa"] = bytes_soa / nodes;
    state.counters["bytes_exact"] = bytes_exact;
    state.counters["byte_reduction"] =
        bytes_map > 0 ? 1.0 - bytes_soa / bytes_map : 0.0;
    state.SetLabel("allocator-truth map vs SoA");
}
BENCHMARK(BM_MillionNodeStorage)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

} // namespace

BENCHMARK_MAIN();
