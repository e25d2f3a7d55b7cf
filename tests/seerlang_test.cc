/** SeerLang translation tests: IR -> term -> IR round trips. */
#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "benchmarks/benchmarks.h"
#include "core/external_rules.h"
#include "core/seer.h"
#include "egraph/egraph.h"
#include "ir/interp.h"
#include "ir/ops.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "seerlang/canonical.h"
#include "seerlang/encoding.h"
#include "seerlang/from_term.h"
#include "seerlang/to_term.h"
#include "support/error.h"
#include "support/rng.h"

namespace seer::sl {
namespace {

using namespace ir;

std::vector<int64_t>
runWithSeed(const Module &module, uint64_t seed)
{
    Operation *func = module.firstFunc();
    Block &body = func->region(0).block();
    std::vector<Buffer> buffers;
    std::vector<RtValue> args;
    Rng rng(seed);
    for (size_t i = 0; i < body.numArgs(); ++i) {
        Type t = body.arg(i).type();
        if (t.isMemRef()) {
            buffers.emplace_back(t);
        } else if (t.isIndex() || t.isInteger()) {
            args.push_back(rng.nextRange(0, 3));
        } else {
            args.push_back(rng.nextDouble());
        }
    }
    // Fill buffers and assemble args in order.
    size_t buffer_index = 0;
    std::vector<RtValue> final_args;
    size_t scalar_index = 0;
    for (size_t i = 0; i < body.numArgs(); ++i) {
        Type t = body.arg(i).type();
        if (t.isMemRef()) {
            Buffer &buffer = buffers[buffer_index++];
            for (auto &v : buffer.ints)
                v = rng.nextRange(-50, 50);
            for (auto &v : buffer.floats)
                v = rng.nextDouble();
            final_args.push_back(&buffer);
        } else {
            final_args.push_back(args[scalar_index++]);
        }
    }
    interpret(module, func->strAttr("sym_name"), std::move(final_args));
    std::vector<int64_t> out;
    for (const Buffer &buffer : buffers) {
        out.insert(out.end(), buffer.ints.begin(), buffer.ints.end());
        for (double d : buffer.floats)
            out.push_back(static_cast<int64_t>(d * 4096));
    }
    return out;
}

/** IR -> term -> IR round trip with equivalence checking. */
void
roundTrip(const std::string &text)
{
    Module before = parseModule(text);
    verifyOrDie(before);
    Translation translation = funcToTerm(*before.firstFunc());

    EmitSpec spec;
    spec.func_name = translation.func_name;
    spec.args = translation.args;
    Module after = termToFunc(translation.term, spec);
    std::string diag = verify(after);
    ASSERT_EQ(diag, "") << toString(after) << "\nterm: "
                        << translation.term->str();
    for (uint64_t seed : {1u, 7u, 99u}) {
        EXPECT_EQ(runWithSeed(before, seed), runWithSeed(after, seed))
            << "--- before\n" << toString(before) << "--- after\n"
            << toString(after) << "\nterm: " << translation.term->str();
    }
}

TEST(SeerLangEncodingTest, ConstRoundTrip)
{
    Symbol s = encodeIntConst(-7, Type::i32());
    auto decoded = decodeIntConst(s);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->first, -7);
    EXPECT_EQ(decoded->second, Type::i32());
    EXPECT_FALSE(decodeIntConst(Symbol("var:x")).has_value());
}

TEST(SeerLangEncodingTest, FloatConstExactRoundTrip)
{
    for (double value : {0.0, 1.5, -2.25, 0.1, 3.141592653589793}) {
        auto decoded = decodeFloatConst(encodeFloatConst(value));
        ASSERT_TRUE(decoded.has_value());
        EXPECT_EQ(*decoded, value); // exact via hex-float
    }
}

TEST(SeerLangEncodingTest, ArgVarHelpers)
{
    auto arg = decodeArg(encodeArg("x", Type::memref({4}, Type::i32())));
    ASSERT_TRUE(arg.has_value());
    EXPECT_EQ(arg->first, "x");
    EXPECT_EQ(arg->second.str(), "memref<4xi32>");
    EXPECT_EQ(decodeVar(encodeVar("i")), "i");
    EXPECT_FALSE(decodeVar(Symbol("arg:a:i32")).has_value());
}

TEST(SeerLangEncodingTest, TagsAreUnique)
{
    EXPECT_NE(freshTag(), freshTag());
    EXPECT_NE(freshLoopId(), freshLoopId());
}

TEST(SeerLangEncodingTest, LoopSymbolFields)
{
    Symbol s = encodeFor("i", "L7");
    EXPECT_TRUE(isForSymbol(s));
    EXPECT_EQ(loopIdOf(s), "L7");
    EXPECT_FALSE(isForSymbol(Symbol("seq")));
}

TEST(SeerLangRoundTripTest, StraightLineArith)
{
    roundTrip(R"(
func.func @f(%a: memref<4xi32>) {
  %z = arith.constant 0 : index
  %v = memref.load %a[%z] : memref<4xi32>
  %c3 = arith.constant 3 : i32
  %w = arith.muli %v, %c3 : i32
  %x = arith.addi %w, %v : i32
  memref.store %x, %a[%z] : memref<4xi32>
})");
}

TEST(SeerLangRoundTripTest, MemoryOrderPreserved)
{
    // Two loads around a store of the same cell: the tagged encoding
    // must keep them distinct.
    roundTrip(R"(
func.func @f(%a: memref<2xi32>) {
  %z = arith.constant 0 : index
  %one = arith.constant 1 : index
  %v1 = memref.load %a[%z] : memref<2xi32>
  %c9 = arith.constant 9 : i32
  memref.store %c9, %a[%z] : memref<2xi32>
  %v2 = memref.load %a[%z] : memref<2xi32>
  %s = arith.addi %v1, %v2 : i32
  memref.store %s, %a[%one] : memref<2xi32>
})");
}

TEST(SeerLangRoundTripTest, SimpleLoop)
{
    roundTrip(R"(
func.func @f(%a: memref<10xi32>) {
  affine.for %i = 0 to 10 {
    %v = memref.load %a[%i] : memref<10xi32>
    %w = arith.addi %v, %v : i32
    memref.store %w, %a[%i] : memref<10xi32>
  }
})");
}

TEST(SeerLangRoundTripTest, NestedDynamicBoundLoops)
{
    roundTrip(R"(
func.func @f(%a: memref<64xi32>) {
  affine.for %jj = 0 to 64 step 8 {
    affine.for %j = %jj to %jj + 8 {
      %v = memref.load %a[%j] : memref<64xi32>
      %w = arith.addi %v, %v : i32
      memref.store %w, %a[%j] : memref<64xi32>
    }
  }
})");
}

TEST(SeerLangRoundTripTest, MultiDimAccess)
{
    roundTrip(R"(
func.func @f(%a: memref<4x6xi32>) {
  affine.for %i = 0 to 4 {
    affine.for %j = 0 to 6 {
      %v = memref.load %a[%i, %j] : memref<4x6xi32>
      %w = arith.addi %v, %v : i32
      memref.store %w, %a[%i, %j] : memref<4x6xi32>
    }
  }
})");
}

TEST(SeerLangRoundTripTest, IfStatement)
{
    roundTrip(R"(
func.func @f(%a: memref<8xi32>, %b: memref<8xi32>) {
  affine.for %i = 0 to 8 {
    %v = memref.load %a[%i] : memref<8xi32>
    %zero = arith.constant 0 : i32
    %c = arith.cmpi sgt, %v, %zero : i32
    scf.if %c {
      memref.store %v, %b[%i] : memref<8xi32>
    } else {
      %n = arith.subi %zero, %v : i32
      memref.store %n, %b[%i] : memref<8xi32>
    }
  }
})");
}

TEST(SeerLangRoundTripTest, WhileLoop)
{
    roundTrip(R"(
func.func @f(%s: memref<1xi32>) {
  %z = arith.constant 0 : index
  %limit = arith.constant 12 : i32
  %one = arith.constant 1 : i32
  scf.while {
    %v = memref.load %s[%z] : memref<1xi32>
    %cond = arith.cmpi slt, %v, %limit : i32
    scf.condition %cond
  } do {
    %v = memref.load %s[%z] : memref<1xi32>
    %n = arith.addi %v, %one : i32
    memref.store %n, %s[%z] : memref<1xi32>
  }
})");
}

TEST(SeerLangRoundTripTest, AllocAndFloats)
{
    roundTrip(R"(
func.func @f(%out: memref<4xf64>) {
  %tmp = memref.alloc() : memref<4xf64>
  %half = arith.constant 0.5 : f64
  affine.for %i = 0 to 4 {
    %v = memref.load %out[%i] : memref<4xf64>
    %w = arith.mulf %v, %half : f64
    memref.store %w, %tmp[%i] : memref<4xf64>
  }
  affine.for %j = 0 to 4 {
    %v = memref.load %tmp[%j] : memref<4xf64>
    memref.store %v, %out[%j] : memref<4xf64>
  }
})");
}

TEST(SeerLangRoundTripTest, CastsAndSelect)
{
    roundTrip(R"(
func.func @f(%a: memref<8xi8>, %b: memref<8xi32>) {
  affine.for %i = 0 to 8 {
    %v = memref.load %a[%i] : memref<8xi8>
    %w = arith.extsi %v : i8 to i32
    %u = memref.load %b[%i] : memref<8xi32>
    %zero = arith.constant 0 : i32
    %c = arith.cmpi slt, %w, %zero : i32
    %r = arith.select %c, %u, %w : i32
    memref.store %r, %b[%i] : memref<8xi32>
  }
})");
}

TEST(SeerLangTest, ValueIfIsRejected)
{
    Module m = parseModule(R"(
func.func @f(%a: memref<4xi32>, %c: i1) {
  %z = arith.constant 0 : index
  %x = arith.constant 1 : i32
  %y = arith.constant 2 : i32
  %r = scf.if %c -> (i32) {
    scf.yield %x : i32
  } else {
    scf.yield %y : i32
  }
  memref.store %r, %a[%z] : memref<4xi32>
})");
    EXPECT_THROW(funcToTerm(*m.firstFunc()), FatalError);
}

TEST(SeerLangTest, SnippetSpecInference)
{
    Module m = parseModule(R"(
func.func @f(%a: memref<16xi32>) {
  affine.for %jj = 0 to 16 step 4 {
    affine.for %j = %jj to %jj + 4 {
      %v = memref.load %a[%j] : memref<16xi32>
      memref.store %v, %a[%j] : memref<16xi32>
    }
  }
})");
    Translation translation = funcToTerm(*m.firstFunc());
    // The inner loop term has a free var (jj) and the arg a.
    const auto &func_term = translation.term;
    const auto &outer = func_term->child(0); // affine.for jj
    ASSERT_TRUE(isForSymbol(outer->op()));
    const auto &inner = outer->child(3);
    ASSERT_TRUE(isForSymbol(inner->op()));
    EmitSpec spec = inferSpec(inner, "snippet");
    ASSERT_EQ(spec.args.size(), 2u);
    EXPECT_EQ(spec.args[0].first, "a");
    EXPECT_TRUE(spec.args[0].second.isMemRef());
    EXPECT_EQ(spec.args[1].first, "jj");
    EXPECT_TRUE(spec.args[1].second.isIndex());

    // Emitting the snippet must verify.
    Module snippet = termToFunc(inner, spec);
    EXPECT_EQ(verify(snippet), "") << toString(snippet);
}

TEST(SeerLangTest, LoopRegistryPopulated)
{
    Module m = parseModule(R"(
func.func @f(%a: memref<8xi32>) {
  affine.for %i = 0 to 8 {
    %v = memref.load %a[%i] : memref<8xi32>
    memref.store %v, %a[%i] : memref<8xi32>
  }
  affine.for %j = 0 to 8 {
    %v = memref.load %a[%j] : memref<8xi32>
    memref.store %v, %a[%j] : memref<8xi32>
  }
})");
    Translation translation = funcToTerm(*m.firstFunc());
    EXPECT_EQ(translation.loops.size(), 2u);
    for (const auto &[loop_id, op] : translation.loops) {
        EXPECT_TRUE(isa(*op, ir::opnames::kAffineFor));
        EXPECT_EQ(loop_id[0], 'L');
    }
}

TEST(SeerLangTest, EmittedLoopsCarryLoopIdAttr)
{
    Module m = parseModule(R"(
func.func @f(%a: memref<8xi32>) {
  affine.for %i = 0 to 8 {
    %v = memref.load %a[%i] : memref<8xi32>
    memref.store %v, %a[%i] : memref<8xi32>
  }
})");
    Translation translation = funcToTerm(*m.firstFunc());
    EmitSpec spec{translation.func_name, translation.args};
    Module out = termToFunc(translation.term, spec);
    bool found = false;
    walk(out, [&](Operation &op) {
        if (isa(op, ir::opnames::kAffineFor)) {
            EXPECT_TRUE(op.hasAttr("seer.loop_id"));
            found = true;
        }
    });
    EXPECT_TRUE(found);
}

// --- Snippet lowering of shared DAGs --------------------------------
//
// inferSpec and termToFunc visit each distinct subterm once per binder
// context. Each case below compares a shared DAG against a deep copy
// that shares no node: the spec and the printed IR must be the same.

/** A copy of `term` that shares no node with it. */
eg::TermPtr
deepCopy(const eg::TermPtr &term)
{
    std::vector<eg::TermPtr> children;
    for (const eg::TermPtr &child : term->children())
        children.push_back(deepCopy(child));
    return eg::makeTerm(term->op(), std::move(children));
}

/** The spec and IR of `term`, or the FatalError it raises. */
std::string
lowered(const eg::TermPtr &term)
{
    try {
        EmitSpec spec = inferSpec(term, "snippet");
        std::string out;
        for (const auto &[name, type] : spec.args)
            out += name + ":" + type.str() + " ";
        out += "| free:";
        for (const std::string &name : spec.free_vars)
            out += " " + name;
        return out + "\n" + toString(termToFunc(term, spec));
    } catch (const FatalError &err) {
        return std::string("fatal: ") + err.what();
    }
}

/** Distinct nodes of a DAG. */
size_t
distinctNodes(const eg::TermPtr &term, std::set<const eg::Term *> &seen)
{
    if (!seen.insert(term.get()).second)
        return 0;
    size_t n = 1;
    for (const eg::TermPtr &child : term->children())
        n += distinctNodes(child, seen);
    return n;
}

struct ScopedPassKeyProbe
{
    explicit ScopedPassKeyProbe(core::PassKeyProbe probe)
    {
        core::setPassKeyProbe(std::move(probe));
    }
    ~ScopedPassKeyProbe() { core::setPassKeyProbe({}); }
};

/** Every candidate the exploration hands to an external pass lowers
 *  exactly as its unshared copy does. */
void
expectServedCandidatesLowerAsTrees(const Module &input,
                                   const std::string &func)
{
    std::set<const eg::Term *> checked;
    size_t candidates = 0, mismatches = 0, tree_nodes = 0, dag_nodes = 0;
    std::string first_mismatch;
    {
        ScopedPassKeyProbe probe([&](const core::ExternalRuleContext &,
                                     const char *, const eg::TermPtr &term,
                                     uint64_t) {
            if (!checked.insert(term.get()).second)
                return;
            ++candidates;
            std::set<const eg::Term *> seen;
            dag_nodes += distinctNodes(term, seen);
            tree_nodes += term->size();
            std::string shared = lowered(term);
            std::string copy = lowered(deepCopy(term));
            if (shared != copy && mismatches++ == 0)
                first_mismatch = term->str() + "\nshared:\n" + shared +
                                 "\ncopy:\n" + copy;
        });
        core::optimize(input, func);
    }
    EXPECT_GT(candidates, 0u);
    EXPECT_EQ(mismatches, 0u) << first_mismatch;
    // The candidates are DAGs, so the shared walk is the one exercised.
    EXPECT_LT(dag_nodes, tree_nodes);
}

TEST(SnippetLoweringTest, ServedCandidatesLowerAsTheirTrees)
{
    expectServedCandidatesLowerAsTrees(parseModule(R"(
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
})"),
                                       "seq_loops");
    const bench::Benchmark &knn = bench::findBenchmark("md_knn");
    expectServedCandidatesLowerAsTrees(bench::parseBenchmark(knn),
                                       knn.func);
}

eg::TermPtr
node(const std::string &op, std::vector<eg::TermPtr> children = {})
{
    return eg::makeTerm(op, std::move(children));
}

eg::TermPtr
forLoop(const std::string &iv, const std::string &id, eg::TermPtr body)
{
    return node("affine.for:" + iv + ":" + id,
                {node("const:0:index"), node("const:4:index"),
                 node("const:1:index"), std::move(body)});
}

eg::TermPtr
store(const std::string &tag, const std::string &value, eg::TermPtr index)
{
    return node("memref.store:" + tag,
                {node(value), node("arg:a:memref<16xi32>"),
                 std::move(index)});
}

/** One var pointer, bound inside a loop and free outside it: the
 *  loop is walked first, so a seen-set blind to the binder context
 *  would miss that `i` is free. */
TEST(SnippetLoweringTest, SharedVarFreeOutsideAndBoundInsideALoop)
{
    eg::TermPtr i = node("var:i");
    eg::TermPtr dag =
        node("seq", {forLoop("i", "L0", store("s0", "const:1:i32", i)),
                     store("s1", "const:2:i32", i)});
    EmitSpec spec = inferSpec(dag, "snippet");
    ASSERT_EQ(spec.args.size(), 2u);
    EXPECT_EQ(spec.args[1].first, "i");
    EXPECT_EQ(spec.free_vars, std::vector<std::string>{"i"});
    EXPECT_EQ(lowered(dag), lowered(deepCopy(dag)));
    Module module = termToFunc(dag, spec);
    EXPECT_EQ(verify(module), "") << toString(module);
}

/** A loop whose iv rebinds an outer name sees a shared value subterm
 *  reading that name anew: the emitter must not reuse the value the
 *  subterm had outside the loop. */
TEST(SnippetLoweringTest, RebindingLoopsReemitSharedSubterms)
{
    eg::TermPtr plus_one =
        node("arith.addi:index", {node("var:i"), node("const:1:index")});
    // An inner loop rebinding the outer iv.
    eg::TermPtr nested = forLoop(
        "i", "L0",
        node("seq", {store("s0", "const:1:i32", plus_one),
                     forLoop("i", "L1",
                             store("s1", "const:2:i32", plus_one))}));
    // A loop rebinding a function argument.
    eg::TermPtr over_arg =
        node("seq", {store("s2", "const:3:i32", plus_one),
                     forLoop("i", "L2",
                             store("s3", "const:4:i32", plus_one))});
    for (const eg::TermPtr &dag : {nested, over_arg}) {
        std::string shared = lowered(dag);
        EXPECT_EQ(shared, lowered(deepCopy(dag)));
        // Two distinct increments: one per binding of `i`.
        Module module = termToFunc(dag, inferSpec(dag, "snippet"));
        size_t adds = 0;
        walk(module, [&](Operation &op) {
            adds += isa(op, ir::opnames::kAddI);
        });
        EXPECT_EQ(adds, 2u) << shared;
    }
}

TEST(SnippetLoweringTest, ConflictingArgTypesInASharedDagStillFail)
{
    // `narrow` is walked once and skipped at its second use; the
    // i64 use of `x` after it must still meet the recorded i32 type.
    eg::TermPtr narrow =
        node("arith.addi:i32", {node("arg:x:i32"), node("const:1:i32")});
    eg::TermPtr dag = node(
        "seq",
        {node("memref.store:s0",
              {narrow, node("arg:a:memref<4xi32>"), node("const:0:index")}),
         node("memref.store:s1",
              {node("arith.addi:i64",
                    {node("arith.extsi:i32:i64", {narrow}),
                     node("arg:x:i64")}),
               node("arg:b:memref<4xi64>"), node("const:0:index")})});
    std::string shared = lowered(dag);
    EXPECT_EQ(shared, "fatal: SeerLang: arg 'x' used at two types");
    EXPECT_EQ(shared, lowered(deepCopy(dag)));
}

/** The walks are linear in distinct nodes: a depth-48 doubling chain
 *  is 2^48 nodes as a tree. */
TEST(SnippetLoweringTest, DoublingChainLowersInLinearTime)
{
    eg::TermPtr x = node("arg:x:i32");
    for (int k = 0; k < 48; ++k)
        x = node("arith.addi:i32", {x, x});
    eg::TermPtr dag = node("memref.store:s0",
                           {x, node("arg:a:memref<1xi32>"),
                            node("const:0:index")});
    EmitSpec spec = inferSpec(dag, "snippet");
    ASSERT_EQ(spec.args.size(), 2u);
    EXPECT_EQ(spec.args[0].first, "a");
    EXPECT_EQ(spec.args[1].first, "x");
    Module module = termToFunc(dag, spec);
    size_t adds = 0;
    walk(module, [&](Operation &op) {
        adds += isa(op, ir::opnames::kAddI);
    });
    EXPECT_EQ(adds, 48u);
}

/** A multiply chain `depth` deep in which each level reads the one
 *  below twice: `depth + 1` distinct nodes, 2^(depth+1) - 1 as a tree. */
eg::TermPtr
squaringChain(int depth)
{
    eg::TermPtr x = node("arg:x:i32");
    for (int k = 0; k < depth; ++k)
        x = node("arith.muli:i32", {x, x});
    return x;
}

/** The walks that key, size and insert candidates visit each distinct
 *  node once: a tree walk of this depth-40 chain takes 2^41 steps. */
TEST(SharedDagTest, TermWalksVisitEachDistinctNodeOnce)
{
    eg::TermPtr chain = squaringChain(40);
    // The proposal size stays the tree size (the bandit's reward reads
    // it), saturating where the tree outgrows size_t.
    EXPECT_EQ(core::proposalTermSize(chain), (size_t{1} << 41) - 1);
    EXPECT_EQ(core::proposalTermSize(squaringChain(70)), SIZE_MAX);
    EXPECT_EQ(canonicalTermHash(chain),
              canonicalTermHash(squaringChain(40)));
    EXPECT_NE(canonicalTermHash(chain),
              canonicalTermHash(squaringChain(39)));
    eg::EGraph egraph;
    eg::EClassId id = egraph.addTerm(chain);
    EXPECT_EQ(egraph.numClasses(), 41u);
    EXPECT_EQ(egraph.lookupTerm(squaringChain(40)), id);
    EXPECT_EQ(egraph.lookupTerm(squaringChain(41)), std::nullopt);
}

/** The canonical hash of a shared term is its tree's: a value shared
 *  under different binders hashes per binder context, and a shared
 *  loop takes a fresh pre-order binder number at each visit. */
TEST(SharedDagTest, CanonicalHashOfASharedTermIsItsTreeHash)
{
    eg::TermPtr iv = node("var:i");
    eg::TermPtr index =
        node("arith.addi:index", {iv, node("arith.muli:index", {iv, iv})});
    auto store = [&](const std::string &tag) {
        return node("memref.store:" + tag,
                    {node("const:1:i32"), node("arg:a:memref<64xi32>"),
                     index});
    };
    // The inner loop rebinds i; the outer body and the top level read
    // `index` under the outer binder and with i free.
    eg::TermPtr inner = forLoop("i", "L1", store("s1"));
    eg::TermPtr outer = forLoop("i", "L2", node("seq", {inner, store("s2")}));
    eg::TermPtr dag =
        node("seq", {outer, node("seq", {inner, store("s3")})});
    EXPECT_EQ(canonicalTermHash(dag), canonicalTermHash(deepCopy(dag)));
}

} // namespace
} // namespace seer::sl
