// The may-apply screens against their passes: a candidate a screen
// drops must lower to a snippet its pass declines.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "benchmarks/benchmarks.h"
#include "core/external_rules.h"
#include "core/may_apply.h"
#include "corpus/generator.h"
#include "ir/parser.h"
#include "seerlang/encoding.h"
#include "seerlang/from_term.h"
#include "seerlang/to_term.h"
#include "support/error.h"

namespace seer::core {
namespace {

/** The screened rules, loop-unroll-inner included. */
std::vector<ScreenedPass>
allScreenedPasses()
{
    auto context = std::make_shared<ExternalRuleContext>();
    context->unroll_max_trip = 8;
    return screenedPasses(context);
}

const ScreenedPass &
passNamed(const std::vector<ScreenedPass> &passes, const std::string &name)
{
    for (const ScreenedPass &pass : passes) {
        if (pass.rule == name)
            return pass;
    }
    throw FatalError("no screened rule " + name);
}

/** Does the rule's pass change the snippet `term` lowers to? A term
 *  that cannot be lowered is declined, as in evaluation. */
bool
passApplies(const ScreenedPass &pass, const eg::TermPtr &term)
{
    try {
        sl::EmitSpec spec = sl::inferSpec(term, "snippet");
        ir::Module module = sl::termToFunc(term, spec);
        return pass.transform(*module.firstFunc());
    } catch (const FatalError &) {
        return false;
    }
}

/** The distinct seq/for/while/if subterms of `term`: the shapes the
 *  rules extract as candidates. */
void
statementRoots(const eg::TermPtr &term, std::vector<eg::TermPtr> &out,
               std::unordered_set<const eg::Term *> &seen)
{
    if (!seen.insert(term.get()).second)
        return;
    std::string_view name = sl::opNameOf(term->op());
    if (name == "seq" || name == "affine.for" || name == "scf.while" ||
        name == "scf.if")
        out.push_back(term);
    if (name != "seq" && name != "affine.for" && name != "scf.while" &&
        name != "scf.if" && name != "func")
        return; // a value or a memory op: no statement below
    for (const eg::TermPtr &child : term->children())
        statementRoots(child, out, seen);
}

/** Screen-vs-pass tallies of one rule. */
struct Tally
{
    size_t screened_out = 0;
    size_t applied = 0;
};

/** Check every screen on every statement subterm of `module`'s first
 *  function; false when SeerLang does not model the function. */
bool
checkModule(const ir::Module &module, const std::vector<ScreenedPass> &passes,
            std::vector<Tally> &tallies, std::string &failures)
{
    eg::TermPtr root;
    try {
        root = sl::funcToTerm(*module.firstFunc()).term;
    } catch (const FatalError &) {
        return false;
    }
    std::vector<eg::TermPtr> roots;
    std::unordered_set<const eg::Term *> seen;
    statementRoots(root, roots, seen);
    for (size_t p = 0; p < passes.size(); ++p) {
        for (const eg::TermPtr &term : roots) {
            if (passes[p].may_apply(term)) {
                tallies[p].applied += passApplies(passes[p], term);
                continue;
            }
            ++tallies[p].screened_out;
            if (passApplies(passes[p], term) && failures.size() < 4000)
                failures += passes[p].rule + " screened out " +
                            term->str() + "\n";
        }
    }
    return true;
}

TEST(MayApplyDifferentialTest, ScreenedOutCandidatesAreDeclined)
{
    std::vector<ScreenedPass> passes = allScreenedPasses();
    ASSERT_EQ(passes.size(), 7u);
    std::vector<Tally> tallies(passes.size());
    std::string failures;
    for (const bench::Benchmark &benchmark : bench::allBenchmarks()) {
        EXPECT_TRUE(checkModule(bench::parseBenchmark(benchmark), passes,
                                tallies, failures))
            << benchmark.name;
    }
    // Flat programs, then nests with min/max, as the corpus draws them.
    size_t programs = 0;
    corpus::GeneratorOptions nested;
    nested.allow_nested_loops = true;
    nested.allow_min_max = true;
    for (uint64_t seed = 1; seed <= 200; ++seed) {
        for (const corpus::GeneratorOptions &options :
             {corpus::GeneratorOptions{}, nested}) {
            ir::Module module =
                ir::parseModule(corpus::generateProgram(seed, options));
            programs += checkModule(module, passes, tallies, failures);
        }
    }
    EXPECT_GE(programs, 300u);
    EXPECT_EQ(failures, "");
    // Every screen drops candidates; memory forwarding, the screen that
    // replays its pass, also lets through some that it applies to.
    for (size_t p = 0; p < passes.size(); ++p) {
        EXPECT_GT(tallies[p].screened_out, 0u) << passes[p].rule;
        if (passes[p].rule == "memory-forward") {
            EXPECT_GT(tallies[p].applied, 0u);
        }
    }
}

// --- hand cases: the screen agrees with the pass exactly -------------------

/** A statement term written as an S-expression. Each parse builds
 *  fresh nodes, so a repeated subterm is a distinct node with the same
 *  structure, as the e-graph's extraction can produce. */
eg::TermPtr
term(const std::string &text)
{
    return eg::parseTerm(text);
}

void
expectForwardVerdict(const std::string &text, bool applies)
{
    static const std::vector<ScreenedPass> passes = allScreenedPasses();
    const ScreenedPass &forward = passNamed(passes, "memory-forward");
    eg::TermPtr t = term(text);
    EXPECT_EQ(passApplies(forward, t), applies) << text;
    EXPECT_EQ(mayForwardMemory(t), applies) << text;
}

const char *const kA = "arg:a:memref<8xi32>";
const char *const kB = "arg:b:memref<8xi32>";

std::string
load(const std::string &tag, const std::string &mem,
     const std::string &index)
{
    return "(memref.load:" + tag + " " + mem + " " + index + ")";
}

std::string
store(const std::string &tag, const std::string &value,
      const std::string &mem, const std::string &index)
{
    return "(memref.store:" + tag + " " + value + " " + mem + " " + index +
           ")";
}

std::string
seq(const std::string &a, const std::string &b)
{
    return "(seq " + a + " " + b + ")";
}

const char *const kCond = "(arith.cmpi:eq:index var:c const:0:index)";
const char *const kIPlus1 = "(arith.addi:index var:i const:1:index)";
const char *const kOnePlusI = "(arith.addi:index const:1:index var:i)";

TEST(MayApplyHandTest, AffineEqualIndicesAreOneAddress)
{
    // a[i+1] is stored, then a[1+i] loaded: one address, forwarded.
    expectForwardVerdict(seq(store("s1", "const:5:i32", kA, kIPlus1),
                             store("s2", load("t1", kA, kOnePlusI), kB,
                                   "const:0:index")),
                         true);
    // a[i+1] against a[i+2]: provably distinct, nothing to forward.
    expectForwardVerdict(
        seq(store("s1", "const:5:i32", kA, kIPlus1),
            store("s2",
                  load("t1", kA, "(arith.addi:index var:i const:2:index)"),
                  kB, "const:0:index")),
        false);
}

TEST(MayApplyHandTest, AReusedLoadTagIsNotLoadedAgain)
{
    // t1 is loaded at the top level; the branch reuses its value, so
    // no load of a sits between the branch's two stores to a[0], and
    // the first of them is dead.
    std::string outer_load = load("t1", kA, "var:j");
    std::string branch =
        seq(store("s2", "const:1:i32", kA, "const:0:index"),
            seq(store("s3", load("t1", kA, "var:j"), kB, "const:1:index"),
                store("s4", "const:2:i32", kA, "const:0:index")));
    expectForwardVerdict(
        seq(store("s1", outer_load, kB, "const:0:index"),
            "(scf.if " + std::string(kCond) + " " + branch + " nop)"),
        true);
}

TEST(MayApplyHandTest, AReadOfAnotherMemrefKeepsAStoreDead)
{
    expectForwardVerdict(
        seq(store("s1", "const:1:i32", kA, "const:0:index"),
            seq(store("s2", load("t1", kB, "const:0:index"), kB,
                      "const:1:index"),
                store("s3", "const:2:i32", kA, "const:0:index"))),
        true);
    // A read of a in between makes the first store live.
    expectForwardVerdict(
        seq(store("s1", "const:1:i32", kA, "const:0:index"),
            seq(store("s2", load("t1", kA, "const:1:index"), kB,
                      "const:1:index"),
                store("s3", "const:2:i32", kA, "const:0:index"))),
        false);
}

TEST(MayApplyHandTest, AWhileConditionSharesItsEffectsBlock)
{
    // The cond-effects store a[0]; the condition loads it in the same
    // block, so the load is forwarded.
    std::string cond = "(arith.cmpi:slt:i32 " +
                       load("t1", kA, "const:0:index") + " const:4:i32)";
    expectForwardVerdict(
        "(scf.while:w1 " + store("s1", "const:1:i32", kA, "const:0:index") +
            " " + cond + " " +
            store("s2", "const:3:i32", kB, "const:0:index") + ")",
        true);
}

TEST(MayApplyHandTest, ControlFlowResetsTheBlockState)
{
    std::string first = store("s1", "const:1:i32", kA, "const:0:index");
    std::string reload =
        store("s3", load("t1", kA, "const:0:index"), kB, "const:0:index");
    std::string loop = "(affine.for:k:L1 const:0:index const:4:index "
                       "const:1:index " +
                       store("s2", "const:7:i32", kB, "const:1:index") +
                       ")";
    std::string branch = "(scf.if " + std::string(kCond) + " " +
                         store("s2", "const:7:i32", kB, "const:1:index") +
                         " nop)";
    // Straight-line, the reload is forwarded ...
    expectForwardVerdict(seq(first, reload), true);
    // ... but a loop or an if between them clears the state.
    expectForwardVerdict(seq(first, seq(loop, reload)), false);
    expectForwardVerdict(seq(first, seq(branch, reload)), false);
    // The if's condition is emitted before the if, in the outer block.
    expectForwardVerdict(
        seq(first, "(scf.if (arith.cmpi:eq:i32 " +
                       load("t1", kA, "const:0:index") +
                       " const:0:i32) nop nop)"),
        true);
}

TEST(MayApplyHandTest, ShapeScreensNeedTheirStatement)
{
    std::vector<ScreenedPass> passes = allScreenedPasses();
    std::string flat = "(affine.for:i:L1 const:0:index const:4:index "
                       "const:1:index " +
                       store("s1", "const:1:i32", kA, "var:i") + ")";
    eg::TermPtr flat_loop = term(flat);
    EXPECT_FALSE(hasNestedLoop(flat_loop));
    EXPECT_FALSE(hasIfStatement(flat_loop));
    for (const char *rule : {"loop-interchange", "loop-flatten",
                             "loop-perfection", "loop-unroll-inner",
                             "if-conversion", "cf-mux"})
        EXPECT_FALSE(passApplies(passNamed(passes, rule), flat_loop))
            << rule;
    eg::TermPtr nest = term("(affine.for:j:L2 const:0:index "
                            "const:4:index const:1:index " +
                            flat + ")");
    EXPECT_TRUE(hasNestedLoop(nest));
    EXPECT_TRUE(passApplies(passNamed(passes, "loop-unroll-inner"), nest));
}

} // namespace
} // namespace seer::core
