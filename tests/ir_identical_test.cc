/**
 * @file
 * ir::identical, the structural-identity walk that lets translation
 * validation prove a check instead of co-simulating it: every single
 * difference must be seen, and on realistic inputs (the nine kernels'
 * lowered proof records, mutated corpus programs) it must agree with
 * comparing the printed text of both modules.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <regex>

#include "benchmarks/benchmarks.h"
#include "core/seer.h"
#include "core/verify.h"
#include "corpus/generator.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "support/error.h"
#include "support/rng.h"

namespace seer::ir {
namespace {

const char *kBase = R"(
func.func @f(%a: memref<8xi32>, %s: memref<1xi32>, %x: f64) {
  %z = arith.constant 0 : index
  %zero = arith.constant 0 : i32
  %half = arith.constant 0.5 : f64
  %y = arith.addf %x, %half : f64
  memref.store %zero, %s[%z] : memref<1xi32>
  affine.for %i = 0 to 8 {
    %v = memref.load %a[%i] : memref<8xi32>
    %c = arith.cmpi sgt, %v, %zero : i32
    scf.if %c {
      %acc = memref.load %s[%z] : memref<1xi32>
      %n = arith.subi %acc, %v : i32
      memref.store %n, %s[%z] : memref<1xi32>
    }
  }
})";

/** kBase with every occurrence of `from` replaced by `to`. */
std::string
edited(const std::string &from, const std::string &to)
{
    std::string text = kBase;
    size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    for (; at != std::string::npos; at = text.find(from, at + to.size()))
        text.replace(at, from.size(), to);
    return text;
}

/** The first op named `name` under `module`, in walk order. */
Operation *
firstOp(const Module &module, const std::string &name)
{
    Operation *found = nullptr;
    walk(module, [&](Operation &op) {
        if (!found && op.nameStr() == name)
            found = &op;
    });
    EXPECT_NE(found, nullptr) << name;
    return found;
}

TEST(IdenticalTest, SameProgramIsIdentical)
{
    Module a = parseModule(kBase);
    EXPECT_TRUE(identical(a, a));
    EXPECT_TRUE(identical(a, parseModule(kBase)));
    EXPECT_TRUE(identical(a, cloneModule(a)));
    EXPECT_TRUE(identical(Module(), Module()));
    EXPECT_FALSE(identical(a, Module()));
    EXPECT_FALSE(identical(Module(), a));
}

TEST(IdenticalTest, NameHintsAndAnnotationsAreIgnored)
{
    // Renaming a value changes the printed text, not the program.
    Module a = parseModule(kBase);
    Module b = parseModule(edited("%acc", "%sum"));
    EXPECT_NE(toString(a), toString(b));
    EXPECT_TRUE(identical(a, b));

    // So do the flow's annotations: two lowerings of one loop under
    // different loop ids are the same program.
    firstOp(a, "affine.for")->setAttr("seer.loop_id", "L1");
    EXPECT_TRUE(identical(a, b));
    firstOp(b, "affine.for")->setAttr("seer.loop_id", "L2");
    firstOp(b, "affine.for")->setAttr("seer.pipeline", int64_t(1));
    EXPECT_TRUE(identical(a, b));
    EXPECT_TRUE(identical(b, a));
}

TEST(IdenticalTest, EachSingleTextualDifferenceIsDetected)
{
    struct Edit
    {
        const char *what, *from, *to;
    };
    const Edit edits[] = {
        {"op name", "arith.addf %x", "arith.mulf %x"},
        {"constant value", "arith.constant 0 : i32",
         "arith.constant 1 : i32"},
        {"float constant", "0.5 : f64", "0.25 : f64"},
        {"cmp predicate", "arith.cmpi sgt", "arith.cmpi sge"},
        {"loop bound", "0 to 8", "0 to 7"},
        {"loop step", "0 to 8 {", "0 to 8 step 2 {"},
        {"swapped operands", "arith.subi %acc, %v", "arith.subi %v, %acc"},
        {"block-arg type", "memref<8xi32>", "memref<9xi32>"},
        {"op in a nested region", "arith.subi %acc", "arith.addi %acc"},
        {"op count", "  memref.store %zero, %s[%z] : memref<1xi32>\n", ""},
        {"function count", "  }\n}", "  }\n}\nfunc.func @g() {\n}"},
        {"operand choice", "memref.store %n", "memref.store %v"},
    };
    Module base = parseModule(kBase);
    for (const Edit &edit : edits) {
        Module changed = parseModule(edited(edit.from, edit.to));
        EXPECT_NE(toString(base), toString(changed)) << edit.what;
        EXPECT_FALSE(identical(base, changed)) << edit.what;
        EXPECT_FALSE(identical(changed, base)) << edit.what;
    }
}

TEST(IdenticalTest, DifferencesThePrinterHidesAreDetected)
{
    Module base = parseModule(kBase);

    // A result type the printed form does not show (a load's result).
    Module result_type = parseModule(kBase);
    firstOp(result_type, "memref.load")->result().impl()->setType(
        Type::i64());
    EXPECT_FALSE(identical(base, result_type));

    // A block-argument type changed in place.
    Module arg_type = parseModule(kBase);
    firstOp(arg_type, "affine.for")->region(0).block().arg(0).impl()
        ->setType(Type::i32());
    EXPECT_FALSE(identical(base, arg_type));

    // An attribute the printer does not render.
    Module extra_attr = parseModule(kBase);
    firstOp(extra_attr, "arith.addf")->setAttr("fastmath", "fast");
    EXPECT_FALSE(identical(base, extra_attr));

    // Floats compare by their bits: -0.0 is not 0.0, a NaN is itself.
    Module zero = parseModule(edited("0.5 : f64", "0.0 : f64"));
    Module negative_zero = parseModule(edited("0.5 : f64", "-0.0 : f64"));
    EXPECT_FALSE(identical(zero, negative_zero));
    Module nan = parseModule(kBase);
    Module other_nan = parseModule(kBase);
    firstOp(nan, "arith.constant")->setAttr("value", std::nan(""));
    firstOp(other_nan, "arith.constant")->setAttr("value", std::nan(""));
    EXPECT_TRUE(identical(nan, other_nan));
}

TEST(IdenticalTest, OperandsMatchByDefinitionNotByShape)
{
    // Both loads read m[0], one before and one after the first store;
    // storing the other one is a different program even though the two
    // loads look alike.
    const char *text = R"(
func.func @g(%m: memref<2xi32>) {
  %z = arith.constant 0 : index
  %one = arith.constant 1 : index
  %k = arith.constant 5 : i32
  %early = memref.load %m[%z] : memref<2xi32>
  memref.store %k, %m[%z] : memref<2xi32>
  %late = memref.load %m[%z] : memref<2xi32>
  memref.store %early, %m[%one] : memref<2xi32>
})";
    std::string other = text;
    other.replace(other.find("store %early"), 12, "store %late");
    Module a = parseModule(text);
    Module b = parseModule(other);
    EXPECT_FALSE(identical(a, b)) << toString(b);
}

// --- Differential: identical() against printed-text equality ----------

TEST(IdenticalDifferentialTest, AgreesWithPrintingOnKernelRecords)
{
    // Every proof record of the nine kernels, lowered as translation
    // validation lowers it.
    size_t pairs = 0, same = 0;
    for (const bench::Benchmark &benchmark : bench::allBenchmarks()) {
        Module input = bench::parseBenchmark(benchmark);
        core::SeerResult result = core::optimize(input, benchmark.func);
        for (const eg::RewriteRecord &record : result.stats.records) {
            auto lowered = core::lowerTerms(record.lhs, record.rhs);
            if (!lowered || !lowered->lhs || !lowered->rhs)
                continue;
            bool printed_same =
                toString(*lowered->lhs) == toString(*lowered->rhs);
            ASSERT_EQ(identical(*lowered->lhs, *lowered->rhs),
                      printed_same)
                << benchmark.name << " " << record.rule << "\n"
                << record.lhs->str() << "\n"
                << record.rhs->str();
            ++pairs;
            same += printed_same;
        }
    }
    EXPECT_GT(same, 0u);
    EXPECT_LT(same, pairs);
}

/** One seeded textual mutation of a program: an operand swap, a bumped
 *  number, or a changed op name or predicate on one random line. */
std::string
mutate(const std::string &text, Rng &rng)
{
    static const std::regex operands(R"((%\w+), (%\w+))");
    static const std::regex number(R"(\b\d+\b)");
    static const std::regex arith(R"(arith\.(addi|subi|muli|andi|ori))");
    static const std::regex predicate(R"(\b(slt|sle|sgt|sge|eq|ne)\b)");
    std::vector<std::string> lines;
    for (size_t at = 0; at < text.size();) {
        size_t end = text.find('\n', at);
        if (end == std::string::npos)
            end = text.size();
        lines.push_back(text.substr(at, end - at));
        at = end + 1;
    }
    std::string &line = lines[rng.nextBelow(lines.size())];
    std::smatch match;
    switch (rng.nextBelow(4)) {
    case 0:
        line = std::regex_replace(line, operands, "$2, $1",
                                  std::regex_constants::format_first_only);
        break;
    case 1:
        if (std::regex_search(line, match, number)) {
            line = match.prefix().str() +
                   std::to_string(std::stoll(match.str()) + 1) +
                   match.suffix().str();
        }
        break;
    case 2:
        line = std::regex_replace(line, arith, "arith.xori",
                                  std::regex_constants::format_first_only);
        break;
    default:
        line = std::regex_replace(line, predicate, "ule",
                                  std::regex_constants::format_first_only);
        break;
    }
    std::string out;
    for (const std::string &l : lines)
        out += l + "\n";
    return out;
}

TEST(IdenticalDifferentialTest, AgreesWithPrintingOnMutatedCorpusPrograms)
{
    corpus::GeneratorOptions options;
    options.allow_nested_loops = true;
    options.allow_min_max = true;
    size_t mutants = 0, differing = 0;
    for (uint64_t seed = 0; seed < 200; ++seed) {
        std::string text = corpus::generateProgram(seed, options);
        Module original = parseModule(text);
        EXPECT_TRUE(identical(original, parseModule(text))) << seed;
        Rng rng(seed);
        for (int i = 0; i < 4; ++i) {
            std::optional<Module> mutant;
            try {
                mutant = parseModule(mutate(text, rng));
            } catch (const FatalError &) {
                continue; // the edit broke the syntax or the typing
            }
            bool printed_same = toString(original) == toString(*mutant);
            EXPECT_EQ(identical(original, *mutant), printed_same)
                << "seed " << seed << "\n" << toString(*mutant);
            ++mutants;
            differing += !printed_same;
        }
    }
    EXPECT_GT(differing, 100u);
    EXPECT_LT(differing, mutants);
}

} // namespace
} // namespace seer::ir
