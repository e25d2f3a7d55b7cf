/** ROVER rule-set and cost-model tests, including the Figure 9 stories. */
#include <gtest/gtest.h>

#include "egraph/runner.h"
#include "ir/interp.h"
#include "ir/parser.h"
#include "seerlang/encoding.h"
#include "support/error.h"
#include "rover/rover.h"
#include "support/rng.h"

namespace seer::rover {
namespace {

using namespace eg;

EGraph
makeEGraph()
{
    return EGraph(roverAnalysisHooks());
}

RunnerReport
saturate(EGraph &egraph, RunnerOptions options = {})
{
    Runner runner(egraph, options);
    runner.addRules(roverRules());
    return runner.run();
}

TEST(RoverRulesTest, RuleCountMatchesPaperScale)
{
    // The paper quotes 106 datapath + gate-level rewrites; our
    // per-bitwidth instantiation is in the same regime.
    auto rules = roverRules();
    EXPECT_GE(rules.size(), 106u);
    EXPECT_LE(rules.size(), 400u);
}

TEST(RoverRulesTest, Figure9ShiftAddBecomesMulThree)
{
    // (i << 1) + i must reach 3 * i (affine recovery).
    EGraph egraph = makeEGraph();
    EClassId root = egraph.addTerm(parseTerm(
        "(arith.addi:index (arith.shli:index var:i const:1:index) "
        "var:i)"));
    saturate(egraph);
    auto target = egraph.lookupTerm(
        parseTerm("(arith.muli:index var:i const:3:index)"));
    ASSERT_TRUE(target.has_value());
    EXPECT_EQ(egraph.find(*target), egraph.find(root));
}

TEST(RoverRulesTest, Figure9ReverseDirection)
{
    // 3 * i must reach (i << 1) + i (hardware-efficient form).
    EGraph egraph = makeEGraph();
    EClassId root = egraph.addTerm(
        parseTerm("(arith.muli:i32 var:i const:3:i32)"));
    saturate(egraph);
    auto target = egraph.lookupTerm(parseTerm(
        "(arith.addi:i32 (arith.shli:i32 var:i const:1:i32) var:i)"));
    ASSERT_TRUE(target.has_value());
    EXPECT_EQ(egraph.find(*target), egraph.find(root));
}

TEST(RoverRulesTest, ConstantFoldingThroughAnalysis)
{
    EGraph egraph = makeEGraph();
    EClassId root = egraph.addTerm(parseTerm(
        "(arith.addi:i32 const:20:i32 const:22:i32)"));
    egraph.rebuild();
    EXPECT_EQ(egraph.constantOf(root), 42);
}

TEST(RoverRulesTest, FoldingWrapsToWidth)
{
    EGraph egraph = makeEGraph();
    EClassId root = egraph.addTerm(parseTerm(
        "(arith.addi:i8 const:127:i8 const:1:i8)"));
    egraph.rebuild();
    EXPECT_EQ(egraph.constantOf(root), -128);
}

TEST(RoverRulesTest, MulByPowerOfTwoMeetsShift)
{
    EGraph egraph = makeEGraph();
    EClassId mul = egraph.addTerm(
        parseTerm("(arith.muli:i32 var:x const:8:i32)"));
    saturate(egraph);
    auto shift = egraph.lookupTerm(
        parseTerm("(arith.shli:i32 var:x const:3:i32)"));
    ASSERT_TRUE(shift.has_value());
    EXPECT_EQ(egraph.find(*shift), egraph.find(mul));
}

TEST(RoverRulesTest, XorSelfIsZero)
{
    EGraph egraph = makeEGraph();
    EClassId root = egraph.addTerm(
        parseTerm("(arith.xori:i32 var:a var:a)"));
    saturate(egraph);
    EXPECT_EQ(egraph.constantOf(root), 0);
}

TEST(RoverRulesTest, MuxSharing)
{
    // c ? (b + d) : (e + d) reaches (c ? b : e) + d.
    EGraph egraph = makeEGraph();
    EClassId root = egraph.addTerm(parseTerm(
        "(arith.select:i32 var:c (arith.addi:i32 var:b var:d) "
        "(arith.addi:i32 var:e var:d))"));
    saturate(egraph);
    auto target = egraph.lookupTerm(parseTerm(
        "(arith.addi:i32 (arith.select:i32 var:c var:b var:e) var:d)"));
    ASSERT_TRUE(target.has_value());
    EXPECT_EQ(egraph.find(*target), egraph.find(root));
}

TEST(RoverRulesTest, GateLevelDeMorgan)
{
    EGraph egraph = makeEGraph();
    EClassId root = egraph.addTerm(parseTerm(
        "(arith.andi:i1 (arith.xori:i1 var:a const:1:i1) "
        "(arith.xori:i1 var:b const:1:i1))"));
    saturate(egraph);
    auto target = egraph.lookupTerm(parseTerm(
        "(arith.xori:i1 (arith.ori:i1 var:a var:b) const:1:i1)"));
    ASSERT_TRUE(target.has_value());
    EXPECT_EQ(egraph.find(*target), egraph.find(root));
}

TEST(RoverRulesTest, RulesAreSoundOnRandomInputs)
{
    // Property test: for each syntactic rule over i32/i8, evaluate both
    // sides on random assignments and compare (width-wrapped).
    auto rules = roverRules();
    Rng rng(2024);

    // Tiny term evaluator over the SeerLang symbol encoding.
    std::function<std::optional<int64_t>(
        const PatternPtr &, const std::map<std::string, int64_t> &,
        unsigned &)>
        eval = [&](const PatternPtr &p,
                   const std::map<std::string, int64_t> &env,
                   unsigned &width) -> std::optional<int64_t> {
        if (p->isVar()) {
            auto it = env.find(p->var().str());
            if (it == env.end())
                return std::nullopt;
            return it->second;
        }
        std::string_view name = sl::opNameOf(p->op());
        if (auto c = sl::decodeIntConst(p->op())) {
            width = std::max(width, c->second.bitwidth());
            return c->first;
        }
        auto fields = eg::splitSymbol(p->op()).subspan(1);
        std::vector<int64_t> args;
        for (const auto &child : p->children()) {
            auto v = eval(child, env, width);
            if (!v)
                return std::nullopt;
            args.push_back(*v);
        }
        unsigned w = 64;
        if (!fields.empty()) {
            try {
                ir::Type t = ir::parseType(fields.back());
                if (t.isScalar())
                    w = t.bitwidth();
            } catch (const FatalError &) {
                return std::nullopt;
            }
        }
        width = std::max(width, w);
        int64_t r;
        if (name == "arith.addi" && args.size() == 2) {
            r = args[0] + args[1];
        } else if (name == "arith.subi" && args.size() == 2) {
            r = args[0] - args[1];
        } else if (name == "arith.muli" && args.size() == 2) {
            r = args[0] * args[1];
        } else if (name == "arith.andi" && args.size() == 2) {
            r = args[0] & args[1];
        } else if (name == "arith.ori" && args.size() == 2) {
            r = args[0] | args[1];
        } else if (name == "arith.xori" && args.size() == 2) {
            r = args[0] ^ args[1];
        } else if (name == "arith.shli" && args.size() == 2) {
            if (args[1] < 0 || args[1] >= 64)
                return std::nullopt;
            r = static_cast<int64_t>(static_cast<uint64_t>(args[0])
                                     << args[1]);
        } else if (name == "arith.select" && args.size() == 3) {
            r = args[0] ? args[1] : args[2];
        } else {
            return std::nullopt;
        }
        return ir::wrapToWidth(r, w);
    };

    size_t checked = 0;
    for (const Rewrite &rule : rules) {
        if (!rule.rhs)
            continue;
        auto vars = rule.lhs->variables();
        bool all_ok = true;
        for (int trial = 0; trial < 24 && all_ok; ++trial) {
            std::map<std::string, int64_t> env;
            for (Symbol var : vars)
                env[var.str()] = rng.nextRange(-5, 5);
            unsigned wl = 1, wr = 1;
            auto lhs = eval(rule.lhs, env, wl);
            auto rhs = eval(rule.rhs, env, wr);
            if (!lhs || !rhs)
                break; // rule uses ops outside the evaluator
            unsigned w = std::min(wl, wr);
            EXPECT_EQ(ir::wrapToWidth(*lhs, w), ir::wrapToWidth(*rhs, w))
                << "unsound rule " << rule.name << " with env seed "
                << trial;
            if (ir::wrapToWidth(*lhs, w) != ir::wrapToWidth(*rhs, w))
                all_ok = false;
            ++checked;
        }
    }
    EXPECT_GT(checked, 1000u); // the evaluator must cover most rules
}

TEST(RoverCostTest, ShiftAddCheaperThanMul)
{
    EGraph egraph = makeEGraph();
    EClassId root = egraph.addTerm(
        parseTerm("(arith.muli:i32 var:i const:3:i32)"));
    saturate(egraph);
    RoverAreaCost cost(&egraph);
    auto extraction = extractGreedy(egraph, root, cost);
    ASSERT_TRUE(extraction.has_value());
    // The winner must be the shift-add form (shift free, add 5.5*32).
    EXPECT_NE(extraction->term->str().find("arith.shli"),
              std::string::npos);
    EXPECT_LT(extraction->tree_cost, 1.9 * 32 * 32);
}

TEST(RoverCostTest, AnalysisFriendlyPrefersMulForm)
{
    EGraph egraph = makeEGraph();
    EClassId root = egraph.addTerm(parseTerm(
        "(arith.addi:index (arith.shli:index var:i const:1:index) "
        "var:i)"));
    saturate(egraph);
    AnalysisFriendlyCost cost;
    auto extraction = extractGreedy(egraph, root, cost);
    ASSERT_TRUE(extraction.has_value());
    EXPECT_EQ(extraction->term->str(),
              "(arith.muli:index var:i const:3:index)");
}

TEST(RoverCostTest, VariableShiftCostsBarrel)
{
    EGraph egraph = makeEGraph();
    EClassId var_shift = egraph.addTerm(
        parseTerm("(arith.shli:i32 var:a var:b)"));
    EClassId const_shift = egraph.addTerm(
        parseTerm("(arith.shli:i32 var:a const:3:i32)"));
    egraph.rebuild();
    RoverAreaCost cost(&egraph);
    const auto &vs_node = egraph.eclass(var_shift).nodes[0];
    const auto &cs_node = egraph.eclass(const_shift).nodes[0];
    EXPECT_GT(cost.nodeCost(vs_node), 100.0);
    EXPECT_EQ(cost.nodeCost(cs_node), 0.0);
}

TEST(RoverCostTest, TypeWidthsAgreeWithTheTypeParser)
{
    // The area model reads widths off type fields without building a
    // Type; ir::parseType is the reference it must agree with, 0 for
    // every spelling that does not parse to a scalar.
    RoverAreaCost cost;
    for (const char *type :
         {"i1", "i8", "i32", "i64", "i032", "index", "f64", "i0", "i65",
          "i", "i3x", "f32", "none", "t7", "", "memref<4xi32>",
          "i99999999999999999999"}) {
        unsigned want = 0;
        try {
            ir::Type parsed = ir::parseType(type);
            if (parsed.isScalar())
                want = parsed.bitwidth();
        } catch (const FatalError &) {
        }
        eg::ENode add{Symbol(std::string("arith.addi:") + type), {0, 1}};
        EXPECT_EQ(cost.nodeCost(add), 5.5 * want) << type;
    }
}

TEST(RoverCostTest, FloatUnitsDominate)
{
    RoverAreaCost cost;
    eg::ENode addf{Symbol("arith.addf:f64"), {0, 1}};
    eg::ENode addi{Symbol("arith.addi:i32"), {0, 1}};
    EXPECT_GT(cost.nodeCost(addf), 10 * cost.nodeCost(addi));
}

} // namespace
} // namespace seer::rover
