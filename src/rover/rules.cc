/**
 * @file
 * The ROVER rule set, instantiated per integer type.
 */
#include "rover/rover.h"

#include "egraph/extract.h"
#include "ir/interp.h"
#include "ir/parser.h"
#include "seerlang/encoding.h"
#include "support/error.h"

namespace seer::rover {

using eg::makeRewrite;
using eg::Rewrite;

namespace {

/** Shorthand: "arith.addi:i32" etc. */
std::string
op(const std::string &name, const std::string &type)
{
    return "arith." + name + ":" + type;
}

std::string
cst(int64_t value, const std::string &type)
{
    return "const:" + std::to_string(value) + ":" + type;
}

void
addBalancing(std::vector<Rewrite> &rules, const std::string &t)
{
    for (const char *o : {"addi", "muli", "andi", "ori", "xori"}) {
        rules.push_back(makeRewrite(
            std::string("comm-") + o + "-" + t,
            "(" + op(o, t) + " ?a ?b)", "(" + op(o, t) + " ?b ?a)"));
        rules.push_back(makeRewrite(
            std::string("assoc-") + o + "-" + t,
            "(" + op(o, t) + " (" + op(o, t) + " ?a ?b) ?c)",
            "(" + op(o, t) + " ?a (" + op(o, t) + " ?b ?c))"));
    }
}

void
addStrengthReduction(std::vector<Rewrite> &rules, const std::string &t)
{
    // mul by 2^k <-> shift (both directions: the reverse direction is
    // the Figure 9 affine-recovery rule).
    for (int64_t k = 1; k <= 4; ++k) {
        int64_t pow2 = int64_t{1} << k;
        rules.push_back(makeRewrite(
            "mul-pow2-shl-" + std::to_string(pow2) + "-" + t,
            "(" + op("muli", t) + " ?a " + cst(pow2, t) + ")",
            "(" + op("shli", t) + " ?a " + cst(k, t) + ")"));
        rules.push_back(makeRewrite(
            "shl-mul-pow2-" + std::to_string(k) + "-" + t,
            "(" + op("shli", t) + " ?a " + cst(k, t) + ")",
            "(" + op("muli", t) + " ?a " + cst(pow2, t) + ")"));
    }
    // mul by (2^k + 1) <-> shift-add; mul by (2^k - 1) <-> shift-sub.
    for (int64_t k = 1; k <= 3; ++k) {
        int64_t pow2 = int64_t{1} << k;
        rules.push_back(makeRewrite(
            "mul-" + std::to_string(pow2 + 1) + "-shladd-" + t,
            "(" + op("muli", t) + " ?a " + cst(pow2 + 1, t) + ")",
            "(" + op("addi", t) + " (" + op("shli", t) + " ?a " +
                cst(k, t) + ") ?a)"));
        rules.push_back(makeRewrite(
            "shladd-mul-" + std::to_string(pow2 + 1) + "-" + t,
            "(" + op("addi", t) + " (" + op("shli", t) + " ?a " +
                cst(k, t) + ") ?a)",
            "(" + op("muli", t) + " ?a " + cst(pow2 + 1, t) + ")"));
        rules.push_back(makeRewrite(
            "mul-" + std::to_string(pow2 - 1) + "-shlsub-" + t,
            "(" + op("muli", t) + " ?a " + cst(pow2 - 1, t) + ")",
            "(" + op("subi", t) + " (" + op("shli", t) + " ?a " +
                cst(k, t) + ") ?a)"));
        rules.push_back(makeRewrite(
            "shlsub-mul-" + std::to_string(pow2 - 1) + "-" + t,
            "(" + op("subi", t) + " (" + op("shli", t) + " ?a " +
                cst(k, t) + ") ?a)",
            "(" + op("muli", t) + " ?a " + cst(pow2 - 1, t) + ")"));
    }
    // Shift composition (Table 2: a << b << c = a << (b + c)), small ks.
    for (int64_t k1 = 1; k1 <= 2; ++k1) {
        for (int64_t k2 = 1; k2 <= 2; ++k2) {
            rules.push_back(makeRewrite(
                "shl-shl-" + std::to_string(k1) + "-" +
                    std::to_string(k2) + "-" + t,
                "(" + op("shli", t) + " (" + op("shli", t) + " ?a " +
                    cst(k1, t) + ") " + cst(k2, t) + ")",
                "(" + op("shli", t) + " ?a " + cst(k1 + k2, t) + ")"));
        }
    }
    // General constant-multiplier decomposition (dynamic: needs the
    // analysis to see the constant): c even -> (a * c/2) << 1,
    // c odd -> ((a * (c-1)/2) << 1) + a. Iterating this yields a
    // shift-add network for any constant (CSD-style strength reduction).
    {
        std::string mul = op("muli", t);
        std::string shl = op("shli", t);
        std::string add = op("addi", t);
        std::string type = t;
        rules.push_back(eg::makeDynRewrite(
            "mul-const-decompose-" + t, "(" + mul + " ?a ?b)",
            [mul, shl, add, type](
                eg::EGraph &egraph,
                const eg::Match &match) -> std::optional<eg::TermPtr> {
                auto c = egraph.constantOf(match.subst.at(Symbol("b")));
                if (!c || *c <= 2 || *c > 4096)
                    return std::nullopt;
                eg::TermPtr a = eg::extractSmallest(
                    egraph, match.subst.at(Symbol("a")));
                auto lit = [&](int64_t v) {
                    return eg::makeTerm(Symbol(cst(v, type)));
                };
                eg::TermPtr shifted = eg::makeTerm(
                    Symbol(shl),
                    {eg::makeTerm(Symbol(mul), {a, lit(*c / 2)}),
                     lit(1)});
                if (*c % 2 == 0)
                    return shifted;
                return eg::makeTerm(Symbol(add), {shifted, a});
            }));
    }
    // (a * b) << c  <->  (a << c) * b (Table 2 control of shifts).
    rules.push_back(makeRewrite(
        "shl-of-mul-" + t,
        "(" + op("shli", t) + " (" + op("muli", t) + " ?a ?b) ?c)",
        "(" + op("muli", t) + " (" + op("shli", t) + " ?a ?c) ?b)"));
    rules.push_back(makeRewrite(
        "mul-of-shl-" + t,
        "(" + op("muli", t) + " (" + op("shli", t) + " ?a ?c) ?b)",
        "(" + op("shli", t) + " (" + op("muli", t) + " ?a ?b) ?c)"));
}

void
addConstantIdentities(std::vector<Rewrite> &rules, const std::string &t)
{
    rules.push_back(makeRewrite("add-zero-" + t,
                                "(" + op("addi", t) + " ?a " +
                                    cst(0, t) + ")",
                                "?a"));
    rules.push_back(makeRewrite("sub-zero-" + t,
                                "(" + op("subi", t) + " ?a " +
                                    cst(0, t) + ")",
                                "?a"));
    rules.push_back(makeRewrite("sub-self-" + t,
                                "(" + op("subi", t) + " ?a ?a)",
                                cst(0, t)));
    rules.push_back(makeRewrite("mul-one-" + t,
                                "(" + op("muli", t) + " ?a " +
                                    cst(1, t) + ")",
                                "?a"));
    rules.push_back(makeRewrite("mul-zero-" + t,
                                "(" + op("muli", t) + " ?a " +
                                    cst(0, t) + ")",
                                cst(0, t)));
    rules.push_back(makeRewrite("and-zero-" + t,
                                "(" + op("andi", t) + " ?a " +
                                    cst(0, t) + ")",
                                cst(0, t)));
    rules.push_back(makeRewrite("or-zero-" + t,
                                "(" + op("ori", t) + " ?a " +
                                    cst(0, t) + ")",
                                "?a"));
    rules.push_back(makeRewrite("and-self-" + t,
                                "(" + op("andi", t) + " ?a ?a)", "?a"));
    rules.push_back(makeRewrite("or-self-" + t,
                                "(" + op("ori", t) + " ?a ?a)", "?a"));
    rules.push_back(makeRewrite("xor-self-" + t,
                                "(" + op("xori", t) + " ?a ?a)",
                                cst(0, t)));
    rules.push_back(makeRewrite("xor-zero-" + t,
                                "(" + op("xori", t) + " ?a " +
                                    cst(0, t) + ")",
                                "?a"));
    rules.push_back(makeRewrite("shl-zero-" + t,
                                "(" + op("shli", t) + " ?a " +
                                    cst(0, t) + ")",
                                "?a"));
    // Two's complement negation (Table 2: -a = ~a + 1).
    rules.push_back(makeRewrite(
        "neg-twos-complement-" + t,
        "(" + op("subi", t) + " " + cst(0, t) + " ?a)",
        "(" + op("addi", t) + " (" + op("xori", t) + " ?a " +
            cst(-1, t) + ") " + cst(1, t) + ")"));
}

void
addDistribution(std::vector<Rewrite> &rules, const std::string &t)
{
    rules.push_back(makeRewrite(
        "distribute-mul-add-" + t,
        "(" + op("muli", t) + " (" + op("addi", t) + " ?a ?b) ?c)",
        "(" + op("addi", t) + " (" + op("muli", t) + " ?a ?c) (" +
            op("muli", t) + " ?b ?c))"));
    rules.push_back(makeRewrite(
        "factor-mul-add-" + t,
        "(" + op("addi", t) + " (" + op("muli", t) + " ?a ?c) (" +
            op("muli", t) + " ?b ?c))",
        "(" + op("muli", t) + " (" + op("addi", t) + " ?a ?b) ?c)"));
    // Table 2: (a & b) | (a & c) = a & (b | c).
    rules.push_back(makeRewrite(
        "factor-and-or-" + t,
        "(" + op("ori", t) + " (" + op("andi", t) + " ?a ?b) (" +
            op("andi", t) + " ?a ?c))",
        "(" + op("andi", t) + " ?a (" + op("ori", t) + " ?b ?c))"));
    rules.push_back(makeRewrite(
        "distribute-and-or-" + t,
        "(" + op("andi", t) + " ?a (" + op("ori", t) + " ?b ?c))",
        "(" + op("ori", t) + " (" + op("andi", t) + " ?a ?b) (" +
            op("andi", t) + " ?a ?c))"));
    // Shift distributes over add: (a + b) << c = (a << c) + (b << c).
    rules.push_back(makeRewrite(
        "shl-over-add-" + t,
        "(" + op("shli", t) + " (" + op("addi", t) + " ?a ?b) ?c)",
        "(" + op("addi", t) + " (" + op("shli", t) + " ?a ?c) (" +
            op("shli", t) + " ?b ?c))"));
    rules.push_back(makeRewrite(
        "shl-factor-add-" + t,
        "(" + op("addi", t) + " (" + op("shli", t) + " ?a ?c) (" +
            op("shli", t) + " ?b ?c))",
        "(" + op("shli", t) + " (" + op("addi", t) + " ?a ?b) ?c)"));
}

void
addMuxReduction(std::vector<Rewrite> &rules, const std::string &t)
{
    std::string sel = "arith.select:" + t;
    rules.push_back(makeRewrite("select-same-" + t,
                                "(" + sel + " ?c ?a ?a)", "?a"));
    rules.push_back(makeRewrite("select-true-" + t,
                                "(" + sel + " " + cst(1, "i1") +
                                    " ?a ?b)",
                                "?a"));
    rules.push_back(makeRewrite("select-false-" + t,
                                "(" + sel + " " + cst(0, "i1") +
                                    " ?a ?b)",
                                "?b"));
    // Table 2: c ? (b + d) : (e + d)  =  (c ? b : e) + d — share the
    // adder through the mux.
    rules.push_back(makeRewrite(
        "mux-share-add-" + t,
        "(" + sel + " ?c (" + op("addi", t) + " ?b ?d) (" +
            op("addi", t) + " ?e ?d))",
        "(" + op("addi", t) + " (" + sel + " ?c ?b ?e) ?d)"));
    rules.push_back(makeRewrite(
        "mux-share-mul-" + t,
        "(" + sel + " ?c (" + op("muli", t) + " ?b ?d) (" +
            op("muli", t) + " ?e ?d))",
        "(" + op("muli", t) + " (" + sel + " ?c ?b ?e) ?d)"));
    // The paper's "Mux Reduction" (case-study optimization 5): an
    // if-converted read-modify-write duplicates the old value in both
    // mux arms; pushing the mux into the update operand makes the
    // accumulation chain linear and lets the bit be "directly fetched
    // from the if condition".
    //   c ? (e op m) : e   ->   e op (c ? m : id_op)
    for (auto [o, identity] : {std::pair{"ori", int64_t{0}},
                               std::pair{"addi", int64_t{0}},
                               std::pair{"xori", int64_t{0}},
                               std::pair{"andi", int64_t{-1}}}) {
        rules.push_back(makeRewrite(
            std::string("mux-push-") + o + "-" + t,
            "(" + sel + " ?c (" + op(o, t) + " ?e ?m) ?e)",
            "(" + op(o, t) + " ?e (" + sel + " ?c ?m " +
                cst(identity, t) + "))"));
        rules.push_back(makeRewrite(
            std::string("mux-push-comm-") + o + "-" + t,
            "(" + sel + " ?c (" + op(o, t) + " ?m ?e) ?e)",
            "(" + op(o, t) + " ?e (" + sel + " ?c ?m " +
                cst(identity, t) + "))"));
    }
}

void
addGateLevel(std::vector<Rewrite> &rules)
{
    const std::string b = "i1";
    // De Morgan (~ encoded as xor with 1 on i1).
    rules.push_back(makeRewrite(
        "demorgan-and",
        "(" + op("andi", b) + " (" + op("xori", b) + " ?a " +
            cst(1, b) + ") (" + op("xori", b) + " ?b " + cst(1, b) +
            "))",
        "(" + op("xori", b) + " (" + op("ori", b) + " ?a ?b) " +
            cst(1, b) + ")"));
    rules.push_back(makeRewrite(
        "demorgan-or",
        "(" + op("ori", b) + " (" + op("xori", b) + " ?a " + cst(1, b) +
            ") (" + op("xori", b) + " ?b " + cst(1, b) + "))",
        "(" + op("xori", b) + " (" + op("andi", b) + " ?a ?b) " +
            cst(1, b) + ")"));
    // xor cancellation and absorption.
    rules.push_back(makeRewrite("xor-cancel",
                                "(" + op("xori", b) + " (" +
                                    op("xori", b) + " ?a ?b) ?b)",
                                "?a"));
    rules.push_back(makeRewrite("absorb-and-or",
                                "(" + op("andi", b) + " ?a (" +
                                    op("ori", b) + " ?a ?b))",
                                "?a"));
    rules.push_back(makeRewrite("absorb-or-and",
                                "(" + op("ori", b) + " ?a (" +
                                    op("andi", b) + " ?a ?b))",
                                "?a"));
    // Table 2: ~a & a = 0.
    rules.push_back(makeRewrite(
        "contradiction",
        "(" + op("andi", b) + " (" + op("xori", b) + " ?a " +
            cst(1, b) + ") ?a)",
        cst(0, b)));
    rules.push_back(makeRewrite(
        "excluded-middle",
        "(" + op("ori", b) + " (" + op("xori", b) + " ?a " + cst(1, b) +
            ") ?a)",
        cst(1, b)));
}

} // namespace

std::vector<Rewrite>
roverRules(const RuleOptions &options)
{
    std::vector<Rewrite> rules;
    for (const std::string &t : options.int_types) {
        if (options.balancing)
            addBalancing(rules, t);
        if (options.strength_reduction)
            addStrengthReduction(rules, t);
        if (options.constant_identities)
            addConstantIdentities(rules, t);
        if (options.distribution)
            addDistribution(rules, t);
        if (options.mux_reduction)
            addMuxReduction(rules, t);
    }
    if (options.gate_level)
        addGateLevel(rules);
    return rules;
}

eg::AnalysisHooks
roverAnalysisHooks()
{
    eg::AnalysisHooks hooks;
    hooks.parse_const = [](Symbol symbol) -> std::optional<int64_t> {
        auto decoded = sl::decodeIntConst(symbol);
        if (!decoded)
            return std::nullopt;
        return decoded->first;
    };
    hooks.fold = [](Symbol symbol, const std::vector<int64_t> &args)
        -> std::optional<Symbol> {
        std::string_view name = sl::opNameOf(symbol);
        auto fields = eg::splitSymbol(symbol).subspan(1);
        if (fields.size() != 1 || args.size() != 2)
            return std::nullopt;
        ir::Type type;
        try {
            type = ir::parseType(fields[0]);
        } catch (const FatalError &) {
            return std::nullopt;
        }
        if (!type.isInteger() && !type.isIndex())
            return std::nullopt;
        unsigned w = type.bitwidth();
        int64_t lhs = args[0], rhs = args[1], result = 0;
        if (name == "arith.addi") {
            result = static_cast<int64_t>(static_cast<uint64_t>(lhs) +
                                          static_cast<uint64_t>(rhs));
        } else if (name == "arith.subi") {
            result = static_cast<int64_t>(static_cast<uint64_t>(lhs) -
                                          static_cast<uint64_t>(rhs));
        } else if (name == "arith.muli") {
            result = static_cast<int64_t>(static_cast<uint64_t>(lhs) *
                                          static_cast<uint64_t>(rhs));
        } else if (name == "arith.andi") {
            result = lhs & rhs;
        } else if (name == "arith.ori") {
            result = lhs | rhs;
        } else if (name == "arith.xori") {
            result = lhs ^ rhs;
        } else if (name == "arith.shli") {
            if (rhs < 0 || rhs >= 64)
                return std::nullopt;
            result = static_cast<int64_t>(static_cast<uint64_t>(lhs)
                                          << rhs);
        } else {
            return std::nullopt;
        }
        return sl::encodeIntConst(ir::wrapToWidth(result, w), type);
    };
    return hooks;
}

} // namespace seer::rover
