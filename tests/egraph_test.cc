/** Core e-graph tests: hashconsing, union, rebuild/congruence, analysis. */
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

TEST(TermTest, ParsePrintRoundTrip)
{
    const char *text = "(add (mul var:a const:2) var:b)";
    TermPtr term = parseTerm(text);
    EXPECT_EQ(term->str(), text);
    EXPECT_EQ(term->op().str(), "add");
    EXPECT_EQ(term->arity(), 2u);
    EXPECT_EQ(term->size(), 5u);
}

TEST(TermTest, LeafParses)
{
    TermPtr leaf = parseTerm("var:x");
    EXPECT_TRUE(leaf->isLeaf());
    EXPECT_EQ(leaf->str(), "var:x");
}

TEST(TermTest, EqualsIsStructural)
{
    EXPECT_TRUE(parseTerm("(f a b)")->equals(*parseTerm("(f a b)")));
    EXPECT_FALSE(parseTerm("(f a b)")->equals(*parseTerm("(f b a)")));
    EXPECT_FALSE(parseTerm("(f a)")->equals(*parseTerm("(f a a)")));
}

TEST(TermTest, SymbolFieldHelpers)
{
    auto fields = splitSymbol(Symbol("const:42:i32"));
    ASSERT_EQ(fields.size(), 3u);
    EXPECT_EQ(fields[0], "const");
    EXPECT_EQ(fields[1], "42");
    EXPECT_EQ(fields[2], "i32");
    EXPECT_EQ(joinSymbol({"a", "b"}).str(), "a:b");
}

TEST(EGraphTest, HashconsingDeduplicates)
{
    EGraph eg;
    EClassId a = eg.add(node("a"));
    EClassId b = eg.add(node("b"));
    EClassId f1 = eg.add(node("f", {a, b}));
    EClassId f2 = eg.add(node("f", {a, b}));
    EXPECT_EQ(f1, f2);
    EXPECT_EQ(eg.numClasses(), 3u);
    EXPECT_EQ(eg.numNodes(), 3u);
}

TEST(EGraphTest, AddTermSharesSubterms)
{
    EGraph eg;
    // (mul (add x y) (add x y)) shares the add.
    eg.addTerm(parseTerm("(mul (add x y) (add x y))"));
    EXPECT_EQ(eg.numClasses(), 4u); // x, y, add, mul
}

TEST(EGraphTest, MergeUnionsClasses)
{
    EGraph eg;
    EClassId a = eg.add(node("a"));
    EClassId b = eg.add(node("b"));
    EXPECT_TRUE(eg.merge(a, b));
    EXPECT_FALSE(eg.merge(a, b));
    EXPECT_EQ(eg.find(a), eg.find(b));
    EXPECT_EQ(eg.eclass(a).nodes.size(), 2u);
}

TEST(EGraphTest, CongruenceClosure)
{
    EGraph eg;
    EClassId a = eg.add(node("a"));
    EClassId b = eg.add(node("b"));
    EClassId fa = eg.add(node("f", {a}));
    EClassId fb = eg.add(node("f", {b}));
    EXPECT_NE(eg.find(fa), eg.find(fb));
    eg.merge(a, b);
    eg.rebuild();
    EXPECT_EQ(eg.find(fa), eg.find(fb)); // f(a) == f(b) by congruence
}

TEST(EGraphTest, CongruencePropagatesUpward)
{
    EGraph eg;
    EClassId a = eg.add(node("a"));
    EClassId b = eg.add(node("b"));
    EClassId fa = eg.add(node("f", {a}));
    EClassId fb = eg.add(node("f", {b}));
    EClassId gfa = eg.add(node("g", {fa}));
    EClassId gfb = eg.add(node("g", {fb}));
    eg.merge(a, b);
    eg.rebuild();
    EXPECT_EQ(eg.find(gfa), eg.find(gfb));
}

TEST(EGraphTest, LookupAfterMerge)
{
    EGraph eg;
    EClassId a = eg.add(node("a"));
    EClassId b = eg.add(node("b"));
    eg.add(node("f", {a}));
    eg.merge(a, b);
    eg.rebuild();
    auto found = eg.lookup(node("f", {b}));
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, *eg.lookup(node("f", {a})));
}

TEST(EGraphTest, LookupTermMissing)
{
    EGraph eg;
    eg.addTerm(parseTerm("(f a)"));
    EXPECT_TRUE(eg.lookupTerm(parseTerm("(f a)")).has_value());
    EXPECT_FALSE(eg.lookupTerm(parseTerm("(f b)")).has_value());
    EXPECT_FALSE(eg.lookupTerm(parseTerm("(g a)")).has_value());
}

AnalysisHooks
arithmeticHooks()
{
    AnalysisHooks hooks;
    hooks.parse_const = [](Symbol op) -> std::optional<int64_t> {
        auto fields = splitSymbol(op);
        if (fields.size() == 2 && fields[0] == "const")
            return std::stoll(std::string(fields[1]));
        return std::nullopt;
    };
    hooks.fold = [](Symbol op, const std::vector<int64_t> &args)
        -> std::optional<Symbol> {
        if (op.str() == "add" && args.size() == 2)
            return Symbol("const:" + std::to_string(args[0] + args[1]));
        if (op.str() == "mul" && args.size() == 2)
            return Symbol("const:" + std::to_string(args[0] * args[1]));
        return std::nullopt;
    };
    return hooks;
}

TEST(EGraphAnalysisTest, ConstantLeavesParsed)
{
    EGraph eg(arithmeticHooks());
    EClassId c = eg.addTerm(parseTerm("const:42"));
    EXPECT_EQ(eg.constantOf(c), 42);
}

TEST(EGraphAnalysisTest, ConstantFoldingAddsLiteral)
{
    EGraph eg(arithmeticHooks());
    EClassId sum = eg.addTerm(parseTerm("(add const:20 const:22)"));
    eg.rebuild();
    EXPECT_EQ(eg.constantOf(sum), 42);
    // The folded literal node must be present in the class.
    EXPECT_EQ(eg.find(*eg.lookupTerm(parseTerm("const:42"))),
              eg.find(sum));
}

TEST(EGraphAnalysisTest, FoldingPropagatesThroughUnions)
{
    EGraph eg(arithmeticHooks());
    EClassId x = eg.addTerm(parseTerm("var:x"));
    EClassId expr = eg.addTerm(parseTerm("(mul var:x const:3)"));
    EXPECT_FALSE(eg.constantOf(expr).has_value());
    // Learn x == 5.
    EClassId five = eg.addTerm(parseTerm("const:5"));
    eg.merge(x, five);
    eg.rebuild();
    EXPECT_EQ(eg.constantOf(expr), 15);
}

TEST(EGraphAnalysisTest, MergePrefersDefinedConstant)
{
    EGraph eg(arithmeticHooks());
    EClassId v = eg.addTerm(parseTerm("var:v"));
    EClassId c = eg.addTerm(parseTerm("const:7"));
    eg.merge(v, c);
    eg.rebuild();
    EXPECT_EQ(eg.constantOf(v), 7);
}

TEST(EGraphTest, ClassIdsAreCanonical)
{
    EGraph eg;
    EClassId a = eg.add(node("a"));
    EClassId b = eg.add(node("b"));
    eg.add(node("f", {a, b}));
    eg.merge(a, b);
    eg.rebuild();
    for (EClassId id : eg.classIds())
        EXPECT_EQ(eg.find(id), id);
    EXPECT_EQ(eg.numClasses(), 2u);
}

TEST(EGraphTest, SelfReferentialClassSurvivesRebuild)
{
    // x = f(x) is representable (cycles are fine in e-graphs).
    EGraph eg;
    EClassId x = eg.add(node("x"));
    EClassId fx = eg.add(node("f", {x}));
    eg.merge(x, fx);
    eg.rebuild();
    EXPECT_EQ(eg.find(x), eg.find(fx));
    EXPECT_EQ(eg.numClasses(), 1u);
}

} // namespace
} // namespace seer::eg
