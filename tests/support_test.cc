/** Tests for the support library: symbols, errors, tables, RNG, JSON. */
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/error.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/symbol.h"
#include "support/table.h"

namespace seer {
namespace {

TEST(JsonTest, ScalarsRender)
{
    EXPECT_EQ(json::Value().dump(), "null");
    EXPECT_EQ(json::Value(true).dump(), "true");
    EXPECT_EQ(json::Value(42).dump(), "42");
    EXPECT_EQ(json::Value(int64_t{-7}).dump(), "-7");
    EXPECT_EQ(json::Value(1.5).dump(), "1.5");
    EXPECT_EQ(json::Value("hi").dump(), "\"hi\"");
}

TEST(JsonTest, StringsAreEscaped)
{
    EXPECT_EQ(json::Value("a\"b\\c\nd").dump(),
              "\"a\\\"b\\\\c\\nd\"");
    EXPECT_EQ(json::escape(std::string("\x01", 1)), "\\u0001");
}

TEST(JsonTest, ObjectsPreserveInsertionOrder)
{
    json::Value obj{json::Object{}};
    obj.set("z", 1);
    obj.set("a", 2);
    EXPECT_EQ(obj.dump(), "{\"z\": 1, \"a\": 2}");
}

TEST(JsonTest, NestedStructuresAndIndent)
{
    json::Value arr{json::Array{}};
    arr.push(1);
    arr.push("two");
    json::Value obj{json::Object{}};
    obj.set("items", std::move(arr));
    EXPECT_EQ(obj.dump(), "{\"items\": [1, \"two\"]}");
    EXPECT_EQ(obj.dump(2), "{\n  \"items\": [\n    1,\n    \"two\"\n  ]\n}");
}

TEST(JsonTest, EmptyContainersRenderCompact)
{
    EXPECT_EQ(json::Value(json::Array{}).dump(2), "[]");
    EXPECT_EQ(json::Value(json::Object{}).dump(2), "{}");
}

TEST(JsonTest, NonFiniteDoublesBecomeNull)
{
    EXPECT_EQ(json::Value(std::numeric_limits<double>::infinity()).dump(),
              "null");
}

TEST(SymbolTest, InterningGivesEqualIds)
{
    Symbol a("arith.addi");
    Symbol b("arith.addi");
    Symbol c("arith.muli");
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.id(), b.id());
    EXPECT_NE(a, c);
}

TEST(SymbolTest, RoundTripsText)
{
    Symbol s("memref.load");
    EXPECT_EQ(s.str(), "memref.load");
}

TEST(SymbolTest, EmptySymbolIsIdZero)
{
    Symbol empty;
    EXPECT_TRUE(empty.empty());
    EXPECT_EQ(empty.id(), 0u);
    EXPECT_EQ(Symbol("").id(), 0u);
}

TEST(SymbolTest, ConcurrentInterningIsConsistent)
{
    std::vector<std::thread> threads;
    std::vector<uint32_t> ids(8);
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([t, &ids] {
            for (int i = 0; i < 200; ++i) {
                Symbol s("shared." + std::to_string(i % 13));
                if (i % 13 == 5)
                    ids[t] = s.id();
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (int t = 1; t < 8; ++t)
        EXPECT_EQ(ids[0], ids[t]);
}

TEST(ErrorTest, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("boom"), FatalError);
    try {
        fatal(MsgBuilder() << "value=" << 42);
    } catch (const FatalError &err) {
        EXPECT_STREQ(err.what(), "value=42");
    }
}

TEST(TableTest, AlignsColumns)
{
    TextTable table("demo");
    table.setHeader({"name", "value"});
    table.addRow({"a", "1"});
    table.addRow({"longer_name", "2"});
    std::ostringstream os;
    table.print(os);
    std::string text = os.str();
    EXPECT_NE(text.find("demo"), std::string::npos);
    EXPECT_NE(text.find("longer_name"), std::string::npos);
    // Header and rows must align: "value" column starts at same offset.
    auto pos_header = text.find("value");
    auto pos_row = text.find("1");
    ASSERT_NE(pos_header, std::string::npos);
    ASSERT_NE(pos_row, std::string::npos);
}

TEST(TableTest, RejectsRowWidthMismatchInDebug)
{
    TextTable table("demo");
    table.setHeader({"a", "b"});
    EXPECT_DEATH(table.addRow({"only-one"}), "row width");
}

TEST(RngTest, DeterministicFromSeed)
{
    Rng a(7), b(7), c(8);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(RngTest, RangeRespected)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        int64_t v = rng.nextRange(-5, 9);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 9);
    }
}

TEST(RngTest, DoubleInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

} // namespace
} // namespace seer
