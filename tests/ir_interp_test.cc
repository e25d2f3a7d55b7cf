/** Interpreter tests: functional semantics, traps, and profiling. */
#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/interp.h"
#include "ir/parser.h"
#include "support/error.h"
#include "support/fault_inject.h"

namespace seer::ir {
namespace {

int64_t
runScalar(const std::string &text, std::vector<RtValue> args = {},
          const std::string &func = "f")
{
    Module m = parseModule(text);
    InterpResult r = interpret(m, func, std::move(args));
    EXPECT_EQ(r.results.size(), 1u);
    return std::get<int64_t>(r.results[0]);
}

TEST(InterpTest, ConstantsAndArith)
{
    EXPECT_EQ(runScalar(R"(
func.func @f() -> i32 {
  %a = arith.constant 20 : i32
  %b = arith.constant 22 : i32
  %c = arith.addi %a, %b : i32
  func.return %c : i32
})"),
              42);
}

TEST(InterpTest, WidthWrapping)
{
    // i8: 127 + 1 wraps to -128.
    EXPECT_EQ(runScalar(R"(
func.func @f() -> i8 {
  %a = arith.constant 127 : i8
  %b = arith.constant 1 : i8
  %c = arith.addi %a, %b : i8
  func.return %c : i8
})"),
              -128);
}

TEST(InterpTest, ShiftAndMaskOps)
{
    EXPECT_EQ(runScalar(R"(
func.func @f() -> i32 {
  %a = arith.constant 3 : i32
  %one = arith.constant 1 : i32
  %sh = arith.shli %a, %one : i32
  %r = arith.addi %sh, %a : i32
  func.return %r : i32
})"),
              9); // (3<<1)+3
}

TEST(InterpTest, SignedUnsignedDivision)
{
    EXPECT_EQ(runScalar(R"(
func.func @f() -> i32 {
  %a = arith.constant -7 : i32
  %b = arith.constant 2 : i32
  %r = arith.divsi %a, %b : i32
  func.return %r : i32
})"),
              -3);
    EXPECT_EQ(runScalar(R"(
func.func @f() -> i8 {
  %a = arith.constant -1 : i8
  %b = arith.constant 16 : i8
  %r = arith.divui %a, %b : i8
  func.return %r : i8
})"),
              15); // 255 / 16
}

TEST(InterpTest, CmpAndSelect)
{
    EXPECT_EQ(runScalar(R"(
func.func @f(%a: i32, %b: i32) -> i32 {
  %c = arith.cmpi slt, %a, %b : i32
  %r = arith.select %c, %a, %b : i32
  func.return %r : i32
})",
                        {int64_t{4}, int64_t{9}}),
              4);
}

TEST(InterpTest, UnsignedCompareUsesWidth)
{
    // -1 as u8 is 255 > 1.
    EXPECT_EQ(runScalar(R"(
func.func @f() -> i1 {
  %a = arith.constant -1 : i8
  %b = arith.constant 1 : i8
  %c = arith.cmpi ugt, %a, %b : i8
  func.return %c : i1
})"),
              1);
}

TEST(InterpTest, AffineLoopAccumulatesThroughMemory)
{
    // sum 0..9 into acc[0].
    Module m = parseModule(R"(
func.func @f(%acc: memref<1xi32>) {
  %z = arith.constant 0 : index
  affine.for %i = 0 to 10 {
    %v = memref.load %acc[%z] : memref<1xi32>
    %ii = arith.index_cast %i : index to i32
    %n = arith.addi %v, %ii : i32
    memref.store %n, %acc[%z] : memref<1xi32>
  }
})");
    Buffer acc(Type::memref({1}, Type::i32()));
    interpret(m, "f", {&acc});
    EXPECT_EQ(acc.ints[0], 45);
}

TEST(InterpTest, DynamicBoundsLoop)
{
    Module m = parseModule(R"(
func.func @f(%a: memref<64xi32>) {
  %one = arith.constant 1 : i32
  affine.for %jj = 0 to 64 step 8 {
    affine.for %j = %jj to %jj + 8 {
      %v = memref.load %a[%j] : memref<64xi32>
      %n = arith.addi %v, %one : i32
      memref.store %n, %a[%j] : memref<64xi32>
    }
  }
})");
    Buffer a(Type::memref({64}, Type::i32()));
    interpret(m, "f", {&a});
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(a.ints[i], 1);
}

TEST(InterpTest, ScfIfBranches)
{
    EXPECT_EQ(runScalar(R"(
func.func @f(%c: i1) -> i32 {
  %a = arith.constant 10 : i32
  %b = arith.constant 20 : i32
  %r = scf.if %c -> (i32) {
    scf.yield %a : i32
  } else {
    scf.yield %b : i32
  }
  func.return %r : i32
})",
                        {int64_t{1}}),
              10);
}

TEST(InterpTest, ScfWhileCountsToLimit)
{
    Module m = parseModule(R"(
func.func @f(%s: memref<1xi32>) {
  %z = arith.constant 0 : index
  %limit = arith.constant 10 : i32
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
    Buffer s(Type::memref({1}, Type::i32()));
    interpret(m, "f", {&s});
    EXPECT_EQ(s.ints[0], 10);
}

TEST(InterpTest, FloatArithmetic)
{
    Module m = parseModule(R"(
func.func @f(%a: memref<1xf64>) {
  %z = arith.constant 0 : index
  %x = arith.constant 1.5 : f64
  %y = arith.constant 2.0 : f64
  %p = arith.mulf %x, %y : f64
  %q = arith.addf %p, %x : f64
  memref.store %q, %a[%z] : memref<1xf64>
})");
    Buffer a(Type::memref({1}, Type::f64()));
    interpret(m, "f", {&a});
    EXPECT_DOUBLE_EQ(a.floats[0], 4.5);
}

TEST(InterpTest, FunctionCalls)
{
    EXPECT_EQ(runScalar(R"(
func.func @sq(%x: i32) -> i32 {
  %r = arith.muli %x, %x : i32
  func.return %r : i32
}
func.func @f(%a: i32) -> i32 {
  %r = func.call @sq(%a) : (i32) -> (i32)
  func.return %r : i32
})",
                        {int64_t{6}}),
              36);
}

TEST(InterpTest, OutOfBoundsTraps)
{
    Module m = parseModule(R"(
func.func @f(%a: memref<4xi32>) {
  %i = arith.constant 4 : index
  %v = memref.load %a[%i] : memref<4xi32>
})");
    Buffer a(Type::memref({4}, Type::i32()));
    EXPECT_THROW(interpret(m, "f", {&a}), FatalError);
}

TEST(InterpTest, DivisionByZeroTraps)
{
    EXPECT_THROW(runScalar(R"(
func.func @f() -> i32 {
  %a = arith.constant 1 : i32
  %b = arith.constant 0 : i32
  %r = arith.divsi %a, %b : i32
  func.return %r : i32
})"),
                 FatalError);
}

TEST(InterpTest, StepLimitGuards)
{
    Module m = parseModule(R"(
func.func @f(%a: memref<1xi32>) {
  %z = arith.constant 0 : index
  affine.for %i = 0 to 1000000 {
    %v = memref.load %a[%z] : memref<1xi32>
    memref.store %v, %a[%z] : memref<1xi32>
  }
})");
    Buffer a(Type::memref({1}, Type::i32()));
    InterpOptions options;
    options.max_steps = 1000;
    EXPECT_THROW(interpret(m, "f", {&a}, options), FatalError);
}

TEST(InterpTest, ProfileCountsLoopIterations)
{
    Module m = parseModule(R"(
func.func @f(%a: memref<24xi32>) {
  affine.for %i = 0 to 4 {
    affine.for %j = 0 to 6 {
      %idx = arith.muli %i, %j : index
      %v = memref.load %a[%j] : memref<24xi32>
      memref.store %v, %a[%j] : memref<24xi32>
    }
  }
})");
    Buffer a(Type::memref({24}, Type::i32()));
    InterpOptions options;
    options.profile = true;
    InterpResult r = interpret(m, "f", {&a}, options);
    ASSERT_EQ(r.profile.loops.size(), 2u);
    uint64_t entries_total = 0, iters_total = 0;
    for (const auto &[op, counts] : r.profile.loops) {
        entries_total += counts.first;
        iters_total += counts.second;
    }
    // Outer: entered once, 4 iters. Inner: entered 4 times, 24 iters.
    EXPECT_EQ(entries_total, 5u);
    EXPECT_EQ(iters_total, 28u);
}

TEST(InterpTest, CastSemantics)
{
    EXPECT_EQ(runScalar(R"(
func.func @f() -> i32 {
  %a = arith.constant -1 : i8
  %u = arith.extui %a : i8 to i32
  func.return %u : i32
})"),
              255);
    EXPECT_EQ(runScalar(R"(
func.func @f() -> i8 {
  %a = arith.constant 257 : i32
  %t = arith.trunci %a : i32 to i8
  func.return %t : i8
})"),
              1);
}

/** Run `text` expecting a trap; returns the structured kind. */
TrapKind
trapKindOf(const std::string &text, std::vector<RtValue> args = {},
           InterpOptions options = {})
{
    Module m = parseModule(text);
    try {
        interpret(m, "f", std::move(args), options);
    } catch (const InterpError &err) {
        return err.kind();
    }
    ADD_FAILURE() << "expected a trap";
    return TrapKind::Unsupported;
}

TEST(InterpTest, TrapKindsAreStructured)
{
    EXPECT_EQ(trapKindOf(R"(
func.func @f() -> i32 {
  %a = arith.constant 1 : i32
  %z = arith.constant 0 : i32
  %d = arith.divsi %a, %z : i32
  func.return %d : i32
})"),
              TrapKind::DivideByZero);

    Module oob = parseModule(R"(
func.func @f(%a: memref<4xi32>) {
  %i = arith.constant 9 : index
  %v = memref.load %a[%i] : memref<4xi32>
  func.return
})");
    Buffer buffer(Type::memref({4}, Type::i32()));
    try {
        interpret(oob, "f", {&buffer});
        ADD_FAILURE() << "expected a trap";
    } catch (const InterpError &err) {
        EXPECT_EQ(err.kind(), TrapKind::OutOfBounds);
        EXPECT_FALSE(err.isCancellation());
        // The message text is unchanged by the structured kind.
        EXPECT_NE(std::string(err.what()).find("out-of-bounds"),
                  std::string::npos);
    }
}

TEST(InterpTest, StepLimitAndDeadlineKindsDiffer)
{
    const std::string spin = R"(
func.func @f() {
  %c0 = arith.constant 0 : index
  affine.for %i = 0 to 1000000 {
    %x = arith.constant 1 : i32
  }
  func.return
})";
    InterpOptions tight;
    tight.max_steps = 100;
    EXPECT_EQ(trapKindOf(spin, {}, tight), TrapKind::StepLimit);

    InterpOptions expired;
    expired.exec = seer::ExecContext::make();
    expired.exec.setDeadline(std::chrono::steady_clock::now());
    TrapKind kind = trapKindOf(spin, {}, expired);
    EXPECT_EQ(kind, TrapKind::Deadline);

    // Cancellation is the one kind callers may treat as benign.
    try {
        interpret(parseModule(spin), "f", {}, expired);
        ADD_FAILURE() << "expected cancellation";
    } catch (const InterpError &err) {
        EXPECT_TRUE(err.isCancellation());
    }
}

TEST(InterpTest, BadCallKind)
{
    Module m = parseModule(R"(
func.func @f() {
  func.return
})");
    try {
        interpret(m, "nope", {});
        ADD_FAILURE() << "expected a trap";
    } catch (const InterpError &err) {
        EXPECT_EQ(err.kind(), TrapKind::BadCall);
    }
}

TEST(InterpTest, TrapKindNamesAreStable)
{
    EXPECT_STREQ(trapKindName(TrapKind::Deadline), "deadline");
    EXPECT_STREQ(trapKindName(TrapKind::StepLimit), "step_limit");
    EXPECT_STREQ(trapKindName(TrapKind::OutOfBounds), "out_of_bounds");
    EXPECT_STREQ(trapKindName(TrapKind::DivideByZero),
                 "divide_by_zero");
    EXPECT_STREQ(trapKindName(TrapKind::BadCall), "bad_call");
    EXPECT_STREQ(trapKindName(TrapKind::Unsupported), "unsupported");
}

// --- The interpreter contract ------------------------------------------
//
// These pin what callers observe of an interpretation -- step counts,
// which op a step limit names, when cancellation is polled, the exact
// trap raised by each fault and the Profile -- so the interpreter's
// internals can change without callers noticing.

/** for + if + while + call; leaves s[0] == 5 after 45 steps. */
const char *const kControlKernel = R"(
func.func @inc(%x: i32) -> i32 {
  %one = arith.constant 1 : i32
  %r = arith.addi %x, %one : i32
  func.return %r : i32
}
func.func @f(%s: memref<1xi32>) {
  %z = arith.constant 0 : index
  %limit = arith.constant 5 : i32
  %two = arith.constant 2 : index
  affine.for %i = 0 to 3 {
    %v = memref.load %s[%z] : memref<1xi32>
    %c = arith.cmpi ult, %i, %two : index
    scf.if %c {
      %n = func.call @inc(%v) : (i32) -> (i32)
      memref.store %n, %s[%z] : memref<1xi32>
    } else {
    }
  }
  scf.while {
    %w = memref.load %s[%z] : memref<1xi32>
    %more = arith.cmpi slt, %w, %limit : i32
    scf.condition %more
  } do {
    %w2 = memref.load %s[%z] : memref<1xi32>
    %n2 = func.call @inc(%w2) : (i32) -> (i32)
    memref.store %n2, %s[%z] : memref<1xi32>
  }
  func.return
})";

TEST(InterpContractTest, StepsCountEveryNonTerminatorOp)
{
    // 3 constants + the for + 3 x (load, cmpi, if) + 2 taken branches x
    // (call + 2 callee ops + store) + the while + 4 conditions x
    // (load, cmpi) + 3 bodies x (load, call + 2, store) = 45.
    Module m = parseModule(kControlKernel);
    Buffer s(Type::memref({1}, Type::i32()));
    InterpResult r = interpret(m, "f", {&s});
    EXPECT_EQ(r.steps, 45u);
    EXPECT_EQ(s.ints[0], 5);
}

TEST(InterpContractTest, StepLimitNamesTheSameOp)
{
    Module m = parseModule(kControlKernel);
    auto limitedAt = [&](uint64_t max_steps) -> std::string {
        Buffer s(Type::memref({1}, Type::i32()));
        InterpOptions options;
        options.max_steps = max_steps;
        try {
            interpret(m, "f", {&s}, options);
        } catch (const InterpError &err) {
            EXPECT_EQ(err.kind(), TrapKind::StepLimit);
            return err.what();
        }
        return "ran";
    };
    const std::string prefix = "interpret: step limit exceeded at op ";
    EXPECT_EQ(limitedAt(0), prefix + "arith.constant");
    EXPECT_EQ(limitedAt(3), prefix + "affine.for");
    EXPECT_EQ(limitedAt(6), prefix + "scf.if");
    EXPECT_EQ(limitedAt(7), prefix + "func.call");
    EXPECT_EQ(limitedAt(9), prefix + "arith.addi");
    EXPECT_EQ(limitedAt(11), prefix + "memref.load");
    EXPECT_EQ(limitedAt(21), prefix + "scf.while");
    EXPECT_EQ(limitedAt(44), prefix + "arith.cmpi");
    EXPECT_EQ(limitedAt(45), "ran");
}

TEST(InterpContractTest, CancellationIsPolledEvery4096Steps)
{
    const std::string spin = R"(
func.func @f() {
  affine.for %i = 0 to 1000000 {
    %x = arith.constant 1 : i32
  }
  func.return
})";
    InterpOptions options;
    options.exec = seer::ExecContext::make();
    options.exec.setDeadline(std::chrono::steady_clock::now());
    // The first poll comes at step 4096: a budget that trips before it
    // is a step limit, one that reaches it is cancellation.
    options.max_steps = 4095;
    EXPECT_EQ(trapKindOf(spin, {}, options), TrapKind::StepLimit);
    options.max_steps = 4096;
    EXPECT_EQ(trapKindOf(spin, {}, options), TrapKind::Deadline);
    options.max_steps = 5000;
    EXPECT_EQ(trapKindOf(spin, {}, options), TrapKind::Deadline);
}

/** `fault` inside an scf.if on %c; the placeholder addi after it lets
 *  a test insert a hand-built op in front of it. */
std::string
faultKernel(const std::string &fault)
{
    return R"(
func.func @g(%x: i32) -> i32 {
  func.return %x : i32
}
func.func @f(%c: i1, %s: memref<1xi32>) {
  %z = arith.constant 0 : index
  %a = arith.constant 7 : i32
  %b = arith.constant 2 : i32
  %x = arith.sitofp %a : i32 to f64
  scf.if %c {
    )" + fault + R"(
    %placeholder = arith.addi %a, %b : i32
  } else {
  }
  memref.store %a, %s[%z] : memref<1xi32>
  func.return
})";
}

/** Run `m` with the branch flag `taken`; "ok", or the trap raised as
 *  "<kind>: <message>" (InterpError) or "fatal: <message>". */
std::string
outcomeOf(const Module &m, bool taken)
{
    Buffer s(Type::memref({1}, Type::i32()));
    try {
        interpret(m, "f", {int64_t{taken}, &s});
    } catch (const InterpError &err) {
        return std::string(trapKindName(err.kind())) + ": " + err.what();
    } catch (const FatalError &err) {
        return std::string("fatal: ") + err.what();
    }
    return s.ints[0] == 7 ? "ok" : "ran wrong";
}

/** Insert a hand-built `name` op (operands %a, %b; result `results`)
 *  before the kernel's placeholder. */
Module
withBuiltOp(std::string_view name, std::vector<Type> results)
{
    Module m = parseModule(faultKernel(""));
    Operation *placeholder = nullptr;
    walk(m, [&](Operation &op) {
        if (op.nameStr() == "arith.addi")
            placeholder = &op;
    });
    OpBuilder::before(placeholder)
        .create(name, {placeholder->operand(0), placeholder->operand(1)},
                std::move(results));
    return m;
}

TEST(InterpContractTest, FaultsTrapOnlyWhenTheirOpRuns)
{
    struct Case
    {
        std::string fault;
        std::string trap;
    };
    const std::vector<Case> cases = {
        {"%r = func.call @missing(%a) : (i32) -> (i32)",
         "bad_call: interpret: unknown callee missing"},
        {"%r = func.call @g(%a, %b) : (i32, i32) -> (i32)",
         "bad_call: interpret: function expects 1 args, got 2"},
        {"%r = arith.cmpi bogus, %a, %b : i32",
         "fatal: unknown cmp predicate 'bogus'"},
        {"%r = arith.cmpf bogus, %x, %x : f64",
         "unsupported: interpret: unknown cmpf predicate bogus"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.fault);
        Module m = parseModule(faultKernel(c.fault));
        EXPECT_EQ(outcomeOf(m, false), "ok");
        EXPECT_EQ(outcomeOf(m, true), c.trap);
    }

    // A registered op the interpreter does not execute.
    Module unimplemented = withBuiltOp("func.func", {Type::i32()});
    EXPECT_EQ(outcomeOf(unimplemented, false), "ok");
    EXPECT_EQ(outcomeOf(unimplemented, true),
              "unsupported: interpret: unimplemented op func.func");

    // An op name no dialect registers.
    Module unknown = withBuiltOp("test.bogus", {});
    EXPECT_EQ(outcomeOf(unknown, false), "ok");
    EXPECT_EQ(outcomeOf(unknown, true),
              "fatal: unknown operation 'test.bogus'");
}

TEST(InterpContractTest, ProfileCountsEveryLoopBlockAndOp)
{
    Module m = parseModule(kControlKernel);
    Buffer s(Type::memref({1}, Type::i32()));
    InterpOptions options;
    options.profile = true;
    InterpResult r = interpret(m, "f", {&s}, options);

    // Hand counts, in walk order; terminators never count as ops.
    const std::vector<uint64_t> op_counts = {
        5, 5,          // @inc: constant, addi (five calls)
        1, 1, 1,       // @f: three constants
        1, 3, 3, 3,    // affine.for; load, cmpi, scf.if per iteration
        2, 2,          // taken branch: call, store
        1, 4, 4,       // scf.while; four conditions: load, cmpi
        3, 3, 3,       // three bodies: load, call, store
    };
    std::map<const Operation *, uint64_t> ops;
    std::map<const Block *, uint64_t> blocks;
    std::map<const Operation *, std::pair<uint64_t, uint64_t>> loops;
    size_t next = 0;
    walk(m, [&](Operation &op) {
        if (op.nameStr() == "func.func" || isTerminator(op))
            return;
        ASSERT_LT(next, op_counts.size());
        ops[&op] = op_counts[next++];
    });
    EXPECT_EQ(next, op_counts.size());
    EXPECT_EQ(r.profile.ops, ops);

    Operation *inc = m.lookupFunc("inc");
    Operation *f = m.lookupFunc("f");
    blocks[&inc->region(0).block()] = 5;
    blocks[&f->region(0).block()] = 1;
    walk(m, [&](Operation &op) {
        if (op.nameStr() == "affine.for") {
            blocks[&op.region(0).block()] = 3;
            loops[&op] = {1, 3};
        } else if (op.nameStr() == "scf.if") {
            blocks[&op.region(0).block()] = 2;
            blocks[&op.region(1).block()] = 1;
        } else if (op.nameStr() == "scf.while") {
            blocks[&op.region(0).block()] = 4;
            blocks[&op.region(1).block()] = 3;
            loops[&op] = {1, 3};
        }
    });
    EXPECT_EQ(r.profile.blocks, blocks);
    EXPECT_EQ(r.profile.loops, loops);
}

TEST(InterpContractTest, AllocFaultFiresOnTheNthBuffer)
{
    struct Disarm
    {
        ~Disarm() { FaultInjector::instance().disarm(); }
    } disarm;
    Module m = parseModule(R"(
func.func @f() {
  affine.for %i = 0 to 5 {
    %m = memref.alloc() : memref<4xi32>
  }
  func.return
})");
    FaultInjector::instance().arm(*FaultPlan::parse("fixed=interp-alloc@3"));
    EXPECT_THROW(interpret(m, "f", {}), std::bad_alloc);
    EXPECT_EQ(FaultInjector::instance().hits(FaultPoint::InterpAlloc), 3u);

    FaultInjector::instance().arm(*FaultPlan::parse("fixed=interp-alloc@6"));
    EXPECT_NO_THROW(interpret(m, "f", {}));
    EXPECT_EQ(FaultInjector::instance().hits(FaultPoint::InterpAlloc), 5u);
}

} // namespace
} // namespace seer::ir
