/**
 * @file
 * A reference interpreter for the IR.
 *
 * Serves three roles in the reproduction:
 *  - functional co-simulation (the paper's "HLS co-simulation" oracle),
 *  - the equivalence checker backing translation validation (stand-in for
 *    Synopsys VC Formal), and
 *  - the profiler that records loop trip counts and block execution counts
 *    consumed by the HLS performance model.
 *
 * A module is decoded once into a Program: per function, a flat array of
 * instructions with an opcode, operand and result slots into a per-call
 * frame, and every attribute (constants, predicates, widths, loop bounds,
 * callees) resolved up front. interpret() runs a Program with a switch
 * over opcodes; callers that run one module many times (the validation
 * gate, equivalence checks) build the Program once and reuse it.
 */
#ifndef SEER_IR_INTERP_H_
#define SEER_IR_INTERP_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "ir/op.h"
#include "support/error.h"
#include "support/exec_context.h"

namespace seer::ir {

/**
 * Why an interpretation stopped abnormally. The distinction that
 * matters to callers is cancellation (Deadline: the *caller's* budget
 * expired, says nothing about the program) versus a genuine trap (the
 * *program* faulted). Everything else refines the trap taxonomy for
 * reporting (e.g. the corpus harness's failure buckets).
 */
enum class TrapKind
{
    Deadline,     ///< cooperative wall-clock cancellation, not a fault
    StepLimit,    ///< max_steps / iteration budget exhausted
    OutOfBounds,  ///< memref access outside the buffer
    DivideByZero, ///< integer division/remainder by zero
    BadCall,      ///< missing function / argument arity mismatch
    Unsupported,  ///< op or attribute the interpreter cannot execute
};

/** Stable lowercase name for a trap kind (report/JSON keys). */
const char *trapKindName(TrapKind kind);

/**
 * The error thrown for every interpreter trap. Derives from FatalError
 * so existing catch sites keep working and messages keep their
 * "interpret: ..." prefixes; callers that must distinguish cancellation
 * from a genuine fault catch InterpError and switch on kind() instead
 * of string-matching the message.
 */
class InterpError : public FatalError
{
  public:
    InterpError(TrapKind kind, const std::string &msg)
        : FatalError(msg), kind_(kind)
    {}

    TrapKind kind() const { return kind_; }

    /** True when the trap is cooperative cancellation, not a fault. */
    bool isCancellation() const { return kind_ == TrapKind::Deadline; }

  private:
    TrapKind kind_;
};

/** A runtime buffer backing one memref value. */
struct Buffer
{
    Type type; ///< the memref type
    std::vector<int64_t> ints;
    std::vector<double> floats;

    explicit Buffer(Type memref_type);

    int64_t size() const;
    bool isFloat() const { return type.elementType().isFloat(); }
};

/** A runtime value: integer scalar, float scalar, or buffer reference. */
using RtValue = std::variant<int64_t, double, Buffer *>;

/** Per-loop/per-block execution statistics gathered during a run. */
struct Profile
{
    /** Loop op -> (times entered, total iterations executed). */
    std::map<const Operation *, std::pair<uint64_t, uint64_t>> loops;
    /** Block -> times executed. */
    std::map<const Block *, uint64_t> blocks;
    /** Op -> times executed (ops only, not per-region bookkeeping). */
    std::map<const Operation *, uint64_t> ops;
};

/** Result of interpreting one function call. */
struct InterpResult
{
    std::vector<RtValue> results;
    uint64_t steps = 0;
    Profile profile;
};

/** Interpreter options. */
struct InterpOptions
{
    /** Abort with fatal() after this many op executions (runaway guard). */
    uint64_t max_steps = 500'000'000;
    /** Collect the Profile (slightly slower). */
    bool profile = false;
    /**
     * Cooperative cancellation: the context is polled every few
     * thousand steps, so a long-running simulation (e.g. an
     * equivalence check's co-execution) stops shortly after its
     * deadline/budget/SIGINT instead of running its full step budget.
     * Cancellation traps with an InterpError of kind
     * TrapKind::Deadline (message prefix "interpret: deadline" kept
     * for compatibility) — catch InterpError and test isCancellation()
     * to distinguish cancellation from a genuine trap.
     */
    ExecContext exec;
};

namespace detail {
struct Code;
} // namespace detail

/**
 * A module decoded for interpretation. Decoding never traps: an op that
 * would trap (unknown callee, bad predicate, unimplemented op) decodes to
 * an instruction that raises the same error when, and only when, it
 * runs. Holds pointers into the module, which must outlive the Program
 * and stay unchanged. Immutable once built, so runs may share it.
 */
class Program
{
  public:
    explicit Program(const Module &module);
    ~Program();
    Program(Program &&) noexcept;
    Program &operator=(Program &&) noexcept;

    const detail::Code &code() const { return *code_; }

  private:
    std::unique_ptr<detail::Code> code_;
};

/**
 * Interpret `func_name` in `module` with the given arguments. Buffer
 * arguments are mutated in place (caller observes final memory state).
 * Throws InterpError (a FatalError carrying a TrapKind) on traps:
 * out-of-bounds access, division by zero, step-limit exhaustion,
 * deadline cancellation. Decodes the module, then runs it.
 */
InterpResult interpret(const Module &module, const std::string &func_name,
                       std::vector<RtValue> args,
                       const InterpOptions &options = {});

/** Run an already decoded module; same contract as above. */
InterpResult interpret(const Program &program, const std::string &func_name,
                       std::vector<RtValue> args,
                       const InterpOptions &options = {});

/** Wrap a signed value to `width` bits (two's complement, sign-extended). */
int64_t wrapToWidth(int64_t value, unsigned width);

} // namespace seer::ir

#endif // SEER_IR_INTERP_H_
