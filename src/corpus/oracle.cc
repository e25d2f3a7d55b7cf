#include "corpus/oracle.h"

#include <chrono>
#include <memory>

#include "core/verify.h"
#include "ir/interp.h"
#include "support/exec_context.h"
#include "support/fault_inject.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "seerlang/encoding.h"
#include "support/rng.h"

namespace seer::corpus {

namespace {

using Clock = std::chrono::steady_clock;

/** Outcome of one interpreter execution. */
struct ExecResult
{
    enum class Status { Ok, Trap, Canceled } status = Status::Ok;
    std::string trap; ///< trap message when status == Trap
    std::vector<int64_t> state; ///< buffer fingerprint when Ok
};

/** Fill `buffers` deterministically from `seed` (matched workloads). */
void
fillBuffers(std::vector<std::unique_ptr<ir::Buffer>> &buffers,
            uint64_t seed)
{
    Rng rng(seed);
    for (auto &buffer : buffers) {
        unsigned w = buffer->type.elementType().isScalar()
                         ? buffer->type.elementType().bitwidth()
                         : 32;
        for (auto &v : buffer->ints)
            v = ir::wrapToWidth(rng.nextRange(-40, 40), w);
        for (auto &v : buffer->floats)
            v = rng.nextDouble() * 4 - 2;
    }
}

std::vector<int64_t>
fingerprint(const std::vector<std::unique_ptr<ir::Buffer>> &buffers)
{
    std::vector<int64_t> out;
    for (const auto &buffer : buffers) {
        out.insert(out.end(), buffer->ints.begin(), buffer->ints.end());
        for (double d : buffer->floats)
            out.push_back(static_cast<int64_t>(d * (1 << 20)));
    }
    return out;
}

/** Run `func_name` in `module` on a seeded workload. */
ExecResult
execute(const ir::Module &module, const std::string &func_name,
        uint64_t seed, const OracleOptions &options,
        const ExecContext &judge)
{
    ExecResult out;
    ir::Operation *func = module.lookupFunc(func_name);
    ir::Block &body = func->region(0).block();
    std::vector<std::unique_ptr<ir::Buffer>> buffers;
    std::vector<ir::RtValue> args;
    Rng scalar_rng(seed ^ 0x5ca1ab1e);
    for (size_t i = 0; i < body.numArgs(); ++i) {
        ir::Type type = body.arg(i).type();
        if (type.isMemRef()) {
            buffers.push_back(std::make_unique<ir::Buffer>(type));
            args.push_back(buffers.back().get());
        } else if (type.isIndex()) {
            args.push_back(scalar_rng.nextRange(0, 3));
        } else if (type.isInteger()) {
            args.push_back(ir::wrapToWidth(
                scalar_rng.nextRange(-40, 40), type.bitwidth()));
        } else {
            args.push_back(scalar_rng.nextDouble() * 4 - 2);
        }
    }
    fillBuffers(buffers, seed);
    ir::InterpOptions interp_options;
    interp_options.max_steps = options.max_steps;
    interp_options.exec = judge;
    try {
        ir::interpret(module, func_name, std::move(args),
                      interp_options);
    } catch (const ir::InterpError &err) {
        out.status = err.isCancellation() ? ExecResult::Status::Canceled
                                          : ExecResult::Status::Trap;
        out.trap = err.what();
        return out;
    } catch (const FatalError &err) {
        out.status = ExecResult::Status::Trap;
        out.trap = err.what();
        return out;
    }
    out.state = fingerprint(buffers);
    return out;
}

} // namespace

const char *
failureKindName(FailureKind kind)
{
    switch (kind) {
    case FailureKind::None: return "none";
    case FailureKind::ParseError: return "parse_error";
    case FailureKind::OptimizeError: return "optimize_error";
    case FailureKind::Degraded: return "degraded";
    case FailureKind::InvalidOutput: return "invalid_output";
    case FailureKind::Miscompile: return "miscompile";
    case FailureKind::TrapMismatch: return "trap_mismatch";
    case FailureKind::ReferenceDivergence: return "reference_divergence";
    case FailureKind::Timeout: return "timeout";
    }
    return "unknown";
}

OracleVerdict
checkSource(const std::string &source, const OracleOptions &options)
{
    OracleVerdict verdict;
    Clock::time_point start = Clock::now();
    auto finish = [&]() -> OracleVerdict & {
        verdict.seconds =
            std::chrono::duration<double>(Clock::now() - start).count();
        return verdict;
    };
    auto fail = [&](FailureKind kind,
                    const std::string &detail) -> OracleVerdict & {
        verdict.kind = kind;
        verdict.detail = detail;
        return finish();
    };

    // The judge's own governance context: per-case deadline for the
    // ground-truth and reference executions. Distinct from the context
    // optimize() builds for itself, and never subject to chaos faults.
    ExecContext judge = ExecContext::make();
    if (options.deadline_seconds > 0)
        judge.setDeadlineIn(options.deadline_seconds);

    // 1. The program itself must parse and verify.
    ir::Module input;
    std::string func_name;
    try {
        input = ir::parseModule(source);
        ir::verifyOrDie(input);
        ir::Operation *func = input.firstFunc();
        if (!func)
            fatal("no function in program");
        func_name = func->strAttr("sym_name");
    } catch (const FatalError &err) {
        return fail(FailureKind::ParseError, err.what());
    }

    // 2. Run the pipeline under test.
    core::SeerOptions seer = options.seer;
    if (options.deadline_seconds > 0 &&
        (seer.deadline_seconds <= 0 ||
         seer.deadline_seconds > options.deadline_seconds))
        seer.deadline_seconds = options.deadline_seconds;
    core::SeerResult result;
    {
        // Chaos: faults are armed for the run under test only; every
        // disarm path (normal return, any catch) goes through the
        // scoped guard's destructor. A fault that escapes optimize()
        // (it must not — that is the no-throw contract under test)
        // is an OptimizeError, i.e. a reported contract violation.
        std::optional<ScopedFaultPlan> chaos;
        if (options.chaos_plan.enabled())
            chaos.emplace(options.chaos_plan);
        try {
            result = core::optimize(input, func_name, seer);
        } catch (const FatalError &err) {
            return fail(FailureKind::OptimizeError, err.what());
        } catch (const std::exception &err) {
            return fail(FailureKind::OptimizeError,
                        std::string("non-FatalError: ") + err.what());
        }
    }
    verdict.degraded = result.stats.degraded;

    // 3. The output must be verifier-clean (the optimize() contract).
    std::string diag = ir::verify(result.module);
    if (!diag.empty())
        return fail(FailureKind::InvalidOutput, diag);

    // 4. Interpreter ground truth: co-execute input and output on
    //    matched randomized workloads and diff final memory states.
    for (int run = 0; run < options.input_runs; ++run) {
        uint64_t seed = options.input_seed + 0x9E3779B9u * run;
        ExecResult before =
            execute(input, func_name, seed, options, judge);
        ExecResult after =
            execute(result.module, func_name, seed, options, judge);
        if (before.status == ExecResult::Status::Canceled ||
            after.status == ExecResult::Status::Canceled)
            return fail(FailureKind::Timeout,
                        "per-case deadline expired during ground-truth "
                        "execution");
        bool before_trap = before.status == ExecResult::Status::Trap;
        bool after_trap = after.status == ExecResult::Status::Trap;
        if (before_trap != after_trap) {
            return fail(FailureKind::TrapMismatch,
                        MsgBuilder()
                            << "workload seed " << seed << ": "
                            << (before_trap ? "input" : "output")
                            << " traps ("
                            << (before_trap ? before.trap : after.trap)
                            << ") but the "
                            << (before_trap ? "output" : "input")
                            << " runs clean");
        }
        if (before_trap)
            continue; // both trap: agreement on this workload
        if (before.state != after.state) {
            size_t at = 0;
            while (at < before.state.size() &&
                   before.state[at] == after.state[at])
                ++at;
            return fail(FailureKind::Miscompile,
                        MsgBuilder()
                            << "workload seed " << seed
                            << ": memory diverges at word " << at
                            << " (ground truth "
                            << (at < before.state.size()
                                    ? before.state[at]
                                    : 0)
                            << ", optimized "
                            << (at < after.state.size() ? after.state[at]
                                                        : 0)
                            << ")");
        }
    }

    // 5. Reference arms: greedy extraction with the indexed matcher
    //    must match naive extraction with the naive matcher byte for
    //    byte (the PR 3/PR 5 bit-identity contracts, end to end).
    if (options.check_reference) {
        core::SeerOptions fast = seer;
        fast.exact_datapath = false;
        fast.naive_extract = false;
        fast.runner.naive_match = false;
        core::SeerOptions naive = seer;
        naive.exact_datapath = false;
        naive.naive_extract = true;
        naive.runner.naive_match = true;
        // When the pipeline under test already is the fast arm, its
        // output doubles as the fast reference (optimize() is
        // deterministic for a fixed config), saving one run per case.
        bool reuse_main = !seer.exact_datapath && !seer.naive_extract &&
                          !seer.runner.naive_match;
        try {
            std::string fast_out =
                reuse_main
                    ? ir::toString(result.module)
                    : ir::toString(
                          core::optimize(input, func_name, fast).module);
            std::string naive_out = ir::toString(
                core::optimize(input, func_name, naive).module);
            if (fast_out != naive_out) {
                return fail(FailureKind::ReferenceDivergence,
                            "indexed output differs from "
                            "the naive-match/naive-extract reference");
            }
        } catch (const FatalError &err) {
            return fail(FailureKind::OptimizeError,
                        std::string("reference arm: ") + err.what());
        }
        if (judge.canceled())
            return fail(FailureKind::Timeout,
                        "per-case deadline expired during the "
                        "reference arm");
    }

    if (options.fail_on_degraded && verdict.degraded) {
        return fail(FailureKind::Degraded,
                    result.stats.recovered_errors.empty()
                        ? std::string("optimize() degraded")
                        : result.stats.recovered_errors.front());
    }
    return finish();
}

eg::Rewrite
makeUnsoundStoreDropRule()
{
    return eg::makeDynRewrite(
        "unsound-store-drop", "?x",
        [](eg::EGraph &egraph,
           const eg::Match &match) -> std::optional<eg::TermPtr> {
            const eg::EClass &eclass =
                egraph.eclass(egraph.find(match.root));
            for (const eg::ENode &node : eclass.nodes) {
                if (sl::opNameOf(node.op) == "memref.store")
                    return eg::makeTerm(sl::nopSymbol());
            }
            return std::nullopt;
        });
}

} // namespace seer::corpus
