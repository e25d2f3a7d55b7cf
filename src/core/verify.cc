#include "core/verify.h"

#include "ir/interp.h"
#include "ir/parser.h"
#include "seerlang/encoding.h"
#include "seerlang/from_term.h"
#include "support/error.h"
#include "support/rng.h"

namespace seer::core {

using eg::TermPtr;

namespace {

/** Result type of a SeerLang value term; None for statement terms. */
ir::Type
typeOfValueTerm(const TermPtr &term)
{
    Symbol op = term->op();
    if (auto constant = sl::decodeIntConst(op))
        return constant->second;
    if (sl::decodeFloatConst(op))
        return ir::Type::f64();
    if (auto arg = sl::decodeArg(op))
        return arg->second;
    if (sl::decodeVar(op))
        return ir::Type::index();
    if (sl::isStatementSymbol(op))
        return ir::Type::none();
    auto fields = eg::splitSymbol(op).subspan(1);
    std::string_view name = sl::opNameOf(op);
    if (name == "arith.cmpi" || name == "arith.cmpf")
        return ir::Type::i1();
    if (fields.size() == 2)
        return ir::parseType(fields[1]); // cast: (from, to)
    if (fields.size() == 1)
        return ir::parseType(fields[0]);
    return ir::Type::none();
}

/** Wrap a value term as a statement storing into a synthetic output. */
TermPtr
wrapValueTerm(const TermPtr &term, ir::Type type)
{
    ir::Type out_type = ir::Type::memref({1}, type);
    TermPtr out_arg = eg::makeTerm(sl::encodeArg("__out", out_type));
    TermPtr zero =
        eg::makeTerm(sl::encodeIntConst(0, ir::Type::index()));
    return eg::makeTerm(sl::encodeStore(sl::freshTag()),
                        {term, out_arg, zero});
}

/** Deterministic random arguments for a spec; buffers owned by caller. */
std::vector<ir::RtValue>
buildArgs(const sl::EmitSpec &spec,
          std::vector<std::unique_ptr<ir::Buffer>> &buffers, Rng &rng)
{
    std::vector<ir::RtValue> args;
    for (const auto &[name, type] : spec.args) {
        if (type.isMemRef()) {
            buffers.push_back(std::make_unique<ir::Buffer>(type));
            ir::Buffer &buffer = *buffers.back();
            unsigned w = type.elementType().isScalar()
                             ? type.elementType().bitwidth()
                             : 32;
            for (auto &v : buffer.ints)
                v = ir::wrapToWidth(rng.nextRange(-40, 40), w);
            for (auto &v : buffer.floats)
                v = rng.nextDouble() * 4 - 2;
            args.push_back(&buffer);
        } else if (type.isIndex()) {
            args.push_back(rng.nextRange(0, 3));
        } else if (type.isInteger()) {
            args.push_back(ir::wrapToWidth(rng.nextRange(-40, 40),
                                           type.bitwidth()));
        } else {
            args.push_back(rng.nextDouble() * 4 - 2);
        }
    }
    return args;
}

/** Fingerprint of final buffer state. */
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

/** Merge two specs by argument name with consistent types. */
std::optional<sl::EmitSpec>
unifySpecs(const sl::EmitSpec &a, const sl::EmitSpec &b)
{
    sl::EmitSpec out = a;
    for (const auto &[name, type] : b.args) {
        bool found = false;
        for (const auto &[existing_name, existing_type] : out.args) {
            if (existing_name == name) {
                if (!(existing_type == type))
                    return std::nullopt;
                found = true;
            }
        }
        if (!found)
            out.args.emplace_back(name, type);
    }
    return out;
}

enum class RunStatus { Ok, Trap, Canceled };

/** Approximate heap bytes of a set of runtime buffers. */
int64_t
bufferBytes(const std::vector<std::unique_ptr<ir::Buffer>> &buffers)
{
    int64_t total = 0;
    for (const auto &buffer : buffers) {
        total += static_cast<int64_t>(buffer->ints.size() * 8 +
                                      buffer->floats.size() * 8 + 64);
    }
    return total;
}

/** RAII charge of interpreter-heap bytes against the context. */
class ScopedInterpCharge
{
  public:
    ScopedInterpCharge(const ExecContext &exec, int64_t bytes)
        : exec_(exec), bytes_(bytes)
    {
        exec_.chargeMem(MemSubsystem::Interp, bytes_);
    }
    ~ScopedInterpCharge()
    {
        exec_.chargeMem(MemSubsystem::Interp, -bytes_);
    }

  private:
    const ExecContext &exec_;
    int64_t bytes_;
};

/** A statement term lowered for co-simulation; nullopt when it cannot
 *  be emitted. */
std::optional<ir::Module>
lowerTerm(const TermPtr &statement, const sl::EmitSpec &spec)
{
    try {
        return sl::termToFunc(statement, spec);
    } catch (const FatalError &) {
        return std::nullopt;
    }
}

/** Inconclusive causes: cause k < 6 is ir::TrapKind k, then these.
 *  A check collects the causes it hits as bits. */
constexpr unsigned kUnemittable = 6;
constexpr unsigned kOtherFault = 7;
static_assert(static_cast<unsigned>(ir::TrapKind::Unsupported) <
              kUnemittable);

unsigned
causeBit(unsigned cause)
{
    return 1u << cause;
}

unsigned
causeBit(ir::TrapKind kind)
{
    return causeBit(static_cast<unsigned>(kind));
}

const char *
causeName(unsigned cause)
{
    if (cause == kUnemittable)
        return "unemittable";
    if (cause == kOtherFault)
        return "other";
    return ir::trapKindName(static_cast<ir::TrapKind>(cause));
}

/** The names of the causes set in `causes`, in cause order. */
std::vector<const char *>
causeNames(unsigned causes)
{
    std::vector<const char *> names;
    for (unsigned cause = 0; cause <= kOtherFault; ++cause) {
        if (causes & causeBit(cause))
            names.push_back(causeName(cause));
    }
    return names;
}

/** Execute a decoded term on the given argument seed; a term that
 *  could not be emitted traps. Each trap adds its cause to `causes`. */
RunStatus
runTerm(const std::optional<ir::Program> &program, const sl::EmitSpec &spec,
        uint64_t seed, const VerifyOptions &verify_options,
        std::vector<int64_t> &state, unsigned &causes)
{
    if (!program) {
        causes |= causeBit(kUnemittable);
        return RunStatus::Trap;
    }
    std::vector<std::unique_ptr<ir::Buffer>> buffers;
    Rng rng(seed);
    ir::InterpOptions options;
    options.max_steps = verify_options.max_steps;
    options.exec = verify_options.exec;
    try {
        std::vector<ir::RtValue> args = buildArgs(spec, buffers, rng);
        ScopedInterpCharge charge(verify_options.exec,
                                  bufferBytes(buffers));
        ir::interpret(*program, spec.func_name, std::move(args), options);
    } catch (const ir::InterpError &err) {
        // Cancellation is the *caller's* budget expiring, not evidence
        // about the program: never let it count as a trap verdict.
        causes |= causeBit(err.kind());
        return err.isCancellation() ? RunStatus::Canceled
                                    : RunStatus::Trap;
    } catch (const FatalError &) {
        causes |= causeBit(kOtherFault);
        return RunStatus::Trap;
    } catch (const std::bad_alloc &) {
        // Injected/genuine allocation failure while building buffers:
        // an infrastructure fault, not evidence about the program.
        causes |= causeBit(kOtherFault);
        return RunStatus::Trap;
    }
    state = fingerprint(buffers);
    return RunStatus::Ok;
}

/** A term check's verdict and what verifyRecords reports beside it. */
struct TermCheck
{
    bool ok = true;
    bool proved_identical = false;
    unsigned causes = 0; ///< inconclusive causes hit, as bits
};

/** Turn a value-term pair into statements, in place, and unify the two
 *  sides' specs; nullopt, with a diagnostic, when they cannot share one. */
std::optional<sl::EmitSpec>
unifySides(TermPtr &lhs, TermPtr &rhs, std::string *diagnostic)
{
    if (!sl::isStatementSymbol(lhs->op())) {
        ir::Type type = typeOfValueTerm(lhs);
        if (type.isNone()) {
            if (diagnostic)
                *diagnostic = "cannot type lhs value term";
            return std::nullopt;
        }
        lhs = wrapValueTerm(lhs, type);
        rhs = wrapValueTerm(rhs, type);
    }
    auto spec = unifySpecs(sl::inferSpec(lhs, "check"),
                           sl::inferSpec(rhs, "check"));
    if (!spec && diagnostic)
        *diagnostic = "argument type mismatch between sides";
    return spec;
}

TermCheck
checkTerms(const TermPtr &lhs, const TermPtr &rhs,
           const VerifyOptions &options, std::string *diagnostic)
{
    TermCheck check;
    TermPtr lhs_statement = lhs, rhs_statement = rhs;
    std::optional<sl::EmitSpec> spec =
        unifySides(lhs_statement, rhs_statement, diagnostic);
    if (!spec) {
        check.ok = false;
        return check;
    }
    if (options.runs <= 0 || options.exec.canceled()) {
        if (options.exec.canceled())
            check.causes |= causeBit(ir::TrapKind::Deadline);
        if (diagnostic)
            *diagnostic = "<inconclusive>";
        return check;
    }

    // Each side is lowered once; every run interprets the same module.
    // Two identical programs agree on every input, so identity is a
    // proof and nothing needs to run.
    std::optional<ir::Module> lhs_module = lowerTerm(lhs_statement, *spec);
    std::optional<ir::Module> rhs_module = lowerTerm(rhs_statement, *spec);
    if (lhs_module && rhs_module && ir::identical(*lhs_module, *rhs_module)) {
        check.proved_identical = true;
        return check;
    }
    // Each side is decoded once, too, for all its runs.
    std::optional<ir::Program> lhs_program, rhs_program;
    if (lhs_module)
        lhs_program.emplace(*lhs_module);
    if (rhs_module)
        rhs_program.emplace(*rhs_module);
    int conclusive = 0;
    for (int run = 0; run < options.runs; ++run) {
        // Cooperative cancellation between runs (and, via
        // InterpOptions::exec, inside them).
        if (options.exec.canceled()) {
            check.causes |= causeBit(ir::TrapKind::Deadline);
            break;
        }
        uint64_t seed = options.seed + 7919 * run;
        std::vector<int64_t> lhs_state, rhs_state;
        RunStatus ls = runTerm(lhs_program, *spec, seed, options,
                               lhs_state, check.causes);
        RunStatus rs = runTerm(rhs_program, *spec, seed, options,
                               rhs_state, check.causes);
        if (ls == RunStatus::Canceled || rs == RunStatus::Canceled)
            break; // deadline expired mid-run: stop, stay inconclusive
        if (ls == RunStatus::Trap || rs == RunStatus::Trap)
            continue; // inconclusive input (e.g. a free index went OOB)
        ++conclusive;
        if (lhs_state != rhs_state) {
            if (diagnostic) {
                *diagnostic = MsgBuilder()
                              << "counterexample at seed " << seed
                              << "\n  lhs: " << lhs->str()
                              << "\n  rhs: " << rhs->str();
            }
            check.ok = false;
            return check;
        }
    }
    if (conclusive == 0 && diagnostic)
        *diagnostic = "<inconclusive>";
    return check;
}

} // namespace

bool
checkTermEquivalence(const TermPtr &lhs, const TermPtr &rhs,
                     const VerifyOptions &options, std::string *diagnostic,
                     std::vector<std::string> *inconclusive_causes)
{
    std::string local;
    std::string &diag = diagnostic ? *diagnostic : local;
    TermCheck check = checkTerms(lhs, rhs, options, &diag);
    if (check.ok && diag == "<inconclusive>" && inconclusive_causes) {
        for (const char *name : causeNames(check.causes))
            inconclusive_causes->emplace_back(name);
    }
    return check.ok;
}

std::optional<LoweredTerms>
lowerTerms(const TermPtr &lhs, const TermPtr &rhs, std::string *diagnostic)
{
    TermPtr lhs_statement = lhs, rhs_statement = rhs;
    std::optional<sl::EmitSpec> spec =
        unifySides(lhs_statement, rhs_statement, diagnostic);
    if (!spec)
        return std::nullopt;
    return LoweredTerms{lowerTerm(lhs_statement, *spec),
                        lowerTerm(rhs_statement, *spec)};
}

json::Value
toJson(const VerifyReport &report)
{
    json::Value out{json::Object{}};
    out.set("checks", report.total_checks);
    out.set("proved_identical", report.proved_identical);
    out.set("inconclusive", report.inconclusive);
    json::Value causes{json::Object{}};
    for (const auto &[cause, count] : report.inconclusive_causes)
        causes.set(cause, count);
    out.set("inconclusive_causes", std::move(causes));
    return out;
}

VerifyReport
verifyRecords(const std::vector<eg::RewriteRecord> &records,
              const VerifyOptions &options)
{
    VerifyReport report;
    for (const auto &record : records) {
        ++report.total_checks;
        std::string diagnostic;
        TermCheck check = checkTerms(record.lhs, record.rhs, options,
                                     &diagnostic);
        if (check.ok && diagnostic == "<inconclusive>") {
            ++report.inconclusive;
            for (const char *name : causeNames(check.causes))
                ++report.inconclusive_causes[name];
        } else if (check.ok) {
            ++report.passed;
            report.proved_identical += check.proved_identical;
        } else if (report.failures.size() < options.max_failures) {
            report.failures.push_back(
                MsgBuilder() << "rule '" << record.rule
                             << "' failed validation: " << diagnostic);
        }
    }
    return report;
}

bool
checkModuleEquivalence(const ir::Module &lhs, const ir::Module &rhs,
                       const std::string &func_name,
                       const VerifyOptions &options,
                       std::string *diagnostic)
{
    return checkModuleEquivalence(lhs, rhs, func_name, InputPreparer(),
                                  options, diagnostic);
}

bool
checkModuleEquivalence(const ir::Module &lhs, const ir::Module &rhs,
                       const std::string &func_name,
                       const InputPreparer &prepare,
                       const VerifyOptions &options,
                       std::string *diagnostic)
{
    ir::Operation *lhs_func = lhs.lookupFunc(func_name);
    ir::Operation *rhs_func = rhs.lookupFunc(func_name);
    if (!lhs_func || !rhs_func) {
        if (diagnostic)
            *diagnostic = "function missing in one module";
        return false;
    }
    // Signatures must match argument-for-argument.
    ir::Block &lhs_body = lhs_func->region(0).block();
    ir::Block &rhs_body = rhs_func->region(0).block();
    if (lhs_body.numArgs() != rhs_body.numArgs()) {
        if (diagnostic)
            *diagnostic = "argument count mismatch";
        return false;
    }
    sl::EmitSpec spec;
    spec.func_name = func_name;
    for (size_t i = 0; i < lhs_body.numArgs(); ++i) {
        if (!(lhs_body.arg(i).type() == rhs_body.arg(i).type())) {
            if (diagnostic)
                *diagnostic = "argument type mismatch";
            return false;
        }
        spec.args.emplace_back("a" + std::to_string(i),
                               lhs_body.arg(i).type());
    }

    // Decoded once; every run interprets the same programs.
    ir::Program lhs_program(lhs), rhs_program(rhs);
    int conclusive = 0;
    for (int run = 0; run < options.runs; ++run) {
        // Same discipline as checkTermEquivalence: a canceled context
        // stops before the next run, even when every run so far was
        // too short to hit the interpreter's own cancellation poll.
        if (options.exec.canceled()) {
            if (diagnostic)
                *diagnostic = "<inconclusive>";
            return true;
        }
        uint64_t seed = options.seed + 104729 * run;
        std::vector<std::unique_ptr<ir::Buffer>> lhs_buffers,
            rhs_buffers;
        std::vector<ir::RtValue> lhs_args, rhs_args;
        try {
        if (prepare) {
            // Domain-aware workload: all arguments must be memrefs.
            std::vector<ir::Buffer> prepared;
            for (const auto &[name, type] : spec.args) {
                if (!type.isMemRef()) {
                    if (diagnostic)
                        *diagnostic = "preparer needs memref-only args";
                    return false;
                }
                prepared.emplace_back(type);
            }
            Rng rng(seed);
            prepare(prepared, rng);
            for (ir::Buffer &buffer : prepared) {
                lhs_buffers.push_back(
                    std::make_unique<ir::Buffer>(buffer));
                rhs_buffers.push_back(
                    std::make_unique<ir::Buffer>(std::move(buffer)));
                lhs_args.push_back(lhs_buffers.back().get());
                rhs_args.push_back(rhs_buffers.back().get());
            }
        } else {
            Rng lhs_rng(seed), rhs_rng(seed);
            lhs_args = buildArgs(spec, lhs_buffers, lhs_rng);
            rhs_args = buildArgs(spec, rhs_buffers, rhs_rng);
        }
        ir::InterpOptions interp_options;
        interp_options.max_steps = options.max_steps;
        interp_options.exec = options.exec;
        ScopedInterpCharge charge(options.exec,
                                  bufferBytes(lhs_buffers) +
                                      bufferBytes(rhs_buffers));
        // The input module itself trapping on this workload (random
        // indices out of range, say) leaves nothing to compare against:
        // the run is inconclusive, not a FAIL. Only a trap of the
        // optimized module alone is a FAIL.
        bool input_ran = false;
        try {
            ir::interpret(lhs_program, func_name, std::move(lhs_args),
                          interp_options);
            input_ran = true;
            ir::interpret(rhs_program, func_name, std::move(rhs_args),
                          interp_options);
        } catch (const ir::InterpError &err) {
            if (err.isCancellation()) {
                // The caller's deadline expired, not a program fault:
                // report the documented inconclusive acceptance instead
                // of a spurious FAIL (callers with a deadline re-check
                // the clock before trusting the verdict).
                if (diagnostic)
                    *diagnostic = "<inconclusive>";
                return true;
            }
            if (!input_ran)
                continue;
            if (diagnostic)
                *diagnostic = std::string("trap: ") + err.what();
            return false;
        } catch (const FatalError &err) {
            if (!input_ran)
                continue;
            if (diagnostic)
                *diagnostic = std::string("trap: ") + err.what();
            return false;
        }
        } catch (const std::bad_alloc &) {
            // Allocation failure while building the workload or running
            // either side: contained as a trap, not a crash.
            if (diagnostic)
                *diagnostic = "trap: allocation failure (contained)";
            return false;
        }
        if (fingerprint(lhs_buffers) != fingerprint(rhs_buffers)) {
            if (diagnostic) {
                *diagnostic = MsgBuilder()
                              << "memory state diverges at seed "
                              << seed;
            }
            return false;
        }
        ++conclusive;
    }
    if (conclusive == 0 && diagnostic)
        *diagnostic = "<inconclusive>";
    return true;
}

} // namespace seer::core
