#include "ir/interp.h"

#include <algorithm>
#include <bit>
#include <exception>
#include <functional>
#include <new>
#include <unordered_map>

#include "ir/ops.h"
#include "ir/printer.h"
#include "support/error.h"
#include "support/fault_inject.h"

namespace seer::ir {

Buffer::Buffer(Type memref_type) : type(memref_type)
{
    SEER_ASSERT(memref_type.isMemRef(), "Buffer needs a memref type");
    if (faultFire(FaultPoint::InterpAlloc))
        throw std::bad_alloc();
    int64_t n = memref_type.numElements();
    if (isFloat())
        floats.assign(static_cast<size_t>(n), 0.0);
    else
        ints.assign(static_cast<size_t>(n), 0);
}

int64_t
Buffer::size() const
{
    return type.numElements();
}

int64_t
wrapToWidth(int64_t value, unsigned width)
{
    if (width >= 64)
        return value;
    uint64_t shifted = static_cast<uint64_t>(value) << (64 - width);
    return static_cast<int64_t>(shifted) >> (64 - width);
}

const char *
trapKindName(TrapKind kind)
{
    switch (kind) {
    case TrapKind::Deadline: return "deadline";
    case TrapKind::StepLimit: return "step_limit";
    case TrapKind::OutOfBounds: return "out_of_bounds";
    case TrapKind::DivideByZero: return "divide_by_zero";
    case TrapKind::BadCall: return "bad_call";
    case TrapKind::Unsupported: return "unsupported";
    }
    return "unknown";
}

namespace detail {

/**
 * Instruction opcodes. The first three end or abort a block and take no
 * step; every later opcode takes one step before it runs.
 */
enum class Opc : uint8_t
{
    Exit,         ///< the block's terminator; `list` holds its operands
    Unknown,      ///< an op name no dialect registers
    Unterminated, ///< the block runs off its end
    Fault,        ///< a trap found at decode time, raised when the op runs
    For, If, While, Call,
    ConstI, ConstF, Alloc, Load, Store, Select, CmpI, CmpF,
    NegF, Copy, ExtUI, TruncI, SIToFP, FPToSI,
    AddF, SubF, MulF, DivF,
    AddI, SubI, MulI, DivSI, DivUI, RemSI, RemUI,
    AndI, OrI, XOrI, ShLI, ShRSI, ShRUI, MinSI, MaxSI,
};

/** cmpf predicates; an Instr's `pred` indexes this. */
constexpr std::string_view kCmpFPreds[] = {"oeq", "one", "olt",
                                           "ole", "ogt", "oge"};

/**
 * One decoded op. Slots index the running function's frame; `list` and
 * `count` are a span of Code::slots (load/store indices, call
 * arguments, a terminator's operands).
 */
struct Instr
{
    Opc opc = Opc::Fault;
    uint8_t pred = 0;   ///< CmpPred, or an index into kCmpFPreds
    uint8_t width = 64; ///< bitwidth the result wraps to
    uint32_t out = 0;   ///< result slot; the first of an if's or call's
    uint32_t a = 0, b = 0;
    /** Select's third operand; for for/if/while, call and fault: the
     *  Nest, callee or fault index. */
    uint32_t c = 0;
    uint32_t list = 0, count = 0;
    /** A constant (a float's bits), an unsigned mask, or 1 on an
     *  scf.condition exit. */
    int64_t imm = 0;
    const Operation *op = nullptr;
};

/**
 * The nested blocks of a for, if or while. They follow their op in the
 * instruction array; `next` is where its block goes on.
 */
struct Nest
{
    uint32_t body = 0; ///< for body, if then, while condition
    uint32_t alt = 0;  ///< if else, while body
    uint32_t next = 0;
    uint32_t nout = 0; ///< an if's result count
    // affine.for: constant + sum of (slot, coeff) terms, per bound.
    int64_t lb = 0, ub = 0, step = 1;
    uint32_t lb_terms = 0, lb_count = 0, ub_terms = 0, ub_count = 0;
};

/** A block: its instructions run from `start` to its Exit. */
struct BlockCode
{
    uint32_t start = 0;
    const Block *block = nullptr;
};

/** A function: its body block and the size of its frame. */
struct FuncCode
{
    const Operation *op = nullptr;
    uint32_t body = 0;
    uint32_t num_args = 0; ///< arguments take the first slots
    uint32_t num_slots = 0;
};

/** A decoded module, all functions in one instruction array. */
struct Code
{
    std::vector<Instr> instrs;
    std::vector<uint32_t> slots;
    std::vector<std::pair<uint32_t, int64_t>> terms;
    std::vector<Nest> nests;
    std::vector<BlockCode> blocks;
    std::vector<FuncCode> funcs;
    /** Each raises one deferred trap. */
    std::vector<std::function<void()>> faults;
};

} // namespace detail

namespace {

using detail::BlockCode;
using detail::Code;
using detail::FuncCode;
using detail::Instr;
using detail::Nest;
using detail::Opc;

/** Raise a typed interpreter trap (fatal() with a TrapKind). */
[[noreturn]] void
trap(TrapKind kind, const std::string &msg)
{
    throw InterpError(kind, msg);
}

/** Thrown while decoding an op that would trap or panic if it ran:
 *  `raise` does so, and the op decodes to a Fault that calls it. */
struct Deferred
{
    std::function<void()> raise;
};

/** Decodes every function of a module into a Code. */
class Decoder
{
  public:
    Decoder(const Module &module, Code &code) : module_(module), code_(code)
    {}

    void
    run()
    {
        // Number the functions first so calls resolve in any order;
        // callees resolve as Module::lookupFunc does.
        size_t ops = 0, operands = 0;
        for (const auto &op : module_.ops()) {
            if (op->nameStr() == opnames::kFunc && op->hasAttr("sym_name")) {
                FuncCode fn;
                fn.op = op.get();
                if (op->numRegions() > 0)
                    fn.num_args = blockOf(*op, 0).numArgs();
                func_index_.emplace(op.get(), code_.funcs.size());
                code_.funcs.push_back(fn);
                walk(*op, [&](Operation &inner) {
                    ops += 1 + inner.numRegions();
                    operands += inner.numOperands();
                });
            }
        }
        // Reserved up front, so decoding never reallocates.
        code_.instrs.reserve(ops);
        code_.slots.reserve(operands);
        for (FuncCode &fn : code_.funcs) {
            slots_.clear();
            num_slots_ = 0;
            if (fn.op->numRegions() > 0) {
                const Block &body = blockOf(*fn.op, 0);
                for (size_t i = 0; i < body.numArgs(); ++i)
                    define(body.arg(i));
                fn.body = block(body);
            } else {
                code_.blocks.push_back(
                    {static_cast<uint32_t>(code_.instrs.size()), nullptr});
                code_.instrs.push_back(Instr{Opc::Unterminated});
                fn.body = code_.blocks.size() - 1;
            }
            fn.num_slots = num_slots_;
        }
    }

  private:
    /** Region `i`'s block, created when missing, as the IR does. */
    static const Block &
    blockOf(const Operation &op, size_t i)
    {
        return const_cast<Operation &>(op).region(i).block();
    }

    uint32_t
    slotOf(Value v)
    {
        auto [it, fresh] = slots_.try_emplace(v.impl(), num_slots_);
        if (fresh)
            ++num_slots_;
        return it->second;
    }

    uint32_t
    define(Value v)
    {
        slots_[v.impl()] = num_slots_;
        return num_slots_++;
    }

    /** Slots of operands [from, end) as a span of Code::slots. */
    void
    span(const Operation &op, size_t from, Instr &in)
    {
        in.list = code_.slots.size();
        in.count = op.numOperands() - from;
        for (size_t i = from; i < op.numOperands(); ++i)
            code_.slots.push_back(slotOf(op.operand(i)));
    }

    /** Results get consecutive slots; returns the first. */
    uint32_t
    results(const Operation &op)
    {
        uint32_t first = num_slots_;
        for (size_t i = 0; i < op.numResults(); ++i)
            define(op.result(i));
        return first;
    }

    /**
     * Decode a block up to its first terminator, in op order. An op's
     * nested blocks follow its instruction, so a block's instructions
     * are contiguous except where a Nest's `next` skips them.
     */
    uint32_t
    block(const Block &block)
    {
        code_.blocks.push_back(
            {static_cast<uint32_t>(code_.instrs.size()), &block});
        uint32_t id = code_.blocks.size() - 1;
        for (const auto &op_ptr : block.ops()) {
            const Operation &op = *op_ptr;
            Instr in;
            in.op = &op;
            if (!isRegisteredOp(op.name())) {
                in.opc = Opc::Unknown;
                code_.instrs.push_back(in);
                return id;
            }
            if (isTerminator(op)) {
                in.opc = Opc::Exit;
                span(op, 0, in);
                in.imm = isa(op, opnames::kCondition);
                code_.instrs.push_back(in);
                return id;
            }
            size_t pc = code_.instrs.size();
            code_.instrs.emplace_back(); // filled once nests are placed
            try {
                decode(op, in);
            } catch (Deferred &deferred) {
                in.opc = Opc::Fault;
                in.c = fault(std::move(deferred.raise));
            } catch (const std::bad_alloc &) {
                throw;
            } catch (...) {
                in.opc = Opc::Fault;
                in.c = fault([error = std::current_exception()] {
                    std::rethrow_exception(error);
                });
            }
            code_.instrs[pc] = in;
        }
        code_.instrs.push_back(Instr{Opc::Unterminated});
        return id;
    }

    uint32_t
    fault(std::function<void()> raise)
    {
        code_.faults.push_back(std::move(raise));
        return code_.faults.size() - 1;
    }

    [[noreturn]] static void
    deferTrap(TrapKind kind, std::string msg)
    {
        throw Deferred{[kind, msg] { trap(kind, msg); }};
    }

    /** An op short of the operands, results or regions its kind reads
     *  panics when it runs. */
    static void
    need(const Operation &op, size_t operands, size_t results,
         size_t regions = 0)
    {
        if (op.numOperands() < operands || op.numResults() < results ||
            op.numRegions() < regions) {
            std::string msg = "interpret: malformed op " + op.nameStr();
            throw Deferred{[msg] { panic(msg); }};
        }
    }

    static const Attribute &
    attrOf(const Operation &op, const std::string &key)
    {
        if (!op.hasAttr(key))
            throw Deferred{[&op, key] { (void)op.attr(key); }};
        return op.attr(key);
    }

    static uint8_t
    widthOf(Type type)
    {
        if (!type.isScalar())
            throw Deferred{[type] { (void)type.bitwidth(); }};
        return static_cast<uint8_t>(type.bitwidth());
    }

    static int64_t
    maskOf(unsigned width)
    {
        return static_cast<int64_t>(width >= 64 ? ~0ULL
                                                : ((1ULL << width) - 1));
    }

    /** Store a for/if/while's Nest, its blocks placed; returns its index. */
    uint32_t
    nest(const Nest &nest)
    {
        code_.nests.push_back(nest);
        return code_.nests.size() - 1;
    }

    void
    decode(const Operation &op, Instr &in)
    {
        static const std::unordered_map<std::string_view, Opc> kOps = {
            {opnames::kAffineFor, Opc::For}, {opnames::kIf, Opc::If},
            {opnames::kWhile, Opc::While},   {opnames::kCall, Opc::Call},
            {opnames::kConstant, Opc::ConstI}, {opnames::kAlloc, Opc::Alloc},
            {opnames::kLoad, Opc::Load},     {opnames::kStore, Opc::Store},
            {opnames::kSelect, Opc::Select}, {opnames::kCmpI, Opc::CmpI},
            {opnames::kCmpF, Opc::CmpF},     {opnames::kNegF, Opc::NegF},
            {opnames::kExtSI, Opc::Copy},    {opnames::kIndexCast, Opc::Copy},
            {opnames::kExtUI, Opc::ExtUI},   {opnames::kTruncI, Opc::TruncI},
            {opnames::kSIToFP, Opc::SIToFP}, {opnames::kFPToSI, Opc::FPToSI},
            {opnames::kAddF, Opc::AddF},     {opnames::kSubF, Opc::SubF},
            {opnames::kMulF, Opc::MulF},     {opnames::kDivF, Opc::DivF},
            {opnames::kAddI, Opc::AddI},     {opnames::kSubI, Opc::SubI},
            {opnames::kMulI, Opc::MulI},     {opnames::kDivSI, Opc::DivSI},
            {opnames::kDivUI, Opc::DivUI},   {opnames::kRemSI, Opc::RemSI},
            {opnames::kRemUI, Opc::RemUI},   {opnames::kAndI, Opc::AndI},
            {opnames::kOrI, Opc::OrI},       {opnames::kXOrI, Opc::XOrI},
            {opnames::kShLI, Opc::ShLI},     {opnames::kShRSI, Opc::ShRSI},
            {opnames::kShRUI, Opc::ShRUI},   {opnames::kMinSI, Opc::MinSI},
            {opnames::kMaxSI, Opc::MaxSI},
        };
        auto it = kOps.find(op.nameStr());
        if (it == kOps.end()) {
            deferTrap(TrapKind::Unsupported,
                      "interpret: unimplemented op " + op.nameStr());
        }
        in.opc = it->second;
        switch (in.opc) {
        case Opc::For: return decodeFor(op, in);
        case Opc::If: {
            need(op, 1, 0, 2);
            in.a = slotOf(op.operand(0));
            in.out = results(op);
            Nest n;
            n.nout = op.numResults();
            n.body = block(blockOf(op, 0));
            n.alt = block(blockOf(op, 1));
            n.next = code_.instrs.size();
            in.c = nest(n);
            return;
        }
        case Opc::While: {
            need(op, 0, 0, 2);
            Nest n;
            n.body = block(blockOf(op, 0));
            n.alt = block(blockOf(op, 1));
            n.next = code_.instrs.size();
            in.c = nest(n);
            return;
        }
        case Opc::Call: return decodeCall(op, in);
        case Opc::ConstI: {
            need(op, 0, 1);
            const Attribute &value = attrOf(op, "value");
            if (value.isInt()) {
                in.imm = value.asInt();
            } else {
                in.opc = Opc::ConstF;
                in.imm = std::bit_cast<int64_t>(value.asFloat());
            }
            in.out = define(op.result(0));
            return;
        }
        case Opc::Alloc:
            need(op, 0, 1);
            in.out = define(op.result(0));
            return;
        case Opc::Load:
            need(op, 1, 1);
            in.a = slotOf(op.operand(0));
            span(op, 1, in);
            in.out = define(op.result(0));
            return;
        case Opc::Store:
            need(op, 2, 0);
            in.a = slotOf(op.operand(0));
            in.b = slotOf(op.operand(1));
            span(op, 2, in);
            return;
        case Opc::Select:
            need(op, 3, 1);
            in.c = slotOf(op.operand(2));
            break;
        case Opc::CmpI:
            need(op, 2, 1);
            in.width = widthOf(op.operand(0).type());
            in.pred = static_cast<uint8_t>(
                parseCmpPred(attrOf(op, "predicate").asString()));
            break;
        case Opc::CmpF: {
            need(op, 2, 1);
            const std::string &pred = attrOf(op, "predicate").asString();
            auto *const begin = std::begin(detail::kCmpFPreds);
            auto *const end = std::end(detail::kCmpFPreds);
            auto *found = std::find(begin, end, pred);
            if (found == end) {
                deferTrap(TrapKind::Unsupported,
                          "interpret: unknown cmpf predicate " + pred);
            }
            in.pred = found - begin;
            break;
        }
        case Opc::NegF:
        case Opc::Copy:
        case Opc::SIToFP: need(op, 1, 1); break;
        case Opc::ExtUI:
            need(op, 1, 1);
            in.imm = maskOf(widthOf(op.operand(0).type()));
            break;
        case Opc::TruncI:
        case Opc::FPToSI:
            need(op, 1, 1);
            in.width = widthOf(op.result(0).type());
            break;
        case Opc::AddF:
        case Opc::SubF:
        case Opc::MulF:
        case Opc::DivF: need(op, 2, 1); break;
        default: // binary integer ops
            need(op, 2, 1);
            in.width = widthOf(op.result(0).type());
            in.imm = maskOf(in.width);
            break;
        }
        // Straight-line ops: operands a (and b), one result.
        in.a = slotOf(op.operand(0));
        if (op.numOperands() > 1)
            in.b = slotOf(op.operand(1));
        in.out = define(op.result(0));
    }

    void
    decodeFor(const Operation &op, Instr &in)
    {
        need(op, 0, 0, 1);
        for (const char *key :
             {"lb_const", "lb_coeffs", "ub_const", "ub_coeffs", "step"})
            attrOf(op, key);
        size_t terms = op.attr("lb_coeffs").asIntArray().size() +
                       op.attr("ub_coeffs").asIntArray().size();
        need(op, terms, 0);
        const Block &body = blockOf(op, 0);
        if (body.numArgs() == 0) // no induction variable
            need(op, 0, 0, op.numRegions() + 1);
        Nest n;
        auto addTerms = [&](const AffineBound &bound, uint32_t &first,
                            uint32_t &count) {
            first = code_.terms.size();
            count = bound.terms.size();
            for (const auto &[value, coeff] : bound.terms)
                code_.terms.emplace_back(slotOf(value), coeff);
        };
        AffineBound lb = getLowerBound(op), ub = getUpperBound(op);
        n.lb = lb.constant;
        n.ub = ub.constant;
        n.step = getStep(op);
        addTerms(lb, n.lb_terms, n.lb_count);
        addTerms(ub, n.ub_terms, n.ub_count);
        in.out = define(body.arg(0));
        n.body = block(body);
        n.next = code_.instrs.size();
        in.c = nest(n);
    }

    void
    decodeCall(const Operation &op, Instr &in)
    {
        const std::string &name = attrOf(op, "callee").asString();
        Operation *callee = module_.lookupFunc(name);
        if (!callee)
            deferTrap(TrapKind::BadCall, "interpret: unknown callee " + name);
        in.c = func_index_.at(callee);
        const FuncCode &fn = code_.funcs[in.c];
        if (op.numOperands() != fn.num_args) {
            deferTrap(TrapKind::BadCall,
                      MsgBuilder() << "interpret: function expects "
                                   << fn.num_args << " args, got "
                                   << op.numOperands());
        }
        span(op, 0, in);
        in.out = results(op);
    }

    const Module &module_;
    Code &code_;
    std::unordered_map<const Operation *, uint32_t> func_index_;
    /** The current function's value -> frame slot. */
    std::unordered_map<ValueImpl *, uint32_t> slots_;
    uint32_t num_slots_ = 0;
};

/** Runs decoded code: one frame of slots per function call. */
class Machine
{
  public:
    Machine(const Code &code, const InterpOptions &options)
        : code_(code), options_(options)
    {
        if (options_.profile) {
            op_counts_.assign(code_.instrs.size(), 0);
            loop_counts_.assign(code_.instrs.size(), {0, 0});
            block_counts_.assign(code_.blocks.size(), 0);
        }
    }

    InterpResult
    run(const std::string &func_name, std::vector<RtValue> args)
    {
        const FuncCode *fn = nullptr;
        for (const FuncCode &candidate : code_.funcs) {
            if (candidate.op->strAttr("sym_name") == func_name) {
                fn = &candidate;
                break;
            }
        }
        if (!fn)
            trap(TrapKind::BadCall,
                 "interpret: no function named '" + func_name + "'");
        if (args.size() != fn->num_args)
            trap(TrapKind::BadCall,
                 MsgBuilder()
                     << "interpret: function expects " << fn->num_args
                     << " args, got " << args.size());
        Frame frame = std::move(args);
        frame.resize(fn->num_slots);
        const Instr &exit = runBlock(fn->body, frame);
        InterpResult out;
        for (uint32_t i = 0; i < exit.count; ++i)
            out.results.push_back(frame[code_.slots[exit.list + i]]);
        out.steps = steps_;
        if (options_.profile)
            foldProfile(out.profile);
        return out;
    }

  private:
    using Frame = std::vector<RtValue>;

    static int64_t intOf(const RtValue &v) { return std::get<int64_t>(v); }
    static double floatOf(const RtValue &v) { return std::get<double>(v); }

    void
    tick(size_t pc)
    {
        if (++steps_ > options_.max_steps) {
            trap(TrapKind::StepLimit,
                 MsgBuilder() << "interpret: step limit exceeded at op "
                              << code_.instrs[pc].op->nameStr());
        }
        // Cooperative cancellation: poll the context cheaply (clock
        // reads amortized over 4096 steps) so one multi-million-step
        // simulation cannot blow far past the driver's --deadline,
        // memory budget, or a SIGINT.
        if ((steps_ & 0xfff) == 0 && options_.exec.canceled()) {
            trap(TrapKind::Deadline,
                 "interpret: deadline exceeded (cooperative cancel)");
        }
        if (options_.profile)
            ++op_counts_[pc];
    }

    int64_t
    bound(int64_t value, uint32_t first, uint32_t count, const Frame &f)
    {
        for (uint32_t i = first; i < first + count; ++i) {
            const auto &[slot, coeff] = code_.terms[i];
            value += coeff * intOf(f[slot]);
        }
        return value;
    }

    /** Flat element index of a load/store, trapping when out of bounds. */
    size_t
    index(const Instr &in, const Buffer &buffer, const Frame &f)
    {
        const auto &shape = buffer.type.shape();
        int64_t flat = 0;
        for (size_t d = 0; d < shape.size(); ++d) {
            int64_t idx = intOf(f[code_.slots[in.list + d]]);
            if (idx < 0 || idx >= shape[d]) {
                trap(TrapKind::OutOfBounds,
                     MsgBuilder()
                         << "interpret: out-of-bounds access: index "
                         << idx << " not in [0, " << shape[d]
                         << ") at op " << toString(*in.op));
            }
            flat = flat * shape[d] + idx;
        }
        return static_cast<size_t>(flat);
    }

    /** Copy `exit`'s operands into `to`'s slots [out, out + n). */
    void
    copyOut(const Instr &exit, const Frame &from, uint32_t out,
            uint32_t n, Frame &to)
    {
        for (uint32_t i = 0; i < n && i < exit.count; ++i)
            to[out + i] = from[code_.slots[exit.list + i]];
    }

    /** Run a block to its terminator, which is returned. */
    const Instr &
    runBlock(uint32_t block, Frame &f)
    {
        if (options_.profile)
            ++block_counts_[block];
        for (size_t pc = code_.blocks[block].start;;) {
            const Instr &in = code_.instrs[pc];
            if (in.opc <= Opc::Unterminated) {
                if (in.opc == Opc::Exit)
                    return in;
                if (in.opc == Opc::Unknown)
                    (void)opInfo(in.op->name()); // throws for the name
                panic("interpret: block without terminator");
            }
            tick(pc);
            pc = exec(in, pc, f);
        }
    }

    /** Execute one instruction; returns the next pc. */
    size_t
    exec(const Instr &in, size_t pc, Frame &f)
    {
        switch (in.opc) {
        case Opc::For: {
            const Nest &n = code_.nests[in.c];
            int64_t lb = bound(n.lb, n.lb_terms, n.lb_count, f);
            int64_t ub = bound(n.ub, n.ub_terms, n.ub_count, f);
            uint64_t iters = 0;
            for (int64_t iv = lb; iv < ub; iv += n.step) {
                f[in.out] = iv;
                runBlock(n.body, f);
                ++iters;
            }
            countLoop(pc, iters);
            return n.next;
        }
        case Opc::If: {
            const Nest &n = code_.nests[in.c];
            bool taken = intOf(f[in.a]) != 0;
            const Instr &exit = runBlock(taken ? n.body : n.alt, f);
            copyOut(exit, f, in.out, n.nout, f);
            return n.next;
        }
        case Opc::While: {
            const Nest &n = code_.nests[in.c];
            uint64_t iters = 0;
            while (true) {
                const Instr &exit = runBlock(n.body, f);
                SEER_ASSERT(exit.imm && exit.count > 0,
                            "scf.while condition region exit");
                if (intOf(f[code_.slots[exit.list]]) == 0)
                    break;
                runBlock(n.alt, f);
                if (++iters > options_.max_steps)
                    trap(TrapKind::StepLimit,
                         "interpret: scf.while iteration limit exceeded");
            }
            countLoop(pc, iters);
            return n.next;
        }
        case Opc::Call: {
            const FuncCode &fn = code_.funcs[in.c];
            Frame callee(fn.num_slots);
            for (uint32_t i = 0; i < in.count; ++i)
                callee[i] = f[code_.slots[in.list + i]];
            const Instr &exit = runBlock(fn.body, callee);
            copyOut(exit, callee, in.out, in.op->numResults(), f);
            break;
        }
        case Opc::Fault:
            code_.faults[in.c]();
            panic("interpret: deferred fault did not raise");
        case Opc::ConstI: f[in.out] = in.imm; break;
        case Opc::ConstF: f[in.out] = std::bit_cast<double>(in.imm); break;
        case Opc::Alloc:
            buffers_.push_back(
                std::make_unique<Buffer>(in.op->result(0).type()));
            f[in.out] = buffers_.back().get();
            break;
        case Opc::Load: {
            Buffer *buffer = std::get<Buffer *>(f[in.a]);
            size_t flat = index(in, *buffer, f);
            if (buffer->isFloat())
                f[in.out] = buffer->floats[flat];
            else
                f[in.out] = buffer->ints[flat];
            break;
        }
        case Opc::Store: {
            Buffer *buffer = std::get<Buffer *>(f[in.b]);
            size_t flat = index(in, *buffer, f);
            if (buffer->isFloat())
                buffer->floats[flat] = floatOf(f[in.a]);
            else
                buffer->ints[flat] = intOf(f[in.a]);
            break;
        }
        case Opc::Select:
            f[in.out] = f[intOf(f[in.a]) != 0 ? in.b : in.c];
            break;
        case Opc::CmpI:
            f[in.out] = static_cast<int64_t>(
                evalCmpI(static_cast<CmpPred>(in.pred), intOf(f[in.a]),
                         intOf(f[in.b]), in.width));
            break;
        case Opc::CmpF: {
            double lhs = floatOf(f[in.a]), rhs = floatOf(f[in.b]);
            bool r = false;
            switch (in.pred) {
            case 0: r = lhs == rhs; break;
            case 1: r = lhs != rhs; break;
            case 2: r = lhs < rhs; break;
            case 3: r = lhs <= rhs; break;
            case 4: r = lhs > rhs; break;
            default: r = lhs >= rhs; break;
            }
            f[in.out] = static_cast<int64_t>(r);
            break;
        }
        case Opc::NegF: f[in.out] = -floatOf(f[in.a]); break;
        case Opc::Copy: f[in.out] = intOf(f[in.a]); break;
        case Opc::ExtUI:
            f[in.out] = static_cast<int64_t>(
                static_cast<uint64_t>(intOf(f[in.a])) &
                static_cast<uint64_t>(in.imm));
            break;
        case Opc::TruncI:
            f[in.out] = wrapToWidth(intOf(f[in.a]), in.width);
            break;
        case Opc::SIToFP:
            f[in.out] = static_cast<double>(intOf(f[in.a]));
            break;
        case Opc::FPToSI:
            f[in.out] = wrapToWidth(static_cast<int64_t>(floatOf(f[in.a])),
                                    in.width);
            break;
        case Opc::AddF: f[in.out] = floatOf(f[in.a]) + floatOf(f[in.b]); break;
        case Opc::SubF: f[in.out] = floatOf(f[in.a]) - floatOf(f[in.b]); break;
        case Opc::MulF: f[in.out] = floatOf(f[in.a]) * floatOf(f[in.b]); break;
        case Opc::DivF: {
            double lhs = floatOf(f[in.a]), rhs = floatOf(f[in.b]);
            f[in.out] = rhs == 0 ? 0 : lhs / rhs;
            break;
        }
        default:
            f[in.out] = wrapToWidth(
                intBinary(in.opc, intOf(f[in.a]), intOf(f[in.b]),
                          static_cast<uint64_t>(in.imm)),
                in.width);
            break;
        }
        return pc + 1;
    }

    static int64_t
    intBinary(Opc opc, int64_t lhs, int64_t rhs, uint64_t umask)
    {
        uint64_t ul = static_cast<uint64_t>(lhs) & umask;
        uint64_t ur = static_cast<uint64_t>(rhs) & umask;
        switch (opc) {
        case Opc::AddI:
            return static_cast<int64_t>(static_cast<uint64_t>(lhs) +
                                        static_cast<uint64_t>(rhs));
        case Opc::SubI:
            return static_cast<int64_t>(static_cast<uint64_t>(lhs) -
                                        static_cast<uint64_t>(rhs));
        case Opc::MulI:
            return static_cast<int64_t>(static_cast<uint64_t>(lhs) *
                                        static_cast<uint64_t>(rhs));
        case Opc::DivSI:
            if (rhs == 0)
                trap(TrapKind::DivideByZero, "interpret: division by zero");
            return lhs / rhs;
        case Opc::DivUI:
            if (ur == 0)
                trap(TrapKind::DivideByZero, "interpret: division by zero");
            return static_cast<int64_t>(ul / ur);
        case Opc::RemSI:
            if (rhs == 0)
                trap(TrapKind::DivideByZero, "interpret: remainder by zero");
            return lhs % rhs;
        case Opc::RemUI:
            if (ur == 0)
                trap(TrapKind::DivideByZero, "interpret: remainder by zero");
            return static_cast<int64_t>(ul % ur);
        case Opc::AndI: return lhs & rhs;
        case Opc::OrI: return lhs | rhs;
        case Opc::XOrI: return lhs ^ rhs;
        case Opc::ShLI:
            return rhs >= 64 || rhs < 0
                       ? 0
                       : static_cast<int64_t>(static_cast<uint64_t>(lhs)
                                              << rhs);
        case Opc::ShRSI:
            return rhs >= 64 || rhs < 0 ? (lhs < 0 ? -1 : 0) : (lhs >> rhs);
        case Opc::ShRUI:
            return rhs >= 64 || rhs < 0 ? 0 : static_cast<int64_t>(ul >> rhs);
        case Opc::MinSI: return std::min(lhs, rhs);
        case Opc::MaxSI: return std::max(lhs, rhs);
        default: panic("interpret: not a binary integer opcode");
        }
    }

    void
    countLoop(size_t pc, uint64_t iters)
    {
        if (options_.profile) {
            loop_counts_[pc].first += 1;
            loop_counts_[pc].second += iters;
        }
    }

    /** Fold the per-instruction and per-block counts into `profile`. */
    void
    foldProfile(Profile &profile) const
    {
        for (size_t pc = 0; pc < code_.instrs.size(); ++pc) {
            const Operation *op = code_.instrs[pc].op;
            if (op_counts_[pc])
                profile.ops[op] += op_counts_[pc];
            if (loop_counts_[pc].first) {
                auto &entry = profile.loops[op];
                entry.first += loop_counts_[pc].first;
                entry.second += loop_counts_[pc].second;
            }
        }
        for (size_t b = 0; b < code_.blocks.size(); ++b) {
            if (block_counts_[b])
                profile.blocks[code_.blocks[b].block] += block_counts_[b];
        }
    }

    const Code &code_;
    const InterpOptions &options_;
    uint64_t steps_ = 0;
    std::vector<uint64_t> op_counts_;
    std::vector<std::pair<uint64_t, uint64_t>> loop_counts_;
    std::vector<uint64_t> block_counts_;
    std::vector<std::unique_ptr<Buffer>> buffers_;
};

} // namespace

Program::Program(const Module &module) : code_(std::make_unique<Code>())
{
    Decoder(module, *code_).run();
}

Program::~Program() = default;
Program::Program(Program &&) noexcept = default;
Program &Program::operator=(Program &&) noexcept = default;

InterpResult
interpret(const Program &program, const std::string &func_name,
          std::vector<RtValue> args, const InterpOptions &options)
{
    return Machine(program.code(), options).run(func_name, std::move(args));
}

InterpResult
interpret(const Module &module, const std::string &func_name,
          std::vector<RtValue> args, const InterpOptions &options)
{
    return interpret(Program(module), func_name, std::move(args), options);
}

} // namespace seer::ir
