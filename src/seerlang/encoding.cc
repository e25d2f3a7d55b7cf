#include "seerlang/encoding.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "ir/parser.h"
#include "support/error.h"

namespace seer::sl {

using eg::joinSymbol;
using eg::splitSymbol;

namespace {

std::atomic<uint64_t> tag_counter{0};
std::atomic<uint64_t> loop_counter{0};

/** Innermost active NameScope of this thread (nullptr: global stream). */
thread_local NameScope *active_scope = nullptr;

/** "<seed-hex>x<n>": scoped names embed their stream so independent
 *  scopes can never collide with each other or with the decimal global
 *  stream. */
std::string
scopedName(uint64_t seed, uint64_t n)
{
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%016llxx%llu",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(n));
    return buffer;
}

} // namespace

NameScope::NameScope(uint64_t seed)
    : previous_(active_scope), seed_(seed)
{
    active_scope = this;
}

NameScope::~NameScope()
{
    active_scope = previous_;
}

Symbol
encodeIntConst(int64_t value, ir::Type type)
{
    return joinSymbol({"const", std::to_string(value), type.str()});
}

Symbol
encodeFloatConst(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%a", value);
    return joinSymbol({"constf", buffer, "f64"});
}

std::optional<std::pair<int64_t, ir::Type>>
decodeIntConst(Symbol symbol)
{
    auto fields = splitSymbol(symbol);
    if (fields.size() != 3 || fields[0] != "const")
        return std::nullopt;
    return std::make_pair(std::stoll(std::string(fields[1])),
                          ir::parseType(fields[2]));
}

std::optional<double>
decodeFloatConst(Symbol symbol)
{
    auto fields = splitSymbol(symbol);
    if (fields.size() != 3 || fields[0] != "constf")
        return std::nullopt;
    // The ':' after the literal in the interned text ends it the way a
    // terminating NUL would: no strtod syntax contains a ':'.
    return std::strtod(fields[1].data(), nullptr);
}

Symbol
encodeArg(const std::string &name, ir::Type type)
{
    return joinSymbol({"arg", name, type.str()});
}

std::optional<std::pair<std::string_view, ir::Type>>
decodeArg(Symbol symbol)
{
    auto fields = splitSymbol(symbol);
    if (fields.size() != 3 || fields[0] != "arg")
        return std::nullopt;
    return std::make_pair(fields[1], ir::parseType(fields[2]));
}

Symbol
encodeVar(const std::string &name)
{
    return joinSymbol({"var", name});
}

std::optional<std::string_view>
decodeVar(Symbol symbol)
{
    auto fields = splitSymbol(symbol);
    if (fields.size() != 2 || fields[0] != "var")
        return std::nullopt;
    return fields[1];
}

Symbol
encodeOp(const std::string &op_name,
         const std::vector<std::string> &fields)
{
    std::vector<std::string> all{op_name};
    all.insert(all.end(), fields.begin(), fields.end());
    return joinSymbol(all);
}

std::string_view
opNameOf(Symbol symbol)
{
    return splitSymbol(symbol)[0];
}

std::string
freshTag()
{
    if (active_scope)
        return "t" + scopedName(active_scope->seed_,
                                active_scope->next_++);
    return "t" + std::to_string(tag_counter++);
}

std::string
freshLoopId()
{
    if (active_scope)
        return "L" + scopedName(active_scope->seed_,
                                active_scope->next_++);
    return "L" + std::to_string(loop_counter++);
}

Symbol
encodeLoad(const std::string &tag)
{
    return joinSymbol({"memref.load", tag});
}

Symbol
encodeStore(const std::string &tag)
{
    return joinSymbol({"memref.store", tag});
}

Symbol
encodeAlloc(ir::Type type, const std::string &tag)
{
    return joinSymbol({"memref.alloc", type.str(), tag});
}

Symbol
encodeFor(const std::string &iv_name, const std::string &loop_id)
{
    return joinSymbol({"affine.for", iv_name, loop_id});
}

Symbol
encodeWhile(const std::string &tag)
{
    return joinSymbol({"scf.while", tag});
}

bool
isForSymbol(Symbol symbol)
{
    return opNameOf(symbol) == "affine.for";
}

std::string_view
loopIdOf(Symbol symbol)
{
    auto fields = splitSymbol(symbol);
    SEER_ASSERT(fields.size() == 3 && fields[0] == "affine.for",
                "loopIdOf on non-loop symbol " << symbol.str());
    return fields[2];
}

Symbol
seqSymbol()
{
    return Symbol("seq");
}

Symbol
nopSymbol()
{
    return Symbol("nop");
}

Symbol
ifSymbol()
{
    return Symbol("scf.if");
}

Symbol
funcSymbol(const std::string &name)
{
    return joinSymbol({"func", name});
}

bool
isStatementSymbol(Symbol symbol)
{
    std::string_view op = opNameOf(symbol);
    return op == "seq" || op == "nop" || op == "scf.if" ||
           op == "scf.while" || op == "affine.for" ||
           op == "memref.store" || op == "memref.load" ||
           op == "memref.alloc" || op == "func";
}

} // namespace seer::sl
