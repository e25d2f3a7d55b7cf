/**
 * @file
 * SeerLang symbol encoding.
 *
 * SeerLang is the S-expression language that interfaces the IR with the
 * e-graph (Section 4.2 of the paper). Every operator symbol encodes the
 * operation name plus its static payload, separated by colons:
 *
 *   const:42:i32            integer/index literal
 *   constf:0x1.8p+1:f64     f64 literal (hex-float for exact round-trip)
 *   arg:a:memref<8xi32>     function argument leaf
 *   var:i                   loop induction variable leaf (index typed)
 *   arith.addi:i32          value op (type-annotated)
 *   arith.cmpi:slt:i32      compare (predicate + operand type)
 *   arith.extsi:i8:i32      cast (from + to types)
 *   memref.load:t7          tagged load   (children: mem, indices...)
 *   memref.store:t8         tagged store  (children: value, mem, idx...)
 *   memref.alloc:memref<4xi32>:t9  tagged allocation leaf
 *   affine.for:i:L3         loop (children: lb, ub, step, body)
 *   scf.if                  statement if (children: cond, then, else)
 *   scf.while:t4            while (children: cond-effects, cond, body)
 *   seq                     statement sequencing (children: a, b)
 *   nop                     empty statement
 *   func:name               function root (children: body)
 *
 * Every decoder below reads the fields the interner split once, when the
 * symbol was first interned (Symbol::fields); none re-splits the text.
 * Returned views point into the interned text and are valid for the
 * lifetime of the process.
 *
 * Memory operations carry a unique tag so that two textually identical
 * accesses at different program points can never be hash-consed together
 * (the paper instead assumes a dependence between every pair of memory
 * ops; the tag realizes exactly that ordering discipline).
 */
#ifndef SEER_SEERLANG_ENCODING_H_
#define SEER_SEERLANG_ENCODING_H_

#include <optional>
#include <string_view>

#include "egraph/term.h"
#include "ir/type.h"

namespace seer::sl {

// Symbol comes from support/symbol.h (namespace seer).

// --- Constants ----------------------------------------------------------

Symbol encodeIntConst(int64_t value, ir::Type type);
Symbol encodeFloatConst(double value);

/** Integer literal (value, type); nullopt if not an integer literal. */
std::optional<std::pair<int64_t, ir::Type>> decodeIntConst(Symbol symbol);
std::optional<double> decodeFloatConst(Symbol symbol);

// --- Leaves -------------------------------------------------------------

Symbol encodeArg(const std::string &name, ir::Type type);
std::optional<std::pair<std::string_view, ir::Type>>
decodeArg(Symbol symbol);

Symbol encodeVar(const std::string &name);
std::optional<std::string_view> decodeVar(Symbol symbol);

// --- Value ops ----------------------------------------------------------

/** Generic value op: "<opname>:<field>:<field>..." */
Symbol encodeOp(const std::string &op_name,
                const std::vector<std::string> &fields);

/** The IR op name prefix of a symbol ("arith.addi" of "arith.addi:i32").
 *  The fields after it are eg::splitSymbol(symbol).subspan(1). */
std::string_view opNameOf(Symbol symbol);

// --- Tagged memory / control symbols -----------------------------------

/** Fresh process-unique tag (t0, t1, ...). */
std::string freshTag();

/** Fresh loop id (L0, L1, ...). */
std::string freshLoopId();

/**
 * Deterministic fresh-name scope (RAII, per thread).
 *
 * While a scope is active on the current thread, freshTag()/
 * freshLoopId() draw from a stream derived from the scope's seed
 * ("t<seed-hex>x<n>" / "L<seed-hex>x<n>") instead of the process-global
 * counters. Seeding the scope with the *content hash* of the term being
 * worked on makes snippet evaluation a pure function of its inputs:
 * re-evaluating the same snippet — on any thread, in any order, in any
 * process — reproduces byte-identical tags and loop ids. That is what
 * lets the pass-outcome cache hand back a recorded replacement as if it
 * had just been computed, and what makes -j 1 and -j N explorations
 * bit-identical.
 *
 * Uniqueness discipline: global names are pure decimals ("t42"), scoped
 * names always contain the 'x' separator, and two scopes only share a
 * stream when their seeds collide — i.e. (for content-hash seeds) when
 * the snippets themselves are identical, in which case identical names
 * are exactly the intent. Scopes nest; the innermost wins.
 */
class NameScope
{
  public:
    explicit NameScope(uint64_t seed);
    ~NameScope();

    NameScope(const NameScope &) = delete;
    NameScope &operator=(const NameScope &) = delete;

  private:
    NameScope *previous_;
    uint64_t seed_;
    uint64_t next_ = 0;
    friend std::string freshTag();
    friend std::string freshLoopId();
};

Symbol encodeLoad(const std::string &tag);
Symbol encodeStore(const std::string &tag);
Symbol encodeAlloc(ir::Type type, const std::string &tag);
Symbol encodeFor(const std::string &iv_name, const std::string &loop_id);
Symbol encodeWhile(const std::string &tag);

/** True if the symbol denotes an affine.for term. */
bool isForSymbol(Symbol symbol);

/** Loop id field of an affine.for symbol. */
std::string_view loopIdOf(Symbol symbol);

/** Structural symbols. */
Symbol seqSymbol();
Symbol nopSymbol();
Symbol ifSymbol();
Symbol funcSymbol(const std::string &name);

/** True for symbols whose terms are statements (effects), not values. */
bool isStatementSymbol(Symbol symbol);

} // namespace seer::sl

#endif // SEER_SEERLANG_ENCODING_H_
