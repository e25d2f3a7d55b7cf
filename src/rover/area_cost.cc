/**
 * @file
 * ROVER's gate-count area model and the analysis-friendly cost function,
 * both over SeerLang symbols.
 */
#include "rover/rover.h"

#include <cmath>
#include <span>
#include <string_view>

#include "seerlang/encoding.h"

namespace seer::rover {

namespace {

/**
 * Bitwidth encoded in a symbol's type field; 0 when not applicable.
 * Agrees with ir::parseType(type_field).bitwidth() on every scalar
 * spelling (iN for N in 1..64, index, f64) and is 0 wherever that parse
 * fails or yields a non-scalar, without building a Type or throwing:
 * this runs on every node-cost call.
 */
unsigned
widthOf(std::string_view type_field)
{
    if (type_field == "index" || type_field == "f64")
        return 64;
    if (type_field.size() < 2 || type_field[0] != 'i')
        return 0;
    unsigned width = 0;
    for (char c : type_field.substr(1)) {
        if (c < '0' || c > '9')
            return 0;
        width = width * 10 + static_cast<unsigned>(c - '0');
        if (width > 64)
            return 0;
    }
    return width;
}

/** An integer or float literal leaf (the shape decodeIntConst and
 *  decodeFloatConst accept), tested without parsing the literal. */
bool
isConstLeaf(std::span<const std::string_view> fields)
{
    return fields.size() == 3 &&
           (fields[0] == "const" || fields[0] == "constf");
}

} // namespace

double
RoverAreaCost::costWith(const eg::EGraph *egraph,
                        const eg::ENode &node) const
{
    auto fields = eg::splitSymbol(node.op).subspan(1);
    std::string_view name = sl::opNameOf(node.op);

    // Leaves and structure.
    if (name == "const" || name == "constf" || name == "arg" ||
        name == "var" || name == "nop" || name == "seq" ||
        name == "func") {
        return 0;
    }
    if (name == "memref.load" || name == "memref.store")
        return 28.0; // port logic, matches the HLS library
    if (name == "memref.alloc")
        return 0; // storage costed by the HLS back end
    if (name == "affine.for")
        return 130.0; // controller
    if (name == "scf.if")
        return 30.0;
    if (name == "scf.while")
        return 150.0;

    unsigned w = fields.empty() ? 32 : widthOf(fields.back());
    double dw = w;
    if (name == "arith.addi" || name == "arith.subi")
        return 5.5 * dw;
    if (name == "arith.muli") {
        // Multiplication by a constant is cheaper (shift-add network
        // synthesized by the backend) but far from free.
        return 1.9 * dw * dw;
    }
    if (name == "arith.shli" || name == "arith.shrsi" ||
        name == "arith.shrui") {
        // Constant shifts are wiring (the ASIC argument of Figure 9);
        // variable shifts need a barrel shifter.
        bool constant_amount = true;
        if (egraph && node.children.size() == 2) {
            constant_amount =
                egraph->constantOf(node.children[1]).has_value();
        }
        if (constant_amount)
            return 0;
        return 3.4 * dw * std::log2(std::max(2.0, dw));
    }
    if (name == "arith.andi" || name == "arith.ori" ||
        name == "arith.xori") {
        return 1.4 * dw;
    }
    if (name == "arith.cmpi" || name == "arith.cmpf") {
        unsigned ow = fields.size() >= 2 ? widthOf(fields[1]) : w;
        return 2.6 * ow;
    }
    if (name == "arith.select")
        return 2.3 * dw;
    if (name == "arith.divsi" || name == "arith.divui" ||
        name == "arith.remsi" || name == "arith.remui") {
        return 16.0 * dw;
    }
    if (name == "arith.minsi" || name == "arith.maxsi")
        return 7.8 * dw;
    if (name == "arith.addf" || name == "arith.subf")
        return 3100;
    if (name == "arith.mulf")
        return 5400;
    if (name == "arith.divf")
        return 9800;
    if (name == "arith.negf")
        return 18;
    if (name == "arith.extsi" || name == "arith.extui" ||
        name == "arith.trunci" || name == "arith.index_cast" ||
        name == "arith.sitofp" || name == "arith.fptosi") {
        return 0;
    }
    return 1.0; // unknown: nominal
}

double
AnalysisFriendlyCost::nodeCost(const eg::ENode &node) const
{
    auto fields = eg::splitSymbol(node.op);
    std::string_view name = fields[0];
    if (isConstLeaf(fields) || name == "arg" || name == "var")
        return 0;
    // Affine material: cheap, so extraction surfaces it.
    if (name == "arith.addi" || name == "arith.subi" ||
        name == "arith.muli" || name == "arith.index_cast" ||
        name == "arith.extsi") {
        return 1;
    }
    // Non-affine datapath tricks: expensive.
    if (name == "arith.shli" || name == "arith.shrsi" ||
        name == "arith.shrui" || name == "arith.andi" ||
        name == "arith.ori" || name == "arith.xori") {
        return 100;
    }
    // Everything else (statements, memory) neutral.
    return 2;
}

} // namespace seer::rover
