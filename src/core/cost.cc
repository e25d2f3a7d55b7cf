#include "core/cost.h"

#include "seerlang/encoding.h"

namespace seer::core {

double
loopLatency(const LoopRegistryEntry &entry)
{
    const hls::LoopConstraints &lc = entry.constraints;
    double trips = lc.trip ? static_cast<double>(*lc.trip)
                           : LatencyCost::kUnknownTrip;
    if (trips < 1)
        trips = 1;
    double body = static_cast<double>(
        std::max(lc.full_latency, lc.latency));
    double latency = lc.pipelined
                         ? (trips - 1) * static_cast<double>(lc.ii) + body
                         : trips * body;
    return std::max(1.0, latency);
}

double
LatencyCost::nodeCost(const eg::ENode &node) const
{
    std::string_view name = sl::opNameOf(node.op);
    if (name == "affine.for") {
        auto it = registry_.find(sl::loopIdOf(node.op));
        if (it != registry_.end())
            return loopLatency(it->second);
        // Unregistered loop: must never win against a registered
        // candidate (every rewrite registers the loops it creates).
        return 1e9;
    }
    if (name == "scf.while") {
        // Whiles never pipeline; a nominal dynamic cost keeps them
        // comparable without dominating.
        return kUnknownTrip * 4;
    }
    // Straight-line statements are not free: each memory op occupies a
    // cycle and each if a couple of FSM states. This plays the role of
    // the paper's "a completely unrolled loop is still a loop with
    // iteration count 1" rule — unrolled chains must not cost zero.
    if (name == "memref.load" || name == "memref.store")
        return 1;
    if (name == "scf.if")
        return 2;
    return 0; // Eqn 2: everything else is free in phase 1
}

namespace {

std::map<std::string, int64_t>
unionAccesses(const hls::LoopConstraints &a, const hls::LoopConstraints &b)
{
    std::map<std::string, int64_t> out = a.accesses;
    for (const auto &[memref, count] : b.accesses)
        out[memref] += count;
    return out;
}

int64_t
maxSingleArray(const std::map<std::string, int64_t> &accesses)
{
    int64_t m = 1;
    for (const auto &[memref, count] : accesses)
        m = std::max(m, count);
    return m;
}

} // namespace

LoopRegistryEntry
fuseLaw(const LoopRegistryEntry &first, const LoopRegistryEntry &second)
{
    const hls::LoopConstraints &a = first.constraints;
    const hls::LoopConstraints &b = second.constraints;
    LoopRegistryEntry out;
    out.constraints.accesses = unionAccesses(a, b);
    out.constraints.latency = std::max(a.latency, b.latency);
    out.constraints.full_latency =
        std::max(a.full_latency, b.full_latency);
    if (a.trip && b.trip)
        out.constraints.trip = std::max(*a.trip, *b.trip);
    out.constraints.pipelined = a.pipelined && b.pipelined;
    int64_t port_ii = maxSingleArray(out.constraints.accesses);
    out.constraints.ii = std::max({a.ii, b.ii, port_ii});
    if (!out.constraints.pipelined)
        out.constraints.ii = out.constraints.latency;
    return out;
}

LoopRegistryEntry
flattenLaw(const LoopRegistryEntry &outer, const LoopRegistryEntry &inner)
{
    LoopRegistryEntry out;
    out.constraints = inner.constraints;
    if (outer.constraints.trip && inner.constraints.trip) {
        out.constraints.trip =
            *outer.constraints.trip * *inner.constraints.trip;
    } else {
        out.constraints.trip = std::nullopt;
    }
    out.coalesced = true;
    return out;
}

LoopRegistryEntry
unrollLaw(const LoopRegistryEntry &loop)
{
    const hls::LoopConstraints &a = loop.constraints;
    LoopRegistryEntry out;
    int64_t trips = a.trip.value_or(LatencyCost::kUnknownTripInt);
    out.constraints.ii = 1;
    out.constraints.latency = std::max<int64_t>(1, trips * a.latency);
    out.constraints.full_latency =
        std::max<int64_t>(1, trips * a.full_latency);
    out.constraints.trip = 1;
    out.constraints.pipelined = false;
    for (const auto &[memref, count] : a.accesses)
        out.constraints.accesses[memref] = count * trips;
    return out;
}

} // namespace seer::core
