/**
 * @file
 * SEER's extraction cost functions (Section 4.6).
 *
 * Phase 1 minimizes total loop latency (Eqns 1-3): each affine.for
 * e-node costs L(n) = (N-1)*P + l using the scheduling-constraint
 * registry; everything else is free, with term size as tie-break.
 * Phase 2 (rover::RoverAreaCost) then minimizes datapath area over the
 * fixed control skeleton.
 */
#ifndef SEER_CORE_COST_H_
#define SEER_CORE_COST_H_

#include <map>
#include <string>

#include "egraph/extract.h"
#include "hls/schedule.h"

namespace seer::core {

/** Registry entry: scheduling constraints plus transformation trust. */
struct LoopRegistryEntry
{
    hls::LoopConstraints constraints;
    /** Set when the loop came from a legality-checked coalescing. */
    bool coalesced = false;
};

/**
 * Loop id -> constraints, seeded from the initial HLS schedule and
 * extended by the approximation laws as rewrites create new loops. It
 * stops changing when saturation ends, so extraction reads LatencyCost
 * over a frozen registry and a frozen graph.
 */
using LoopRegistry = std::map<std::string, LoopRegistryEntry, std::less<>>;

/** The control-path latency cost (Eqn 2/3). */
class LatencyCost : public eg::CostModel
{
  public:
    explicit LatencyCost(const LoopRegistry &registry)
        : registry_(registry)
    {}

    double nodeCost(const eg::ENode &node) const override;

    std::string name() const override { return "latency"; }

    /** Trip-count estimate used when N is not statically known. */
    static constexpr int64_t kUnknownTripInt = 16;
    static constexpr double kUnknownTrip =
        static_cast<double>(kUnknownTripInt);

  private:
    const LoopRegistry &registry_;
};

/** L(n) for a registry entry: max(1, (N-1)*P + l). */
double loopLatency(const LoopRegistryEntry &entry);

// --- The paper's approximation laws (Section 4.6) -----------------------

/** Fused loop law: P' = max(P1, P2, M(A1 u A2)), l' = max, N' = max. */
LoopRegistryEntry fuseLaw(const LoopRegistryEntry &first,
                          const LoopRegistryEntry &second);

/** Flattened nest law: (P_in, l_in, N_out * N_in, A_in). */
LoopRegistryEntry flattenLaw(const LoopRegistryEntry &outer,
                             const LoopRegistryEntry &inner);

/** Unrolled loop law: (1, N*l, 1, N*A). */
LoopRegistryEntry unrollLaw(const LoopRegistryEntry &loop);

} // namespace seer::core

#endif // SEER_CORE_COST_H_
