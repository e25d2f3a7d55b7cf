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
#include <string_view>
#include <vector>

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
 * extended by the approximation laws as rewrites create new loops.
 *
 * Mutable access goes through operator[], which records the key in a
 * touch log: a registered latency cost-bound analysis resyncs from the
 * log (LatencyCost::touchedSince) and invalidates only the classes whose
 * loops actually changed, instead of recomputing every bound.
 */
class LoopRegistry
{
  public:
    using Map = std::map<std::string, LoopRegistryEntry, std::less<>>;
    using const_iterator = Map::const_iterator;

    /** Mutable (inserting) access; records the key in the touch log. */
    LoopRegistryEntry &
    operator[](const std::string &id)
    {
        touches_.push_back(id);
        return map_[id];
    }

    const LoopRegistryEntry &
    at(const std::string &id) const
    {
        return map_.at(id);
    }
    const_iterator find(std::string_view id) const
    {
        return map_.find(id);
    }
    size_t count(const std::string &id) const { return map_.count(id); }
    const_iterator begin() const { return map_.begin(); }
    const_iterator end() const { return map_.end(); }
    size_t size() const { return map_.size(); }
    bool empty() const { return map_.empty(); }

    /** Monotone revision counter: one tick per mutable access. */
    uint64_t revision() const { return touches_.size(); }

    /** Keys mutably accessed after revision `since`, deduplicated. */
    std::vector<std::string> touchedSince(uint64_t since) const;

  private:
    Map map_;
    std::vector<std::string> touches_;
};

/** The control-path latency cost (Eqn 2/3). */
class LatencyCost : public eg::CostModel
{
  public:
    explicit LatencyCost(const LoopRegistry &registry)
        : registry_(registry)
    {}

    double nodeCost(const eg::ENode &node) const override;

    std::string name() const override { return "latency"; }
    uint64_t revision() const override { return registry_.revision(); }
    std::vector<std::string> touchedSince(uint64_t since) const override
    {
        return registry_.touchedSince(since);
    }
    /** affine.for nodes read their loop's registry entry. */
    std::optional<std::string_view>
    dependencyKey(const eg::ENode &node) const override;

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
