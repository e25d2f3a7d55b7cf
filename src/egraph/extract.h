/**
 * @file
 * Extraction: selecting a best term from an e-graph under a cost model.
 *
 * Two extractors are provided, mirroring the paper:
 *  - a greedy per-class extractor (egg's built-in method), used during
 *    rewriting (analysis-friendly local extraction) and for the control
 *    path cost (Eqn 3); ties are broken by term size so zero-cost cycles
 *    (e.g. x = x|x) can never be selected;
 *  - an exact DAG extractor with common-subexpression sharing, standing in
 *    for ROVER's ILP formulation (Eqn 4, solved with CBC in the paper),
 *    implemented as branch-and-bound with an admissible bound and a node
 *    budget, falling back to greedy when the budget is exhausted (the
 *    exhaustion is reported through ExtractStats::budget_exhausted).
 *
 * Both extractors read per-class (min tree cost, min term size) bounds.
 * When the cost model is *named* and a matching cost-bound analysis is
 * registered on the e-graph (registerCostBound), the bounds are
 * maintained incrementally through unions, rebuilds and rollbacks —
 * the local extraction saturation repeats across runner iterations is
 * amortized O(changed classes) instead of a fresh fixpoint per call.
 * Otherwise (or under ExtractOptions::naive) they are computed from
 * scratch over the root's cone. That is the path the final latency and
 * area phases take: they read a graph that no longer changes, as egg's
 * Extractor does, so there is nothing to keep current. The two paths
 * compute the identical greatest fixpoint with identical floating-point
 * operation order, so extraction results are bit-identical — the
 * differential guarantee egraph_extract_test enforces.
 *
 * Threading: extraction may lazily drain a registered cost-bound
 * analysis (a logically-const cache update). It must only be called from
 * serial contexts — never from the concurrent read-only e-matching
 * phase, which by construction performs no extraction.
 */
#ifndef SEER_EGRAPH_EXTRACT_H_
#define SEER_EGRAPH_EXTRACT_H_

#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "egraph/analysis.h"
#include "egraph/egraph.h"

namespace seer::eg {

/** A cost model assigns a non-negative self-cost to each e-node. */
class CostModel
{
  public:
    virtual ~CostModel() = default;

    /** Self cost of using this node (children costs are added). */
    virtual double nodeCost(const ENode &node) const = 0;

    /**
     * Class-aware refinement: self cost of `node` as a member of
     * `egraph` — e.g. an area model reading sibling analysis facts such
     * as shift-amount constants. Extraction always uses this form;
     * defaults to the context-free nodeCost().
     */
    virtual double nodeCostInClass(const EGraph &egraph,
                                   const ENode &node) const
    {
        (void)egraph;
        return nodeCost(node);
    }

    /**
     * Stable identity: a non-empty name lets extractors bind to a
     * registered cost-bound analysis ("cost-bound:<name>"). Binding is
     * by name, so two model instances sharing a name must be
     * behaviorally identical. The default (empty) never binds — ad-hoc
     * models silently take the from-scratch path.
     */
    virtual std::string name() const { return ""; }

    /** Cost used to forbid a node entirely. */
    static constexpr double kInfinity =
        std::numeric_limits<double>::infinity();
};

/** Cost model that counts one unit per node (smallest-term extraction). */
class TermSizeCost : public CostModel
{
  public:
    double nodeCost(const ENode &) const override { return 1.0; }
    std::string name() const override { return "term-size"; }
};

/**
 * The cost lower-bound e-class analysis: per class, the exact
 * lexicographic (min tree cost, min term size) pair under one cost
 * model, maintained incrementally as the greatest fixpoint of the
 * class-cost equations. Values only tighten while the graph grows;
 * merges seed the winner with the lexicographic min of both halves and
 * re-drain; checkpoint rollbacks raise values through the journal.
 * Quiescence at the greatest fixpoint — which the from-scratch path
 * computes too, with the same FP operation order — is what makes
 * incremental and naive extraction bit-identical.
 *
 * Only graph changes are tracked: the model's self costs must be a
 * fixed function of the node and the graph for as long as the analysis
 * is registered. Register one only for a model read while the graph
 * changes (saturation's local extraction and term size); a model read
 * once the graph is frozen takes the from-scratch path.
 *
 * The bound is admissible for branch-and-bound: cost is the exact min
 * *tree* cost of the class, a lower bound on any DAG realization's
 * contribution.
 */
class CostBoundAnalysis final : public Analysis
{
  public:
    explicit CostBoundAnalysis(const CostModel &model) : model_(model) {}

    /** Per-class maintained value; kInfinity marks infeasible. */
    struct Value
    {
        double cost = CostModel::kInfinity;
        double size = CostModel::kInfinity;
        bool operator==(const Value &other) const
        {
            return cost == other.cost && size == other.size;
        }
    };

    std::string name() const override
    {
        return "cost-bound:" + model_.name();
    }
    const CostModel &model() const { return model_; }

    /**
     * Drain pending recomputes; after this, value() holds the exact
     * greatest fixpoint for the current graph. Logically const (cache
     * maintenance); any datum overwrite is journaled, so it is safe
     * inside checkpoints.
     */
    void ensureCurrent(const EGraph &egraph) const;

    /** Maintained value of a *canonical* class id. Only meaningful
     *  after ensureCurrent(). */
    Value value(EClassId id) const
    {
        return id < values_.size() ? values_[id] : Value{};
    }

    /** Total class recomputations ever performed (telemetry: callers
     *  diff around ensureCurrent to cost one extraction). */
    uint64_t recomputes() const { return recomputes_; }

    void onMake(EGraph &egraph, EClassId id, const ENode &node) override;
    void onMerge(EGraph &egraph, EClassId into, EClassId from,
                 const std::vector<std::pair<ENode, EClassId>>
                     &from_parents) override;
    void onPeerChanged(EGraph &egraph, EClassId id) override;
    void onCheckpoint(EGraph &egraph) override;
    void onRollback(EGraph &egraph, size_t live_ids) override;
    void onAttach(EGraph &egraph) override;
    std::shared_ptr<void> saveDatum(EClassId id) const override;
    void restoreDatum(EClassId id,
                      const std::shared_ptr<void> &datum) override;
    std::string checkInvariants(const EGraph &egraph) const override;
    /** Bounds only choose which equivalent term local extraction and
     *  proof records show; no rule reads them. */
    bool decidesRewrites() const override { return false; }

  private:
    void ensure(EClassId id) const
    {
        if (id >= values_.size()) {
            values_.resize(id + 1);
            queued_.resize(id + 1, 0);
        }
    }
    void push(EClassId id) const;
    void recomputeClass(const EGraph &egraph, EClassId id) const;

    const CostModel &model_;
    // All state is mutable: the analysis is a lazily-maintained cache
    // drained from const read paths (see ensureCurrent).
    mutable std::vector<Value> values_;
    mutable std::vector<uint8_t> queued_; ///< dense pending flags
    mutable std::vector<EClassId> pending_;
    mutable uint64_t recomputes_ = 0;
};

/**
 * Register (or fetch the already-registered) cost-bound analysis for
 * `model` on `egraph`. The model must be named and must outlive the
 * e-graph. Registration never changes how the graph evolves — only how
 * fast extraction reads it.
 */
CostBoundAnalysis &registerCostBound(EGraph &egraph,
                                     const CostModel &model);

/** Extraction result. */
struct Extraction
{
    TermPtr term;
    /** Tree cost (children counted at every use). */
    double tree_cost = 0;
    /** DAG cost (each distinct class counted once). */
    double dag_cost = 0;
};

/** Telemetry of one extraction call (all counters additive so one
 *  struct can aggregate several calls). */
struct ExtractStats
{
    /** Distinct classes in the extracted term's support. */
    size_t classes_visited = 0;
    /** Cost-bound recomputations this call triggered (incremental path:
     *  the amortized work; scratch path: the cone fixpoint size). */
    size_t classes_recomputed = 0;
    /** Branch-and-bound subtrees cut by the admissible bound. */
    size_t bound_prunes = 0;
    /** Branch-and-bound search-tree expansions. */
    size_t expansions = 0;
    /** The exact search ran out of budget: the result is the best
     *  solution found (at worst greedy), not proven optimal. */
    bool budget_exhausted = false;
    /** A registered cost-bound analysis served the bounds. */
    bool used_analysis = false;
};

/** Options shared by the extractors. */
struct ExtractOptions
{
    /**
     * Reference path: compute bounds from scratch even when an analysis
     * is registered, and (for the exact extractor) use the weak
     * pending-classes-only bound. Mirrors RunnerOptions::naive_match —
     * the differential-testing arm. Models without a registered
     * analysis (the latency and area phases) read from-scratch bounds
     * either way, so for greedy extraction it differs from the default
     * only under the models saturation registers.
     */
    bool naive = false;
    /** Exact extractor search budget (expansions). */
    size_t budget = 200000;
    /** Optional telemetry sink (counters are added, not reset). */
    ExtractStats *stats = nullptr;
    /**
     * Governance: the exact search accounts its memo/frontier bytes
     * against MemSubsystem::Extraction and treats cancellation
     * (deadline, budget breach, SIGINT) like budget exhaustion — the
     * best solution found so far is returned. Inert by default.
     */
    ExecContext exec;
};

/**
 * Greedy extraction: per class, pick the node minimizing
 * self-cost + sum(child class costs), ties broken by smaller term size.
 * Returns nullopt if the root has no finite-cost derivation.
 */
std::optional<Extraction> extractGreedy(const EGraph &egraph,
                                        EClassId root,
                                        const CostModel &cost);
std::optional<Extraction> extractGreedy(const EGraph &egraph,
                                        EClassId root,
                                        const CostModel &cost,
                                        const ExtractOptions &options);

/**
 * Greedy extraction memoized across calls: one choice and term memo per
 * (cost model, e-graph state). The state is the graph's mutation clock
 * (EGraph::tick) and its rollback generation. Every change that can
 * move a greedy choice advances one of the two — an add, a merge, a
 * rebuild that repairs merges, a rollback — and the next call then
 * starts a fresh memo for that model. The model's self costs must be a
 * fixed function of the node and the graph, as for a registered cost
 * bound; the local-extraction models are. Within one state each
 * class's greedy term is a pure function of the graph and the model, so
 * a memoized term, and every subterm it shares with earlier answers,
 * prints exactly what a fresh extractGreedy builds.
 *
 * Terms are also hash-consed: every term the memo builds goes through
 * intern(), a table keyed by (op, child term pointers) that outlives
 * state changes, since terms are immutable values. A new state still
 * re-derives its choices and rebuilds its per-class term map, but each
 * subterm whose structure did not change comes back as the same
 * pointer it had before the change. Callers can therefore key
 * per-term work (a structural hash, a size) by pointer once per run
 * instead of once per state. The table pins every term it built until
 * the memo is dropped.
 *
 * One memo serves one e-graph, and its owner drops it with the graph:
 * the key cannot tell a new graph at a recycled address, whose clock
 * restarts, from the old one. Serial use only, like the extractors.
 */
class GreedyMemo
{
  public:
    /** The term extractGreedy(egraph, root, cost) returns, or nullptr
     *  when `root` has no finite-cost derivation. Built through
     *  intern(). */
    TermPtr extract(const EGraph &egraph, EClassId root,
                    const CostModel &cost);

    /** The one term (op children...) this memo holds: structurally
     *  equal terms whose children were interned here share a pointer. */
    TermPtr intern(Symbol op, std::vector<TermPtr> children);

    /** Calls so far, and those a memoized root term answered. */
    size_t calls() const { return calls_; }
    size_t hits() const { return hits_; }
    /** Distinct terms intern() has built. */
    size_t interned() const { return interned_.size(); }

  private:
    struct State
    {
        const CostModel *model = nullptr;
        const EGraph *egraph = nullptr;
        uint64_t tick = 0;
        uint64_t generation = 0;
        std::unordered_map<EClassId, int> choice;
        /** Greedy term per canonical class; nullptr marks a root with
         *  no finite-cost derivation. */
        std::unordered_map<EClassId, TermPtr> terms;
    };
    /** One state per cost model (a run uses one or two). */
    std::vector<State> states_;

    /** Lookup form of an interned term: its op and child pointers. */
    struct InternKey
    {
        Symbol op;
        const std::vector<TermPtr> &children;
    };
    struct InternHash
    {
        using is_transparent = void;
        size_t operator()(const InternKey &key) const;
        size_t operator()(const TermPtr &term) const
        {
            return (*this)(InternKey{term->op(), term->children()});
        }
    };
    struct InternEqual
    {
        using is_transparent = void;
        bool operator()(const InternKey &a, const TermPtr &b) const;
        bool operator()(const TermPtr &a, const InternKey &b) const
        {
            return (*this)(b, a);
        }
        bool operator()(const TermPtr &a, const TermPtr &b) const
        {
            return a == b;
        }
    };
    std::unordered_set<TermPtr, InternHash, InternEqual> interned_;

    size_t calls_ = 0;
    size_t hits_ = 0;
};

/** Smallest-term extraction (greedy under TermSizeCost). */
TermPtr extractSmallest(const EGraph &egraph, EClassId root);

/**
 * Exact DAG extraction: choose one node per needed class minimizing the
 * sum of chosen node self-costs with sharing. `budget` caps the search
 * tree; on exhaustion the best solution found so far (at worst the greedy
 * one) is returned — pass ExtractOptions::stats to detect this.
 */
std::optional<Extraction> extractExact(const EGraph &egraph, EClassId root,
                                       const CostModel &cost,
                                       size_t budget = 200000);
std::optional<Extraction> extractExact(const EGraph &egraph, EClassId root,
                                       const CostModel &cost,
                                       const ExtractOptions &options);

} // namespace seer::eg

#endif // SEER_EGRAPH_EXTRACT_H_
