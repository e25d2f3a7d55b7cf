#include "egraph/extract.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <new>
#include <unordered_set>

#include "support/error.h"
#include "support/fault_inject.h"
#include "support/hashing.h"

namespace seer::eg {

namespace {

using ChoiceMap = std::unordered_map<EClassId, int>;
using TermMemo = std::unordered_map<EClassId, TermPtr>;

/**
 * Exact lexicographic (cost, size) comparison — no epsilon. Used for
 * everything that must be identical between the incremental analysis
 * and the from-scratch path: both converge to the greatest fixpoint of
 * the class-cost equations under this order, with identical
 * floating-point operation order, so the maintained tables agree
 * bitwise. The epsilon tie-break lives only in the final choice scan
 * (below), which both paths share.
 */
bool
lexLess(const CostBoundAnalysis::Value &a,
        const CostBoundAnalysis::Value &b)
{
    if (a.cost != b.cost)
        return a.cost < b.cost;
    return a.size < b.size;
}

/**
 * Evaluate one node against a child-value lookup: self + sum of child
 * costs (left fold in child order — the FP summation order both the
 * incremental and the scratch path must share), size 1 + child sizes.
 * Infeasible (default Value) when any child is.
 */
template <typename Lookup>
CostBoundAnalysis::Value
evalNode(double self, const ENode &node, Lookup &&child_value)
{
    CostBoundAnalysis::Value value;
    if (self == CostModel::kInfinity)
        return value;
    value.cost = self;
    value.size = 1;
    for (EClassId child : node.children) {
        CostBoundAnalysis::Value cv = child_value(child);
        if (cv.cost == CostModel::kInfinity)
            return CostBoundAnalysis::Value{};
        value.cost += cv.cost;
        value.size += cv.size;
    }
    return value;
}

/**
 * From-scratch greatest-fixpoint computation of the per-class (min tree
 * cost, min size) values, restricted to the classes reachable from
 * `roots`. Chaotic iteration on a worklist seeded in ascending class-id
 * order, rippling through a child -> users adjacency. This is the path
 * for models with no registered analysis — the extraction phases on the
 * frozen graph — and the reference ("naive") path; a registered
 * CostBoundAnalysis maintains the same fixpoint incrementally.
 */
std::unordered_map<EClassId, CostBoundAnalysis::Value>
scratchBounds(const EGraph &egraph, const CostModel &cost,
              const std::vector<EClassId> &roots, ExtractStats &stats)
{
    using Value = CostBoundAnalysis::Value;
    std::vector<EClassId> ids;
    std::unordered_map<EClassId, uint32_t> slots;
    {
        std::vector<EClassId> stack;
        for (EClassId root : roots)
            stack.push_back(egraph.find(root));
        while (!stack.empty()) {
            EClassId id = stack.back();
            stack.pop_back();
            if (!slots.emplace(id, static_cast<uint32_t>(ids.size()))
                     .second)
                continue;
            ids.push_back(id);
            for (const ENode &node : egraph.eclass(id).nodes) {
                for (EClassId child : node.children)
                    stack.push_back(egraph.find(child));
            }
        }
    }
    const size_t n = ids.size();
    std::vector<Value> values(n);

    // Flatten the cone: per-node self costs and canonical child slots,
    // so the recompute loop touches no map and performs no find().
    std::vector<uint32_t> class_node_begin(n + 1, 0);
    std::vector<double> node_self;
    std::vector<uint32_t> node_child_begin{0};
    std::vector<uint32_t> child_slots;
    std::vector<std::vector<uint32_t>> users(n);
    for (size_t s = 0; s < n; ++s) {
        class_node_begin[s] = static_cast<uint32_t>(node_self.size());
        for (const ENode &node : egraph.eclass(ids[s]).nodes) {
            node_self.push_back(cost.nodeCostInClass(egraph, node));
            for (EClassId child : node.children) {
                uint32_t cs = slots.at(egraph.find(child));
                child_slots.push_back(cs);
                users[cs].push_back(static_cast<uint32_t>(s));
            }
            node_child_begin.push_back(
                static_cast<uint32_t>(child_slots.size()));
        }
    }
    class_node_begin[n] = static_cast<uint32_t>(node_self.size());
    for (std::vector<uint32_t> &u : users) {
        std::sort(u.begin(), u.end());
        u.erase(std::unique(u.begin(), u.end()), u.end());
    }

    // Fresh best-over-nodes scan of slot `s` (same arithmetic as
    // CostBoundAnalysis::recomputeClass); true when the value changed.
    auto recompute = [&](uint32_t s) {
        ++stats.classes_recomputed;
        Value best;
        for (uint32_t ni = class_node_begin[s];
             ni < class_node_begin[s + 1]; ++ni) {
            double self = node_self[ni];
            if (self == CostModel::kInfinity)
                continue;
            Value v;
            v.cost = self;
            v.size = 1;
            bool feasible = true;
            for (uint32_t ci = node_child_begin[ni];
                 ci < node_child_begin[ni + 1]; ++ci) {
                const Value &cv = values[child_slots[ci]];
                if (cv.cost == CostModel::kInfinity) {
                    feasible = false;
                    break;
                }
                v.cost += cv.cost;
                v.size += cv.size;
            }
            if (!feasible)
                continue;
            if (lexLess(v, best))
                best = v;
        }
        if (best == values[s])
            return false;
        values[s] = best;
        return true;
    };

    // Seed every class once in ascending-id order, then let changes
    // ripple upward through `users` until quiescent: the greatest
    // fixpoint, reached from above.
    std::vector<uint32_t> queue(n);
    for (size_t s = 0; s < n; ++s)
        queue[s] = static_cast<uint32_t>(s);
    std::sort(queue.begin(), queue.end(), [&](uint32_t a, uint32_t b) {
        return ids[a] < ids[b];
    });
    std::vector<char> queued(n, 1);
    for (size_t head = 0; head < queue.size(); ++head) {
        uint32_t s = queue[head];
        queued[s] = 0;
        if (!recompute(s))
            continue;
        for (uint32_t u : users[s]) {
            if (!queued[u]) {
                queued[u] = 1;
                queue.push_back(u);
            }
        }
    }
    std::unordered_map<EClassId, Value> out;
    out.reserve(n);
    for (size_t s = 0; s < n; ++s)
        out.emplace(ids[s], values[s]);
    return out;
}

/**
 * Bound lookup used by the extractors: either the registered analysis
 * (incremental) or a from-scratch table. Unknown ids are infeasible.
 */
struct BoundTable
{
    const CostBoundAnalysis *analysis = nullptr;
    std::unordered_map<EClassId, CostBoundAnalysis::Value> scratch;

    CostBoundAnalysis::Value
    at(EClassId canonical) const
    {
        if (analysis)
            return analysis->value(canonical);
        auto it = scratch.find(canonical);
        if (it == scratch.end())
            return CostBoundAnalysis::Value{};
        return it->second;
    }
};

/** Resolve the bound source for one extraction call. */
BoundTable
makeTable(const EGraph &egraph, const CostModel &cost, EClassId root,
          const ExtractOptions &options, ExtractStats &stats)
{
    BoundTable table;
    if (!options.naive && !cost.name().empty()) {
        if (const Analysis *analysis =
                egraph.findAnalysis("cost-bound:" + cost.name())) {
            const auto *bound =
                static_cast<const CostBoundAnalysis *>(analysis);
            uint64_t before = bound->recomputes();
            bound->ensureCurrent(egraph);
            stats.classes_recomputed += bound->recomputes() - before;
            stats.used_analysis = true;
            table.analysis = bound;
            return table;
        }
    }
    table.scratch = scratchBounds(egraph, cost, {root}, stats);
    return table;
}

struct ClassCost
{
    double cost = CostModel::kInfinity;
    double size = CostModel::kInfinity; // tie-break: term size
    int node_index = -1;
};

/**
 * Scale-aware float equality for cost comparison. Costs are sums of
 * per-node model values, so exact `==` ties depend on summation order
 * and platform FP contraction; treating near-equal costs as ties keeps
 * the greedy tie-break (smaller term size, then first node in class
 * order) deterministic across platforms.
 */
bool
approxEq(double a, double b)
{
    if (a == CostModel::kInfinity || b == CostModel::kInfinity)
        return a == b;
    double scale = std::max({1.0, std::abs(a), std::abs(b)});
    return std::abs(a - b) <= 1e-9 * scale;
}

/** Lexicographic (cost, size) improvement test with epsilon ties. */
bool
improves(double cost, double size, const ClassCost &best)
{
    if (best.cost == CostModel::kInfinity)
        return cost < CostModel::kInfinity;
    if (!approxEq(cost, best.cost))
        return cost < best.cost;
    return !approxEq(size, best.size) && size < best.size;
}

/**
 * The choice scan: pick the node of `id` minimizing self + child bound
 * costs under the epsilon tie-break (smaller size, then first in class
 * node order). A pure function of the *converged* bound table, shared
 * by the incremental and the naive path — the epsilon never feeds back
 * into maintained state, which is what keeps the two paths
 * bit-identical despite history-dependent epsilon comparisons.
 */
ClassCost
chooseNode(const EGraph &egraph, const CostModel &cost,
           const BoundTable &table, EClassId id)
{
    ClassCost best;
    const EClass &cls = egraph.eclass(id);
    for (size_t i = 0; i < cls.nodes.size(); ++i) {
        const ENode &node = cls.nodes[i];
        double self = cost.nodeCostInClass(egraph, node);
        CostBoundAnalysis::Value v = evalNode(
            self, node, [&](EClassId child) {
                return table.at(egraph.find(child));
            });
        if (v.cost == CostModel::kInfinity)
            continue;
        if (improves(v.cost, v.size, best)) {
            best.cost = v.cost;
            best.size = v.size;
            best.node_index = static_cast<int>(i);
        }
    }
    return best;
}

/** Memoized chooseNode over a term's support. */
int
chosenNodeOf(const EGraph &egraph, const CostModel &cost,
             const BoundTable &table, EClassId id, ChoiceMap &choice)
{
    auto it = choice.find(id);
    if (it != choice.end())
        return it->second;
    int n = chooseNode(egraph, cost, table, id).node_index;
    choice.emplace(id, n);
    return n;
}

/** The greedy term of `id`, built through `interner` when one is given
 *  (the GreedyMemo path) and with plain makeTerm otherwise. */
TermPtr
buildGreedyTerm(const EGraph &egraph, const CostModel &cost,
                const BoundTable &table, EClassId id, ChoiceMap &choice,
                TermMemo &memo, std::unordered_set<EClassId> &visiting,
                GreedyMemo *interner = nullptr)
{
    id = egraph.find(id);
    auto done = memo.find(id);
    if (done != memo.end())
        return done->second;
    SEER_ASSERT(!visiting.count(id),
                "cyclic extraction at class " << id
                    << " (cost model allows a zero-cost cycle)");
    int n = chosenNodeOf(egraph, cost, table, id, choice);
    SEER_ASSERT(n >= 0, "extracting infeasible class");
    visiting.insert(id);
    const ENode &node = egraph.eclass(id).nodes[static_cast<size_t>(n)];
    std::vector<TermPtr> children;
    children.reserve(node.children.size());
    for (EClassId child : node.children)
        children.push_back(buildGreedyTerm(egraph, cost, table, child,
                                           choice, memo, visiting,
                                           interner));
    visiting.erase(id);
    TermPtr term = interner ? interner->intern(node.op, std::move(children))
                            : makeTerm(node.op, std::move(children));
    memo[id] = term;
    return term;
}

/** DAG cost of a complete choice: each distinct class counted once. */
double
dagCostOf(const EGraph &egraph, EClassId root, const ChoiceMap &choice,
          const CostModel &cost)
{
    std::unordered_set<EClassId> seen;
    std::vector<EClassId> stack{egraph.find(root)};
    double total = 0;
    while (!stack.empty()) {
        EClassId id = stack.back();
        stack.pop_back();
        if (!seen.insert(id).second)
            continue;
        const ENode &node = egraph.eclass(id).nodes[static_cast<size_t>(
            choice.at(id))];
        total += cost.nodeCostInClass(egraph, node);
        for (EClassId child : node.children)
            stack.push_back(egraph.find(child));
    }
    return total;
}

/** Distinct classes in the support of a complete choice. */
size_t
supportSize(const EGraph &egraph, EClassId root, const ChoiceMap &choice)
{
    std::unordered_set<EClassId> seen;
    std::vector<EClassId> stack{egraph.find(root)};
    while (!stack.empty()) {
        EClassId id = stack.back();
        stack.pop_back();
        if (!seen.insert(id).second)
            continue;
        const ENode &node = egraph.eclass(id).nodes[static_cast<size_t>(
            choice.at(id))];
        for (EClassId child : node.children)
            stack.push_back(egraph.find(child));
    }
    return seen.size();
}

/** Build the term DAG for a complete acyclic choice (as a tree with
 *  structural sharing through shared_ptr reuse). */
TermPtr
buildChoiceTerm(const EGraph &egraph, EClassId id, const ChoiceMap &choice,
                TermMemo &memo)
{
    id = egraph.find(id);
    auto it = memo.find(id);
    if (it != memo.end())
        return it->second;
    const ENode &node =
        egraph.eclass(id).nodes[static_cast<size_t>(choice.at(id))];
    std::vector<TermPtr> children;
    children.reserve(node.children.size());
    for (EClassId child : node.children)
        children.push_back(buildChoiceTerm(egraph, child, choice, memo));
    TermPtr term = makeTerm(node.op, std::move(children));
    memo[id] = term;
    return term;
}

/**
 * Branch-and-bound exact DAG extraction.
 *
 * The search state lives in dense arrays indexed by class id, sized
 * once per solve and reused by every expansion: the partial choice
 * (-1 = unchosen), membership flags of the pending frontier, an
 * epoch-stamped "counted" set for the bound's closure walk, and the
 * class-memo index. The frontier itself is a vector kept in descending
 * id order, so the smallest pending class — the next one expanded —
 * sits at the back, and reverse iteration yields the ascending order
 * the bound sums in. Visit order, floating-point summation order, memo
 * charging and the budget cut-off are those of the ordered-set search
 * this replaced (ExtractDifferentialTest.ExactSearchReplaysAtEveryBudget
 * holds the recorded counts).
 */
class ExactSolver
{
  public:
    ExactSolver(const EGraph &egraph, const CostModel &cost,
                const ExtractOptions &options, ExtractStats &stats)
        : egraph_(egraph), cost_(cost), naive_(options.naive),
          budget_(options.budget), exec_(options.exec), stats_(stats)
    {}

    ~ExactSolver()
    {
        // Credit the search frontier/memo bytes back: extraction
        // memory is transient, only its peak matters to the governor.
        if (charged_ > 0)
            exec_.chargeMem(MemSubsystem::Extraction, -charged_);
    }

    std::optional<Extraction>
    solve(EClassId root)
    {
        root = egraph_.find(root);
        table_ = makeTable(egraph_, cost_, root, opts(), stats_);
        if (table_.at(root).cost == CostModel::kInfinity)
            return std::nullopt;

        // Seed the incumbent with the greedy choice evaluated as a DAG.
        ChoiceMap greedy_choice;
        collectGreedyChoice(root, greedy_choice);
        best_choice_ = greedy_choice;
        best_cost_ = dagCostOf(egraph_, root, greedy_choice, cost_);

        size_t ids = egraph_.numIds();
        choice_.assign(ids, -1);
        in_pending_.assign(ids, 0);
        counted_.assign(ids, 0);
        memo_index_.assign(ids, kNoMemo);
        pending_.assign(1, root);
        in_pending_[root] = 1;
        search(0.0, root);

        stats_.expansions += expansions_;
        stats_.bound_prunes += prunes_;
        stats_.budget_exhausted =
            stats_.budget_exhausted || budget_exhausted_;
        stats_.classes_visited += supportSize(egraph_, root, best_choice_);

        TermMemo memo;
        Extraction out;
        out.term = buildChoiceTerm(egraph_, root, best_choice_, memo);
        out.dag_cost = best_cost_;
        std::unordered_map<EClassId, double> tree_memo;
        out.tree_cost = treeCost(root, tree_memo);
        return out;
    }

  private:
    static constexpr uint32_t kNoMemo = ~uint32_t{0};

    ExtractOptions
    opts() const
    {
        ExtractOptions o;
        o.naive = naive_;
        o.budget = budget_;
        return o;
    }

    /** Greedy choices over the support of `id` (the incumbent). */
    void
    collectGreedyChoice(EClassId id, ChoiceMap &choice)
    {
        id = egraph_.find(id);
        if (choice.count(id))
            return;
        int n = chooseNode(egraph_, cost_, table_, id).node_index;
        SEER_ASSERT(n >= 0, "greedy incumbent hit infeasible class");
        choice.emplace(id, n);
        const ENode &node =
            egraph_.eclass(id).nodes[static_cast<size_t>(n)];
        for (EClassId child : node.children)
            collectGreedyChoice(child, choice);
    }

    /** Tree cost of the best choice below `id` (children counted at
     *  every use), under the class-aware model dagCostOf uses. */
    double
    treeCost(EClassId id, std::unordered_map<EClassId, double> &memo) const
    {
        id = egraph_.find(id);
        auto it = memo.find(id);
        if (it != memo.end())
            return it->second;
        const ENode &node = egraph_.eclass(id).nodes[static_cast<size_t>(
            best_choice_.at(id))];
        double total = cost_.nodeCostInClass(egraph_, node);
        for (EClassId child : node.children)
            total += treeCost(child, memo);
        memo.emplace(id, total);
        return total;
    }

    /** Per-class search memo: self costs, min self cost, candidate
     *  order, which nodes have only feasible children, and the classes
     *  every feasible node needs (for the inevitable-children bound).
     *  Computed once per class. */
    struct ClassMemo
    {
        std::vector<double> self;
        std::vector<int> order;
        std::vector<uint8_t> feasible;
        double min_self = CostModel::kInfinity;
        /** Intersection of canonical child sets over feasible nodes,
         *  ascending: classes any completion through this class must
         *  also pay. */
        std::vector<EClassId> required;
    };

    const ClassMemo &
    classMemo(EClassId id)
    {
        uint32_t &slot = memo_index_[id];
        if (slot != kNoMemo)
            return memos_[slot];
        slot = static_cast<uint32_t>(memos_.size());
        // A deque: references handed out stay valid while the
        // recursion below them creates further memos.
        ClassMemo &m = memos_.emplace_back();
        const EClass &cls = egraph_.eclass(id);
        // Account the memo before filling it: the per-class memos are
        // where exact-search memory actually accumulates.
        int64_t bytes = static_cast<int64_t>(
            sizeof(ClassMemo) + cls.nodes.size() * 16 + 64);
        charged_ += bytes;
        if (!exec_.chargeMem(MemSubsystem::Extraction, bytes))
            budget_exhausted_ = true; // breach: finish with best-so-far
        m.self.resize(cls.nodes.size());
        m.order.resize(cls.nodes.size());
        m.feasible.assign(cls.nodes.size(), 0);
        for (size_t i = 0; i < cls.nodes.size(); ++i) {
            m.self[i] = cost_.nodeCostInClass(egraph_, cls.nodes[i]);
            m.order[i] = static_cast<int>(i);
            m.min_self = std::min(m.min_self, m.self[i]);
        }
        std::sort(m.order.begin(), m.order.end(), [&](int a, int b) {
            return m.self[static_cast<size_t>(a)] <
                   m.self[static_cast<size_t>(b)];
        });
        bool first = true;
        std::vector<EClassId> kids;
        for (size_t i = 0; i < cls.nodes.size(); ++i) {
            kids.clear();
            bool feasible = true;
            for (EClassId child : cls.nodes[i].children) {
                EClassId c = egraph_.find(child);
                if (table_.at(c).cost == CostModel::kInfinity) {
                    feasible = false;
                    break;
                }
                kids.push_back(c);
            }
            m.feasible[i] = feasible;
            if (!feasible || m.self[i] == CostModel::kInfinity)
                continue;
            std::sort(kids.begin(), kids.end());
            kids.erase(std::unique(kids.begin(), kids.end()), kids.end());
            if (first) {
                m.required = kids;
                first = false;
            } else {
                std::vector<EClassId> both;
                std::set_intersection(m.required.begin(),
                                      m.required.end(), kids.begin(),
                                      kids.end(), std::back_inserter(both));
                m.required.swap(both);
            }
        }
        return m;
    }

    bool
    decided(EClassId id) const
    {
        return choice_[id] >= 0 || in_pending_[id];
    }

    /** Insert into the descending frontier. */
    void
    pushPending(EClassId id)
    {
        auto at = std::lower_bound(pending_.begin(), pending_.end(), id,
                                   std::greater<EClassId>());
        pending_.insert(at, id);
        in_pending_[id] = 1;
    }

    void
    erasePending(EClassId id)
    {
        auto at = std::lower_bound(pending_.begin(), pending_.end(), id,
                                   std::greater<EClassId>());
        SEER_ASSERT(at != pending_.end() && *at == id,
                    "exact search frontier lost class " << id);
        pending_.erase(at);
        in_pending_[id] = 0;
    }

    /**
     * Admissible lower bound on any completion of the current partial
     * choice. Base: every pending class costs at least its cheapest
     * node. Unless naive, additionally closes over *inevitable*
     * children — classes every feasible node of a pending (or already
     * counted) class must reference — which is what makes the bound
     * bite before the budget on shared-subexpression graphs.
     */
    double
    boundOf(double cost_so_far)
    {
        double bound = cost_so_far;
        for (auto it = pending_.rbegin(); it != pending_.rend(); ++it)
            bound += classMemo(*it).min_self;
        if (naive_)
            return bound;
        if (++epoch_ == 0) { // wrapped: no stale stamp may match
            std::fill(counted_.begin(), counted_.end(), 0);
            epoch_ = 1;
        }
        walk_.assign(pending_.rbegin(), pending_.rend());
        while (!walk_.empty()) {
            EClassId id = walk_.back();
            walk_.pop_back();
            for (EClassId req : classMemo(id).required) {
                if (decided(req) || counted_[req] == epoch_)
                    continue;
                counted_[req] = epoch_;
                bound += classMemo(req).min_self;
                walk_.push_back(req);
            }
        }
        return bound;
    }

    enum Color : uint8_t { kWhite, kGrey, kBlack };

    /** The chosen-node graph reachable from `id` is acyclic (DFS
     *  colors; the caller resets them). */
    bool
    acyclicFrom(EClassId id)
    {
        id = egraph_.find(id);
        if (color_[id] == kGrey)
            return false;
        if (color_[id] == kBlack)
            return true;
        color_[id] = kGrey;
        const ENode &node = egraph_.eclass(id).nodes[static_cast<size_t>(
            choice_[id])];
        for (EClassId child : node.children) {
            if (!acyclicFrom(child))
                return false;
        }
        color_[id] = kBlack;
        return true;
    }

    /** A complete choice: accept it as the incumbent when acyclic. */
    void
    complete(double cost, EClassId root)
    {
        color_.resize(choice_.size(), kWhite);
        bool acyclic = acyclicFrom(root);
        // Every class the walk colored is chosen: pending is empty.
        for (EClassId id : chosen_)
            color_[id] = kWhite;
        if (!acyclic)
            return;
        best_cost_ = cost;
        best_choice_.clear();
        for (EClassId id : chosen_)
            best_choice_.emplace(id, choice_[id]);
    }

    void
    search(double cost_so_far, EClassId root)
    {
        if (expansions_++ > budget_) {
            budget_exhausted_ = true;
            return;
        }
        if (budget_exhausted_)
            return; // latched by a memory-budget breach below
        // Cooperative cancellation, amortized over 256 expansions:
        // treated exactly like budget exhaustion (best-so-far wins).
        if ((expansions_ & 0xff) == 0 && exec_.canceled()) {
            budget_exhausted_ = true;
            return;
        }
        if (boundOf(cost_so_far) >= best_cost_) {
            ++prunes_;
            return;
        }
        if (pending_.empty()) {
            complete(cost_so_far, root);
            return;
        }
        EClassId id = pending_.back();
        pending_.pop_back();
        in_pending_[id] = 0;

        const EClass &cls = egraph_.eclass(id);
        const ClassMemo &m = classMemo(id);
        for (int n : m.order) {
            size_t i = static_cast<size_t>(n);
            double self = m.self[i];
            if (self == CostModel::kInfinity)
                break;
            if (!m.feasible[i])
                continue; // a child has no finite-cost derivation
            choice_[id] = n;
            chosen_.push_back(id);
            size_t mark = added_.size();
            for (EClassId child : cls.nodes[i].children) {
                EClassId c = egraph_.find(child);
                if (!decided(c)) {
                    pushPending(c);
                    added_.push_back(c);
                }
            }
            search(cost_so_far + self, root);
            while (added_.size() > mark) {
                erasePending(added_.back());
                added_.pop_back();
            }
            chosen_.pop_back();
            choice_[id] = -1;
        }
        pending_.push_back(id); // still the smallest: back of the order
        in_pending_[id] = 1;
    }

    const EGraph &egraph_;
    const CostModel &cost_;
    bool naive_;
    size_t budget_;
    ExecContext exec_;
    int64_t charged_ = 0;
    ExtractStats &stats_;
    size_t expansions_ = 0;
    size_t prunes_ = 0;
    bool budget_exhausted_ = false;
    BoundTable table_;
    std::deque<ClassMemo> memos_;
    std::vector<uint32_t> memo_index_;
    /** Partial choice: node index per class, -1 when unchosen. */
    std::vector<int> choice_;
    /** Chosen classes in choice order (a stack, as the recursion). */
    std::vector<EClassId> chosen_;
    /** Pending frontier, descending, with membership flags. */
    std::vector<EClassId> pending_;
    std::vector<uint8_t> in_pending_;
    /** Frontier entries each recursion level added (popped on return). */
    std::vector<EClassId> added_;
    /** boundOf's closure walk and its epoch-stamped counted set. */
    std::vector<EClassId> walk_;
    std::vector<uint32_t> counted_;
    uint32_t epoch_ = 0;
    std::vector<Color> color_;
    ChoiceMap best_choice_;
    double best_cost_ = CostModel::kInfinity;
};

} // namespace

// ---------------------------------------------------------------------------
// CostBoundAnalysis

void
CostBoundAnalysis::push(EClassId id) const
{
    ensure(id);
    if (queued_[id])
        return;
    queued_[id] = 1;
    pending_.push_back(id);
}

void
CostBoundAnalysis::recomputeClass(const EGraph &egraph, EClassId id) const
{
    ensure(id);
    ++recomputes_;
    Value best;
    const EClass &cls = egraph.eclass(id);
    for (const ENode &node : cls.nodes) {
        double self = model_.nodeCostInClass(egraph, node);
        Value v = evalNode(self, node, [&](EClassId child) {
            EClassId c = egraph.find(child);
            return c < values_.size() ? values_[c] : Value{};
        });
        if (v.cost == CostModel::kInfinity)
            continue;
        if (lexLess(v, best))
            best = v;
    }
    if (best == values_[id])
        return;
    egraph.journalAnalysisDatum(*this, id);
    values_[id] = best;
    for (const auto &[node, parent] : cls.parents)
        push(parent);
}

void
CostBoundAnalysis::ensureCurrent(const EGraph &egraph) const
{
    while (!pending_.empty()) {
        EClassId raw = pending_.back();
        pending_.pop_back();
        if (raw < queued_.size())
            queued_[raw] = 0;
        if (raw >= egraph.numIds())
            continue; // stale entry past a rollback (defensive)
        recomputeClass(egraph, egraph.find(raw));
    }
}

void
CostBoundAnalysis::onMake(EGraph &egraph, EClassId id, const ENode &node)
{
    (void)egraph, (void)node;
    ensure(id);
    push(id); // value starts infeasible; the next drain computes it
}

void
CostBoundAnalysis::onMerge(
    EGraph &egraph, EClassId into, EClassId from,
    const std::vector<std::pair<ENode, EClassId>> &from_parents)
{
    ensure(std::max(into, from));
    Value winner = values_[into];
    Value loser = values_[from];
    // The union can only lower the class bound: seed the winner with
    // the lexicographic min so the maintained state stays pointwise >=
    // the new greatest fixpoint, then let the drain settle it.
    Value merged = lexLess(loser, winner) ? loser : winner;
    if (!(merged == winner)) {
        egraph.journalAnalysisDatum(*this, into);
        values_[into] = merged;
        // The winner's value improved: its current parents re-derive.
        for (const auto &[node, parent] : egraph.eclass(into).parents)
            push(parent);
    }
    // The absorbed side's parents now resolve this child to `into`
    // (and sibling analyses may have changed the merged class's data
    // during their own hooks): always requeue them. This is the
    // smaller parent list by the union-by-size rule.
    for (const auto &[node, parent] : from_parents)
        push(parent);
    push(into);
}

void
CostBoundAnalysis::onPeerChanged(EGraph &egraph, EClassId id)
{
    // Another analysis (e.g. constant folding) refined a fact nodes may
    // read through nodeCostInClass: self-costs of this class's parents
    // can change. Peer facts only become *more* defined as the graph
    // grows, so this stays a monotone (lowering) update.
    EClassId canonical = egraph.find(id);
    for (const auto &[node, parent] : egraph.eclass(canonical).parents)
        push(parent);
}

void
CostBoundAnalysis::onCheckpoint(EGraph &egraph)
{
    ensureCurrent(egraph);
}

void
CostBoundAnalysis::onRollback(EGraph &egraph, size_t live_ids)
{
    (void)egraph;
    if (values_.size() > live_ids) {
        values_.resize(live_ids);
        queued_.resize(live_ids);
    }
    // The journal restored the quiesced checkpoint-time values; pending
    // recomputes (which may reference dead ids) are moot.
    std::fill(queued_.begin(), queued_.end(), 0);
    pending_.clear();
}

void
CostBoundAnalysis::onAttach(EGraph &egraph)
{
    for (EClassId id : egraph.classIds())
        push(id);
}

std::shared_ptr<void>
CostBoundAnalysis::saveDatum(EClassId id) const
{
    return std::make_shared<Value>(value(id));
}

void
CostBoundAnalysis::restoreDatum(EClassId id,
                                const std::shared_ptr<void> &datum)
{
    ensure(id);
    values_[id] = *std::static_pointer_cast<Value>(datum);
}

std::string
CostBoundAnalysis::checkInvariants(const EGraph &egraph) const
{
    ensureCurrent(egraph);
    ExtractStats scratch_stats;
    std::vector<EClassId> ids = egraph.classIds();
    auto scratch = scratchBounds(egraph, model_, ids, scratch_stats);
    for (EClassId id : ids) {
        Value maintained = value(id);
        Value derived = scratch.at(id);
        if (!(maintained == derived)) {
            return MsgBuilder()
                   << name() << " incoherent at class " << id
                   << ": maintained (" << maintained.cost << ", "
                   << maintained.size << "), from-scratch ("
                   << derived.cost << ", " << derived.size << ")";
        }
    }
    return "";
}

CostBoundAnalysis &
registerCostBound(EGraph &egraph, const CostModel &model)
{
    SEER_ASSERT(!model.name().empty(),
                "cost-bound analysis requires a named cost model");
    std::string name = "cost-bound:" + model.name();
    if (Analysis *existing = egraph.findAnalysis(name))
        return *static_cast<CostBoundAnalysis *>(existing);
    return static_cast<CostBoundAnalysis &>(egraph.registerAnalysis(
        std::make_unique<CostBoundAnalysis>(model)));
}

// ---------------------------------------------------------------------------
// Extractors

std::optional<Extraction>
extractGreedy(const EGraph &egraph, EClassId root, const CostModel &cost,
              const ExtractOptions &options)
{
    if (faultFire(FaultPoint::ExtractAlloc))
        throw std::bad_alloc();
    ExtractStats local;
    ExtractStats &stats = options.stats ? *options.stats : local;
    EClassId canonical = egraph.find(root);
    BoundTable table = makeTable(egraph, cost, canonical, options, stats);
    if (table.at(canonical).cost == CostModel::kInfinity)
        return std::nullopt;
    ChoiceMap choice;
    TermMemo memo;
    std::unordered_set<EClassId> visiting;
    Extraction out;
    out.term = buildGreedyTerm(egraph, cost, table, canonical, choice,
                               memo, visiting);
    out.tree_cost = table.at(canonical).cost;
    out.dag_cost = dagCostOf(egraph, canonical, choice, cost);
    stats.classes_visited += choice.size();
    return out;
}

std::optional<Extraction>
extractGreedy(const EGraph &egraph, EClassId root, const CostModel &cost)
{
    return extractGreedy(egraph, root, cost, ExtractOptions{});
}

TermPtr
GreedyMemo::extract(const EGraph &egraph, EClassId root,
                    const CostModel &cost)
{
    // The same entry fault as extractGreedy, hit or miss, so a fault
    // plan fires on the same call either way.
    if (faultFire(FaultPoint::ExtractAlloc))
        throw std::bad_alloc();
    ++calls_;
    auto it = std::find_if(
        states_.begin(), states_.end(),
        [&](const State &state) { return state.model == &cost; });
    if (it == states_.end()) {
        it = states_.emplace(states_.end());
        it->model = &cost;
    }
    State &state = *it;
    if (state.egraph != &egraph || state.tick != egraph.tick() ||
        state.generation != egraph.rollbackGeneration()) {
        state.egraph = &egraph;
        state.tick = egraph.tick();
        state.generation = egraph.rollbackGeneration();
        state.choice.clear();
        state.terms.clear();
    }
    EClassId canonical = egraph.find(root);
    if (auto done = state.terms.find(canonical);
        done != state.terms.end()) {
        ++hits_;
        return done->second;
    }
    ExtractStats stats;
    BoundTable table =
        makeTable(egraph, cost, canonical, ExtractOptions{}, stats);
    if (table.at(canonical).cost == CostModel::kInfinity) {
        state.terms.emplace(canonical, nullptr);
        return nullptr;
    }
    std::unordered_set<EClassId> visiting;
    return buildGreedyTerm(egraph, cost, table, canonical, state.choice,
                           state.terms, visiting, this);
}

size_t
GreedyMemo::InternHash::operator()(const InternKey &key) const
{
    uint64_t h = hashValue(key.op.id());
    for (const TermPtr &child : key.children)
        h = hashValue(reinterpret_cast<uintptr_t>(child.get()), h);
    return static_cast<size_t>(h);
}

bool
GreedyMemo::InternEqual::operator()(const InternKey &a,
                                    const TermPtr &b) const
{
    if (a.op != b->op() || a.children.size() != b->arity())
        return false;
    for (size_t i = 0; i < a.children.size(); ++i) {
        if (a.children[i] != b->child(i))
            return false;
    }
    return true;
}

TermPtr
GreedyMemo::intern(Symbol op, std::vector<TermPtr> children)
{
    auto it = interned_.find(InternKey{op, children});
    if (it != interned_.end())
        return *it;
    TermPtr term = makeTerm(op, std::move(children));
    interned_.insert(term);
    return term;
}

TermPtr
extractSmallest(const EGraph &egraph, EClassId root)
{
    TermSizeCost cost;
    auto extraction = extractGreedy(egraph, root, cost);
    SEER_ASSERT(extraction.has_value(),
                "extractSmallest on infeasible class");
    return extraction->term;
}

std::optional<Extraction>
extractExact(const EGraph &egraph, EClassId root, const CostModel &cost,
             const ExtractOptions &options)
{
    if (faultFire(FaultPoint::ExtractAlloc))
        throw std::bad_alloc();
    ExtractStats local;
    ExtractStats &stats = options.stats ? *options.stats : local;
    return ExactSolver(egraph, cost, options, stats).solve(root);
}

std::optional<Extraction>
extractExact(const EGraph &egraph, EClassId root, const CostModel &cost,
             size_t budget)
{
    ExtractOptions options;
    options.budget = budget;
    return extractExact(egraph, root, cost, options);
}

} // namespace seer::eg
