/**
 * @file
 * Generic e-class analyses (egg's make/join/modify protocol).
 *
 * An Analysis maintains one datum per e-class, kept coherent with the
 * e-graph incrementally: it is told about every class creation (make),
 * every union (join), and every repaired parent node during rebuild, and
 * it may respond by mutating the graph (modify — e.g. constant folding
 * materializing a literal). Rollback coherence comes from the checkpoint
 * journal: an analysis that overwrites the datum of an existing class
 * while a checkpoint is open must first record the old datum through
 * EGraph::journalAnalysisDatum(), and rollback replays those records in
 * reverse (data of classes created after the checkpoint is simply
 * truncated away via onRollback()).
 *
 * The constant-folding analysis — previously hard-coded into EGraph via
 * AnalysisHooks — is the first client; the cost lower-bound analyses of
 * extract.h are the second.
 */
#ifndef SEER_EGRAPH_ANALYSIS_H_
#define SEER_EGRAPH_ANALYSIS_H_

#include <memory>

#include "egraph/egraph.h"

namespace seer::eg {

/**
 * Base class of a registered e-class analysis. All hooks receive the
 * e-graph; ids passed in are canonical at call time but hooks that
 * defer work must re-canonicalize (through EGraph::find) when they get
 * around to it.
 *
 * Invariant (analysis/journal coherence): any overwrite of the datum of
 * a class that existed before the mutation must be preceded by
 * EGraph::journalAnalysisDatum(*this, id) so rollback can restore it.
 * Data of the absorbed class of a merge must be left in place — after
 * rollback the loser is live again and still owns its slot.
 */
class Analysis
{
  public:
    virtual ~Analysis() = default;

    /** Stable identity used for lookup (EGraph::findAnalysis). */
    virtual std::string name() const = 0;

    /** Class `id` was just created holding exactly `node`. */
    virtual void onMake(EGraph &egraph, EClassId id, const ENode &node) = 0;

    /**
     * `from` was absorbed into `into` (union-find already updated, node
     * and parent lists not yet spliced). `from_parents` is the absorbed
     * class's parent list — the nodes whose value may change because a
     * child id now canonicalizes differently.
     */
    virtual void
    onMerge(EGraph &egraph, EClassId into, EClassId from,
            const std::vector<std::pair<ENode, EClassId>> &from_parents) = 0;

    /**
     * The modify hook of egg: called after make (on the new class) and
     * after join (on the winner); may mutate the graph, e.g. add a
     * folded literal and merge it in.
     */
    virtual void onModify(EGraph &egraph, EClassId id) { (void)egraph, (void)id; }

    /**
     * rebuild()'s repair re-canonicalized parent `node` belonging to
     * class `parent`: the analysis may now derive a better datum for it
     * (egg's analysis_pending worklist).
     */
    virtual void onRepairParent(EGraph &egraph, const ENode &node,
                                EClassId parent)
    {
        (void)egraph, (void)node, (void)parent;
    }

    /** Another registered analysis changed its datum of class `id`. */
    virtual void onPeerChanged(EGraph &egraph, EClassId id)
    {
        (void)egraph, (void)id;
    }

    /**
     * Called at the start of checkpoint(): bring lazily-maintained state
     * to a fixpoint, so the checkpoint (and the journal restore replayed
     * against it) captures a quiescent analysis.
     */
    virtual void onCheckpoint(EGraph &egraph) { (void)egraph; }

    /**
     * rollback() finished undoing the journal and truncating the id
     * space to `live_ids`: drop per-id state past it and clear any
     * pending work queues (their entries may reference dead ids; a
     * quiescent state was restored by the journal).
     */
    virtual void onRollback(EGraph &egraph, size_t live_ids) = 0;

    /**
     * Late registration on a non-empty graph: initialize from existing
     * content (analyses registered at construction need not bother).
     */
    virtual void onAttach(EGraph &egraph) { (void)egraph; }

    /** Type-erased snapshot of one class's datum (journal support). */
    virtual std::shared_ptr<void> saveDatum(EClassId id) const = 0;
    virtual void restoreDatum(EClassId id,
                              const std::shared_ptr<void> &datum) = 0;

    /**
     * Debug self-check: recompute from scratch and compare with the
     * maintained data. Empty string when coherent, else a diagnostic.
     * O(graph); called from EGraph::debugCheckInvariants().
     */
    virtual std::string checkInvariants(const EGraph &egraph) const
    {
        (void)egraph;
        return "";
    }

    /**
     * True when rule conditions or appliers read this analysis's data,
     * so an incoherent datum can make a rewrite unsound. The phase
     * commit gate (EGraph::checkCommitInvariants) recomputes only
     * these; the default is the safe one.
     */
    virtual bool decidesRewrites() const { return true; }

    /** Registration slot (set by EGraph::registerAnalysis). */
    size_t index() const { return index_; }

  private:
    friend class EGraph;
    size_t index_ = 0;
};

/**
 * The constant-folding analysis, parameterized by the SeerLang symbol
 * hooks (AnalysisHooks). Maintains an optional int64 constant per class,
 * panics on contradiction (an unsound rewrite merged two distinct
 * constants), and materializes a literal node in every class whose
 * constant becomes known (the modify step).
 */
class ConstFoldAnalysis final : public Analysis
{
  public:
    explicit ConstFoldAnalysis(AnalysisHooks hooks)
        : hooks_(std::move(hooks))
    {}

    std::string name() const override { return "const-fold"; }

    /** Constant of (canonical) class `id`, when derived. */
    std::optional<int64_t> value(EClassId id) const
    {
        if (id >= values_.size())
            return std::nullopt;
        return values_[id];
    }

    void onMake(EGraph &egraph, EClassId id, const ENode &node) override;
    void onMerge(EGraph &egraph, EClassId into, EClassId from,
                 const std::vector<std::pair<ENode, EClassId>>
                     &from_parents) override;
    void onModify(EGraph &egraph, EClassId id) override;
    void onRepairParent(EGraph &egraph, const ENode &node,
                        EClassId parent) override;
    void onRollback(EGraph &egraph, size_t live_ids) override;
    std::shared_ptr<void> saveDatum(EClassId id) const override;
    void restoreDatum(EClassId id,
                      const std::shared_ptr<void> &datum) override;
    std::string checkInvariants(const EGraph &egraph) const override;

  private:
    /** Fold `node` from known child constants; nullopt when blocked. */
    std::optional<int64_t> foldNode(const EGraph &egraph,
                                    const ENode &node) const;
    void ensure(EClassId id)
    {
        if (id >= values_.size())
            values_.resize(id + 1);
    }

    AnalysisHooks hooks_;
    std::vector<std::optional<int64_t>> values_;
};

} // namespace seer::eg

#endif // SEER_EGRAPH_ANALYSIS_H_
