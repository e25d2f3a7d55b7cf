/**
 * @file
 * An egg-style e-graph: union-find over equivalence classes of e-nodes,
 * with hash-consing, deferred rebuilding, and a pluggable constant-folding
 * analysis.
 *
 * This is the C++ stand-in for the Rust `egg` library the paper builds on.
 * The API mirrors egg's: add / union / rebuild / lookup, with e-matching
 * and extraction layered on top (pattern.h, extract.h).
 *
 * Storage is sized for million-node graphs (storage.h): a flat
 * open-addressing hashcons, a dense class vector indexed by EClassId,
 * small-vector children inline in every e-node, and a flattened op
 * index. The journal/checkpoint machinery is storage-agnostic — every
 * undo entry restores the same logical state it did under the original
 * map-based layout.
 */
#ifndef SEER_EGRAPH_EGRAPH_H_
#define SEER_EGRAPH_EGRAPH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "egraph/storage.h"
#include "egraph/term.h"
#include "support/exec_context.h"

namespace seer::eg {

class Analysis;
class ConstFoldAnalysis;

/**
 * Constant-folding hooks (the symbol-encoding half of the constant
 * e-class analysis). The SeerLang layer supplies functions that
 * understand its symbol encoding; EGraph(AnalysisHooks) wraps them in a
 * registered ConstFoldAnalysis (analysis.h).
 */
struct AnalysisHooks
{
    /** If `op` denotes a literal leaf, return its integer value. */
    std::function<std::optional<int64_t>(Symbol)> parse_const;

    /**
     * Fold `op` applied to known child constants into a literal leaf
     * symbol; nullopt when not foldable (or folding would be unsound).
     */
    std::function<std::optional<Symbol>(
        Symbol, const std::vector<int64_t> &)>
        fold;
};

/**
 * An e-class's node list. A freshly hashconsed class holds exactly one
 * node and only grows when merges splice classes together, so a single
 * inline slot keeps the common case allocation-free.
 */
using NodeList = SmallVec<ENode, 1>;

/** One equivalence class. */
struct EClass
{
    NodeList nodes;
    /** (parent node as last canonicalized, parent class) for repair. */
    std::vector<std::pair<ENode, EClassId>> parents;
};

class EGraph
{
  public:
    EGraph();
    /** Convenience: registers a ConstFoldAnalysis over `hooks`. */
    explicit EGraph(AnalysisHooks hooks);
    ~EGraph();
    // Move-only (owns its registered analyses).
    EGraph(EGraph &&) noexcept;
    EGraph &operator=(EGraph &&) noexcept;

    /** Add an e-node (children must be existing class ids). */
    EClassId add(ENode node);

    /** Add a whole ground term bottom-up. */
    EClassId addTerm(const TermPtr &term);

    /**
     * Canonical representative of an id — read-only walk. This overload
     * never mutates the union-find, so it is safe from the concurrent
     * (read-only) e-matching phase and from proof code that must not
     * perturb ids while reconstructing explanations.
     */
    EClassId find(EClassId id) const;

    /**
     * Canonical representative with path compression (path halving).
     * Amortizes deep union chains away so canonicalize/rebuild stay
     * O(α) per lookup as the graph grows; the mutating hot path
     * (add/merge/rebuild) resolves to this overload automatically.
     */
    EClassId find(EClassId id);

    /** Union two classes; true if they were distinct. `reason` feeds
     *  proof production (egg's explanation feature, which the paper's
     *  translation-validation flow builds on). */
    bool merge(EClassId a, EClassId b, std::string reason = "");

    /** Restore congruence and hashcons invariants after merges. */
    void rebuild();

    /** Lookup a node (canonicalized); nullopt if absent. */
    std::optional<EClassId> lookup(ENode node) const;

    /** Lookup a ground term; nullopt if any subterm is absent. */
    std::optional<EClassId> lookupTerm(const TermPtr &term) const;

    /** The class data for a canonical id. */
    const EClass &eclass(EClassId id) const;

    /** Constant value of a class if the analysis derived one. */
    std::optional<int64_t> constantOf(EClassId id) const;

    /**
     * Register an e-class analysis. The analysis is told about all
     * existing content via Analysis::onAttach, then kept coherent with
     * every subsequent mutation (and with checkpoint rollback, through
     * the journal). Registration itself never alters graph evolution —
     * unless the analysis's modify hook adds nodes, exploration results
     * are bit-identical with and without it. Must not be called while a
     * checkpoint is open. Returns the registered analysis.
     */
    Analysis &registerAnalysis(std::unique_ptr<Analysis> analysis);

    /** Registered analysis by name; nullptr when absent. */
    Analysis *findAnalysis(const std::string &name) const;

    /** All registered analyses, in registration order. */
    const std::vector<std::unique_ptr<Analysis>> &analyses() const
    {
        return analyses_;
    }

    /** Size of the id space (live + merged-away ids); analyses size
     *  their dense per-id tables with this. */
    size_t numIds() const { return parents_.size(); }

    /** The raw union-find links, indexed by id: a merged-away id holds
     *  whatever link path halving last left it (tests compare these
     *  across checkpoints). */
    const std::vector<EClassId> &unionFind() const { return parents_; }

    /**
     * Journal the current datum of (analysis, id) so rollback restores
     * it. Analyses must call this *before* overwriting the datum of a
     * pre-existing class. Const because lazily-maintained analyses
     * (cost bounds) drain from read paths; the journal is mutable.
     */
    void journalAnalysisDatum(const Analysis &analysis, EClassId id) const;

    /** Tell every other analysis that `source` changed its datum of
     *  class `id` (cross-analysis dependencies, e.g. an area model
     *  reading shift-amount constants). */
    void notifyPeerAnalyses(const Analysis &source, EClassId id);

    /** Schedule `id` for repair at the next rebuild — analyses use this
     *  when a datum change may unlock folds in parent classes. */
    void analysisRequeue(EClassId id);

    /** All canonical class ids, ascending. */
    std::vector<EClassId> classIds() const;

    size_t numClasses() const;
    size_t numNodes() const;

    /**
     * Operator index: the raw candidate list for nodes with this
     * (op, arity) head, or nullptr when no such node was ever added.
     * Entries are the class ids *at add time*: after merges they may be
     * non-canonical and may resolve to duplicate canonical classes, so
     * callers must canonicalize through find() and deduplicate. The list
     * is append-only between rollbacks (bounded by the number of adds),
     * which is what keeps it trivially coherent with the checkpoint
     * journal: rolling back an add pops its entry again.
     */
    const OpBucket *opCandidates(Symbol op, size_t arity) const;

    /**
     * Monotonic modification clock: advances on every add() that
     * creates a class, on every merge, and once in each rebuild() that
     * follows merges (including merges a rollback reinstated as
     * pending). Never decreases, not even across rollback. Caches of
     * per-class derived state (the greedy extraction memo, the
     * external-rule sync) are valid only while it is unchanged.
     */
    uint64_t tick() const { return tick_; }

    /**
     * Bumped by every rollback(). Rollback can take the graph back to
     * an earlier state without moving tick() backwards, so caches keyed
     * on tick() must also check this.
     */
    uint64_t rollbackGeneration() const { return rollback_generation_; }

    /** True when no merges are pending rebuild. */
    bool isClean() const { return worklist_.empty(); }

    /**
     * Attach the execution context whose governor accounts this
     * graph's storage (MemSubsystem::EGraph). Between rebuilds the
     * accounting is an incremental per-add estimate synced in chunks;
     * every rebuild/rollback replaces it with an exact storage walk
     * (exactBytes), so budget degradation stays honest at million-node
     * scale. A budget breach never throws here — it latches
     * cancellation on the context, and the runner winds down at its
     * next poll point.
     */
    void setExecContext(const ExecContext &exec) { exec_ = exec; }

    /**
     * Bytes of node/parent/hashcons/index storage: the exact walk from
     * the last rebuild/rollback plus a per-add marginal estimate for
     * mutations since. O(1); self-corrects at every rebuild.
     */
    size_t approxBytes() const;

    /**
     * Exact owned bytes of every storage structure (union-find, classes
     * with spilled children, hashcons, op index, journal and
     * proof arrays). O(graph) — rebuild/rollback call this to re-anchor
     * the incremental estimate; tests and benches may call it directly.
     */
    size_t exactBytes() const;

    /**
     * Proof production: the chain of union justifications connecting
     * two ids (e.g. the class a term was first added under and the
     * class of the final extraction). Ids are the *original* ids
     * returned by add/addTerm — they stay valid across merges. Returns
     * nullopt when the ids were never unioned into one class.
     */
    std::optional<std::vector<std::string>> explain(EClassId a,
                                                    EClassId b) const;

    /**
     * Transactional snapshot token for phase rollback. While at least
     * one checkpoint is open, every structural mutation (hashcons
     * insert/update, class creation, merge, repair rewrite, analysis
     * constant) is recorded in an undo journal. The flat union-find
     * array and the pending worklist are not journaled: opening a
     * checkpoint records only their sizes, and they are copied at the
     * first write that overwrites an entry (a merge, a rebuild with
     * work to do, or a path-halving find that changes a link). Appends (add()) leave the recorded prefix intact, so a
     * checkpoint resolved before any such write costs no copy; its
     * rollback truncates the arrays back to the recorded sizes. The
     * undo state lives in the e-graph; the token only names it.
     */
    struct Checkpoint
    {
        uint64_t token = 0;
    };

    /** Open a checkpoint. Checkpoints nest with strict LIFO discipline:
     *  each must be resolved (rollback or commit) before any checkpoint
     *  opened earlier. */
    Checkpoint checkpoint();

    /**
     * Restore the e-graph to the exact state it had when `cp` was
     * opened: the journal is undone in reverse, then the union-find and
     * worklist are reinstated (from their copies, or by truncation when
     * nothing overwrote them) and the proof graph truncated. Ids created after the checkpoint become invalid again.
     */
    void rollback(const Checkpoint &cp);

    /** Close `cp` keeping all changes; drops the undo state (and stops
     *  journaling once no checkpoint remains open). */
    void commit(const Checkpoint &cp);

    /** Number of open (unresolved) checkpoints. */
    size_t numOpenCheckpoints() const { return open_.size(); }

    /** Checkpoints ever opened on this graph. */
    uint64_t numCheckpoints() const { return checkpoint_serial_; }

    /** Checkpoints whose union-find and worklist had to be copied
     *  because a write overwrote them while they were open. */
    uint64_t numCheckpointSnapshots() const { return checkpoint_snapshots_; }

    /**
     * Full self-check, the oracle that tests and the optimizer's
     * `strict` mode run: the core invariants (canonical class keys,
     * hashcons consistency, live memo values, every id resolving to a
     * live class, dead class slots left empty, every live node
     * reachable through the op index) and every registered analysis
     * against its from-scratch recomputation. Returns an empty string
     * when consistent, else the first failure found. Node-level
     * hashcons and analysis checks require a clean graph (rebuild
     * first). Its cost is linear in the graph — one pass over ids,
     * nodes and hashcons entries, with each op-index bucket resolved
     * through find() once per call and sorted — plus each analysis's
     * own recomputation.
     */
    std::string debugCheckInvariants() const;

    /**
     * The phase commit gate: the optimizer runs it after every
     * saturation phase and rolls the phase back on a failure. The same
     * core invariants as debugCheckInvariants(), but only the analyses
     * whose data decides rewrites (Analysis::decidesRewrites) are
     * recomputed: an incoherent cost bound changes which equivalent
     * term is shown, never what is sound.
     */
    std::string checkCommitInvariants() const;

  private:
    /** Body of the two checks above: all analyses, or only those
     *  that decide rewrites. */
    std::string checkInvariants(bool rewrite_deciding_only) const;

    /** One undoable mutation (see rollback()). */
    struct JournalEntry
    {
        enum class Kind {
            AddClass,    ///< add() created class `id` from `node`
            Merge,       ///< merge() absorbed `id2` into `id`
            MemoSet,     ///< memo_[node] written (old value or absent)
            MemoErase,   ///< memo_[node] erased (held `memo_old`)
            ParentsClear,   ///< classes_[id].parents cleared (repair)
            ParentsAppend,  ///< classes_[id].parents grew by one
            NodesReplace,   ///< classes_[id].nodes rewritten (repair)
            AnalysisSet,    ///< analysis datum of class `id` overwritten
        };
        Kind kind;
        EClassId id = 0;
        EClassId id2 = 0;
        /** Merge: the original (pre-find) ids whose proof adjacency
         *  lists received the union edge. */
        EClassId orig_a = 0, orig_b = 0;
        ENode node;
        std::optional<EClassId> memo_old;
        size_t nodes_size = 0;
        size_t parents_size = 0;
        /** AnalysisSet: which analysis, and its saved datum. */
        size_t analysis_index = 0;
        std::shared_ptr<void> analysis_datum;
        EClass saved_class;
        std::vector<std::pair<ENode, EClassId>> saved_parents;
        NodeList saved_nodes;
    };

    /** Undo state of one open checkpoint (see Checkpoint). */
    struct OpenCheckpoint
    {
        uint64_t token = 0;
        size_t journal_mark = 0;
        size_t proof_size = 0;
        size_t num_ids = 0;
        size_t worklist_size = 0;
        bool merge_pending = false;
        /** The two arrays below hold the state at open time. */
        bool snapshotted = false;
        std::vector<EClassId> parents;
        std::vector<EClassId> worklist;
    };

    bool journaling() const { return !open_.empty(); }
    /** Call before overwriting an entry of parents_ or worklist_:
     *  copies them for every open checkpoint that has not been copied
     *  yet. */
    void beforeOverwrite()
    {
        if (!open_.empty() && !open_.back().snapshotted)
            snapshotOpenCheckpoints();
    }
    void snapshotOpenCheckpoints();
    void undo(JournalEntry &entry);
    void journalMemoSet(const ENode &key, uint64_t hash);
    void journalMemoErase(const ENode &key, uint64_t hash);
    ENode canonicalize(ENode node) const;
    ENode canonicalize(ENode node); ///< compressing-find variant
    void repair(EClassId id);

    /** Registered analyses; const-fold (when hooked) is cached below. */
    std::vector<std::unique_ptr<Analysis>> analyses_;
    ConstFoldAnalysis *const_fold_ = nullptr;
    /** Mutable so lazily-maintained analyses can journal datum
     *  overwrites from const read paths (see journalAnalysisDatum). */
    mutable std::vector<JournalEntry> journal_;
    /** Open checkpoints, innermost last. The copied ones always form a
     *  prefix: a write copies every open checkpoint not yet copied. */
    std::vector<OpenCheckpoint> open_;
    uint64_t checkpoint_serial_ = 0;
    uint64_t checkpoint_snapshots_ = 0;
    std::vector<EClassId> parents_; // union-find
    /** Proof graph: one adjacency list entry per union, labelled with
     *  the justification. */
    std::vector<std::vector<std::pair<EClassId, std::string>>>
        proof_edges_;
    /** Flat open-addressing hashcons (storage.h); hashes are computed
     *  once per add/canonicalize and threaded through. */
    NodeTable memo_;
    /**
     * Dense class storage, indexed by EClassId in lockstep with
     * parents_. The slot of a merged-away (non-canonical) id is left
     * empty — liveness is `parents_[id] == id`, not slot presence.
     * Because the vector reallocates on growth, no reference into it
     * may be held across a call that can re-enter add()/merge()
     * (analysis hooks materializing constants).
     */
    std::vector<EClass> classes_;
    /** Live (canonical) class count; classes_.size() counts dead slots. */
    size_t num_classes_ = 0;
    std::vector<EClassId> worklist_;
    /** (op, arity) -> class ids at add time (see opCandidates()). */
    OpIndex op_index_;
    /** A merge happened since the last rebuild (see tick()). */
    bool merge_pending_ = false;
    uint64_t tick_ = 0;
    uint64_t rollback_generation_ = 0;
    /** Live node count across all classes, maintained incrementally so
     *  numNodes() is O(1) (the runner polls it per application). */
    size_t num_nodes_ = 0;
    /** Memory governance (see setExecContext). */
    ExecContext exec_;
    /** Bytes last reported to the governor (sync is chunked). */
    int64_t charged_bytes_ = 0;
    /** exactBytes() at the last rebuild/rollback... */
    size_t exact_bytes_ = 0;
    /** ...plus the marginal estimate of adds since (see approxBytes). */
    size_t est_bytes_pending_ = 0;
    void syncMemCharge(bool force = false);
};

} // namespace seer::eg

#endif // SEER_EGRAPH_EGRAPH_H_
