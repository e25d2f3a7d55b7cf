#include "egraph/egraph.h"

#include <algorithm>
#include <new>
#include <optional>
#include <unordered_map>

#include "egraph/analysis.h"
#include "support/error.h"
#include "support/fault_inject.h"

namespace seer::eg {

EGraph::EGraph() = default;
EGraph::~EGraph() = default;
EGraph::EGraph(EGraph &&) noexcept = default;
EGraph &EGraph::operator=(EGraph &&) noexcept = default;

EGraph::EGraph(AnalysisHooks hooks)
{
    if (hooks.parse_const)
        registerAnalysis(
            std::make_unique<ConstFoldAnalysis>(std::move(hooks)));
}

Analysis &
EGraph::registerAnalysis(std::unique_ptr<Analysis> analysis)
{
    SEER_ASSERT(!journaling(),
                "registerAnalysis inside an open checkpoint");
    SEER_ASSERT(findAnalysis(analysis->name()) == nullptr,
                "duplicate analysis '" << analysis->name() << "'");
    analysis->index_ = analyses_.size();
    analyses_.push_back(std::move(analysis));
    Analysis &registered = *analyses_.back();
    if (registered.name() == "const-fold")
        const_fold_ = static_cast<ConstFoldAnalysis *>(&registered);
    registered.onAttach(*this);
    return registered;
}

Analysis *
EGraph::findAnalysis(const std::string &name) const
{
    for (const auto &analysis : analyses_)
        if (analysis->name() == name)
            return analysis.get();
    return nullptr;
}

void
EGraph::journalAnalysisDatum(const Analysis &analysis, EClassId id) const
{
    if (!journaling())
        return;
    JournalEntry entry;
    entry.kind = JournalEntry::Kind::AnalysisSet;
    entry.id = id;
    entry.analysis_index = analysis.index();
    entry.analysis_datum = analysis.saveDatum(id);
    journal_.push_back(std::move(entry));
}

void
EGraph::notifyPeerAnalyses(const Analysis &source, EClassId id)
{
    for (auto &analysis : analyses_)
        if (analysis.get() != &source)
            analysis->onPeerChanged(*this, id);
}

void
EGraph::analysisRequeue(EClassId id)
{
    worklist_.push_back(id);
}

EClassId
EGraph::find(EClassId id) const
{
    SEER_ASSERT(id < parents_.size(), "find on invalid eclass id " << id);
    while (parents_[id] != id)
        id = parents_[id];
    return id;
}

EClassId
EGraph::find(EClassId id)
{
    SEER_ASSERT(id < parents_.size(), "find on invalid eclass id " << id);
    // Path halving: point every visited id at its grandparent. Each find
    // halves the chain it walks, so repeated finds flatten union chains
    // and canonicalization stays near-constant as the graph grows.
    while (parents_[id] != id) {
        EClassId grandparent = parents_[parents_[id]];
        if (grandparent != parents_[id]) {
            beforeOverwrite();
            parents_[id] = grandparent;
        }
        id = grandparent;
    }
    return id;
}

ENode
EGraph::canonicalize(ENode node) const
{
    for (EClassId &child : node.children)
        child = find(child);
    return node;
}

ENode
EGraph::canonicalize(ENode node)
{
    for (EClassId &child : node.children)
        child = find(child);
    return node;
}

size_t
EGraph::exactBytes() const
{
    size_t bytes =
        parents_.capacity() * sizeof(EClassId) +
        worklist_.capacity() * sizeof(EClassId) +
        classes_.capacity() * sizeof(EClass) +
        journal_.capacity() * sizeof(JournalEntry) +
        memo_.storageBytes() + op_index_.storageBytes();
    for (const EClass &cls : classes_) {
        bytes += cls.nodes.heapBytes();
        for (const ENode &node : cls.nodes)
            bytes += node.children.heapBytes();
        bytes += cls.parents.capacity() *
                 sizeof(std::pair<ENode, EClassId>);
        for (const auto &[node, parent] : cls.parents)
            bytes += node.children.heapBytes();
    }
    bytes += proof_edges_.capacity() *
             sizeof(std::vector<std::pair<EClassId, std::string>>);
    for (const auto &edges : proof_edges_) {
        bytes += edges.capacity() *
                 sizeof(std::pair<EClassId, std::string>);
        for (const auto &[id, reason] : edges)
            bytes += reason.capacity();
    }
    return bytes;
}

size_t
EGraph::approxBytes() const
{
    return exact_bytes_ + est_bytes_pending_;
}

void
EGraph::syncMemCharge(bool force)
{
    int64_t now = static_cast<int64_t>(approxBytes());
    int64_t delta = now - charged_bytes_;
    if (!force && delta > -4096 && delta < 4096)
        return; // chunked: skip sub-page drift on the add() hot path
    if (delta == 0)
        return;
    exec_.chargeMem(MemSubsystem::EGraph, delta);
    charged_bytes_ = now;
}

EClassId
EGraph::add(ENode node)
{
    if (faultFire(FaultPoint::EGraphAlloc))
        throw std::bad_alloc();
    node = canonicalize(std::move(node));
    uint64_t hash = enodeHash(node);
    if (EClassId *hit = memo_.find(node, hash)) {
        // Hashcons canonicalization: refresh the stored id so the next
        // hit returns without any union-find walk at all.
        if (journaling() && *hit != find(*hit))
            journalMemoSet(node, hash);
        return *hit = find(*hit);
    }

    EClassId id = static_cast<EClassId>(parents_.size());
    parents_.push_back(id);
    ++tick_;
    classes_.emplace_back();
    ++num_classes_;
    if (journaling()) {
        JournalEntry entry;
        entry.kind = JournalEntry::Kind::AddClass;
        entry.id = id;
        entry.node = node;
        journal_.push_back(std::move(entry));
    }
    classes_[id].nodes.push_back(node);
    ++num_nodes_;
    op_index_
        .getOrCreate(node.op.id(),
                     static_cast<uint32_t>(node.children.size()))
        .push_back(id);
    // Marginal storage estimate for this add, re-anchored to an exact
    // walk at every rebuild: the node copy in its class, a hashcons
    // slot at ~3/4 load, one parent entry per child, and the id's
    // union-find/class-slot/op-index overhead.
    est_bytes_pending_ +=
        sizeof(ENode) + 3 * node.children.heapBytes() +
        (sizeof(ENode) + 16) * 4 / 3 +
        node.children.size() * sizeof(std::pair<ENode, EClassId>) +
        sizeof(EClassId) + sizeof(EClass) +
        sizeof(EClassId);
    for (EClassId child : node.children)
        classes_[child].parents.emplace_back(node, id);
    memo_.insert(node, hash, id);
    for (auto &analysis : analyses_)
        analysis->onMake(*this, id, node);
    // Modify runs after every analysis made its datum: it may re-enter
    // add()/merge() (constant folding materializing a literal).
    for (auto &analysis : analyses_)
        analysis->onModify(*this, id);
    syncMemCharge();
    return id;
}

namespace {

/** Per-call memo of the term walks below: a node shared in the DAG is
 *  added or looked up once, not once per path to it. */
using TermClassMemo = std::unordered_map<const Term *, EClassId>;

EClassId
addTermShared(EGraph &egraph, const TermPtr &term, TermClassMemo &memo)
{
    if (auto it = memo.find(term.get()); it != memo.end())
        return it->second;
    ENode node;
    node.op = term->op();
    for (const auto &child : term->children())
        node.children.push_back(addTermShared(egraph, child, memo));
    EClassId id = egraph.add(std::move(node));
    memo.emplace(term.get(), id);
    return id;
}

std::optional<EClassId>
lookupTermShared(const EGraph &egraph, const TermPtr &term,
                 TermClassMemo &memo)
{
    if (auto it = memo.find(term.get()); it != memo.end())
        return it->second;
    ENode node;
    node.op = term->op();
    for (const auto &child : term->children()) {
        auto child_id = lookupTermShared(egraph, child, memo);
        if (!child_id)
            return std::nullopt;
        node.children.push_back(*child_id);
    }
    auto id = egraph.lookup(std::move(node));
    if (id)
        memo.emplace(term.get(), *id);
    return id;
}

} // namespace

EClassId
EGraph::addTerm(const TermPtr &term)
{
    TermClassMemo memo;
    return addTermShared(*this, term, memo);
}

std::optional<EClassId>
EGraph::lookup(ENode node) const
{
    node = canonicalize(std::move(node));
    const EClassId *hit = memo_.find(node, enodeHash(node));
    if (hit == nullptr)
        return std::nullopt;
    return find(*hit);
}

std::optional<EClassId>
EGraph::lookupTerm(const TermPtr &term) const
{
    TermClassMemo memo;
    return lookupTermShared(*this, term, memo);
}

bool
EGraph::merge(EClassId a, EClassId b, std::string reason)
{
    EClassId a_orig = a, b_orig = b;
    a = find(a);
    b = find(b);
    if (a == b)
        return false;
    beforeOverwrite();
    // Record the union justification between the *claimed* ids (stable
    // across later merges); paths through these edges are explanations.
    if (proof_edges_.size() < parents_.size())
        proof_edges_.resize(parents_.size());
    if (reason.empty())
        reason = "congruence";
    proof_edges_[a_orig].emplace_back(b_orig, reason);
    proof_edges_[b_orig].emplace_back(a_orig, std::move(reason));
    // Union by size of parent list (fewer parents to repair on top).
    if (classes_[a].parents.size() < classes_[b].parents.size())
        std::swap(a, b);
    parents_[b] = a;

    // Detach the absorbed class into a stable local before any hook
    // runs: the dense class vector reallocates on re-entrant adds, so
    // neither a reference into it nor the hooks' from_parents view may
    // point at live storage.
    EClass from = std::move(classes_[b]);
    classes_[b] = EClass{};
    size_t into_nodes_size = classes_[a].nodes.size();
    size_t into_parents_size = classes_[a].parents.size();
    // Join while the absorbed class's parent list is still intact: the
    // hooks see exactly the nodes whose child ids re-canonicalize.
    for (auto &analysis : analyses_)
        analysis->onMerge(*this, a, b, from.parents);
    {
        EClass &into = classes_[a];
        into.nodes.insert(into.nodes.end(), from.nodes.begin(),
                          from.nodes.end());
        into.parents.insert(into.parents.end(), from.parents.begin(),
                            from.parents.end());
    }
    if (journaling()) {
        JournalEntry entry;
        entry.kind = JournalEntry::Kind::Merge;
        entry.id = a;
        entry.id2 = b;
        entry.orig_a = a_orig;
        entry.orig_b = b_orig;
        entry.nodes_size = into_nodes_size;
        entry.parents_size = into_parents_size;
        entry.saved_class = std::move(from);
        journal_.push_back(std::move(entry));
    }
    --num_classes_;
    ++tick_;
    merge_pending_ = true;
    worklist_.push_back(a);
    for (auto &analysis : analyses_)
        analysis->onModify(*this, a);
    return true;
}

void
EGraph::rebuild()
{
    if (!worklist_.empty())
        beforeOverwrite(); // drained below
    while (!worklist_.empty()) {
        std::vector<EClassId> todo;
        todo.swap(worklist_);
        std::sort(todo.begin(), todo.end());
        todo.erase(std::unique(todo.begin(), todo.end()), todo.end());
        for (EClassId id : todo)
            repair(find(id));
    }
    if (merge_pending_) {
        ++tick_;
        merge_pending_ = false;
    }
    // Re-anchor the byte accounting on malloc truth (satisfying the
    // governor's honesty contract at million-node scale).
    exact_bytes_ = exactBytes();
    est_bytes_pending_ = 0;
    syncMemCharge(/*force=*/true);
}

const OpBucket *
EGraph::opCandidates(Symbol op, size_t arity) const
{
    return op_index_.find(op.id(), static_cast<uint32_t>(arity));
}

void
EGraph::repair(EClassId id)
{
    // Re-canonicalize parent nodes; congruent parents get merged.
    auto parents = classes_[id].parents;
    if (journaling()) {
        JournalEntry entry;
        entry.kind = JournalEntry::Kind::ParentsClear;
        entry.id = id;
        entry.saved_parents = parents;
        journal_.push_back(std::move(entry));
    }
    classes_[id].parents.clear();
    std::unordered_map<ENode, EClassId, ENodeHash> seen;
    for (auto &[node, parent_id] : parents) {
        uint64_t hash = enodeHash(node);
        journalMemoErase(node, hash);
        memo_.erase(node, hash);
        ENode canon = canonicalize(node);
        uint64_t canon_hash = enodeHash(canon);
        EClassId parent_canon = find(parent_id);
        auto it = seen.find(canon);
        if (it != seen.end()) {
            // Congruence: two parents became identical.
            if (merge(it->second, parent_canon))
                parent_canon = find(parent_canon);
            it->second = find(it->second);
        } else {
            seen.emplace(canon, parent_canon);
        }
        journalMemoSet(canon, canon_hash);
        memo_.set(canon, canon_hash, find(parent_canon));
    }
    for (auto &[node, parent_id] : seen) {
        // Re-resolve the class inside the loop: propagateConstant may
        // fold a constant, add its literal, and merge — which can empty
        // this very class (invalidating any cached reference) and move
        // its parents to a new root.
        EClassId root = find(id);
        if (journaling()) {
            JournalEntry entry;
            entry.kind = JournalEntry::Kind::ParentsAppend;
            entry.id = root;
            journal_.push_back(std::move(entry));
        }
        classes_[root].parents.emplace_back(node, find(parent_id));
        // Analysis propagation: a child datum may now determine the
        // parent's datum (egg's analysis_pending worklist).
        for (auto &analysis : analyses_)
            analysis->onRepairParent(*this, node, find(parent_id));
    }
    // Deduplicate and canonicalize the class's own nodes. No reference
    // into classes_ survives a canonicalize (const; no reallocation),
    // but re-resolve after the loop above which may have merged.
    EClassId root = find(id);
    std::unordered_map<ENode, bool, ENodeHash> unique_nodes;
    NodeList nodes;
    for (ENode &node : classes_[root].nodes) {
        ENode canon = canonicalize(node);
        if (!unique_nodes.emplace(canon, true).second)
            continue;
        nodes.push_back(std::move(canon));
    }
    if (journaling()) {
        JournalEntry entry;
        entry.kind = JournalEntry::Kind::NodesReplace;
        entry.id = root;
        entry.saved_nodes = classes_[root].nodes;
        journal_.push_back(std::move(entry));
    }
    num_nodes_ -= classes_[root].nodes.size() - nodes.size();
    classes_[root].nodes = std::move(nodes);
}

const EClass &
EGraph::eclass(EClassId id) const
{
    EClassId canon = find(id);
    SEER_ASSERT(canon < classes_.size(),
                "eclass() on missing id " << id);
    return classes_[canon];
}

std::optional<int64_t>
EGraph::constantOf(EClassId id) const
{
    if (const_fold_ == nullptr)
        return std::nullopt;
    return const_fold_->value(find(id));
}

std::vector<EClassId>
EGraph::classIds() const
{
    std::vector<EClassId> ids;
    ids.reserve(num_classes_);
    for (EClassId id = 0; id < parents_.size(); ++id)
        if (parents_[id] == id)
            ids.push_back(id);
    return ids;
}

std::optional<std::vector<std::string>>
EGraph::explain(EClassId a, EClassId b) const
{
    if (a >= parents_.size() || b >= parents_.size())
        return std::nullopt;
    if (find(a) != find(b))
        return std::nullopt;
    if (a == b)
        return std::vector<std::string>{};
    // BFS over the proof graph.
    std::vector<int64_t> prev(parents_.size(), -1);
    std::vector<std::string> via(parents_.size());
    std::vector<EClassId> queue{a};
    prev[a] = static_cast<int64_t>(a);
    for (size_t head = 0; head < queue.size(); ++head) {
        EClassId id = queue[head];
        if (id == b)
            break;
        if (id >= proof_edges_.size())
            continue;
        for (const auto &[next, reason] : proof_edges_[id]) {
            if (prev[next] != -1)
                continue;
            prev[next] = static_cast<int64_t>(id);
            via[next] = reason;
            queue.push_back(next);
        }
    }
    if (prev[b] == -1)
        return std::nullopt; // same class but only via congruence of
                             // sub-ids: no direct edge path recorded
    std::vector<std::string> path;
    for (EClassId id = b; id != a;
         id = static_cast<EClassId>(prev[id])) {
        path.push_back(via[id]);
    }
    std::reverse(path.begin(), path.end());
    return path;
}

size_t
EGraph::numClasses() const
{
    return num_classes_;
}

size_t
EGraph::numNodes() const
{
    // Maintained incrementally: the runner consults this inside its
    // per-application node-limit check, so it must not walk the graph.
    return num_nodes_;
}

void
EGraph::journalMemoSet(const ENode &key, uint64_t hash)
{
    if (!journaling())
        return;
    JournalEntry entry;
    entry.kind = JournalEntry::Kind::MemoSet;
    entry.node = key;
    if (const EClassId *existing = memo_.find(key, hash))
        entry.memo_old = *existing;
    journal_.push_back(std::move(entry));
}

void
EGraph::journalMemoErase(const ENode &key, uint64_t hash)
{
    if (!journaling())
        return;
    const EClassId *existing = memo_.find(key, hash);
    if (existing == nullptr)
        return; // nothing will be erased: nothing to undo
    JournalEntry entry;
    entry.kind = JournalEntry::Kind::MemoErase;
    entry.node = key;
    entry.memo_old = *existing;
    journal_.push_back(std::move(entry));
}

EGraph::Checkpoint
EGraph::checkpoint()
{
    // Quiesce lazily-maintained analyses first so the checkpoint (and
    // the journal replayed against it) captures them with empty work
    // queues: rollback restores data values, not pending recompute
    // schedules.
    for (auto &analysis : analyses_)
        analysis->onCheckpoint(*this);
    OpenCheckpoint &open = open_.emplace_back();
    open.token = ++checkpoint_serial_;
    open.journal_mark = journal_.size();
    open.proof_size = proof_edges_.size();
    open.num_ids = parents_.size();
    open.worklist_size = worklist_.size();
    open.merge_pending = merge_pending_;
    return Checkpoint{open.token};
}

void
EGraph::snapshotOpenCheckpoints()
{
    // Nothing has overwritten the arrays since an uncopied checkpoint
    // opened, only appended to them, so their prefixes up to the
    // recorded sizes are still the state at open time. Copied
    // checkpoints form a prefix of the stack: stop at the first one.
    for (auto it = open_.rbegin(); it != open_.rend() && !it->snapshotted;
         ++it) {
        it->parents.assign(parents_.begin(),
                           parents_.begin() + it->num_ids);
        it->worklist.assign(worklist_.begin(),
                            worklist_.begin() + it->worklist_size);
        it->snapshotted = true;
        ++checkpoint_snapshots_;
    }
}

void
EGraph::undo(JournalEntry &entry)
{
    switch (entry.kind) {
      case JournalEntry::Kind::AddClass: {
        memo_.erase(entry.node, enodeHash(entry.node));
        for (EClassId child : entry.node.children)
            classes_[child].parents.pop_back();
        SEER_ASSERT(entry.id + 1 == classes_.size(),
                    "class storage out of sync with journal on class "
                        << entry.id);
        num_nodes_ -= classes_[entry.id].nodes.size();
        classes_.pop_back();
        --num_classes_;
        // The add appended exactly one operator-index entry; undoing in
        // reverse journal order means it is still the last one.
        OpBucket *bucket = op_index_.find(
            entry.node.op.id(),
            static_cast<uint32_t>(entry.node.children.size()));
        SEER_ASSERT(bucket != nullptr && !bucket->empty() &&
                        bucket->back() == entry.id,
                    "op index out of sync with journal on class "
                        << entry.id);
        bucket->pop_back();
        break;
      }
      case JournalEntry::Kind::Merge: {
        EClass &into = classes_[entry.id];
        num_nodes_ -= into.nodes.size() - entry.nodes_size;
        num_nodes_ += entry.saved_class.nodes.size();
        into.nodes.resize(entry.nodes_size);
        into.parents.resize(entry.parents_size);
        classes_[entry.id2] = std::move(entry.saved_class);
        ++num_classes_;
        proof_edges_[entry.orig_a].pop_back();
        proof_edges_[entry.orig_b].pop_back();
        break;
      }
      case JournalEntry::Kind::MemoSet: {
        uint64_t hash = enodeHash(entry.node);
        if (entry.memo_old)
            memo_.set(entry.node, hash, *entry.memo_old);
        else
            memo_.erase(entry.node, hash);
        break;
      }
      case JournalEntry::Kind::MemoErase: {
        memo_.set(entry.node, enodeHash(entry.node), *entry.memo_old);
        break;
      }
      case JournalEntry::Kind::ParentsClear: {
        classes_[entry.id].parents = std::move(entry.saved_parents);
        break;
      }
      case JournalEntry::Kind::ParentsAppend: {
        classes_[entry.id].parents.pop_back();
        break;
      }
      case JournalEntry::Kind::NodesReplace: {
        num_nodes_ += entry.saved_nodes.size() -
                      classes_[entry.id].nodes.size();
        classes_[entry.id].nodes = std::move(entry.saved_nodes);
        break;
      }
      case JournalEntry::Kind::AnalysisSet: {
        analyses_[entry.analysis_index]->restoreDatum(
            entry.id, entry.analysis_datum);
        break;
      }
    }
}

void
EGraph::rollback(const Checkpoint &cp)
{
    SEER_ASSERT(!open_.empty() && open_.back().token == cp.token,
                "e-graph rollback out of LIFO checkpoint order");
    OpenCheckpoint &open = open_.back();
    // Undo in strict reverse order: each entry captured the exact prior
    // state at its mutation point, so by induction the graph passes
    // through every intermediate state back to the checkpoint.
    while (journal_.size() > open.journal_mark) {
        undo(journal_.back());
        journal_.pop_back();
    }
    if (open.snapshotted) {
        parents_ = std::move(open.parents);
        worklist_ = std::move(open.worklist);
    } else {
        parents_.resize(open.num_ids);
        worklist_.resize(open.worklist_size);
    }
    merge_pending_ = open.merge_pending;
    SEER_ASSERT(classes_.size() == parents_.size(),
                "journal replay left class storage at "
                    << classes_.size() << " slots for "
                    << parents_.size() << " ids");
    proof_edges_.resize(open.proof_size);
    for (auto &analysis : analyses_)
        analysis->onRollback(*this, parents_.size());
    open_.pop_back();
    // tick() never moves back, so a rollback is signalled out-of-band.
    ++rollback_generation_;
    exact_bytes_ = exactBytes();
    est_bytes_pending_ = 0;
    syncMemCharge(/*force=*/true);
}

void
EGraph::commit(const Checkpoint &cp)
{
    SEER_ASSERT(!open_.empty() && open_.back().token == cp.token,
                "e-graph commit out of LIFO checkpoint order");
    open_.pop_back();
    if (open_.empty()) {
        journal_.clear();
        journal_.shrink_to_fit();
    }
}

std::string
EGraph::checkInvariants(bool rewrite_deciding_only) const
{
    if (classes_.size() != parents_.size()) {
        return MsgBuilder()
               << "class storage holds " << classes_.size()
               << " slots for " << parents_.size() << " ids";
    }
    for (EClassId id = 0; id < parents_.size(); ++id) {
        if (parents_[id] >= parents_.size()) {
            return MsgBuilder() << "union-find entry " << id
                                << " points past the id space";
        }
        if (parents_[id] != id &&
            (!classes_[id].nodes.empty() ||
             !classes_[id].parents.empty())) {
            return MsgBuilder()
                   << "dead class slot " << id << " not empty";
        }
    }
    {
        std::string error;
        memo_.forEach([&](const ENode &node, EClassId id) {
            (void)node;
            if (error.empty() && id >= parents_.size())
                error = "hashcons value maps past the id space";
        });
        if (!error.empty())
            return error;
    }
    {
        size_t counted = 0;
        size_t live = 0;
        for (EClassId id = 0; id < parents_.size(); ++id) {
            if (parents_[id] != id)
                continue;
            ++live;
            counted += classes_[id].nodes.size();
        }
        if (counted != num_nodes_) {
            return MsgBuilder()
                   << "incremental node count " << num_nodes_
                   << " != actual " << counted;
        }
        if (live != num_classes_) {
            return MsgBuilder()
                   << "incremental class count " << num_classes_
                   << " != actual " << live;
        }
    }
    // Operator-index completeness: every live node must be reachable
    // through some (possibly stale) candidate entry for its (op, arity).
    // Each bucket is resolved through find() once, on first use, into
    // its sorted canonical classes; a node then costs one search.
    std::unordered_map<const OpBucket *, std::vector<EClassId>> resolved;
    for (EClassId id = 0; id < parents_.size(); ++id) {
        if (parents_[id] != id)
            continue;
        for (const ENode &node : classes_[id].nodes) {
            const OpBucket *bucket = op_index_.find(
                node.op.id(),
                static_cast<uint32_t>(node.children.size()));
            bool reachable = false;
            if (bucket != nullptr) {
                auto [it, fresh] = resolved.try_emplace(bucket);
                std::vector<EClassId> &classes = it->second;
                if (fresh) {
                    classes.reserve(bucket->size());
                    for (EClassId entry : *bucket)
                        classes.push_back(find(entry));
                    std::sort(classes.begin(), classes.end());
                    classes.erase(
                        std::unique(classes.begin(), classes.end()),
                        classes.end());
                }
                reachable = std::binary_search(classes.begin(),
                                               classes.end(), id);
            }
            if (!reachable) {
                return MsgBuilder()
                       << "node '" << node.op.str() << "' of class "
                       << id << " unreachable through the op index";
            }
        }
    }
    if (!worklist_.empty())
        return ""; // node-level checks need a rebuilt graph
    for (EClassId id = 0; id < parents_.size(); ++id) {
        if (parents_[id] != id)
            continue;
        for (const ENode &node : classes_[id].nodes) {
            auto found = lookup(node);
            if (!found) {
                return MsgBuilder() << "node of class " << id
                                    << " missing from the hashcons";
            }
            if (*found != id) {
                return MsgBuilder()
                       << "node of class " << id
                       << " hashconses to class " << *found;
            }
        }
    }
    // Analysis coherence: each checked analysis recomputes its data
    // from scratch and compares with the maintained state (clean graph
    // only — propagation pending on the worklist is not incoherence).
    for (const auto &analysis : analyses_) {
        if (rewrite_deciding_only && !analysis->decidesRewrites())
            continue;
        std::string error = analysis->checkInvariants(*this);
        if (!error.empty())
            return error;
    }
    return "";
}

std::string
EGraph::checkCommitInvariants() const
{
    return checkInvariants(true);
}

std::string
EGraph::debugCheckInvariants() const
{
    return checkInvariants(false);
}

} // namespace seer::eg
