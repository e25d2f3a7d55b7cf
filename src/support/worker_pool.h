/**
 * @file
 * The shared deterministic fork-join helper.
 *
 * Two consumers drive it: the external-pass evaluation batches
 * (core/pass_eval, `seer-opt -j`) and the corpus runner's seed sweep
 * (`seer-corpus -j`). Both follow the same determinism discipline —
 * every job is a pure function of its index writing into a disjoint
 * result slot, and the caller folds the slots in index order — so the
 * observable outcome is bit-identical for any worker count. E-graph
 * search is serial (egraph/runner).
 *
 * Jobs must not throw: an exception escaping a worker thread would
 * std::terminate the process. Callers catch inside the job and report
 * through their result slots.
 */
#ifndef SEER_SUPPORT_WORKER_POOL_H_
#define SEER_SUPPORT_WORKER_POOL_H_

#include <cstddef>
#include <functional>

namespace seer {

/**
 * One-shot fork-join: run fn(0..count-1), spread over up to `threads`
 * workers spawned for this call (the calling thread participates as
 * worker 0) and joined before returning, so the job closure may safely
 * reference stack state of the caller. Completion *order* is
 * unspecified; job *start* is work-stealing over an atomic cursor.
 * With threads <= 1 the jobs run inline on the calling thread. When
 * `cancel` is provided and returns true, remaining *unstarted* jobs are
 * skipped (in-flight jobs always finish: cancellation is cooperative).
 */
void parallelFor(size_t count, unsigned threads,
                 const std::function<void(size_t)> &fn,
                 const std::function<bool()> &cancel = nullptr);

/** Worker count for "use every core" requests (never 0). */
unsigned hardwareThreads();

} // namespace seer

#endif // SEER_SUPPORT_WORKER_POOL_H_
