/**
 * @file
 * The shared deterministic worker-pool abstraction.
 *
 * Two consumers drive it: the external-pass evaluation batches
 * (core/external_rules) and the runner's sharded e-matching phase
 * (egraph/runner). Both follow the same determinism discipline —
 * every job is a pure function of its index writing into a disjoint
 * result slot, and the caller folds the slots in index order — so the
 * observable outcome is bit-identical for any worker count.
 *
 * Two entry points:
 *
 *  - WorkerPool: a persistent pool. Threads are spawned once and parked
 *    between batches, so a phase that dispatches a batch per runner
 *    iteration (e-matching does) pays thread start-up once per run, not
 *    once per iteration.
 *  - parallelFor(): the one-shot fork-join helper (spawns and joins
 *    per call). Still the right tool for single large batches like the
 *    corpus runner's seed sweep.
 *
 * Jobs must not throw: an exception escaping a worker thread would
 * std::terminate the process. Callers catch inside the job and report
 * through their result slots.
 */
#ifndef SEER_SUPPORT_WORKER_POOL_H_
#define SEER_SUPPORT_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace seer {

/**
 * A persistent fork-join pool. run() executes fn(0..count-1) across
 * `threads` workers (the calling thread participates as worker 0) and
 * returns only after every worker finished the batch, so the job
 * closure may safely reference stack state of the caller. Completion
 * *order* is unspecified; job *start* is work-stealing over an atomic
 * cursor. With threads <= 1 the jobs run inline on the calling thread
 * — `-j 1` exercises the same code path minus the threads.
 *
 * run() must only be called from one thread at a time (the pool is a
 * fork-join primitive, not a task queue).
 */
class WorkerPool
{
  public:
    /** Spawns threads-1 parked workers (the caller is the last one). */
    explicit WorkerPool(unsigned threads);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    unsigned threads() const { return threads_; }

    /**
     * Run fn(0..count-1) over the pool and join. When `cancel` is
     * provided and returns true, remaining *unstarted* jobs are skipped
     * (in-flight jobs always finish: cancellation is cooperative).
     */
    void run(size_t count, const std::function<void(size_t)> &fn,
             const std::function<bool()> &cancel = nullptr);

  private:
    void workerLoop();
    void drain();

    const unsigned threads_;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable work_cv_;
    std::condition_variable done_cv_;
    /** Batch handshake: bumping the generation publishes a batch; every
     *  worker runs it exactly once and reports done. Batch members are
     *  only written while all workers are parked. */
    uint64_t generation_ = 0;
    size_t workers_done_ = 0;
    bool shutdown_ = false;

    size_t count_ = 0;
    const std::function<void(size_t)> *fn_ = nullptr;
    const std::function<bool()> *cancel_ = nullptr;
    std::atomic<size_t> cursor_{0};
    std::atomic<bool> stop_{false};
};

/**
 * One-shot fork-join: run fn(0..count-1), spread over up to `threads`
 * workers spawned for this call. Same cancellation and no-throw
 * contract as WorkerPool::run.
 */
void parallelFor(size_t count, unsigned threads,
                 const std::function<void(size_t)> &fn,
                 const std::function<bool()> &cancel = nullptr);

/** Worker count for "use every core" requests (never 0). */
unsigned hardwareThreads();

} // namespace seer

#endif // SEER_SUPPORT_WORKER_POOL_H_
