#include "support/worker_pool.h"

#include <algorithm>

namespace seer {

WorkerPool::WorkerPool(unsigned threads)
    : threads_(std::max(1u, threads))
{
    // workers_done_ == worker count is the parked state run() waits
    // for; seed it so the first batch does not wait forever.
    workers_done_ = threads_ - 1;
    workers_.reserve(threads_ - 1);
    for (unsigned t = 1; t < threads_; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    work_cv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
WorkerPool::drain()
{
    // Work stealing over the shared cursor: each claimed index is run
    // exactly once, on whichever worker claimed it first.
    while (!stop_.load(std::memory_order_relaxed)) {
        size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
        if (i >= count_)
            return;
        if (cancel_ && (*cancel_)()) {
            stop_.store(true, std::memory_order_relaxed);
            return;
        }
        (*fn_)(i);
    }
}

void
WorkerPool::workerLoop()
{
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        work_cv_.wait(lock,
                      [&] { return shutdown_ || generation_ != seen; });
        if (shutdown_)
            return;
        seen = generation_;
        lock.unlock();
        drain();
        lock.lock();
        if (++workers_done_ == workers_.size() + 1)
            done_cv_.notify_one();
    }
}

void
WorkerPool::run(size_t count, const std::function<void(size_t)> &fn,
                const std::function<bool()> &cancel)
{
    if (count == 0)
        return;
    if (threads_ <= 1 || count == 1) {
        for (size_t i = 0; i < count; ++i) {
            if (cancel && cancel())
                return;
            fn(i);
        }
        return;
    }
    {
        std::unique_lock<std::mutex> lock(mutex_);
        // Wait for stragglers of the previous batch: batch members must
        // never be rewritten while a worker could still read them.
        done_cv_.wait(lock, [&] { return workers_done_ == workers_.size(); });
        count_ = count;
        fn_ = &fn;
        cancel_ = cancel ? &cancel : nullptr;
        cursor_.store(0, std::memory_order_relaxed);
        stop_.store(false, std::memory_order_relaxed);
        workers_done_ = 0;
        ++generation_;
    }
    work_cv_.notify_all();
    drain(); // the calling thread is worker 0
    std::unique_lock<std::mutex> lock(mutex_);
    workers_done_ += 1; // count the caller
    done_cv_.wait(lock,
                  [&] { return workers_done_ == workers_.size() + 1; });
    workers_done_ = workers_.size(); // parked state for the next batch
}

void
parallelFor(size_t count, unsigned threads,
            const std::function<void(size_t)> &fn,
            const std::function<bool()> &cancel)
{
    if (count == 0)
        return;
    unsigned workers =
        static_cast<unsigned>(std::min<size_t>(std::max(1u, threads), count));
    if (workers <= 1) {
        for (size_t i = 0; i < count; ++i) {
            if (cancel && cancel())
                return;
            fn(i);
        }
        return;
    }
    std::atomic<size_t> cursor{0};
    std::atomic<bool> stop{false};
    auto body = [&] {
        while (!stop.load(std::memory_order_relaxed)) {
            size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            if (cancel && cancel()) {
                stop.store(true, std::memory_order_relaxed);
                return;
            }
            fn(i);
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned t = 1; t < workers; ++t)
        pool.emplace_back(body);
    body(); // the calling thread is worker 0
    for (std::thread &worker : pool)
        worker.join();
}

unsigned
hardwareThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

} // namespace seer
