#include "support/worker_pool.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace seer {

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
