/**
 * @file
 * A mutex-striped concurrent map with byte accounting.
 *
 * The evaluation caches (core/pass_eval) sit on the hot path of
 * external-pass evaluation: the `-j` worker pool inserts outcomes
 * concurrently, so a single cache mutex would serialize exactly the
 * stage the pool exists to parallelize. This container stripes the key
 * space over N independent shards, each with its own mutex and hash
 * map, so lookups and inserts on different shards never contend.
 *
 * Keys are uint64_t content hashes (already uniformly distributed);
 * the shard index remixes them so the low bits of a structural hash
 * cannot skew the striping. Each entry carries a caller-estimated byte
 * size; a charge hook observes every byte delta, which is how the
 * store is accounted against the resource governor. Persisted
 * snapshots iterate in sorted key order (forEachSorted), which keeps
 * save files byte-stable regardless of insertion order or shard count.
 */
#ifndef SEER_SUPPORT_STRIPED_MAP_H_
#define SEER_SUPPORT_STRIPED_MAP_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

namespace seer {

template <typename Value>
class StripedMap
{
  public:
    /**
     * `shards` is rounded up to a power of two. The charge hook
     * observes every byte delta (inserts positive, clears negative) —
     * the governance bridge.
     */
    explicit StripedMap(unsigned shards,
                        std::function<void(int64_t)> charge = nullptr)
        : charge_(std::move(charge))
    {
        unsigned rounded = 1;
        while (rounded < shards && rounded < 4096)
            rounded <<= 1;
        shards_.reserve(rounded);
        for (unsigned i = 0; i < rounded; ++i)
            shards_.push_back(std::make_unique<Shard>());
    }

    /** Copy out the value under `key`. */
    std::optional<Value> lookup(uint64_t key) const
    {
        const Shard &shard = shardFor(key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.map.find(key);
        if (it == shard.map.end())
            return std::nullopt;
        return it->second.value;
    }

    bool contains(uint64_t key) const
    {
        const Shard &shard = shardFor(key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        return shard.map.count(key) != 0;
    }

    /** Insert or overwrite `key`, charging `bytes` for it. */
    void insert(uint64_t key, Value value, int64_t bytes)
    {
        Shard &shard = shardFor(key);
        int64_t delta = bytes;
        {
            std::lock_guard<std::mutex> lock(shard.mutex);
            auto [it, inserted] = shard.map.try_emplace(key);
            if (!inserted)
                delta -= it->second.bytes;
            it->second.value = std::move(value);
            it->second.bytes = bytes;
            shard.bytes += delta;
        }
        if (charge_ && delta != 0)
            charge_(delta);
    }

    /** Drop every entry (credits the full byte footprint back). */
    void clear()
    {
        int64_t delta = 0;
        for (auto &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard->mutex);
            delta -= shard->bytes;
            shard->map.clear();
            shard->bytes = 0;
        }
        if (charge_ && delta != 0)
            charge_(delta);
    }

    size_t size() const
    {
        size_t total = 0;
        for (const auto &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard->mutex);
            total += shard->map.size();
        }
        return total;
    }

    int64_t bytes() const
    {
        int64_t total = 0;
        for (const auto &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard->mutex);
            total += shard->bytes;
        }
        return total;
    }

    /**
     * Visit a consistent per-shard snapshot of every (key, value) in
     * globally sorted key order — the byte-stable serialization order.
     * Values are copied out under the shard locks first, so the
     * visitor runs lock-free (it may re-enter the map).
     */
    void forEachSorted(
        const std::function<void(uint64_t, const Value &)> &fn) const
    {
        std::vector<std::pair<uint64_t, Value>> snapshot;
        for (const auto &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard->mutex);
            for (const auto &[key, entry] : shard->map)
                snapshot.emplace_back(key, entry.value);
        }
        std::sort(snapshot.begin(), snapshot.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        for (const auto &[key, value] : snapshot)
            fn(key, value);
    }

  private:
    struct Entry
    {
        Value value;
        int64_t bytes = 0;
    };

    struct Shard
    {
        mutable std::mutex mutex;
        std::unordered_map<uint64_t, Entry> map;
        int64_t bytes = 0;
    };

    Shard &shardFor(uint64_t key) const
    {
        // Fibonacci remix: decorrelate the shard index from whatever
        // structure the caller's hash left in the low bits.
        uint64_t mixed = key * 0x9E3779B97F4A7C15ull;
        return *shards_[(mixed >> 48) & (shards_.size() - 1)];
    }

    std::function<void(int64_t)> charge_;
    std::vector<std::unique_ptr<Shard>> shards_;
};

} // namespace seer

#endif // SEER_SUPPORT_STRIPED_MAP_H_
