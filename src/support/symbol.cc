#include "support/symbol.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <new>
#include <shared_mutex>
#include <unordered_map>

#include "support/hashing.h"

namespace seer {
namespace {

/**
 * Process-global intern table.
 *
 * The table is tuned for the parallel external-pass workers, which
 * intern and stringify symbols on every term they touch — a plainly
 * mutex-guarded table serializes the whole pool:
 *
 *  - str(), fields() and textHash() are lock-free: texts and their
 *    hashes live in fixed-size blocks and the views of their
 *    ':'-separated fields in arena chunks, all computed once, under the
 *    exclusive lock that inserts the text, and none of which moves once
 *    allocated; and a thread holding a valid Symbol id received it
 *    through some synchronizing handoff (a task launch, a cache mutex),
 *    which also publishes the entry it names.
 *  - intern() of an existing string takes only a shared (reader) lock;
 *    the exclusive lock is reserved for first-time insertions.
 *  - on top of that, each thread memoizes its intern results, so the
 *    hot emission loops (the same operator texts over and over) skip
 *    the shared table entirely after first contact.
 */
struct InternTable
{
    static constexpr uint32_t kBlockBits = 16;
    static constexpr uint32_t kBlockSize = uint32_t{1} << kBlockBits;
    static constexpr uint32_t kMaxBlocks = uint32_t{1}
                                           << (32 - kBlockBits);
    /** Field views per arena chunk. */
    static constexpr size_t kArenaChunk = 4096;

    /** One interned symbol: its text, the views of its fields and the
     *  hash of its text. */
    struct Entry
    {
        std::string text;
        std::span<const std::string_view> fields; // into text
        uint64_t hash = 0;
    };

    std::shared_mutex mutex;
    std::unordered_map<std::string_view, uint32_t> ids; // guarded
    uint32_t count = 0;                                 // guarded
    std::string_view *arena = nullptr;                  // guarded
    size_t arena_left = 0;                              // guarded
    std::atomic<Entry *> blocks[kMaxBlocks] = {};

    InternTable() { intern(""); }

    uint32_t
    intern(std::string_view text)
    {
        {
            std::shared_lock<std::shared_mutex> lock(mutex);
            auto it = ids.find(text);
            if (it != ids.end())
                return it->second;
        }
        std::unique_lock<std::shared_mutex> lock(mutex);
        auto it = ids.find(text); // racing inserter may have won
        if (it != ids.end())
            return it->second;
        uint32_t id = count++;
        uint32_t block = id >> kBlockBits;
        Entry *storage = blocks[block].load(std::memory_order_relaxed);
        if (!storage) {
            // Raw storage, constructed slot by slot as ids are handed
            // out: a block's pages are touched only once they are used.
            storage = static_cast<Entry *>(
                ::operator new(sizeof(Entry) * kBlockSize));
            blocks[block].store(storage, std::memory_order_release);
        }
        Entry *slot = new (storage + (id & (kBlockSize - 1)))
            Entry{std::string(text), {}, hashString(text)};
        slot->fields = split(slot->text);
        ids.emplace(slot->text, id);
        return id;
    }

    /** Split `text` at every ':' into views stored in the arena. */
    std::span<const std::string_view>
    split(std::string_view text)
    {
        size_t n = std::count(text.begin(), text.end(), ':') + 1;
        if (n > arena_left) {
            arena_left = std::max(n, kArenaChunk);
            arena = new std::string_view[arena_left];
        }
        std::string_view *out = arena;
        arena += n;
        arena_left -= n;
        size_t pos = 0;
        for (size_t i = 0; i < n; ++i) {
            size_t colon = std::min(text.find(':', pos), text.size());
            out[i] = text.substr(pos, colon - pos);
            pos = colon + 1;
        }
        return {out, n};
    }

    const Entry &
    entry(uint32_t id)
    {
        Entry *storage =
            blocks[id >> kBlockBits].load(std::memory_order_acquire);
        return storage[id & (kBlockSize - 1)];
    }
};

InternTable &
table()
{
    static InternTable instance;
    return instance;
}

uint32_t
internCached(std::string_view text)
{
    // Keys are views into the table's block storage: stable for the
    // process lifetime, so the memo never dangles.
    thread_local std::unordered_map<std::string_view, uint32_t> memo;
    auto it = memo.find(text);
    if (it != memo.end())
        return it->second;
    uint32_t id = table().intern(text);
    memo.emplace(table().entry(id).text, id);
    return id;
}

} // namespace

Symbol::Symbol() : id_(0) {}

Symbol::Symbol(std::string_view text) : id_(internCached(text)) {}

const std::string &
Symbol::str() const
{
    return table().entry(id_).text;
}

std::span<const std::string_view>
Symbol::fields() const
{
    return table().entry(id_).fields;
}

uint64_t
Symbol::textHash() const
{
    return table().entry(id_).hash;
}

} // namespace seer
