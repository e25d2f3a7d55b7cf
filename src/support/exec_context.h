/**
 * @file
 * Unified execution governance: one cancellation token carrying a
 * deadline, a memory budget, and an external-cancel flag, threaded
 * through every long-running subsystem (runner, extraction, external
 * pass evaluation, verification, the interpreter).
 *
 * The design goals, in order:
 *  - Zero-observable-cost when ungoverned: a default-constructed
 *    ExecContext has no shared state; polling it is one relaxed atomic
 *    load (the process-wide signal flag).
 *  - One question, one answer: "should I stop?" is `canceled()`,
 *    whatever the cause (deadline, memory budget breach, SIGINT). The
 *    cause is preserved in `reason()` for honest reporting.
 *  - Graceful degradation, not exceptions: a budget breach latches the
 *    token; subsystems observe it at their next poll point and wind
 *    down through the existing checkpoint/rollback + best-so-far
 *    extraction machinery. Nothing here throws.
 */
#ifndef SEER_SUPPORT_EXEC_CONTEXT_H_
#define SEER_SUPPORT_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>

#include "support/json.h"

namespace seer {

/** Why an ExecContext was canceled (None = still live). */
enum class CancelReason : uint8_t
{
    None = 0,
    Deadline,  ///< the wall-clock deadline passed
    MemBudget, ///< the memory budget was breached
    External,  ///< an external request (SIGINT/SIGTERM or API call)
};

/** Stable lowercase name for a cancel reason (JSON keys / logs). */
const char *cancelReasonName(CancelReason reason);

/** Subsystems with independently-accounted memory. */
enum class MemSubsystem : uint8_t
{
    EGraph = 0, ///< e-graph node/parent/hashcons storage
    Caches,     ///< pass/verification evaluation caches
    Interp,     ///< interpreter heap (runtime buffers)
    Extraction, ///< exact-extraction search frontier/memos
};

constexpr size_t kNumMemSubsystems = 4;

/** Stable lowercase name for a memory subsystem. */
const char *memSubsystemName(MemSubsystem sub);

/** Snapshot of resource accounting (per-subsystem + totals). */
struct ResourceStats
{
    struct Sub
    {
        uint64_t current_bytes = 0;
        uint64_t peak_bytes = 0;
    };
    Sub sub[kNumMemSubsystems];
    uint64_t budget_bytes = 0; ///< 0 = unlimited (accounting only)
    uint64_t current_bytes = 0;
    uint64_t peak_bytes = 0;
    bool breached = false;
};

/** JSON form of a resource snapshot (the stats "resource" section). */
json::Value toJson(const ResourceStats &stats);

/**
 * Thread-safe byte accounting with an optional hard budget. Charges
 * are *approximate* (subsystems report estimated bytes, not malloc
 * truth) — the budget is a governance lever, not an allocator. A
 * breach latches: once over budget, every subsequent charge() reports
 * failure and any attached ExecContext reports cancellation.
 */
class ResourceGovernor
{
  public:
    /** budget_bytes == 0 means account but never breach. */
    explicit ResourceGovernor(uint64_t budget_bytes = 0)
        : budget_bytes_(budget_bytes)
    {}

    /**
     * Adjust subsystem usage by `delta` bytes (negative to credit;
     * clamped at zero). Returns false once the total budget has been
     * breached — callers should stop growing and wind down; they must
     * not treat false as an error to throw on.
     */
    bool charge(MemSubsystem sub, int64_t delta);

    bool breached() const
    {
        return breached_.load(std::memory_order_relaxed);
    }

    uint64_t budgetBytes() const { return budget_bytes_; }

    ResourceStats stats() const;

  private:
    struct Counter
    {
        std::atomic<uint64_t> current{0};
        std::atomic<uint64_t> peak{0};
    };
    Counter sub_[kNumMemSubsystems];
    std::atomic<uint64_t> total_{0};
    std::atomic<uint64_t> total_peak_{0};
    uint64_t budget_bytes_;
    std::atomic<bool> breached_{false};
};

/**
 * Copyable cancellation token. All copies share state: canceling one
 * cancels them all. A default-constructed ExecContext is *inert* — it
 * has no deadline, no budget, and can only report cancellation when
 * the process-wide signal flag (installSignalCancellation) is raised —
 * so legacy call sites and unit tests need no setup.
 *
 * Configure (setDeadline/setDeadlineIn/setGovernor) before sharing
 * across threads;
 * after that, all operations are thread-safe.
 */
class ExecContext
{
  public:
    ExecContext() = default;

    /** A fresh cancelable context (shared state allocated). */
    static ExecContext make();

    /** True when this context carries shared state (not inert). */
    bool valid() const { return state_ != nullptr; }

    void setDeadline(std::chrono::steady_clock::time_point when);
    /** Deadline `seconds` from now (<= 0: already expired). */
    void setDeadlineIn(double seconds);
    std::optional<std::chrono::steady_clock::time_point> deadline() const;

    void setGovernor(std::shared_ptr<ResourceGovernor> governor);
    const std::shared_ptr<ResourceGovernor> &governor() const;

    /** Latch cancellation (idempotent; first reason wins). */
    void requestCancel(CancelReason reason) const;

    /**
     * True when this execution should stop: an explicit cancel was
     * requested, the deadline passed, the memory budget was breached,
     * or the process-wide signal flag is raised. Latches the first
     * observed reason. Cheap enough to poll in inner loops.
     */
    bool canceled() const;

    CancelReason reason() const;

    /**
     * Account `delta` bytes against `sub` on the attached governor
     * (no-op true when inert or ungoverned). On breach, latches
     * MemBudget cancellation and returns false.
     */
    bool chargeMem(MemSubsystem sub, int64_t delta) const;

  private:
    struct State
    {
        std::atomic<uint8_t> reason{0};
        std::optional<std::chrono::steady_clock::time_point> deadline;
        std::shared_ptr<ResourceGovernor> governor;
    };

    std::shared_ptr<State> state_;
};

/**
 * Install SIGINT/SIGTERM handlers that raise the process-wide
 * cancellation flag (observed by every ExecContext, including inert
 * ones). Async-signal-safe: the handler only stores an atomic. A
 * second signal exits immediately (128 + signo) so a wedged process
 * can still be killed from the keyboard.
 */
void installSignalCancellation();

} // namespace seer

#endif // SEER_SUPPORT_EXEC_CONTEXT_H_
