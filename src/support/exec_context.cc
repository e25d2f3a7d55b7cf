#include "support/exec_context.h"

#include <csignal>
#include <cstdlib>
#include <unistd.h>

#include "support/error.h"

namespace seer {

namespace {

std::atomic<int> g_signal_flag{0};

extern "C" void
signalCancelHandler(int signo)
{
    // Second signal: the cooperative wind-down is taking too long (or
    // is wedged); honor the user's insistence immediately.
    if (g_signal_flag.exchange(1, std::memory_order_relaxed))
        _exit(128 + signo);
}

} // namespace

const char *
cancelReasonName(CancelReason reason)
{
    switch (reason) {
    case CancelReason::None: return "none";
    case CancelReason::Deadline: return "deadline";
    case CancelReason::MemBudget: return "mem_budget";
    case CancelReason::External: return "external";
    }
    return "unknown";
}

const char *
memSubsystemName(MemSubsystem sub)
{
    switch (sub) {
    case MemSubsystem::EGraph: return "egraph";
    case MemSubsystem::Caches: return "caches";
    case MemSubsystem::Interp: return "interp";
    case MemSubsystem::Extraction: return "extraction";
    }
    return "unknown";
}

json::Value
toJson(const ResourceStats &stats)
{
    json::Value out{json::Object{}};
    out.set("budget_bytes", stats.budget_bytes);
    out.set("current_bytes", stats.current_bytes);
    out.set("peak_bytes", stats.peak_bytes);
    out.set("breached", stats.breached);
    for (size_t i = 0; i < kNumMemSubsystems; ++i) {
        json::Value sub{json::Object{}};
        sub.set("current_bytes", stats.sub[i].current_bytes);
        sub.set("peak_bytes", stats.sub[i].peak_bytes);
        out.set(memSubsystemName(static_cast<MemSubsystem>(i)),
                std::move(sub));
    }
    return out;
}

namespace {

/** current += delta, clamped at 0; returns the new value. */
uint64_t
adjust(std::atomic<uint64_t> &current, int64_t delta)
{
    uint64_t old = current.load(std::memory_order_relaxed);
    uint64_t next;
    do {
        if (delta >= 0)
            next = old + static_cast<uint64_t>(delta);
        else {
            uint64_t credit = static_cast<uint64_t>(-delta);
            next = credit > old ? 0 : old - credit;
        }
    } while (!current.compare_exchange_weak(old, next,
                                            std::memory_order_relaxed));
    return next;
}

void
raisePeak(std::atomic<uint64_t> &peak, uint64_t value)
{
    uint64_t old = peak.load(std::memory_order_relaxed);
    while (old < value &&
           !peak.compare_exchange_weak(old, value,
                                       std::memory_order_relaxed)) {
    }
}

} // namespace

bool
ResourceGovernor::charge(MemSubsystem sub, int64_t delta)
{
    auto index = static_cast<size_t>(sub);
    SEER_ASSERT(index < kNumMemSubsystems, "bad memory subsystem");
    uint64_t now = adjust(sub_[index].current, delta);
    raisePeak(sub_[index].peak, now);
    uint64_t total = adjust(total_, delta);
    raisePeak(total_peak_, total);
    if (budget_bytes_ != 0 && total > budget_bytes_)
        breached_.store(true, std::memory_order_relaxed);
    return !breached_.load(std::memory_order_relaxed);
}

ResourceStats
ResourceGovernor::stats() const
{
    ResourceStats out;
    out.budget_bytes = budget_bytes_;
    out.current_bytes = total_.load(std::memory_order_relaxed);
    out.peak_bytes = total_peak_.load(std::memory_order_relaxed);
    out.breached = breached_.load(std::memory_order_relaxed);
    for (size_t i = 0; i < kNumMemSubsystems; ++i) {
        out.sub[i].current_bytes =
            sub_[i].current.load(std::memory_order_relaxed);
        out.sub[i].peak_bytes =
            sub_[i].peak.load(std::memory_order_relaxed);
    }
    return out;
}

ExecContext
ExecContext::make()
{
    ExecContext out;
    out.state_ = std::make_shared<State>();
    return out;
}

void
ExecContext::setDeadline(std::chrono::steady_clock::time_point when)
{
    SEER_ASSERT(state_, "setDeadline on an inert ExecContext");
    state_->deadline = when;
}

void
ExecContext::setDeadlineIn(double seconds)
{
    setDeadline(std::chrono::steady_clock::now() +
                std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(seconds)));
}

std::optional<std::chrono::steady_clock::time_point>
ExecContext::deadline() const
{
    return state_ ? state_->deadline : std::nullopt;
}

void
ExecContext::setGovernor(std::shared_ptr<ResourceGovernor> governor)
{
    SEER_ASSERT(state_, "setGovernor on an inert ExecContext");
    state_->governor = std::move(governor);
}

const std::shared_ptr<ResourceGovernor> &
ExecContext::governor() const
{
    static const std::shared_ptr<ResourceGovernor> kNone;
    return state_ ? state_->governor : kNone;
}

void
ExecContext::requestCancel(CancelReason reason) const
{
    if (!state_ || reason == CancelReason::None)
        return;
    uint8_t expected = 0;
    state_->reason.compare_exchange_strong(
        expected, static_cast<uint8_t>(reason),
        std::memory_order_relaxed);
}

bool
ExecContext::canceled() const
{
    if (!state_)
        return g_signal_flag.load(std::memory_order_relaxed) != 0;
    if (state_->reason.load(std::memory_order_relaxed) != 0)
        return true;
    if (g_signal_flag.load(std::memory_order_relaxed) != 0) {
        requestCancel(CancelReason::External);
        return true;
    }
    if (state_->governor && state_->governor->breached()) {
        requestCancel(CancelReason::MemBudget);
        return true;
    }
    if (state_->deadline &&
        std::chrono::steady_clock::now() >= *state_->deadline) {
        requestCancel(CancelReason::Deadline);
        return true;
    }
    return false;
}

CancelReason
ExecContext::reason() const
{
    if (!state_)
        return g_signal_flag.load(std::memory_order_relaxed)
                   ? CancelReason::External
                   : CancelReason::None;
    return static_cast<CancelReason>(
        state_->reason.load(std::memory_order_relaxed));
}

bool
ExecContext::chargeMem(MemSubsystem sub, int64_t delta) const
{
    if (!state_ || !state_->governor)
        return true;
    if (state_->governor->charge(sub, delta))
        return true;
    requestCancel(CancelReason::MemBudget);
    return false;
}

void
installSignalCancellation()
{
    struct sigaction action = {};
    action.sa_handler = signalCancelHandler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0; // no SA_RESTART: interrupt blocking syscalls
    sigaction(SIGINT, &action, nullptr);
    sigaction(SIGTERM, &action, nullptr);
}

} // namespace seer
