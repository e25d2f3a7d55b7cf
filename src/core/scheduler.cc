#include "core/scheduler.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "support/rng.h"

namespace seer::core {

using eg::TermPtr;

bool
parseScheduleKind(const std::string &text, ScheduleKind *kind)
{
    if (text == "exhaustive") {
        *kind = ScheduleKind::Exhaustive;
        return true;
    }
    if (text == "bandit") {
        *kind = ScheduleKind::Bandit;
        return true;
    }
    return false;
}

const char *
scheduleKindName(ScheduleKind kind)
{
    switch (kind) {
    case ScheduleKind::Exhaustive:
        return "exhaustive";
    case ScheduleKind::Bandit:
        return "bandit";
    }
    return "exhaustive";
}

json::Value
toJson(const SchedulerStats &stats)
{
    json::Value out{json::Object{}};
    out.set("name", stats.name);
    out.set("seed", stats.seed);
    out.set("eval_budget", stats.eval_budget);
    out.set("waves", stats.waves);
    out.set("candidates", stats.candidates);
    out.set("scheduled", stats.scheduled);
    out.set("deferred", stats.deferred);
    out.set("epsilon_promotions", stats.epsilon_promotions);
    out.set("observations", stats.observations);
    out.set("cached_observations", stats.cached_observations);
    out.set("inline_evaluations", stats.inline_evaluations);
    out.set("reward_total", stats.reward_total);
    out.set("regret_proxy", stats.regret_proxy);
    json::Value arms{json::Array{}};
    for (const SchedulerArmStats &arm : stats.arms) {
        json::Value a{json::Object{}};
        a.set("pass", arm.pass);
        a.set("bucket", static_cast<uint64_t>(arm.bucket));
        a.set("pulls", arm.pulls);
        a.set("observations", arm.observations);
        a.set("reward_total", arm.reward_total);
        arms.push(std::move(a));
    }
    out.set("arms", std::move(arms));
    return out;
}

namespace {

/** Tree size of `term`, each distinct node sized once; sums saturate
 *  (a DAG shared k levels deep has a tree size near 2^k). */
size_t
treeSize(const eg::Term *term,
         std::unordered_map<const eg::Term *, size_t> &memo)
{
    if (term->isLeaf())
        return 1;
    if (auto it = memo.find(term); it != memo.end())
        return it->second;
    size_t n = 1;
    for (const TermPtr &child : term->children()) {
        size_t child_size = treeSize(child.get(), memo);
        n = child_size > SIZE_MAX - n ? SIZE_MAX : n + child_size;
    }
    memo.emplace(term, n);
    return n;
}

} // namespace

size_t
proposalTermSize(const TermPtr &term)
{
    if (!term)
        return 0;
    std::unordered_map<const eg::Term *, size_t> memo;
    return treeSize(term.get(), memo);
}

namespace {

/** Deterministic reward: a validated replacement is worth 1, plus a
 *  small size-improvement bonus normalized by the eval-cost proxy.
 *  Rejections and non-applications earn 0 (the eval was spent for
 *  nothing). Wall-clock never enters — rewards must replay. */
double
rewardOf(const ProposalCandidate &candidate,
         const ProposalOutcome &outcome)
{
    if (outcome.status != PassOutcome::Status::Replaced)
        return 0;
    double bonus = std::max(0.0, outcome.cost_delta) /
                   static_cast<double>(candidate.term_size + 1);
    return 1.0 + bonus;
}

/** Shared per-arm history, keyed (pass, bucket) in canonical order. */
class ArmTable
{
  public:
    explicit ArmTable(unsigned buckets) : buckets_(buckets ? buckets : 1)
    {
    }

    struct Arm
    {
        size_t pulls = 0;
        size_t observations = 0;
        double reward_total = 0;
    };

    unsigned
    bucketOf(uint64_t key) const
    {
        return static_cast<unsigned>(key % buckets_);
    }

    Arm &
    armFor(const ProposalCandidate &candidate)
    {
        return arms_[{candidate.rule, bucketOf(candidate.key)}];
    }

    const Arm *
    find(const ProposalCandidate &candidate) const
    {
        auto it = arms_.find({candidate.rule, bucketOf(candidate.key)});
        return it == arms_.end() ? nullptr : &it->second;
    }

    /** Mean reward; optimistic for unobserved arms so exploration
     *  starts from "worth trying". */
    double
    meanOf(const ProposalCandidate &candidate) const
    {
        const Arm *arm = find(candidate);
        if (!arm || arm->observations == 0)
            return 1.0;
        return arm->reward_total /
               static_cast<double>(arm->observations);
    }

    void
    render(SchedulerStats &stats) const
    {
        for (const auto &[key, arm] : arms_) {
            SchedulerArmStats out;
            out.pass = key.first;
            out.bucket = key.second;
            out.pulls = arm.pulls;
            out.observations = arm.observations;
            out.reward_total = arm.reward_total;
            stats.arms.push_back(std::move(out));
        }
    }

  private:
    unsigned buckets_;
    std::map<std::pair<std::string, unsigned>, Arm> arms_;
};

/** The refactor-validation baseline: every candidate, wave order. */
class ExhaustiveScheduler final : public ProposalScheduler
{
  public:
    ExhaustiveScheduler() : arms_(8) {}

    const char *name() const override { return "exhaustive"; }
    bool mayDefer() const override { return false; }
    void beginPhase() override {}
    void beginIteration() override {}

    std::vector<ProposalCandidate>
    schedule(std::vector<ProposalCandidate> wave) override
    {
        ++stats_.waves;
        stats_.candidates += wave.size();
        stats_.scheduled += wave.size();
        for (const ProposalCandidate &candidate : wave)
            ++arms_.armFor(candidate).pulls;
        return wave; // enumeration order, untouched
    }

    bool deferred(uint64_t) const override { return false; }

    void
    observe(const ProposalCandidate &candidate,
            const ProposalOutcome &outcome) override
    {
        ++stats_.observations;
        if (outcome.from_cache)
            ++stats_.cached_observations;
        if (outcome.inline_eval)
            ++stats_.inline_evaluations;
        double reward = rewardOf(candidate, outcome);
        stats_.reward_total += reward;
        ArmTable::Arm &arm = arms_.armFor(candidate);
        ++arm.observations;
        arm.reward_total += reward;
    }

    SchedulerStats
    stats() const override
    {
        SchedulerStats out = stats_;
        out.name = name();
        arms_.render(out);
        return out;
    }

  private:
    ArmTable arms_;
    SchedulerStats stats_;
};

/**
 * Seeded contextual bandit: UCB over (pass, structural-hash bucket)
 * arms, an epsilon coverage floor, and a per-wave cold-eval budget.
 * Every input is deterministic (candidate features + the seeded
 * stream), and both schedule() and observe() run serially, so a fixed
 * seed replays byte-identically at any -j.
 */
class BanditScheduler final : public ProposalScheduler
{
  public:
    explicit BanditScheduler(const BanditConfig &config)
        : config_(config), arms_(config.buckets), rng_(config.seed)
    {
        config_.eval_budget =
            std::min(1.0, std::max(0.0, config_.eval_budget));
        stats_.seed = config_.seed;
        stats_.eval_budget = config_.eval_budget;
    }

    const char *name() const override { return "bandit"; }
    bool mayDefer() const override { return config_.eval_budget < 1.0; }
    void beginPhase() override { deferred_.clear(); }
    // Deferrals are sticky across iterations WITHIN a phase: a parked
    // candidate recurs in later waves anyway (its attempt is never
    // recorded), so clearing here would let the full candidate set
    // creep back in over the iterations and erase most of the budget's
    // cold-evaluation savings. Re-entry goes through the epsilon floor
    // in schedule() instead; a new phase starts from a clean slate.
    void beginIteration() override {}

    std::vector<ProposalCandidate>
    schedule(std::vector<ProposalCandidate> wave) override
    {
        ++stats_.waves;
        stats_.candidates += wave.size();
        if (wave.empty())
            return wave;

        double best_mean = 0;
        for (const ProposalCandidate &c : wave)
            best_mean = std::max(best_mean, arms_.meanOf(c));

        std::vector<ProposalCandidate> batch;
        std::vector<ProposalCandidate> competing;
        competing.reserve(wave.size());
        for (ProposalCandidate &c : wave) {
            if (deferred_.count(c.key) != 0) {
                // Coverage floor: a parked candidate keeps an epsilon
                // chance per wave to be pulled anyway, so every arm is
                // eventually observed even under a tight budget.
                if (rng_.nextDouble() < config_.epsilon) {
                    deferred_.erase(c.key);
                    ++stats_.epsilon_promotions;
                    ++stats_.scheduled;
                    stats_.regret_proxy += best_mean - arms_.meanOf(c);
                    ++arms_.armFor(c).pulls;
                    batch.push_back(std::move(c));
                } else {
                    ++stats_.deferred;
                }
                continue;
            }
            competing.push_back(std::move(c));
        }

        // Rank by UCB score; ties (and the fresh-arm plateau) break on
        // the structural hash, so the order is a pure function of the
        // candidate set and the observation history.
        size_t total = std::max<size_t>(1, stats_.observations);
        auto score = [&](const ProposalCandidate &c) {
            const ArmTable::Arm *arm = arms_.find(c);
            size_t n = arm ? arm->observations : 0;
            return arms_.meanOf(c) +
                   config_.ucb_c *
                       std::sqrt(std::log(1.0 + static_cast<double>(
                                                    total)) /
                                 (1.0 + static_cast<double>(n)));
        };
        std::stable_sort(competing.begin(), competing.end(),
                         [&](const ProposalCandidate &a,
                             const ProposalCandidate &b) {
                             double sa = score(a), sb = score(b);
                             if (sa != sb)
                                 return sa > sb;
                             return a.key < b.key;
                         });

        size_t allowed = competing.size();
        if (config_.eval_budget < 1.0) {
            allowed = static_cast<size_t>(std::ceil(
                config_.eval_budget *
                static_cast<double>(competing.size())));
            allowed = std::max<size_t>(1, allowed);
        }

        batch.reserve(batch.size() + allowed);
        for (size_t i = 0; i < competing.size(); ++i) {
            if (i < allowed) {
                ++stats_.scheduled;
                stats_.regret_proxy +=
                    best_mean - arms_.meanOf(competing[i]);
                ++arms_.armFor(competing[i]).pulls;
                batch.push_back(std::move(competing[i]));
            } else {
                ++stats_.deferred;
                deferred_.insert(competing[i].key);
            }
        }
        return batch;
    }

    bool
    deferred(uint64_t key) const override
    {
        return deferred_.count(key) != 0;
    }

    void
    observe(const ProposalCandidate &candidate,
            const ProposalOutcome &outcome) override
    {
        ++stats_.observations;
        if (outcome.from_cache)
            ++stats_.cached_observations;
        if (outcome.inline_eval)
            ++stats_.inline_evaluations;
        double reward = rewardOf(candidate, outcome);
        stats_.reward_total += reward;
        ArmTable::Arm &arm = arms_.armFor(candidate);
        ++arm.observations;
        arm.reward_total += reward;
    }

    SchedulerStats
    stats() const override
    {
        SchedulerStats out = stats_;
        out.name = name();
        arms_.render(out);
        return out;
    }

  private:
    BanditConfig config_;
    ArmTable arms_;
    Rng rng_;
    std::unordered_set<uint64_t> deferred_;
    SchedulerStats stats_;
};

} // namespace

std::unique_ptr<ProposalScheduler>
makeExhaustiveScheduler()
{
    return std::make_unique<ExhaustiveScheduler>();
}

std::unique_ptr<ProposalScheduler>
makeBanditScheduler(const BanditConfig &config)
{
    return std::make_unique<BanditScheduler>(config);
}

} // namespace seer::core
