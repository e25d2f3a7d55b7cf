#include "core/pass_eval.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <set>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "core/verify.h"
#include "ir/analysis.h"
#include "ir/verifier.h"
#include "passes/passes.h"
#include "seerlang/canonical.h"
#include "seerlang/encoding.h"
#include "seerlang/from_term.h"
#include "seerlang/to_term.h"
#include "support/error.h"
#include "support/fault_inject.h"
#include "support/hashing.h"
#include "support/worker_pool.h"

namespace seer::core {

using eg::TermPtr;

namespace {

/** Interpreter budget of the validation gate (as before this layer). */
constexpr uint64_t kValidationMaxSteps = 2'000'000;

void
collectArgNames(const TermPtr &term, std::set<std::string> &out)
{
    if (auto arg = sl::decodeArg(term->op()))
        out.emplace(arg->first);
    for (const auto &child : term->children())
        collectArgNames(child, out);
}

/** Rewrite arg:<v>:index leaves back into var:<v> for snippet re-entry. */
TermPtr
renameArgsToVars(const TermPtr &term, const std::set<std::string> &vars)
{
    if (auto arg = sl::decodeArg(term->op())) {
        if (arg->second.isIndex()) {
            std::string name(arg->first);
            if (vars.count(name))
                return eg::makeTerm(sl::encodeVar(name));
        }
    }
    if (term->isLeaf())
        return term;
    std::vector<TermPtr> children;
    children.reserve(term->arity());
    bool changed = false;
    for (const auto &child : term->children()) {
        TermPtr renamed = renameArgsToVars(child, vars);
        changed |= renamed != child;
        children.push_back(std::move(renamed));
    }
    return changed ? eg::makeTerm(term->op(), std::move(children)) : term;
}

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point &stamp)
{
    Clock::time_point now = Clock::now();
    double s = std::chrono::duration<double>(now - stamp).count();
    stamp = now;
    return s;
}

/**
 * The pipeline body. Runs inside the caller's NameScope; plain returns
 * for control flow, per-stage timing accumulated into `charge`.
 */
PassOutcome
evaluateImpl(const TermPtr &term,
             const std::function<bool(ir::Operation &)> &transform,
             const SnippetEvalConfig &config, ExternalEvalCache &cache,
             ExternalEvalCache::EvalCharge &charge)
{
    PassOutcome out;
    Clock::time_point stamp = Clock::now();
    auto expired = [&config] { return config.exec.canceled(); };

    sl::EmitSpec spec = sl::inferSpec(term, "snippet");
    std::set<std::string> arg_names;
    collectArgNames(term, arg_names);
    std::set<std::string> var_args;
    for (const auto &[name, type] : spec.args) {
        if (!arg_names.count(name))
            var_args.insert(name);
    }
    ir::Module snippet = sl::termToFunc(term, spec);
    ir::Operation &func = *snippet.firstFunc();
    charge.emit_seconds += secondsSince(stamp);

    if (!transform(func)) {
        charge.pass_seconds += secondsSince(stamp);
        return out; // NotApplied
    }
    passes::runDce(func);
    // The pass may have rewritten loop bodies in place; stale registry
    // ids must not survive (a fused loop keeping loop1's id would
    // inherit loop1's scheduling constraints). Strip all ids:
    // back-translation assigns fresh — and, under the NameScope,
    // content-determined — ones, and the consult-time law/oracle
    // re-derives their constraints.
    ir::walk(func, [](ir::Operation &op) {
        if (ir::isa(op, ir::opnames::kAffineFor))
            op.removeAttr("seer.loop_id");
    });
    charge.pass_seconds += secondsSince(stamp);

    sl::Translation translation = sl::funcToTerm(func);
    TermPtr replacement =
        renameArgsToVars(translation.term->child(0), var_args);
    charge.translate_seconds += secondsSince(stamp);

    // Chaos: a pass that "succeeded" but emitted nonsense. Fired before
    // the validation gate, which is exactly the layer whose job it is
    // to keep such output from ever reaching the e-graph; should the
    // gate wave it through as inconclusive, downstream emission falls
    // back to the original term — the degraded-mode contract holds
    // either way.
    if (faultFire(FaultPoint::PassEvalGarbage))
        replacement = eg::makeTerm("chaos.garbage");

    // Validation gate (fault isolation): the transformed snippet must
    // pass the structural verifier and the before/after terms must
    // co-simulate on deterministic pseudo-random inputs. Equivalence
    // verdicts are memoized: structurally identical (before, after)
    // pairs under the same simulation budget share one co-simulation.
    if (!expired()) {
        std::string diag = ir::verify(snippet);
        if (!diag.empty()) {
            out.status = PassOutcome::Status::Rejected;
            out.detail = "verifier rejected pass output: " + diag;
            charge.verify_seconds += secondsSince(stamp);
            return out;
        }
        uint64_t vkey =
            verifyKey(term, replacement, config.validation_runs,
                      config.validation_seed, kValidationMaxSteps);
        std::optional<VerifyVerdict> verdict = cache.lookupVerify(vkey);
        if (!verdict) {
            VerifyOptions verify_options;
            verify_options.runs = config.validation_runs;
            verify_options.seed = config.validation_seed;
            verify_options.max_steps = kValidationMaxSteps;
            verify_options.exec = config.exec;
            std::string eq_diag;
            bool ok = checkTermEquivalence(term, replacement,
                                           verify_options, &eq_diag);
            VerifyVerdict fresh;
            fresh.result = !ok ? VerifyVerdict::Result::Mismatch
                          : eq_diag == "<inconclusive>"
                              ? VerifyVerdict::Result::Inconclusive
                              : VerifyVerdict::Result::Equivalent;
            fresh.diag = eq_diag;
            // A verdict reached under an expired deadline reflects the
            // budget, not the programs: never memoize it.
            if (!expired())
                cache.insertVerify(vkey, fresh);
            verdict = fresh;
        }
        if (!verdict->accepted()) {
            out.status = PassOutcome::Status::Rejected;
            out.detail = "co-simulation mismatch: " + verdict->diag;
            charge.verify_seconds += secondsSince(stamp);
            return out;
        }
    }
    charge.verify_seconds += secondsSince(stamp);

    // Schedule oracle over every loop of the transformed snippet,
    // computed here (in the pure, parallel stage) so the serial consult
    // only decides law-vs-oracle and writes the registry. Cheap next to
    // the co-simulation, and always needed when no law applies.
    hls::OperatorLibrary lib;
    hls::ScheduleOptions sched_options = config.hls.schedule;
    sched_options.pipeline_loops = true;
    hls::FuncSchedule schedule =
        hls::scheduleFunc(func, lib, sched_options);
    for (const auto &[id, op] : translation.loops) {
        auto it = schedule.loops.find(op);
        if (it == schedule.loops.end())
            continue;
        LoopRegistryEntry entry;
        entry.constraints = it->second;
        entry.coalesced = op->hasAttr("seer.coalesced");
        out.schedule.emplace_back(id, entry);
    }
    charge.schedule_seconds += secondsSince(stamp);

    out.status = PassOutcome::Status::Replaced;
    out.replacement = replacement;
    return out;
}

} // namespace

std::optional<PassOutcome>
evaluateSnippet(const TermPtr &term, uint64_t key,
                const std::function<bool(ir::Operation &)> &transform,
                const SnippetEvalConfig &config, ExternalEvalCache &cache)
{
    // Purity: all fresh names drawn below (back-translation tags, loop
    // ids, the equivalence checker's synthetic outputs) come from a
    // scope seeded with the cache key, so the outcome is a
    // deterministic function of (term, rule, config) — on any thread,
    // in any process.
    sl::NameScope scope(key);
    // Chaos: a pass binary that crashes outright. Thrown before any
    // pipeline work so it exercises the caller's containment (dynamic
    // rules quarantine a repeatedly crashing pass).
    if (faultFire(FaultPoint::PassEvalCrash))
        throw FatalError("injected pass-evaluation crash");
    ExternalEvalCache::EvalCharge charge;
    PassOutcome out;
    try {
        out = evaluateImpl(term, transform, config, cache, charge);
    } catch (const FatalError &) {
        out = PassOutcome{}; // untranslatable shape: rule does not apply
    } catch (const std::bad_alloc &) {
        out = PassOutcome{}; // allocation failure: contained, not cached
        charge.canceled = true;
        cache.chargeEvaluation(charge);
        return std::nullopt;
    }
    // Chaos: a pass that hangs until the watchdog gives up — modeled as
    // a cancellation, so the outcome is discarded and never cached.
    bool canceled = config.exec.canceled() ||
                    faultFire(FaultPoint::PassEvalTimeout);
    charge.canceled = canceled;
    cache.chargeEvaluation(charge);
    if (canceled)
        return std::nullopt; // budget-dependent: never cache or use
    return out;
}

void
evaluateBatch(const std::vector<EvalBatchItem> &batch,
              const std::function<bool(ir::Operation &)> &transform,
              const SnippetEvalConfig &config, ExternalEvalCache &cache,
              unsigned jobs, const std::function<bool()> &cancelled)
{
    cache.countBatch(batch.size(), jobs);
    parallelFor(
        batch.size(), jobs,
        [&](size_t i) {
            // Jobs must not throw (worker-thread contract): an
            // evaluation that crashes or fails to allocate is simply
            // not cached — the serial consult re-evaluates inline,
            // where the runner's containment applies.
            try {
                auto outcome =
                    evaluateSnippet(batch[i].term, batch[i].key,
                                    transform, config, cache);
                if (outcome) {
                    cache.insertPass(batch[i].key,
                                     std::move(*outcome));
                }
            } catch (const FatalError &) {
            } catch (const std::bad_alloc &) {
            }
        },
        cancelled);
}

void
collectLoopIds(const TermPtr &term, std::vector<std::string> &out)
{
    if (sl::isForSymbol(term->op()))
        out.emplace_back(sl::loopIdOf(term->op()));
    for (const auto &child : term->children())
        collectLoopIds(child, out);
}

uint64_t
verifyKey(const TermPtr &lhs, const TermPtr &rhs, int runs, uint64_t seed,
          uint64_t max_steps)
{
    uint64_t h = hashString("seer.verify");
    h = hashCombine(h, sl::canonicalTermHash(lhs));
    h = hashCombine(h, sl::canonicalTermHash(rhs));
    h = hashCombine(h, hashValue(static_cast<uint64_t>(runs)));
    h = hashCombine(h, hashValue(seed));
    h = hashCombine(h, hashValue(max_steps));
    return h;
}

// --- ExternalEvalCache ----------------------------------------------------

namespace {

/** Approximate retained bytes of one memoized pass outcome. */
int64_t
outcomeBytes(const PassOutcome &outcome)
{
    int64_t bytes = static_cast<int64_t>(sizeof(PassOutcome)) + 64;
    bytes += static_cast<int64_t>(outcome.detail.size());
    if (outcome.replacement)
        bytes += 256; // shared term DAG, order-of-magnitude estimate
    bytes += static_cast<int64_t>(outcome.schedule.size()) * 128;
    return bytes;
}

constexpr int64_t kVerdictBytes = 96;

/** Mutex stripes per store: enough that -j workers rarely contend. */
constexpr unsigned kCacheShards = 16;

int64_t
verdictBytes(const VerifyVerdict &verdict)
{
    return kVerdictBytes + static_cast<int64_t>(verdict.diag.size());
}

} // namespace

ExternalEvalCache::ExternalEvalCache(bool persistent)
    : persistent_(persistent),
      pass_(kCacheShards, [this](int64_t delta) { charge(delta); }),
      verify_(kCacheShards, [this](int64_t delta) { charge(delta); })
{}

void
ExternalEvalCache::setExecContext(const ExecContext &exec)
{
    std::lock_guard<std::mutex> lock(exec_mutex_);
    exec_ = exec;
}

void
ExternalEvalCache::charge(int64_t delta)
{
    std::lock_guard<std::mutex> lock(exec_mutex_);
    exec_.chargeMem(MemSubsystem::Caches, delta);
}

std::optional<PassOutcome>
ExternalEvalCache::lookupPass(uint64_t key, bool count)
{
    // Chaos: a corrupted cache read surfaces as a miss — the entry is
    // re-evaluated from scratch, never trusted.
    if (faultFire(FaultPoint::CacheRead))
        return std::nullopt;
    std::optional<PassOutcome> found = pass_.lookup(key);
    if (found && count) {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.pass_cache_hits;
    }
    return found;
}

bool
ExternalEvalCache::probePass(uint64_t key)
{
    bool present = pass_.contains(key);
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (present)
        ++stats_.pass_cache_hits;
    else
        ++stats_.pass_cache_misses;
    return present;
}

void
ExternalEvalCache::insertPass(uint64_t key, PassOutcome outcome)
{
    int64_t bytes = outcomeBytes(outcome);
    pass_.insert(key, std::move(outcome), bytes);
}

std::optional<VerifyVerdict>
ExternalEvalCache::lookupVerify(uint64_t key)
{
    std::optional<VerifyVerdict> found = verify_.lookup(key);
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (found)
        ++stats_.verify_cache_hits;
    else
        ++stats_.verify_cache_misses;
    return found;
}

void
ExternalEvalCache::insertVerify(uint64_t key, VerifyVerdict verdict)
{
    // Chaos: memoizing this verdict fails to allocate. Contained by
    // evaluateSnippet's allocation guard — the evaluation is discarded
    // (never half-cached) and the caller treats it as canceled.
    if (faultFire(FaultPoint::CacheAlloc))
        throw std::bad_alloc();
    int64_t bytes = verdictBytes(verdict);
    verify_.insert(key, std::move(verdict), bytes);
}

void
ExternalEvalCache::clearOutcomes()
{
    pass_.clear();
    verify_.clear();
}

void
ExternalEvalCache::countMiss()
{
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.pass_cache_misses;
}

void
ExternalEvalCache::countDeduped(size_t n)
{
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.candidates_deduped += n;
}

void
ExternalEvalCache::countBatch(size_t jobs, unsigned workers)
{
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.batches;
    stats_.batch_jobs += jobs;
    stats_.batch_workers += workers;
}

void
ExternalEvalCache::chargeEvaluation(const EvalCharge &charge)
{
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.evaluations;
    if (charge.canceled)
        ++stats_.canceled;
    stats_.emit_seconds += charge.emit_seconds;
    stats_.pass_seconds += charge.pass_seconds;
    stats_.translate_seconds += charge.translate_seconds;
    stats_.verify_seconds += charge.verify_seconds;
    stats_.schedule_seconds += charge.schedule_seconds;
}

double
ExternalEvalCache::evalSeconds() const
{
    std::lock_guard<std::mutex> lock(stats_mutex_);
    return stats_.emit_seconds + stats_.pass_seconds +
           stats_.translate_seconds + stats_.verify_seconds +
           stats_.schedule_seconds;
}

ExternalEvalStats
ExternalEvalCache::stats() const
{
    ExternalEvalStats out;
    {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        out = stats_;
    }
    out.resident_entries = pass_.size() + verify_.size();
    out.resident_bytes =
        static_cast<uint64_t>(pass_.bytes() + verify_.bytes());
    return out;
}

// --- persistence ----------------------------------------------------------
//
// A deliberately boring line-oriented format (support/json is write-only
// by design — adding a JSON parser for this would mean a parser to keep
// sound). One record per line, space-separated fields, strings
// percent-escaped. Any malformed line discards the whole file: a pass
// cache is an optimization, so the only safe recovery is a cold start.

namespace {

constexpr const char *kCacheHeader = "seer-pass-cache v2";

/**
 * FNV-1a over the serialized body (header + records). Written as a
 * trailing "C <hex>" line and re-checked on load, so a torn or
 * truncated file — a crash mid-write, a partial copy — is rejected
 * whole instead of silently adopting a prefix.
 */
uint64_t
fnv1a(const std::string &text)
{
    uint64_t h = 14695981039346656037ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
escapeField(const std::string &text)
{
    if (text.empty())
        return "%e";
    std::string out;
    out.reserve(text.size());
    for (unsigned char c : text) {
        if (c == '%' || c == ' ' || c < 0x20) {
            char buf[4];
            std::snprintf(buf, sizeof buf, "%%%02X", c);
            out += buf;
        } else {
            out += static_cast<char>(c);
        }
    }
    return out;
}

bool
unescapeField(const std::string &text, std::string *out)
{
    if (text == "%e") {
        out->clear();
        return true;
    }
    out->clear();
    out->reserve(text.size());
    for (size_t i = 0; i < text.size(); ++i) {
        if (text[i] != '%') {
            *out += text[i];
            continue;
        }
        if (i + 2 >= text.size())
            return false;
        auto hex = [](char c) -> int {
            if (c >= '0' && c <= '9')
                return c - '0';
            if (c >= 'A' && c <= 'F')
                return c - 'A' + 10;
            if (c >= 'a' && c <= 'f')
                return c - 'a' + 10;
            return -1;
        };
        int hi = hex(text[i + 1]), lo = hex(text[i + 2]);
        if (hi < 0 || lo < 0)
            return false;
        *out += static_cast<char>(hi * 16 + lo);
        i += 2;
    }
    return true;
}

std::string
keyHex(uint64_t key)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(key));
    return buf;
}

bool
parseU64Hex(const std::string &text, uint64_t *out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    *out = std::strtoull(text.c_str(), &end, 16);
    return end && *end == '\0';
}

bool
parseI64(const std::string &text, int64_t *out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    *out = std::strtoll(text.c_str(), &end, 10);
    return end && *end == '\0';
}

void
writeEntry(std::ostream &os, const std::string &id,
           const LoopRegistryEntry &entry)
{
    const hls::LoopConstraints &c = entry.constraints;
    os << "L " << escapeField(id) << ' ' << c.ii << ' ' << c.latency
       << ' ' << c.full_latency << ' '
       << (c.trip ? std::to_string(*c.trip) : std::string("-")) << ' '
       << (c.pipelined ? 1 : 0) << ' ' << (entry.coalesced ? 1 : 0)
       << ' ' << escapeField(c.loop_id) << ' ' << c.accesses.size();
    for (const auto &[name, count] : c.accesses)
        os << ' ' << escapeField(name) << ' ' << count;
    os << '\n';
}

bool
readEntry(std::istringstream &in, std::string *id,
          LoopRegistryEntry *entry)
{
    std::string id_field, trip_field, loop_id_field;
    int pipelined = 0, coalesced = 0;
    size_t naccess = 0;
    hls::LoopConstraints &c = entry->constraints;
    if (!(in >> id_field >> c.ii >> c.latency >> c.full_latency >>
          trip_field >> pipelined >> coalesced >> loop_id_field >>
          naccess))
        return false;
    if (!unescapeField(id_field, id))
        return false;
    if (trip_field == "-") {
        c.trip.reset();
    } else {
        int64_t trip = 0;
        if (!parseI64(trip_field, &trip))
            return false;
        c.trip = trip;
    }
    c.pipelined = pipelined != 0;
    entry->coalesced = coalesced != 0;
    if (!unescapeField(loop_id_field, &c.loop_id))
        return false;
    for (size_t i = 0; i < naccess; ++i) {
        std::string name_field, name;
        int64_t count = 0;
        if (!(in >> name_field >> count))
            return false;
        if (!unescapeField(name_field, &name))
            return false;
        c.accesses[name] = count;
    }
    return true;
}

} // namespace

size_t
ExternalEvalCache::loadFile(const std::string &path, std::string *error)
{
    if (error)
        error->clear();
    std::ifstream file(path, std::ios::binary);
    if (!file)
        return 0; // absent: a cold start, not an error

    std::string content{std::istreambuf_iterator<char>(file),
                        std::istreambuf_iterator<char>()};

    auto corrupt = [&](const std::string &why) -> size_t {
        pass_.clear();
        verify_.clear();
        // Honest cold-start accounting: count the record lines the
        // rejected file carried, so the stats section reports how much
        // memoized work was thrown away instead of a silent zero.
        size_t rejected = 0;
        size_t pos = 0;
        while (pos < content.size()) {
            if (content.compare(pos, 2, "P ") == 0 ||
                content.compare(pos, 2, "V ") == 0)
                ++rejected;
            size_t nl = content.find('\n', pos);
            if (nl == std::string::npos)
                break;
            pos = nl + 1;
        }
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.disk_load_failed = true;
        stats_.disk_entries_loaded = 0;
        stats_.disk_entries_rejected = rejected;
        stats_.disk_load_error = why;
        if (error)
            *error = "pass cache '" + path + "': " + why;
        return 0;
    };

    if (file.bad())
        return corrupt("read error");

    // The last line must be the whole-file checksum; everything before
    // it is the body the checksum covers. A file that lost its tail —
    // torn write, truncation — fails here before any entry is adopted.
    if (content.empty() || content.back() != '\n')
        return corrupt("truncated (missing trailing checksum)");
    size_t nl = content.rfind('\n', content.size() - 2);
    size_t tail = (nl == std::string::npos) ? 0 : nl + 1;
    std::string check_line =
        content.substr(tail, content.size() - 1 - tail);
    uint64_t stored = 0;
    if (check_line.size() < 3 || check_line.compare(0, 2, "C ") != 0 ||
        !parseU64Hex(check_line.substr(2), &stored))
        return corrupt("truncated (missing trailing checksum)");
    std::string body = content.substr(0, tail);
    if (fnv1a(body) != stored)
        return corrupt("checksum mismatch");

    std::istringstream in(body);
    std::string line;
    if (!std::getline(in, line) || line != kCacheHeader)
        return corrupt("bad header");

    std::unordered_map<uint64_t, PassOutcome> pass;
    std::unordered_map<uint64_t, VerifyVerdict> verify;
    size_t line_no = 1;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        std::istringstream fields(line);
        std::string tag;
        fields >> tag;
        auto bad = [&]() {
            return corrupt("malformed line " + std::to_string(line_no));
        };
        if (tag == "P") {
            std::string key_field, detail_field, term_field;
            int status = 0;
            size_t nsched = 0;
            if (!(fields >> key_field >> status >> detail_field >>
                  term_field >> nsched))
                return bad();
            uint64_t key = 0;
            if (!parseU64Hex(key_field, &key) || status < 0 ||
                status > 2)
                return bad();
            PassOutcome outcome;
            outcome.status = static_cast<PassOutcome::Status>(status);
            if (!unescapeField(detail_field, &outcome.detail))
                return bad();
            if (term_field != "-") {
                std::string term_text;
                if (!unescapeField(term_field, &term_text))
                    return bad();
                try {
                    outcome.replacement = eg::parseTerm(term_text);
                } catch (const FatalError &) {
                    return bad();
                }
            }
            if (outcome.status == PassOutcome::Status::Replaced &&
                !outcome.replacement)
                return bad();
            for (size_t i = 0; i < nsched; ++i) {
                if (!std::getline(in, line))
                    return bad();
                ++line_no;
                std::istringstream sched_fields(line);
                std::string sched_tag;
                sched_fields >> sched_tag;
                if (sched_tag != "L")
                    return bad();
                std::string id;
                LoopRegistryEntry entry;
                if (!readEntry(sched_fields, &id, &entry))
                    return bad();
                outcome.schedule.emplace_back(id, entry);
            }
            pass.insert_or_assign(key, std::move(outcome));
        } else if (tag == "V") {
            std::string key_field, diag_field;
            int result = 0;
            if (!(fields >> key_field >> result >> diag_field))
                return bad();
            uint64_t key = 0;
            if (!parseU64Hex(key_field, &key) || result < 0 ||
                result > 2)
                return bad();
            VerifyVerdict verdict;
            verdict.result = static_cast<VerifyVerdict::Result>(result);
            if (!unescapeField(diag_field, &verdict.diag))
                return bad();
            verify.insert_or_assign(key, verdict);
        } else {
            return bad();
        }
    }

    size_t loaded = pass.size() + verify.size();
    for (auto &[key, outcome] : pass) {
        int64_t bytes = outcomeBytes(outcome);
        pass_.insert(key, std::move(outcome), bytes);
    }
    for (auto &[key, verdict] : verify)
        verify_.insert(key, verdict, verdictBytes(verdict));
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.disk_entries_loaded = loaded;
    stats_.disk_load_error.clear();
    return loaded;
}

bool
ExternalEvalCache::saveFile(const std::string &path,
                            std::string *error) const
{
    if (error)
        error->clear();
    // Serialize the body in memory first: the checksum covers every
    // byte that will precede it, and the file is then written in one
    // stream without interleaved reads of mutable state. forEachSorted
    // snapshots each store and iterates in sorted key order, so the
    // artifact is byte-stable across runs — and across save → load →
    // save round trips, whatever order the entries arrived in.
    std::ostringstream out;
    out << kCacheHeader << '\n';
    pass_.forEachSorted([&](uint64_t key, const PassOutcome &outcome) {
        out << "P " << keyHex(key) << ' '
            << static_cast<int>(outcome.status) << ' '
            << escapeField(outcome.detail) << ' '
            << (outcome.replacement
                    ? escapeField(outcome.replacement->str())
                    : std::string("-"))
            << ' ' << outcome.schedule.size() << '\n';
        for (const auto &[id, entry] : outcome.schedule)
            writeEntry(out, id, entry);
    });
    verify_.forEachSorted([&](uint64_t key,
                              const VerifyVerdict &verdict) {
        out << "V " << keyHex(key) << ' '
            << static_cast<int>(verdict.result) << ' '
            << escapeField(verdict.diag) << '\n';
    });
    std::string body = out.str();

    // Atomic persistence: write body + checksum to a sibling temp file,
    // fsync it, then rename over the target. A crash at any point
    // leaves either the old cache or the new one — never a torn file
    // (and a torn temp file can never pass the checksum anyway).
    std::string tmp = path + ".tmp";
    auto fail = [&](const std::string &why) {
        std::remove(tmp.c_str());
        if (error)
            *error = why + " '" + path + "'";
        return false;
    };
    {
        std::ofstream file(tmp, std::ios::trunc | std::ios::binary);
        if (!file)
            return fail("cannot write pass cache");
        file << body << "C " << keyHex(fnv1a(body)) << '\n';
        file.flush();
        if (!file)
            return fail("short write to pass cache");
    }
    int fd = ::open(tmp.c_str(), O_WRONLY);
    if (fd < 0)
        return fail("cannot reopen pass cache temp for");
    bool synced = ::fsync(fd) == 0;
    ::close(fd);
    if (!synced)
        return fail("fsync failed for pass cache");
    // Chaos: the process dies between writing the temp file and
    // publishing it — the visible cache must be the previous one.
    if (faultFire(FaultPoint::CacheSave))
        return fail("injected crash before pass cache rename");
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        return fail("cannot publish pass cache");
    return true;
}

json::Value
toJson(const ExternalEvalStats &stats)
{
    json::Value out{json::Object{}};
    out.set("pass_cache_hits", stats.pass_cache_hits);
    out.set("pass_cache_misses", stats.pass_cache_misses);
    out.set("verify_cache_hits", stats.verify_cache_hits);
    out.set("verify_cache_misses", stats.verify_cache_misses);
    out.set("candidates_deduped", stats.candidates_deduped);
    out.set("evaluations", stats.evaluations);
    out.set("batches", stats.batches);
    out.set("batch_jobs", stats.batch_jobs);
    out.set("canceled", stats.canceled);
    out.set("emit_seconds", stats.emit_seconds);
    out.set("pass_seconds", stats.pass_seconds);
    out.set("translate_seconds", stats.translate_seconds);
    out.set("verify_seconds", stats.verify_seconds);
    out.set("schedule_seconds", stats.schedule_seconds);
    out.set("disk_entries_loaded", stats.disk_entries_loaded);
    out.set("disk_load_failed", stats.disk_load_failed);
    out.set("disk_entries_rejected", stats.disk_entries_rejected);
    out.set("disk_load_error", stats.disk_load_error);
    out.set("resident_entries", stats.resident_entries);
    out.set("resident_bytes", stats.resident_bytes);
    return out;
}

} // namespace seer::core
