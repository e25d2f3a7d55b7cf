/**
 * @file
 * seer-bench: the measuring program of the end-to-end benchmark (bench/e2e). One
 * process sets up the named kernels, then calls them in the order given,
 * one at a time, and writes every raw sample as JSON;
 * bench/e2e/run.py builds it, runs it as the workloads' processes,
 * aggregates the samples into the benchmark's metrics and checks them.
 *
 * Only calls into public layer functions are timed, from outside the
 * program: bench::parseBenchmark, core::optimize, core::verifyRecords,
 * core::checkModuleEquivalence (InputPreparer overload), ir::interpret,
 * hls::evaluate and ExternalEvalCache::loadFile/saveFile. The split
 * inside optimize() comes from the SeerStats counters it already
 * reports.
 *
 *   seer-bench --kernels K1,K2,... --seed S --out FILE [--jobs N]
 *              [--repeat-seconds T] [--pass-cache FILE] [--verify]
 *              [--control] [--trace-file FILE]
 */
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "benchmarks/benchmarks.h"
#include "core/pass_eval.h"
#include "core/seer.h"
#include "core/verify.h"
#include "hls/hls.h"
#include "ir/printer.h"
#include "seerlang/canonical.h"
#include "support/error.h"
#include "support/hashing.h"
#include "support/json.h"

using namespace seer;

namespace {

// Timings from an unoptimized or instrumented build would be recorded
// as if they described the shipped library, so such builds refuse.
#if !defined(__OPTIMIZE__)
constexpr const char *kUnfitBuild = "built without optimization";
#elif defined(__SANITIZE_ADDRESS__)
constexpr const char *kUnfitBuild = "built with AddressSanitizer";
#elif defined(__SANITIZE_THREAD__)
constexpr const char *kUnfitBuild = "built with ThreadSanitizer";
#else
constexpr const char *kUnfitBuild = nullptr;
#endif

#ifndef SEER_BENCH_BUILD_TYPE
#define SEER_BENCH_BUILD_TYPE "unknown"
#endif

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/**
 * A fixed computation of the kinds of work optimize() does: hashing,
 * allocation, pointer chasing and sorting. It calls no SEER code, so a
 * change to SEER cannot change its time; only the host's speed can.
 */
uint64_t
referenceWork()
{
    std::unordered_map<uint64_t, uint64_t> hashed;
    std::map<uint64_t, uint64_t> ordered;
    std::vector<uint64_t> values;
    uint64_t x = 0x9E3779B97F4A7C15ull;
    for (uint64_t i = 0; i < 40000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        hashed[x >> 40] += i;
        if (i % 4 == 0)
            ordered[x >> 24] = i;
        values.push_back(x);
    }
    std::sort(values.begin(), values.end());
    uint64_t sum = hashed.size() + values[values.size() / 2];
    for (const auto &[key, value] : ordered)
        sum += key ^ value;
    return sum;
}

volatile uint64_t reference_sink = 0;

/**
 * Wall time of one referenceWork(). A shared host's speed drifts by up
 * to 1.5x over tens of seconds, and a kernel's time moves with it;
 * dividing by this time, taken around the same calls, leaves the
 * change in the program. One thread measures it for every workload: a
 * multi-threaded reference varied more with thread start-up than with
 * the host.
 */
double
referenceSeconds()
{
    Clock::time_point start = Clock::now();
    reference_sink = reference_sink + referenceWork();
    return seconds(start, Clock::now());
}

/** Spans recorded around the timed calls, written as Chrome
 *  trace-event JSON ("X" events nest by time containment). */
class Tracer
{
  public:
    Tracer(bool enabled, Clock::time_point origin)
        : enabled_(enabled), origin_(origin)
    {
    }

    void
    span(const std::string &name, Clock::time_point start,
         Clock::time_point end, json::Value args = json::Object{})
    {
        if (!enabled_)
            return;
        Clock::time_point entered = Clock::now();
        json::Value event{json::Object{}};
        event.set("name", name);
        event.set("ph", "X");
        event.set("ts", seconds(origin_, start) * 1e6);
        event.set("dur", seconds(start, end) * 1e6);
        event.set("pid", 1);
        event.set("tid", 1);
        event.set("args", std::move(args));
        events_.push(std::move(event));
        self_s_ += seconds(entered, Clock::now());
    }

    /** Time spent recording spans: the tracing overhead itself. */
    double selfSeconds() const { return self_s_; }

    bool
    write(const std::string &path) const
    {
        json::Value doc{json::Object{}};
        doc.set("traceEvents", events_);
        doc.set("displayTimeUnit", "ms");
        std::ofstream out(path);
        out << doc.dump() << "\n";
        return static_cast<bool>(out);
    }

  private:
    bool enabled_;
    Clock::time_point origin_;
    json::Value events_{json::Array{}};
    double self_s_ = 0;
};

/** Everything one command line asks for. */
struct Config
{
    std::vector<std::string> kernels;
    uint64_t seed = 0;
    std::string out;
    unsigned jobs = 1;
    double repeat_seconds = 0;
    std::string pass_cache;
    bool verify = false;
    bool control = false;
    std::string trace_file;

    uint64_t inputSeed() const { return 42 + seed; }
    uint64_t validationSeed() const { return 0x5EEE + seed; }
};

/** One kernel's set-up state: parsed input, seeded inputs, the golden
 *  reference outputs and the unoptimized design's HLS report. */
struct Kernel
{
    const bench::Benchmark *bench = nullptr;
    ir::Module module;
    std::vector<ir::Buffer> inputs;
    std::vector<ir::Buffer> expected;
    hls::HlsReport base;
    double parse_s = 0;
};

std::vector<ir::RtValue>
argsOf(std::vector<ir::Buffer> &buffers)
{
    std::vector<ir::RtValue> args;
    for (ir::Buffer &buffer : buffers)
        args.push_back(&buffer);
    return args;
}

hls::HlsReport
evaluateDesign(const ir::Module &module, const Kernel &kernel,
               bool pipeline_loops)
{
    std::vector<ir::Buffer> buffers = kernel.inputs;
    hls::HlsOptions options;
    options.schedule.pipeline_loops = pipeline_loops;
    return hls::evaluate(module, kernel.bench->func, argsOf(buffers),
                         options);
}

std::vector<Kernel>
setUp(const Config &config, Tracer &tracer)
{
    std::vector<Kernel> kernels;
    for (const std::string &name : config.kernels) {
        Kernel kernel;
        kernel.bench = &bench::findBenchmark(name);
        Clock::time_point start = Clock::now();
        kernel.module = bench::parseBenchmark(*kernel.bench);
        Clock::time_point parsed = Clock::now();
        kernel.parse_s = seconds(start, parsed);
        tracer.span("parseBenchmark", start, parsed,
                    json::Object{{"kernel", name}});
        kernel.inputs = bench::makeBuffers(kernel.module, kernel.bench->func);
        Rng rng(config.inputSeed());
        kernel.bench->prepare(kernel.inputs, rng);
        kernel.expected = kernel.inputs;
        kernel.bench->golden(kernel.expected);
        Clock::time_point hls_start = Clock::now();
        kernel.base = evaluateDesign(kernel.module, kernel, false);
        tracer.span("hls::evaluate", hls_start, Clock::now(),
                    json::Object{{"kernel", name}, {"design", "baseline"}});
        kernels.push_back(std::move(kernel));
    }
    return kernels;
}

/** Empty when `actual` matches the golden outputs (ints exactly,
 *  floats to 1e-9 relative, as bench::checkGolden compares). */
std::string
goldenDiff(const std::vector<ir::Buffer> &actual,
           const std::vector<ir::Buffer> &expected)
{
    for (size_t b = 0; b < actual.size(); ++b) {
        for (size_t i = 0; i < actual[b].ints.size(); ++i) {
            if (actual[b].ints[i] != expected[b].ints[i])
                return MsgBuilder() << "buffer " << b << " int[" << i
                                    << "] = " << actual[b].ints[i]
                                    << ", expected "
                                    << expected[b].ints[i];
        }
        for (size_t i = 0; i < actual[b].floats.size(); ++i) {
            double got = actual[b].floats[i];
            double want = expected[b].floats[i];
            double tolerance =
                1e-9 * std::max({1.0, std::abs(got), std::abs(want)});
            if (std::abs(got - want) > tolerance)
                return MsgBuilder() << "buffer " << b << " float[" << i
                                    << "] = " << got << ", expected "
                                    << want;
        }
    }
    return "";
}

const core::ExtractionPhaseStats *
phaseNamed(const core::SeerStats &stats, const char *name)
{
    for (const core::ExtractionPhaseStats &phase : stats.extraction) {
        if (phase.name == name)
            return &phase;
    }
    return nullptr;
}

/** The per-layer split of one optimize() call, from SeerStats. */
json::Value
layerSample(const core::SeerStats &stats, double optimize_s)
{
    double iter_s = 0;
    for (const eg::IterationStats &iteration : stats.iterations)
        iter_s += iteration.seconds;
    double search_s = 0, apply_s = 0;
    size_t bans = 0;
    for (const eg::RuleStats &rule : stats.rule_stats) {
        search_s += rule.search_seconds;
        apply_s += rule.apply_seconds;
        bans += rule.bans;
    }
    const core::ExtractionPhaseStats *latency =
        phaseNamed(stats, "control-latency");
    const core::ExtractionPhaseStats *area =
        phaseNamed(stats, "datapath-area");
    double latency_s = latency ? latency->seconds : 0;
    double area_s = area ? area->seconds : 0;
    size_t exhaustions = 0;
    for (const core::ExtractionPhaseStats &phase : stats.extraction)
        exhaustions += phase.budget_exhaustions;
    const eg::MatchPhaseStats &match = stats.match_phase;
    const core::ExternalEvalStats &eval = stats.external_eval;
    auto peak = [&](MemSubsystem sub) {
        return stats.resource.sub[static_cast<size_t>(sub)].peak_bytes;
    };

    json::Value out{json::Object{}};
    out.set("egraph.iter_s", iter_s);
    out.set("egraph.search_s", search_s);
    out.set("egraph.apply_s", apply_s);
    out.set("egraph.iterations", stats.iterations.size());
    out.set("egraph.nodes", stats.egraph_nodes);
    out.set("egraph.classes", stats.egraph_classes);
    out.set("egraph.unions", stats.unions_applied);
    out.set("egraph.bans", bans);
    out.set("egraph.match_candidates", match.candidates_visited);
    out.set("egraph.match_skipped", match.skipped_clean);
    out.set("egraph.match_shard_s", match.shard_seconds);
    out.set("egraph.match_wall_s", match.search_wall_seconds);
    out.set("egraph.match_jobs", match.jobs);
    out.set("eval.mlir_s", stats.time_in_passes_seconds);
    out.set("eval.evaluations", eval.evaluations);
    out.set("eval.emit_s", eval.emit_seconds);
    out.set("eval.pass_s", eval.pass_seconds);
    out.set("eval.translate_s", eval.translate_seconds);
    out.set("eval.gate_s", eval.verify_seconds);
    out.set("eval.schedule_s", eval.schedule_seconds);
    out.set("eval.deduped", eval.candidates_deduped);
    out.set("eval.rejected", stats.rejected_externals);
    out.set("eval.cache_hits", eval.pass_cache_hits);
    out.set("eval.cache_lookups",
            eval.pass_cache_hits + eval.pass_cache_misses);
    out.set("sched.candidates", stats.scheduler.candidates);
    out.set("sched.scheduled", stats.scheduler.scheduled);
    out.set("sched.deferred", stats.scheduler.deferred);
    out.set("extract.latency_s", latency_s);
    out.set("extract.area_s", area_s);
    out.set("extract.area_expansions", area ? area->expansions : 0);
    out.set("extract.budget_exhaustions", exhaustions);
    out.set("extract.dag_cost", area ? area->dag_cost : 0.0);
    out.set("optimize.unattributed_s",
            optimize_s - iter_s - latency_s - area_s);
    out.set("mem.peak_bytes", stats.resource.peak_bytes);
    out.set("mem.egraph_peak_bytes", peak(MemSubsystem::EGraph));
    out.set("mem.caches_peak_bytes", peak(MemSubsystem::Caches));
    return out;
}

core::SeerOptions
optionsFor(const Config &config, const Kernel &kernel)
{
    core::SeerOptions options;
    // Exploration bounded by iterations and nodes only, as in the
    // golden tests: the output must not depend on machine speed.
    options.runner.time_limit_seconds = 100000;
    options.unroll_max_trip = kernel.bench->unroll_max_trip;
    options.validation_seed = config.validationSeed();
    options.jobs = config.jobs;
    options.pass_cache_file = config.pass_cache;
    if (config.control) {
        // The BM_ExternalPasses regime, control rules only, so external
        // passes and their validation gate do the work; but 4 validation
        // runs instead of its 12. At 12, gemm_ncubed takes 4.5-6 s and a
        // run holds three samples of it; at 4 it takes 2 s, 80% of it in
        // pass evaluation.
        options.use_rover = false;
        options.validation_runs = 4;
        options.use_pass_cache = false;
    }
    return options;
}

/**
 * One user-level call on `kernel`: optimize(), the golden check of its
 * output, the `seer-opt --verify` checks when asked for, and the HLS
 * evaluation of the design. A sample with an "error" is a failed call.
 * The reference time is taken right before optimize(), right after it
 * and after the verify checks ("refs"), so each timed part has the
 * host's speed at both of its ends.
 */
json::Value
call(const Config &config, const Kernel &kernel, Tracer &tracer)
{
    const std::string &name = kernel.bench->name;
    json::Value sample{json::Object{}};
    sample.set("kernel", name);
    json::Value refs{json::Array{}};
    refs.push(referenceSeconds());
    Clock::time_point start = Clock::now();
    std::optional<core::SeerResult> result;
    try {
        result = core::optimize(kernel.module, kernel.bench->func,
                                optionsFor(config, kernel));
    } catch (const FatalError &err) {
        sample.set("error", std::string("optimize threw: ") + err.what());
        tracer.span("optimize", start, Clock::now(),
                    json::Object{{"kernel", name}});
        return sample;
    }
    Clock::time_point optimized = Clock::now();
    refs.push(referenceSeconds());
    double optimize_s = seconds(start, optimized);
    const core::SeerStats &stats = result->stats;
    json::Value layers = layerSample(stats, optimize_s);
    tracer.span("optimize", start, optimized, layers);
    sample.set("optimize_s", optimize_s);
    sample.set("layers", std::move(layers));
    sample.set("degraded", stats.degraded);
    std::string ir_text = ir::toString(result->module);
    sample.set("ir", ir_text);
    sample.set("ir_hash", std::to_string(hashString(ir_text)));
    sample.set("extracted_hash",
               std::to_string(result->extracted_term
                                  ? sl::canonicalTermHash(
                                        result->extracted_term)
                                  : 0));
    sample.set("rejected", stats.rejected_externals);

    std::string error;
    std::vector<ir::Buffer> buffers = kernel.inputs;
    Clock::time_point interp_start = Clock::now();
    try {
        ir::interpret(result->module, kernel.bench->func, argsOf(buffers));
        std::string diff = goldenDiff(buffers, kernel.expected);
        if (!diff.empty())
            error = "golden mismatch: " + diff;
    } catch (const FatalError &err) {
        error = std::string("golden check trapped: ") + err.what();
    }
    Clock::time_point interp_end = Clock::now();
    tracer.span("ir::interpret", interp_start, interp_end,
                json::Object{{"kernel", name}});
    sample.set("golden_check_s", seconds(interp_start, interp_end));

    double verify_s = 0;
    if (config.verify) {
        core::VerifyOptions verify;
        verify.seed = config.validationSeed();
        Clock::time_point v0 = Clock::now();
        core::VerifyReport report =
            core::verifyRecords(stats.records, verify);
        Clock::time_point v1 = Clock::now();
        // The InputPreparer overload: plain random inputs make md_knn's
        // indices trap, a false FAIL.
        std::string module_diag;
        bool module_ok = core::checkModuleEquivalence(
            kernel.module, result->module, kernel.bench->func,
            kernel.bench->prepare, verify, &module_diag);
        Clock::time_point v2 = Clock::now();
        refs.push(referenceSeconds());
        tracer.span("verifyRecords", v0, v1,
                    json::Object{{"kernel", name},
                                 {"checks", report.total_checks}});
        tracer.span("checkModuleEquivalence", v1, v2,
                    json::Object{{"kernel", name}});
        verify_s = seconds(v0, v2);
        sample.set("verify.records_s", seconds(v0, v1));
        sample.set("verify.module_s", seconds(v1, v2));
        sample.set("verify.checks", report.total_checks + 1);
        sample.set("verify.inconclusive", report.inconclusive);
        if (!report.ok())
            error = "translation validation failed: " +
                    report.failures.front();
        else if (!module_ok)
            error = "end-to-end equivalence failed: " + module_diag;
    }
    sample.set("verify_s", verify_s);
    sample.set("refs", std::move(refs));
    if (!error.empty()) {
        sample.set("error", error);
        return sample;
    }

    Clock::time_point h0 = Clock::now();
    hls::HlsReport report = evaluateDesign(result->module, kernel, true);
    Clock::time_point h1 = Clock::now();
    tracer.span("hls::evaluate", h0, h1,
                json::Object{{"kernel", name}, {"design", "optimized"}});
    json::Value hls{json::Object{}};
    hls.set("base_cycles", kernel.base.total_cycles);
    hls.set("base_area", kernel.base.area_um2);
    hls.set("cycles", report.total_cycles);
    hls.set("area", report.area_um2);
    hls.set("evaluate_s", seconds(h0, h1));
    sample.set("hls", std::move(hls));
    return sample;
}

/** Load and save the warm cache file once more, timed on their own. */
json::Value
measureCacheFile(const std::string &path, Tracer &tracer)
{
    core::ExternalEvalCache cache(true);
    std::string load_error, save_error;
    Clock::time_point t0 = Clock::now();
    size_t entries = cache.loadFile(path, &load_error);
    Clock::time_point t1 = Clock::now();
    std::string copy = path + ".resave";
    bool saved = cache.saveFile(copy, &save_error);
    Clock::time_point t2 = Clock::now();
    tracer.span("ExternalEvalCache::loadFile", t0, t1);
    tracer.span("ExternalEvalCache::saveFile", t1, t2);
    std::ifstream file(path, std::ios::binary | std::ios::ate);
    json::Value out{json::Object{}};
    out.set("cache.load_s", seconds(t0, t1));
    out.set("cache.save_s", seconds(t1, t2));
    out.set("cache.entries", entries);
    out.set("cache.file_mb",
            static_cast<double>(file.tellg()) / (1024.0 * 1024.0));
    out.set("error", load_error + save_error);
    if (entries == 0 && load_error.empty())
        out.set("error", "the cache file holds no entries");
    if (!saved && save_error.empty())
        out.set("error", "the cache file did not save");
    std::remove(copy.c_str());
    return out;
}

int
usage(const std::string &why)
{
    std::cerr << "seer-bench: " << why
              << "\nusage: seer-bench --kernels K1,K2,... --seed S "
                 "--out FILE [--jobs N] [--repeat-seconds T] "
                 "[--pass-cache FILE] [--verify] [--control] "
                 "[--trace-file FILE]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Clock::time_point process_start = Clock::now();
    if (kUnfitBuild) {
        std::cerr << "seer-bench: refusing to measure: " << kUnfitBuild
                  << " (configure with -DCMAKE_BUILD_TYPE=Release and no "
                     "sanitizer)\n";
        return 3;
    }

    Config config;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--verify") {
            config.verify = true;
            continue;
        }
        if (flag == "--control") {
            config.control = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage("missing value for " + flag);
        std::string value = argv[++i];
        try {
            if (flag == "--kernels") {
                std::stringstream list(value);
                for (std::string name; std::getline(list, name, ',');)
                    config.kernels.push_back(name);
            } else if (flag == "--seed") {
                config.seed = std::stoull(value);
            } else if (flag == "--jobs") {
                config.jobs = static_cast<unsigned>(std::stoul(value));
            } else if (flag == "--repeat-seconds") {
                config.repeat_seconds = std::stod(value);
            } else if (flag == "--out") {
                config.out = value;
            } else if (flag == "--pass-cache") {
                config.pass_cache = value;
            } else if (flag == "--trace-file") {
                config.trace_file = value;
            } else {
                return usage("unknown flag " + flag);
            }
        } catch (const std::exception &) {
            return usage("bad value for " + flag);
        }
    }
    if (config.kernels.empty() || config.out.empty() || config.jobs == 0)
        return usage("--kernels, --out and a positive --jobs are required");
    for (const std::string &name : config.kernels) {
        bool known = false;
        for (const bench::Benchmark &benchmark : bench::allBenchmarks())
            known |= benchmark.name == name;
        if (!known)
            return usage("unknown kernel " + name);
    }

    Tracer tracer(!config.trace_file.empty(), process_start);
    // A set-up takes milliseconds, so it is repeated for a steady median,
    // with the reference timed between set-ups ("setup_refs").
    constexpr int kSetups = 40;
    json::Value setup_s{json::Array{}};
    json::Value setup_refs{json::Array{}};
    std::vector<Kernel> kernels;
    setup_refs.push(referenceSeconds());
    for (int s = 0; s < kSetups; ++s) {
        Clock::time_point start = Clock::now();
        kernels = setUp(config, tracer);
        Clock::time_point end = Clock::now();
        setup_refs.push(referenceSeconds());
        tracer.span("setup", start, end);
        setup_s.push(seconds(start, end));
    }

    // Closed loop: one caller, one kernel at a time, in paper order. A
    // kernel is called again until its calls add up to --repeat-seconds,
    // so a small kernel's median rests on several samples. The heap is
    // trimmed after every call: otherwise the fragmentation earlier
    // kernels leave decides, seed by seed, whether the nine kernels
    // peak at 54 or at 61 MB of RSS.
    json::Value samples{json::Array{}};
    for (const Kernel &kernel : kernels) {
        Clock::time_point start = Clock::now();
        do {
            samples.push(call(config, kernel, tracer));
            malloc_trim(0);
        } while (seconds(start, Clock::now()) < config.repeat_seconds);
        tracer.span(kernel.bench->name, start, Clock::now());
    }
    json::Value cache_file = nullptr;
    if (!config.pass_cache.empty())
        cache_file = measureCacheFile(config.pass_cache, tracer);
    tracer.span("seer-bench", process_start, Clock::now(),
                json::Object{{"seed", config.seed}});

    json::Value doc{json::Object{}};
    doc.set("build_type", SEER_BENCH_BUILD_TYPE);
    doc.set("compiler", std::string("g++ ") + __VERSION__);
    doc.set("seed", config.seed);
    doc.set("jobs", config.jobs);
    doc.set("setup_s", std::move(setup_s));
    doc.set("setup_refs", std::move(setup_refs));
    json::Value parse_s{json::Array{}};
    for (const Kernel &kernel : kernels)
        parse_s.push(kernel.parse_s);
    doc.set("parse_s", std::move(parse_s));
    struct rusage usage_now;
    getrusage(RUSAGE_SELF, &usage_now);
    doc.set("peak_rss_mb",
            static_cast<double>(usage_now.ru_maxrss) / 1024.0);
    doc.set("cache_file", std::move(cache_file));
    doc.set("tracer_s", tracer.selfSeconds());
    doc.set("samples", std::move(samples));

    std::ofstream out(config.out);
    out << doc.dump(1) << "\n";
    if (!out) {
        std::cerr << "seer-bench: cannot write " << config.out << "\n";
        return 1;
    }
    if (!config.trace_file.empty() && !tracer.write(config.trace_file)) {
        std::cerr << "seer-bench: cannot write " << config.trace_file
                  << "\n";
        return 1;
    }
    return 0;
}
