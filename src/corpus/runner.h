/**
 * @file
 * The corpus runner: thousands of generated kernels through the
 * differential oracle, failures minimized and written as repro files,
 * everything aggregated into a machine-readable run report.
 *
 * The run is deterministic: case i uses seed first_seed + i for both
 * its program and (mixed) its workloads, cases are judged independently
 * (so `jobs` workers change wall time, never verdicts), and the report
 * orders results by seed.
 */
#ifndef SEER_CORPUS_RUNNER_H_
#define SEER_CORPUS_RUNNER_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "corpus/oracle.h"
#include "corpus/shrink.h"
#include "support/exec_context.h"
#include "support/json.h"

namespace seer::corpus {

/** Configuration of one corpus run. */
struct CorpusOptions
{
    uint64_t first_seed = 1;
    size_t count = 100;
    /** Program shape. */
    GeneratorOptions shape;
    /** Oracle configuration (pipeline options, workload runs, ...). */
    OracleOptions oracle;
    /** Minimize failing programs before reporting them. */
    bool minimize = true;
    ShrinkOptions shrink;
    /** Directory for minimized repro files (empty = don't write). */
    std::string repro_dir;
    /** Worker threads over cases (verdicts independent of N). */
    unsigned jobs = 1;
    /** Serial progress callback, invoked in seed order. */
    std::function<void(uint64_t seed, const OracleVerdict &)> progress;

    // --- chaos mode ------------------------------------------------------
    /**
     * Judge every case under a per-case randomized fault plan (seed
     * mixed from chaos_seed and the case seed, firing rate
     * chaos_rate), asserting the degraded-mode contract holds for
     * every schedule: no crash, no invalid output, no miscompile —
     * degradation is allowed, corruption is not. Forces jobs = 1 (the
     * fault injector is process-global) and disables the reference arm
     * (its optimize() runs would share fault hit counters with the run
     * under test).
     */
    bool chaos = false;
    uint64_t chaos_seed = 0xC4A05;
    double chaos_rate = 0.02;

    /** Governance: once canceled (SIGINT/SIGTERM), unstarted cases are
     *  skipped and the report is finalized from the judged prefix. */
    ExecContext exec;
};

/** Outcome of one failing (or degraded/timed-out) case. */
struct CaseFailure
{
    uint64_t seed = 0;
    FailureKind kind = FailureKind::None;
    std::string detail;
    /** Pre-/post-minimization program sizes in ops. */
    size_t program_ops = 0;
    size_t minimized_ops = 0;
    /** The minimized failing program (the repro file body). */
    std::string minimized;
    /** Where the repro was written ("" when repro_dir is empty). */
    std::string repro_path;
    /** The fault plan the case ran under ("" outside chaos mode);
     *  replayable via `seer-corpus --check FILE --chaos-plan '...'`. */
    std::string chaos_plan;
    ShrinkStats shrink_stats;
};

/** Aggregated run report. */
struct CorpusReport
{
    uint64_t first_seed = 0;
    size_t total = 0;
    size_t passed = 0;
    size_t failed = 0;
    size_t degraded = 0; ///< passed-but-degraded (unless fail_on_degraded)
    size_t timeouts = 0;
    /** Cases skipped because the run was canceled (SIGINT). */
    size_t skipped = 0;
    /** The run was cut short by cancellation. */
    bool canceled = false;
    /** failureKindName -> count over all non-passing cases. */
    std::map<std::string, size_t> taxonomy;
    std::vector<CaseFailure> failures;
    /** Per-kernel wall time (seconds), indexed by case. */
    std::vector<double> case_seconds;
    double total_seconds = 0;

    /** Pass rate over the *judged* cases (skipped ones say nothing). */
    double passRate() const
    {
        size_t judged = total - skipped;
        return judged ? static_cast<double>(passed) / judged : 1.0;
    }
};

/** Run the corpus. Repro files land in options.repro_dir. */
CorpusReport runCorpus(const CorpusOptions &options);

/** Machine-readable view of a run (consumed by bench_to_json.py,
 *  uploaded by the CI corpus-smoke job). */
json::Value toJson(const CorpusReport &report,
                   const CorpusOptions &options);

/**
 * Render a self-contained repro file: a header of `//` comments
 * (seed, failure kind, detail, reproduction command) followed by the
 * minimized program. `seer-corpus --check FILE` re-judges such a file.
 */
std::string renderRepro(const CaseFailure &failure,
                        const CorpusOptions &options);

} // namespace seer::corpus

#endif // SEER_CORPUS_RUNNER_H_
