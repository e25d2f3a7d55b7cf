/**
 * @file
 * seer-corpus: the corpus-scale differential harness.
 *
 *   seer-corpus --seeds 1000                   judge 1000 generated
 *                                              kernels against the
 *                                              interpreter oracle
 *   seer-corpus --seeds 200 --out run.json     + machine-readable report
 *   seer-corpus --repro-dir repros/            write minimized repro
 *                                              files for every failure
 *   seer-corpus --check repros/seed7_miscompile.seer
 *                                              re-judge one repro file
 *
 * Every case is generated from its seed, optimized with the full
 * pipeline, co-executed with the input program on randomized workloads
 * under the interpreter, and cross-checked against the naive
 * extraction/matching reference arms (see src/corpus/oracle.h for the
 * exact contract). Failures are delta-debugged down to minimal repros.
 */
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "corpus/runner.h"
#include "support/exec_context.h"
#include "support/fault_inject.h"
#include "support/worker_pool.h"
#include "tools/cli_common.h"

namespace {

struct CliOptions
{
    seer::corpus::CorpusOptions corpus;
    std::string check_file; // non-empty: judge one file, not a corpus
    std::string out_file;   // non-empty: write the JSON report
    bool quiet = false;
};

void
usage()
{
    std::cerr <<
        "usage: seer-corpus [options]\n"
        "       seer-corpus --check FILE [options]\n"
        "\n"
        "Generates seeded random kernels, runs each through the full\n"
        "optimize() pipeline, and judges the result against the\n"
        "interpreter ground truth and the naive reference arms.\n"
        "Failures are minimized to small repro files.\n"
        "\n"
        "options (value-taking flags accept both '--flag V' and "
        "'--flag=V'):\n"
        "  --seeds N          corpus size (default 100)\n"
        "  --first-seed N     first program seed (default 1)\n"
        "  --check FILE       judge one program file instead of a\n"
        "                     corpus (repro workflow); prints the\n"
        "                     verdict, exit 1 when it fails\n"
        "  --out FILE         write the run report as JSON ('-' = "
        "stdout)\n"
        "  --repro-dir DIR    write minimized failing programs to DIR\n"
        "  --no-minimize      report failures without shrinking them\n"
        "  --no-reference     skip the naive extract/match reference "
        "arms\n"
        "  --fail-degraded    count degraded (recovered-fault) runs as\n"
        "                     failures\n"
        "  --exact            test exact Eqn-4 datapath extraction\n"
        "                     (default: greedy — much faster, and the\n"
        "                     fast reference arm is then free)\n"
        "  --runs N           randomized workloads per case (default 3)\n"
        "  --input-seed N     base seed for workload data\n"
        "  --deadline S       per-case wall-clock budget in seconds\n"
        "                     (expired cases count as timeouts, not\n"
        "                     failures; default 30, 0 = none)\n"
        "  -j, --jobs N       worker threads over cases ('0' = all\n"
        "                     cores); verdicts are identical for every "
        "N\n"
        "  --max-stmts N      generator shape: top-level statements\n"
        "  --buffer-size N    generator shape: memref capacity\n"
        "  --max-trip N       generator shape: max loop trip count\n"
        "  --nested-loops     generator shape: allow loop-in-loop\n"
        "  --min-max          generator shape: draw min/max ops too\n"
        "  --inject-unsound   chaos hook: add an unsound store-dropping\n"
        "                     rewrite so the harness must catch the\n"
        "                     miscompiles it plants\n"
        "  --chaos            judge every case under a per-case seeded\n"
        "                     fault plan and assert the degraded-mode\n"
        "                     contract (no crash/invalid output/\n"
        "                     miscompile) for every schedule; forces\n"
        "                     -j 1 and --no-reference\n"
        "  --chaos-seed N     base seed of the chaos plans (default\n"
        "                     0xC4A05); failing plans are replayable\n"
        "  --chaos-rate R     per-hit fault probability (default 0.02)\n"
        "  --chaos-plan P     with --check: re-judge the file under a\n"
        "                     fixed fault plan (from a repro header)\n"
        << seer::cli::scheduleFlagsUsage() <<
        "  --mem-budget B     per-case optimize() memory budget in\n"
        "                     bytes (k/m/g suffixes accepted)\n"
        "  --quiet            suppress per-failure progress lines\n"
        "\n"
        "exit codes:\n"
        "  0  every case passed (timeouts are reported but pass)\n"
        "  1  at least one case failed (or --check file fails)\n"
        "  2  usage error\n"
        "  3  run canceled (SIGINT/SIGTERM): the report covers the\n"
        "     judged prefix; skipped cases are counted, not failed\n";
}

bool
parseArgs(int argc, char **argv, CliOptions &options)
{
    auto &corpus = options.corpus;
    seer::cli::ArgCursor args("seer-corpus", argc, argv);
    while (args.nextArg()) {
        const std::string &arg = args.arg();
        if (arg == "--seeds") {
            corpus.count = args.positiveValue<size_t>("corpus size");
        } else if (arg == "--first-seed") {
            corpus.first_seed = args.intValue<uint64_t>();
        } else if (arg == "--check") {
            options.check_file = args.value();
        } else if (arg == "--out") {
            options.out_file = args.value();
        } else if (arg == "--repro-dir") {
            corpus.repro_dir = args.value();
        } else if (arg == "--no-minimize") {
            corpus.minimize = false;
        } else if (arg == "--no-reference") {
            corpus.oracle.check_reference = false;
        } else if (arg == "--fail-degraded") {
            corpus.oracle.fail_on_degraded = true;
        } else if (arg == "--exact") {
            corpus.oracle.seer.exact_datapath = true;
        } else if (arg == "--runs") {
            corpus.oracle.input_runs =
                args.positiveValue<int>("workload runs");
        } else if (arg == "--input-seed") {
            corpus.oracle.input_seed = args.intValue<uint64_t>();
        } else if (arg == "--deadline") {
            double deadline = args.doubleValue();
            if (!args.failed() && deadline < 0)
                args.fail("--deadline must be >= 0");
            corpus.oracle.deadline_seconds = deadline;
        } else if (arg == "-j" || arg == "--jobs") {
            unsigned jobs = args.intValue<unsigned>();
            corpus.jobs = jobs == 0 ? seer::hardwareThreads() : jobs;
        } else if (arg == "--max-stmts") {
            corpus.shape.max_top_statements =
                args.positiveValue<int>("program size");
        } else if (arg == "--buffer-size") {
            corpus.shape.buffer_size =
                args.positiveValue<int>("memref capacity");
        } else if (arg == "--max-trip") {
            corpus.shape.max_trip =
                args.positiveValue<int>("trip count");
        } else if (arg == "--nested-loops") {
            corpus.shape.allow_nested_loops = true;
        } else if (arg == "--min-max") {
            corpus.shape.allow_min_max = true;
        } else if (arg == "--chaos") {
            corpus.chaos = true;
        } else if (arg == "--chaos-seed") {
            corpus.chaos_seed = args.intValue<uint64_t>();
        } else if (arg == "--chaos-rate") {
            double rate = args.doubleValue();
            if (!args.failed() && (rate < 0 || rate > 1))
                args.fail("--chaos-rate must be in [0,1]");
            corpus.chaos_rate = rate;
        } else if (arg == "--chaos-plan") {
            std::string text = args.value();
            if (args.failed())
                return false;
            auto plan = seer::FaultPlan::parse(text);
            if (!plan)
                args.fail("bad --chaos-plan '" + text + "'");
            else
                corpus.oracle.chaos_plan = *plan;
        } else if (seer::cli::handleScheduleFlag(args, arg,
                                                 corpus.oracle.seer)) {
            // --schedule / --eval-budget / --schedule-seed pass
            // through to every case's optimize() run. A bandit
            // schedule may settle on a different optimum than
            // exhaustive, but the oracle judges semantics, never which
            // optimum was reached — soundness verdicts are
            // schedule-independent.
        } else if (arg == "--mem-budget") {
            if (auto bytes = args.byteValue())
                corpus.oracle.seer.mem_budget_bytes = *bytes;
        } else if (arg == "--inject-unsound") {
            corpus.oracle.seer.extra_control_rules.push_back(
                seer::corpus::makeUnsoundStoreDropRule());
        } else if (arg == "--quiet") {
            options.quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(0);
        } else {
            args.fail("unknown option " + arg);
        }
        if (!args.endArg())
            return false;
    }
    return true;
}

/** The --check workflow: judge one file (typically a repro). */
int
checkOne(const CliOptions &options)
{
    std::ifstream file(options.check_file);
    if (!file) {
        std::cerr << "seer-corpus: cannot open " << options.check_file
                  << "\n";
        return 2;
    }
    std::stringstream text;
    text << file.rdbuf();
    seer::corpus::OracleVerdict verdict =
        seer::corpus::checkSource(text.str(), options.corpus.oracle);
    std::cout << options.check_file << ": "
              << seer::corpus::failureKindName(verdict.kind);
    if (!verdict.detail.empty())
        std::cout << " (" << verdict.detail << ")";
    if (verdict.degraded)
        std::cout << " [degraded]";
    std::cout << "\n";
    return verdict.failed() ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace seer;

    CliOptions options;
    // Corpus runs favor throughput: greedy datapath extraction by
    // default (--exact opts back in), and a per-case deadline so one
    // pathological kernel cannot wedge a big run.
    options.corpus.oracle.seer.exact_datapath = false;
    options.corpus.oracle.deadline_seconds = 30;
    if (!parseArgs(argc, argv, options)) {
        usage();
        return 2;
    }
    // Ctrl-C finalizes the report over the judged prefix (exit 3); a
    // second signal kills the process outright.
    installSignalCancellation();
    options.corpus.exec = ExecContext::make();
    if (!options.check_file.empty())
        return checkOne(options);

    if (!options.quiet) {
        options.corpus.progress =
            [&](uint64_t seed, const corpus::OracleVerdict &verdict) {
                if (verdict.kind == corpus::FailureKind::None)
                    return;
                std::cerr << "; seed " << seed << ": "
                          << corpus::failureKindName(verdict.kind)
                          << " — " << verdict.detail << "\n";
            };
    }

    corpus::CorpusReport report = corpus::runCorpus(options.corpus);

    size_t judged = report.total - report.skipped;
    std::cerr << "; corpus: " << report.passed << "/" << judged
              << " passed";
    if (report.failed)
        std::cerr << ", " << report.failed << " FAILED";
    if (report.timeouts)
        std::cerr << ", " << report.timeouts << " timed out";
    if (report.degraded)
        std::cerr << ", " << report.degraded << " degraded";
    if (report.skipped)
        std::cerr << ", " << report.skipped << " skipped (canceled)";
    std::cerr << " in " << report.total_seconds << "s\n";
    for (const auto &[kind, count] : report.taxonomy)
        std::cerr << ";   " << kind << ": " << count << "\n";
    for (const corpus::CaseFailure &failure : report.failures) {
        std::cerr << "; seed " << failure.seed << " ("
                  << corpus::failureKindName(failure.kind) << "): "
                  << failure.program_ops << " -> "
                  << failure.minimized_ops << " ops";
        if (!failure.repro_path.empty())
            std::cerr << ", repro " << failure.repro_path;
        std::cerr << "\n";
    }

    if (!options.out_file.empty()) {
        std::string text =
            corpus::toJson(report, options.corpus).dump(2) + "\n";
        if (options.out_file == "-") {
            std::cout << text;
        } else {
            std::ofstream out(options.out_file, std::ios::trunc);
            if (!out) {
                std::cerr << "seer-corpus: cannot open "
                          << options.out_file << "\n";
                return 2;
            }
            out << text;
        }
    }
    if (report.failed)
        return 1;
    return report.canceled ? 3 : 0;
}
