/**
 * @file
 * seer-opt: the command-line driver for the SEER super-optimizer.
 *
 *   seer-opt kernel.seer                 optimize and print the result
 *   seer-opt --verify kernel.seer        + translation validation
 *   seer-opt --report kernel.seer        + before/after HLS PPA report
 *   seer-opt --passes "loop-fusion,canonicalize" kernel.seer
 *                                        run a fixed pass pipeline
 *                                        instead (the Figure 1 baseline)
 *
 * The input format is this repo's textual IR (see ir/parser.h); write
 * kernels the way `examples/quickstart.cpp` does.
 */
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/seer.h"
#include "core/verify.h"
#include "hls/hls.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "passes/pass.h"
#include "support/error.h"
#include "support/exec_context.h"
#include "support/fault_inject.h"
#include "tools/cli_common.h"

namespace {

struct CliOptions
{
    std::string input_file;
    std::string func_name; // empty: first function
    std::string fixed_passes; // non-empty: run a pipeline, not SEER
    std::string stats_file;   // non-empty: dump JSON stats ("-" = stderr)
    bool verify = false;
    bool report = false;
    bool quiet = false;
    std::optional<seer::FaultPlan> fault_plan;
    seer::core::SeerOptions seer;
};

void
usage()
{
    std::cerr <<
        "usage: seer-opt [options] <input.seer>\n"
        "\n"
        "options (value-taking flags accept both '--flag V' and "
        "'--flag=V'):\n"
        "  --func NAME        function to optimize (default: first)\n"
        "  --no-rover         disable datapath rules (the paper's "
        "SEER (C))\n"
        "  --no-control       disable control rules (ROVER only)\n"
        "  --greedy-datapath  greedy instead of exact Eqn-4 extraction\n"
        "  --extract MODE     extraction mode: 'exact' (default;\n"
        "                     branch-and-bound Eqn-4 datapath), 'greedy'\n"
        "                     (same as --greedy-datapath), or 'naive'\n"
        "                     (greedy with from-scratch bounds and no\n"
        "                     incremental cost analyses — the reference\n"
        "                     arm; extracted terms are bit-identical to\n"
        "                     'greedy')\n"
        "  --oracle           re-invoke the scheduler for new loops\n"
        "                     instead of the Section 4.6 laws\n"
        "  --unroll N         explore complete unrolling up to trip N\n"
        "  --phases N         interleaved control/data phases\n"
        "  --passes LIST      run a fixed comma-separated pass pipeline\n"
        "                     instead of the e-graph (phase-order "
        "baseline)\n"
        "  --verify           translation-validate every rewrite and\n"
        "                     co-simulate end to end\n"
        "  --report           print before/after HLS PPA estimates\n"
        "  --stats FILE       write per-rule/per-iteration scheduler\n"
        "                     stats as JSON (FILE '-' = stderr); the\n"
        "                     external_eval section reports pass/verify\n"
        "                     cache hit rates and per-stage timing\n"
        "  -j, --jobs N       worker threads for external-pass\n"
        "                     evaluation; results are bit-identical\n"
        "                     for every N (default 1)\n"
        << seer::cli::scheduleFlagsUsage() <<
        "  --pass-cache FILE  persist the pass-outcome/verification\n"
        "                     cache across runs (loaded at start, saved\n"
        "                     at exit unless nothing new was learned;\n"
        "                     a corrupt file cold-starts)\n"
        "  --no-pass-cache    disable cross-iteration memoization of\n"
        "                     external-pass outcomes (cold baseline;\n"
        "                     the optimization result is identical)\n"
        "  --deadline S       whole-run wall-clock budget in seconds;\n"
        "                     exploration is cut short when it expires\n"
        "  --time-limit S     egg-runner wall-clock limit per\n"
        "                     saturation (default 10). Raise it when\n"
        "                     results must not depend on machine\n"
        "                     speed: a time-limited exploration stops\n"
        "                     wherever the clock caught it\n"
        "  --mem-budget B     whole-run memory budget in bytes (k/m/g\n"
        "                     suffixes accepted); a breach cancels\n"
        "                     exploration and degrades to the best\n"
        "                     result found within budget (exit 3), and\n"
        "                     per-subsystem usage lands in the --stats\n"
        "                     'resource' section\n"
        "  --fault-plan P     chaos: arm a seeded fault-injection plan\n"
        "                     (format seed=N;rate=R;fixed=point@n,...)\n"
        "                     around the run; see DESIGN.md for the\n"
        "                     injection-point matrix\n"
        "  --strict           fail fast on the first internal error\n"
        "                     instead of recovering (pre-PR2 behavior)\n"
        "  --quiet            suppress the output program\n"
        "\n"
        "exit codes:\n"
        "  0  success\n"
        "  1  failure (bad input IR, verification failure, --strict "
        "fault)\n"
        "  2  usage error\n"
        "  3  success, but the run degraded (recovered faults, memory\n"
        "     budget breach, or SIGINT/SIGTERM cancellation; output is\n"
        "     still verified IR — see the --stats health section)\n";
}

/** Faulty dynamic rule (hidden --inject-crash-rule flag): the chaos
 *  hook used by the robustness tests and the CI fuzz-smoke job. It
 *  throws on every application except the second, where it returns a
 *  giant junk term instead, so one run exercises the full containment
 *  chain: per-application failure recovery, budget-explosion phase
 *  rollback, circuit-breaker quarantine, and degraded-mode emission
 *  (and under --strict, the very first application fails the run with
 *  the original error). */
seer::eg::Rewrite
crashRule()
{
    auto calls = std::make_shared<size_t>(0);
    return seer::eg::makeDynRewrite(
        "inject-crash", "?x",
        [calls](seer::eg::EGraph &, const seer::eg::Match &)
            -> std::optional<seer::eg::TermPtr> {
            if ((*calls)++ == 1) {
                // Balanced binary tree of ~80k distinct junk nodes:
                // far beyond 4 x the default 16k node budget.
                std::vector<seer::eg::TermPtr> level;
                level.reserve(40000);
                for (size_t i = 0; i < 40000; ++i) {
                    level.push_back(seer::eg::makeTerm(
                        seer::Symbol("junk" + std::to_string(i)), {}));
                }
                while (level.size() > 1) {
                    std::vector<seer::eg::TermPtr> next;
                    next.reserve(level.size() / 2 + 1);
                    for (size_t i = 0; i + 1 < level.size(); i += 2) {
                        next.push_back(seer::eg::makeTerm(
                            seer::Symbol("junkpair"),
                            {level[i], level[i + 1]}));
                    }
                    if (level.size() % 2)
                        next.push_back(level.back());
                    level = std::move(next);
                }
                return level[0];
            }
            seer::fatal("injected crash (--inject-crash-rule)");
        });
}

bool
parseArgs(int argc, char **argv, CliOptions &options)
{
    seer::cli::ArgCursor args("seer-opt", argc, argv);
    while (args.nextArg()) {
        const std::string &arg = args.arg();
        if (arg == "--func") {
            options.func_name = args.value();
        } else if (arg == "--no-rover") {
            options.seer.use_rover = false;
        } else if (arg == "--no-control") {
            options.seer.use_control = false;
        } else if (arg == "--greedy-datapath") {
            options.seer.exact_datapath = false;
        } else if (arg == "--extract") {
            std::string mode = args.value();
            if (args.failed())
                return false;
            if (mode == "exact") {
                options.seer.exact_datapath = true;
                options.seer.naive_extract = false;
            } else if (mode == "greedy") {
                options.seer.exact_datapath = false;
                options.seer.naive_extract = false;
            } else if (mode == "naive") {
                options.seer.exact_datapath = false;
                options.seer.naive_extract = true;
            } else {
                args.fail("bad --extract mode '" + mode +
                          "' (expected exact, greedy, or naive)");
            }
        } else if (arg == "--oracle") {
            options.seer.use_laws = false;
        } else if (arg == "--unroll") {
            int64_t trip = args.intValue();
            if (!args.failed() && trip < 0)
                args.fail("--unroll must be >= 0");
            options.seer.unroll_max_trip = trip;
        } else if (arg == "--phases") {
            options.seer.max_phases = static_cast<int>(
                args.positiveValue("interleaved phases"));
        } else if (arg == "--passes") {
            options.fixed_passes = args.value();
        } else if (arg == "--verify") {
            options.verify = true;
        } else if (arg == "--report") {
            options.report = true;
        } else if (arg == "--stats") {
            options.stats_file = args.value();
        } else if (arg == "-j" || arg == "--jobs") {
            int64_t jobs = args.intValue();
            if (!args.failed() && jobs < 1)
                args.fail("--jobs must be >= 1");
            options.seer.jobs = static_cast<unsigned>(jobs);
        } else if (seer::cli::handleScheduleFlag(args, arg,
                                                 options.seer)) {
            // --schedule / --eval-budget / --schedule-seed handled.
        } else if (arg == "--pass-cache") {
            options.seer.pass_cache_file = args.value();
        } else if (arg == "--no-pass-cache") {
            options.seer.use_pass_cache = false;
        } else if (arg == "--deadline") {
            double deadline = args.doubleValue();
            if (!args.failed() && deadline < 0)
                args.fail("--deadline must be >= 0");
            options.seer.deadline_seconds = deadline;
        } else if (arg == "--time-limit") {
            double limit = args.doubleValue();
            if (!args.failed() && limit <= 0)
                args.fail("--time-limit must be > 0");
            options.seer.runner.time_limit_seconds = limit;
        } else if (arg == "--mem-budget") {
            if (auto bytes = args.byteValue())
                options.seer.mem_budget_bytes = *bytes;
        } else if (arg == "--fault-plan") {
            std::string text = args.value();
            if (args.failed())
                return false;
            auto plan = seer::FaultPlan::parse(text);
            if (!plan) {
                args.fail("bad --fault-plan '" + text +
                          "' (expected "
                          "seed=N;rate=R;fixed=point@n,...)");
            } else {
                options.fault_plan = *plan;
            }
        } else if (arg == "--strict") {
            options.seer.strict = true;
        } else if (arg == "--inject-crash-rule") {
            // Hidden: chaos-inject an always-throwing dynamic rule.
            options.seer.extra_control_rules.push_back(crashRule());
        } else if (arg == "--quiet") {
            options.quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(0);
        } else if (!arg.empty() && arg[0] == '-') {
            args.fail("unknown option " + arg);
        } else if (options.input_file.empty()) {
            options.input_file = arg;
        } else {
            args.fail("multiple input files given");
        }
        if (!args.endArg())
            return false;
    }
    if (options.input_file.empty()) {
        std::cerr << "seer-opt: no input file given\n";
        return false;
    }
    return true;
}

seer::hls::HlsReport
evaluateWithZeros(const seer::ir::Module &module,
                  const std::string &func_name, bool pipeline)
{
    using namespace seer;
    ir::Block &body =
        module.lookupFunc(func_name)->region(0).block();
    std::vector<ir::Buffer> buffers;
    std::vector<ir::RtValue> args;
    for (size_t i = 0; i < body.numArgs(); ++i) {
        ir::Type t = body.arg(i).type();
        if (!t.isMemRef())
            fatal("--report requires memref-only signatures");
        buffers.emplace_back(t);
    }
    // A deterministic non-trivial workload.
    for (auto &buffer : buffers) {
        for (size_t j = 0; j < buffer.ints.size(); ++j)
            buffer.ints[j] = static_cast<int64_t>((j * 31 + 7) % 97);
        for (size_t j = 0; j < buffer.floats.size(); ++j)
            buffer.floats[j] = 0.25 * static_cast<double>(j % 17) - 2;
    }
    for (auto &buffer : buffers)
        args.push_back(&buffer);
    hls::HlsOptions hls_options;
    hls_options.schedule.pipeline_loops = pipeline;
    return hls::evaluate(module, func_name, std::move(args),
                         hls_options);
}

/** Print the `; ...` stderr summary of one optimize() run. */
void
printRunSummary(const seer::core::SeerResult &result)
{
    using namespace seer::core;
    std::ostream &out = std::cerr;
    if (result.stats.degraded) {
        out << "; DEGRADED: recovered from "
            << result.stats.recovered_errors.size() << " error(s), "
            << result.stats.phase_rollbacks << " phase rollback(s), "
            << result.stats.quarantined_rules.size()
            << " quarantined rule(s); output is still verified IR\n";
    }
    if (result.stats.deadline_hit)
        out << "; deadline hit: exploration cut short\n";
    if (!result.stats.cancel_reason.empty() &&
        result.stats.cancel_reason != "deadline") {
        out << "; canceled (" << result.stats.cancel_reason
            << "): degraded to the best result found\n";
    }
    size_t exhausted = 0;
    for (const ExtractionPhaseStats &phase : result.stats.extraction)
        exhausted += phase.budget_exhaustions;
    if (exhausted > 0) {
        out << "; datapath extraction hit its search budget "
            << exhausted
            << " time(s): result is best-effort, not proven exact\n";
    }
    out << "; e-graph: " << result.stats.egraph_nodes << " nodes, "
        << result.stats.egraph_classes << " classes, "
        << result.stats.unions_applied << " rewrites, "
        << result.stats.total_seconds << "s total ("
        << result.stats.time_in_passes_seconds << "s in passes)\n";
    const ExternalEvalStats &ev = result.stats.external_eval;
    out << "; pass cache: " << ev.pass_cache_hits << " hits, "
        << ev.pass_cache_misses << " misses, " << ev.evaluations
        << " evaluations (" << ev.candidates_deduped << " deduped, "
        << ev.verify_cache_hits << " verify hits)\n";
}

/** The end-to-end equivalence line of --verify: PASS, FAIL <why>, or
 *  inconclusive when no workload ran to completion on the input. */
void
printEquivalence(bool ok, const std::string &diag)
{
    std::cerr << "; end-to-end equivalence: ";
    if (!ok)
        std::cerr << "FAIL " << diag << "\n";
    else if (diag == "<inconclusive>")
        std::cerr << "inconclusive\n";
    else
        std::cerr << "PASS\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace seer;

    CliOptions options;
    if (!parseArgs(argc, argv, options)) {
        usage();
        return 2;
    }
    // Ctrl-C cancels cooperatively: the run winds down through the
    // degraded path and still reports stats (exit 3), a second signal
    // kills the process outright.
    seer::installSignalCancellation();

    std::ifstream file(options.input_file);
    if (!file) {
        std::cerr << "cannot open " << options.input_file << "\n";
        return 2;
    }
    std::stringstream text;
    text << file.rdbuf();

    try {
        ir::Module input = ir::parseModule(text.str());
        ir::verifyOrDie(input);
        if (options.func_name.empty()) {
            ir::Operation *first = input.firstFunc();
            if (!first)
                fatal("no function in input");
            options.func_name = first->strAttr("sym_name");
        }

        ir::Module output;
        core::SeerResult result;
        bool degraded = false;
        if (!options.fixed_passes.empty()) {
            // The phase-ordered baseline: a fixed pipeline.
            if (!options.stats_file.empty())
                std::cerr << "; note: --stats ignored with --passes "
                             "(no e-graph runs)\n";
            output = ir::cloneModule(input);
            passes::runPipeline(output,
                                cli::splitList(options.fixed_passes));
            ir::verifyOrDie(output);
        } else {
            std::optional<ScopedFaultPlan> chaos;
            if (options.fault_plan)
                chaos.emplace(*options.fault_plan);
            result = core::optimize(input, options.func_name,
                                    options.seer);
            chaos.reset();
            output = ir::cloneModule(result.module);
            degraded = result.stats.degraded;
            printRunSummary(result);
            if (!options.stats_file.empty()) {
                std::string text = core::toJson(result.stats).dump(2);
                text += "\n";
                if (options.stats_file == "-") {
                    std::cerr << text;
                } else {
                    std::ofstream stats_out(options.stats_file);
                    if (!stats_out)
                        fatal("cannot open " + options.stats_file);
                    stats_out << text;
                }
            }
        }

        if (!options.quiet)
            ir::print(output, std::cout);

        if (options.verify) {
            std::string diag;
            bool ok = core::checkModuleEquivalence(
                input, output, options.func_name, {}, &diag);
            printEquivalence(ok, diag);
            if (!options.fixed_passes.empty()) {
                if (!ok)
                    return 1;
            } else {
                core::VerifyReport report =
                    core::verifyRecords(result.stats.records);
                std::cerr << "; translation validation: "
                          << report.passed << "/"
                          << report.total_checks << " passed, "
                          << report.inconclusive << " inconclusive, "
                          << report.failures.size() << " failed\n";
                for (const std::string &failure : report.failures)
                    std::cerr << ";   " << failure << "\n";
                if (!ok || !report.ok())
                    return 1;
            }
        }

        if (options.report) {
            hls::HlsReport before =
                evaluateWithZeros(input, options.func_name, false);
            hls::HlsReport after =
                evaluateWithZeros(output, options.func_name, true);
            std::cerr << "; baseline: " << before.total_cycles
                      << " cycles, " << before.area_um2 << " um2, "
                      << before.power_mw << " mW\n";
            std::cerr << "; optimized: " << after.total_cycles
                      << " cycles, " << after.area_um2 << " um2, "
                      << after.power_mw << " mW\n";
            std::cerr << "; speedup: "
                      << static_cast<double>(before.total_cycles) /
                             static_cast<double>(after.total_cycles)
                      << "x\n";
        }
        if (degraded)
            return 3;
    } catch (const FatalError &err) {
        std::cerr << "seer-opt: " << err.what() << "\n";
        return 1;
    } catch (const std::exception &err) {
        // Nothing below main should leak a non-FatalError exception;
        // if one does, still fail with a one-line diagnostic instead
        // of std::terminate.
        std::cerr << "seer-opt: internal error: " << err.what() << "\n";
        return 1;
    }
    return 0;
}
