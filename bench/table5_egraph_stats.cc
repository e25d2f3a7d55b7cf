/**
 * @file
 * Table 5 reproduction: e-graph size and search-time split ("time in
 * MLIR" = inside wrapped passes and translation, "time in egg" = the
 * rest of the e-graph exploration) for each benchmark, plus the
 * per-rule scheduler statistics the runner now tracks (matches,
 * applications, bans, search/apply seconds).
 *
 * `--json PATH` additionally writes the full machine-readable
 * trajectory (per-benchmark per-rule and per-iteration stats) so runs
 * can be tracked over time.
 */
#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <vector>

#include "common.h"
#include "support/json.h"
#include "support/table.h"

using namespace seer;
using namespace seer::benchx;

int
main(int argc, char **argv)
{
    // --threads N runs external-pass evaluation on N workers;
    // exploration is identical, only wall-clock changes. --json PATH
    // dumps the machine-readable stats.
    unsigned threads = 1;
    const char *json_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
            threads = static_cast<unsigned>(std::stoul(argv[i + 1]));
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[i + 1];
    }
    const char *suite[] = {"byte_enable_calc", "seq_loops",
                           "kmp",              "gemm_blocked",
                           "gemm_ncubed",      "md_grid",
                           "md_knn",           "sort_merge",
                           "sort_radix"};

    TextTable table("Table 5: e-graph sizes and search times");
    table.setHeader({"Benchmark", "Nodes", "Classes", "Unions",
                     "Time in MLIR (s)", "Time in egg (s)",
                     "Total (s)"});

    std::vector<eg::RuleStats> suite_rules;
    json::Value doc{json::Object{}};
    json::Value benchmarks_json{json::Array{}};

    for (const char *name : suite) {
        const bench::Benchmark &benchmark = bench::findBenchmark(name);
        core::SeerOptions options;
        options.jobs = threads;
        core::SeerResult result = seerFlow(benchmark, options);
        const core::SeerStats &stats = result.stats;
        table.addRow({name, fmtInt(stats.egraph_nodes),
                      fmtInt(stats.egraph_classes),
                      fmtInt(stats.unions_applied),
                      fmt(stats.time_in_passes_seconds),
                      fmt(stats.time_in_egraph_seconds),
                      fmt(stats.total_seconds)});

        // Aggregate per-rule stats across the suite for the second table.
        for (const eg::RuleStats &rule : stats.rule_stats) {
            auto it = std::find_if(suite_rules.begin(), suite_rules.end(),
                                   [&](const eg::RuleStats &existing) {
                                       return existing.name == rule.name;
                                   });
            if (it == suite_rules.end()) {
                suite_rules.push_back(rule);
                continue;
            }
            it->matches += rule.matches;
            it->applications += rule.applications;
            it->bans += rule.bans;
            it->search_seconds += rule.search_seconds;
            it->apply_seconds += rule.apply_seconds;
        }

        json::Value entry{json::Object{}};
        entry.set("benchmark", name);
        entry.set("stats", core::toJson(stats));
        benchmarks_json.push(std::move(entry));
    }
    table.print(std::cout);

    // Per-rule view: where the scheduler spent its budget. Top rules by
    // applied unions; ban counts show which rules the backoff throttled.
    std::sort(suite_rules.begin(), suite_rules.end(),
              [](const eg::RuleStats &a, const eg::RuleStats &b) {
                  if (a.applications != b.applications)
                      return a.applications > b.applications;
                  return a.matches > b.matches;
              });
    TextTable rules_table(
        "Per-rule scheduler stats (top 12 by applied unions, whole suite)");
    rules_table.setHeader({"Rule", "Matches", "Applied", "Bans",
                           "Search (s)", "Apply (s)"});
    size_t shown = 0;
    for (const eg::RuleStats &rule : suite_rules) {
        if (shown++ >= 12)
            break;
        rules_table.addRow({rule.name, fmtInt(rule.matches),
                            fmtInt(rule.applications), fmtInt(rule.bans),
                            fmt(rule.search_seconds),
                            fmt(rule.apply_seconds)});
    }
    std::cout << "\n";
    rules_table.print(std::cout);

    if (json_path) {
        doc.set("threads", threads);
        doc.set("benchmarks", std::move(benchmarks_json));
        std::ofstream out(json_path);
        if (!out) {
            std::cerr << "cannot write " << json_path << "\n";
            return 1;
        }
        out << doc.dump(2) << "\n";
        std::cout << "\nWrote JSON trajectory to " << json_path << "\n";
    }

    std::cout << "\nExpected shape (paper Table 5): node counts range "
                 "from hundreds (straight-line\nkernels) to tens of "
                 "thousands (unrolled / deeply nested ones); total "
                 "search time\nstays within seconds, dominated by the "
                 "e-graph side for the large graphs.\n";
    return 0;
}
