#!/usr/bin/env python3
"""Run the microbenchmarks and write a BENCH_*.json artifact.

Wraps google-benchmark's --benchmark_format=json output and adds a
summary section with before/after speedups. Four modes:

  --mode egraph (default, micro_egraph): benchmarks parameterized with
      a naive:{0,1} argument run the pre-index reference matcher
      (naive:1, the "before") and the indexed matcher (naive:0, the
      "after") on the same workload; the summary reports the ratio.
      Writes BENCH_egraph.json.

  --mode passes (micro_passes): benchmarks parameterized with
      cache:{0,1}/jobs:N arms; the cold serial arm (cache:0/jobs:1) is
      the baseline and every other arm reports its speedup against it.
      The BM_ScheduleBudget arms (kernel:K/sched:S/budget_pct:P) are
      summarized separately as the proposal scheduler's cost-vs-budget
      trajectory: per eval budget, how many kernels keep the exhaustive
      baseline's final extraction cost and the cold-evaluation
      reduction. Writes BENCH_passes.json.

  --mode extract (micro_extract): same naive:{0,1} pairing as egraph —
      naive:1 runs the from-scratch extraction bounds, naive:0 the
      maintained cost-bound analysis. Writes BENCH_extract.json.

  --mode corpus (seer-corpus): runs the differential corpus harness
      (--bench points at the seer-corpus binary; --seeds sets the
      corpus size, extra harness flags go after "--"), or consumes an
      existing run report with --report. The summary is the pass rate
      and the failure taxonomy. Writes BENCH_corpus.json.

Usage:
    tools/bench_to_json.py --bench build/bench/micro_egraph \
        [--mode egraph|passes] [--out BENCH_egraph.json] \
        [--min-time 0.05s] [--filter REGEX]
    tools/bench_to_json.py --mode corpus --bench build/tools/seer-corpus \
        --seeds 200 [--out BENCH_corpus.json] [-- --no-reference ...]
    tools/bench_to_json.py --mode corpus --report corpus_run.json
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile


def run_benchmarks(bench, min_time, bench_filter):
    def command(value):
        cmd = [bench, "--benchmark_format=json",
               f"--benchmark_min_time={value}"]
        if bench_filter:
            cmd.append(f"--benchmark_filter={bench_filter}")
        return cmd

    proc = subprocess.run(command(min_time), stdout=subprocess.PIPE)
    if proc.returncode != 0 and min_time.endswith("s"):
        # Older google-benchmark wants a plain double (no "s" suffix).
        proc = subprocess.run(command(min_time[:-1]),
                              stdout=subprocess.PIPE)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark run failed ({proc.returncode})")
    return json.loads(proc.stdout)


def real_times(benchmarks):
    times = {}
    for bench in benchmarks:
        if bench.get("run_type") == "aggregate":
            continue
        times[bench["name"]] = bench["real_time"]
    return times


def summarize_egraph(benchmarks):
    """Pair <base>/naive:1 with <base>/naive:0 and report speedups."""
    times = real_times(benchmarks)
    counters = {}
    for bench in benchmarks:
        if bench.get("run_type") == "aggregate":
            continue
        counters[bench["name"]] = {
            key: value for key, value in bench.items()
            if key in ("nodes", "bytes_per_node_map",
                       "bytes_per_node_soa", "byte_reduction",
                       "bytes_exact")
        }
    summary = {}
    for name, time in times.items():
        if not name.endswith("/naive:1"):
            continue
        base = name[: -len("/naive:1")]
        indexed = times.get(base + "/naive:0")
        if indexed is None or indexed <= 0:
            continue
        summary[base] = {
            "naive_time": time,
            "indexed_time": indexed,
            "speedup": time / indexed,
        }
    # Storage-style single benchmarks: surface their counters directly.
    for name, ctrs in counters.items():
        if name in times and "byte_reduction" in ctrs:
            summary.setdefault(name, {})["counters"] = ctrs
    return summary


ARM_RE = re.compile(r"^(?P<base>.*)/(?P<arm>cache:\d+/jobs:\d+)"
                    r"(?P<suffix>/real_time)?$")


def summarize_passes(benchmarks):
    """Report each cache/jobs arm's speedup over cold-serial."""
    groups = {}
    for name, time in real_times(benchmarks).items():
        match = ARM_RE.match(name)
        if match is None:
            continue
        key = (match.group("base"), match.group("suffix") or "")
        groups.setdefault(key, {})[match.group("arm")] = time
    summary = {}
    for (base, _suffix), arms in groups.items():
        baseline = arms.get("cache:0/jobs:1")
        if baseline is None or baseline <= 0:
            continue
        entry = {"baseline_time": baseline, "arms": {}}
        for arm, time in sorted(arms.items()):
            if arm == "cache:0/jobs:1" or time <= 0:
                continue
            entry["arms"][arm] = {
                "time": time,
                "speedup": baseline / time,
            }
        summary[base] = entry
    return summary


SCHED_ARM_RE = re.compile(
    r"^(?P<base>.*)/kernel:(?P<kernel>\d+)/sched:(?P<sched>\d+)"
    r"/budget_pct:(?P<pct>\d+)(?P<suffix>/real_time)?$")


def summarize_schedule(benchmarks):
    """The proposal scheduler's cost-vs-budget trajectory.

    Groups BM_ScheduleBudget arms per kernel (the label carries the
    kernel name), pairs every bandit arm against the exhaustive
    baseline, and reports per budget how many kernels keep the
    baseline's final extraction cost and how many cold external
    evaluations the budget saved.
    """
    kernels = {}
    for bench in benchmarks:
        if bench.get("run_type") == "aggregate":
            continue
        match = SCHED_ARM_RE.match(bench["name"])
        if match is None:
            continue
        label = bench.get("label") or f"kernel:{match.group('kernel')}"
        arm = ("exhaustive" if match.group("sched") == "0"
               else f"bandit@{match.group('pct')}")
        kernels.setdefault(label, {})[arm] = {
            "time": bench["real_time"],
            "cost": bench.get("cost", 0.0),
            "evals": bench.get("evals", 0.0),
            "deferred": bench.get("deferred", 0.0),
        }
    if not kernels:
        return None
    summary = {"kernels": {}, "budget_trajectory": []}
    budget_arms = set()
    for label, arms in sorted(kernels.items()):
        baseline = arms.get("exhaustive")
        if baseline is None:
            continue
        entry = {"exhaustive": baseline, "arms": {}}
        for arm, stats in sorted(arms.items()):
            if arm == "exhaustive":
                continue
            stats = dict(stats)
            stats["cost_match"] = stats["cost"] == baseline["cost"]
            stats["eval_reduction"] = (
                baseline["evals"] / stats["evals"]
                if stats["evals"] > 0 else 0.0)
            entry["arms"][arm] = stats
            budget_arms.add(arm)
        summary["kernels"][label] = entry
    for arm in sorted(budget_arms,
                      key=lambda a: -int(a.split("@")[1])):
        total = matched = 0
        baseline_evals = arm_evals = 0.0
        for entry in summary["kernels"].values():
            stats = entry["arms"].get(arm)
            if stats is None:
                continue
            total += 1
            matched += 1 if stats["cost_match"] else 0
            baseline_evals += entry["exhaustive"]["evals"]
            arm_evals += stats["evals"]
        summary["budget_trajectory"].append({
            "arm": arm,
            "budget_pct": int(arm.split("@")[1]),
            "kernels": total,
            "cost_matched": matched,
            "baseline_cold_evals": baseline_evals,
            "cold_evals": arm_evals,
            "eval_reduction": (baseline_evals / arm_evals
                               if arm_evals > 0 else 0.0),
        })
    return summary


def run_corpus(bench, seeds, extra_args):
    """Run seer-corpus and return its JSON run report."""
    fd, path = tempfile.mkstemp(suffix=".json", prefix="seer_corpus_")
    os.close(fd)
    try:
        cmd = [bench, "--seeds", str(seeds), "--out", path, "--quiet"]
        cmd += extra_args
        proc = subprocess.run(cmd)
        # 0 = all passed, 1 = failures found (the report still exists
        # and records them); anything else is a harness error.
        if proc.returncode not in (0, 1):
            raise SystemExit(
                f"seer-corpus failed ({proc.returncode})")
        with open(path) as f:
            return json.load(f)
    finally:
        os.unlink(path)


def summarize_corpus(report):
    return {
        "total": report.get("total", 0),
        "passed": report.get("passed", 0),
        "failed": report.get("failed", 0),
        "degraded": report.get("degraded", 0),
        "timeouts": report.get("timeouts", 0),
        "pass_rate": report.get("pass_rate", 0.0),
        "taxonomy": report.get("taxonomy", {}),
        "total_seconds": report.get("total_seconds", 0.0),
        "case_seconds_mean":
            report.get("timing", {}).get("case_seconds_mean", 0.0),
    }


def print_summary(mode, summary):
    if mode == "corpus":
        print(f"corpus: {summary['passed']}/{summary['total']} passed "
              f"(pass rate {summary['pass_rate']:.4f}), "
              f"{summary['failed']} failed, "
              f"{summary['timeouts']} timed out, "
              f"{summary['degraded']} degraded "
              f"in {summary['total_seconds']:.1f}s")
        for kind, count in sorted(summary["taxonomy"].items()):
            print(f"  {kind}: {count}")
        return
    if mode != "passes":
        for base, entry in sorted(summary.items()):
            if "naive_time" in entry:
                print(f"{base}: {entry['speedup']:.2f}x "
                      f"(naive {entry['naive_time']:.0f} -> "
                      f"indexed {entry['indexed_time']:.0f})")
            elif "counters" in entry:
                counters = ", ".join(
                    f"{key}={value:.4g}" for key, value in
                    sorted(entry["counters"].items()))
                print(f"{base}: {counters}")
        return
    for base, entry in sorted(summary.items()):
        if base == "schedule_budget":
            continue
        print(f"{base}: baseline cache:0/jobs:1 = "
              f"{entry['baseline_time']:.1f}")
        for arm, stats in sorted(entry["arms"].items()):
            print(f"  {arm}: {stats['speedup']:.2f}x "
                  f"({stats['time']:.1f})")
    schedule = summary.get("schedule_budget")
    if schedule:
        for point in schedule["budget_trajectory"]:
            print(f"schedule {point['arm']}: cost matched on "
                  f"{point['cost_matched']}/{point['kernels']} kernels,"
                  f" cold evals {point['baseline_cold_evals']:.0f} -> "
                  f"{point['cold_evals']:.0f} "
                  f"({point['eval_reduction']:.2f}x fewer)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", default=None,
                        help="path to the benchmark binary (or the "
                             "seer-corpus binary with --mode corpus)")
    parser.add_argument("--mode",
                        choices=("egraph", "passes", "extract",
                                 "corpus"),
                        default="egraph")
    parser.add_argument("--out", default=None,
                        help="output path (default BENCH_<mode>.json)")
    parser.add_argument("--min-time", default="0.05s")
    parser.add_argument("--filter", default=None,
                        help="--benchmark_filter regex")
    parser.add_argument("--seeds", type=int, default=100,
                        help="corpus size (--mode corpus)")
    parser.add_argument("--report", default=None,
                        help="existing seer-corpus run report to "
                             "convert instead of running the harness "
                             "(--mode corpus)")
    parser.add_argument("extra", nargs="*",
                        help="extra flags passed through to "
                             "seer-corpus after '--'")
    args = parser.parse_args()
    out_path = args.out or f"BENCH_{args.mode}.json"

    if args.mode == "corpus":
        if args.report:
            with open(args.report) as f:
                report = json.load(f)
        elif args.bench:
            report = run_corpus(args.bench, args.seeds, args.extra)
        else:
            raise SystemExit("--mode corpus needs --bench or --report")
        out = {
            "generated_by": "tools/bench_to_json.py",
            "mode": "corpus",
            "corpus": report,
            "summary": summarize_corpus(report),
        }
        with open(out_path, "w") as f:
            json.dump(out, f, indent=2)
            f.write("\n")
        print_summary("corpus", out["summary"])
        print(f"wrote {out_path}")
        return 0

    if not args.bench:
        raise SystemExit("--bench is required")
    raw = run_benchmarks(args.bench, args.min_time, args.filter)
    benchmarks = [
        {key: bench[key]
         for key in ("name", "real_time", "cpu_time", "time_unit",
                     "iterations", "items_per_second", "label",
                     # micro_passes telemetry: cache behavior and the
                     # egg/MLIR split of each arm; the scheduler arms
                     # add the final extraction cost and deferrals.
                     "unions", "evals", "hits", "mlir_s", "egg_s",
                     "cost", "deferred",
                     # micro_extract telemetry: bound-analysis work and
                     # branch-and-bound search effort per arm.
                     "recomputed", "visited", "prunes", "expansions",
                     "exhausted")
         if key in bench}
        for bench in raw.get("benchmarks", [])
        if bench.get("run_type") != "aggregate"
    ]
    # "extract" uses the same naive:{0,1} arm pairing as "egraph".
    summarize = (summarize_passes if args.mode == "passes"
                 else summarize_egraph)
    summary = summarize(raw.get("benchmarks", []))
    if args.mode == "passes":
        schedule = summarize_schedule(raw.get("benchmarks", []))
        if schedule is not None:
            summary["schedule_budget"] = schedule
    out = {
        "generated_by": "tools/bench_to_json.py",
        "mode": args.mode,
        "context": {
            key: raw.get("context", {}).get(key)
            for key in ("date", "host_name", "num_cpus", "mhz_per_cpu",
                        "library_build_type")
        },
        "benchmarks": benchmarks,
        "summary": summary,
    }
    with open(out_path, "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")

    print_summary(args.mode, out["summary"])
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
