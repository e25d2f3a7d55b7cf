#!/usr/bin/env python3
"""End-to-end benchmark of SEER's optimize() and --verify on the paper's
kernels, with a per-layer breakdown.

    python3 bench/e2e/run.py --workload paper9_cold --seed 0 --seconds 20 --trace 0
    python3 bench/e2e/run.py --quick            # all four workloads, smoke size

Builds the seer-bench program in a Release tree (build-bench/), then runs
each workload as a closed loop of seer-bench processes, one after the
other, each calling the workload's kernels in turn, until --seconds have
passed and at least two processes have run. Checks every output, prints
every metric by name and unit, writes the results file (--out,
default bench-results.json) and prints one JSON summary as the last line
of standard output.

With --trace 1 the workload runs the same way, each process also records
a span around every timed call (merged into one Chrome trace under
build-bench/e2e/), and the summary carries the per-layer metrics instead
of the end-to-end ones.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = Path(__file__).resolve().parent
BUILD = ROOT / "build-bench"
WORK = BUILD / "e2e"

NINE = ["seq_loops", "byte_enable_calc", "kmp", "gemm_ncubed", "gemm_blocked",
        "md_knn", "md_grid", "sort_merge", "sort_radix"]
# The kernels that optimize in well under a second by default: a run
# fits several passes over them, so every kernel's median rests on
# several samples.
SMALL5 = ["seq_loops", "gemm_ncubed", "gemm_blocked", "sort_merge",
          "sort_radix"]
# Translation validation of sort_merge alone takes 46-62 s.
SMALL4 = [k for k in SMALL5 if k != "sort_merge"]
QUICK = ["seq_loops", "gemm_blocked", "sort_radix"]
JOBS = min(4, os.cpu_count() or 1)
# Why each workload exists is in bench/e2e/README.md and BENCHMARK.json.
WORKLOADS = {
    "paper9_cold": {"kernels": NINE, "flags": []},
    "small5_warm": {"kernels": SMALL5, "flags": [], "warm": True},
    "small5_control_jN": {"kernels": SMALL5,
                          "flags": ["--control", "--jobs", str(JOBS)]},
    "small4_verify": {"kernels": SMALL4, "flags": ["--verify"]},
}
# Set-up time and peak RSS are taken once per process; a run has at
# least this many samples of them.
MIN_PROCS = 2
# The header lines of tests/golden/<kernel>.golden, as seer-bench names them.
GOLDEN_KEYS = {"unions": "egraph.unions", "nodes": "egraph.nodes",
               "classes": "egraph.classes", "rejected": "rejected",
               "evaluations": "eval.evaluations",
               "extracted_hash": "extracted_hash"}
# Outputs and counters that must repeat exactly in every call on a kernel.
DETERMINISTIC = ["ir_hash", "extracted_hash", "rejected", "egraph.unions",
                 "egraph.nodes", "egraph.classes", "eval.evaluations"]
# Per-layer values aggregated as the maximum over kernels, not the sum.
PEAKS = {"mem.peak_bytes", "mem.egraph_peak_bytes", "mem.caches_peak_bytes"}
PROCESS_TIMEOUT_S = 150
# Each process calls a kernel until its calls add up to this, so the
# small kernels' medians rest on several samples.
REPEAT_S = 0.5
# The gated times are wall times scaled to a host on which seer-bench's
# fixed reference computation takes this long (it took 11-16 ms on the
# 4-CPU VM the benchmark was written on). seer-bench times the
# reference at both ends of every timed call; the host's speed there
# drifts by up to 1.5x within minutes, and the scaling takes most of
# that drift out.
REF_NOMINAL_S = 0.012


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then (re)build only the seer-bench target."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no SEER source tree at " + str(ROOT))
    WORK.mkdir(parents=True, exist_ok=True)
    log = WORK / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DCMAKE_PROJECT_INCLUDE=" + str(BENCH_DIR / "targets.cmake")])
    steps.append(["cmake", "--build", str(BUILD), "--target", "seer-bench",
                  "-j", str(JOBS)])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-20:]
                fail("build failed (%s):\n%s" % (" ".join(step[:2]), "\n".join(tail)))
    return BUILD / "seer-bench"


def run_process(command, out, trace):
    if trace:
        command = command + ["--trace-file", str(out.with_suffix(".trace.json"))]
    try:
        done = subprocess.run(command + ["--out", str(out)], timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("seer-bench did not finish within %d s" % PROCESS_TIMEOUT_S)
    if done.returncode:
        fail("seer-bench exited with %d" % done.returncode)
    with open(out) as f:
        return json.load(f)


def run_workload(binary, name, args):
    """The closed loop of processes; returns the fill process (warm
    only), the timed processes and the run's trace events."""
    workload = WORKLOADS[name]
    kernels = QUICK if args.quick else workload["kernels"]
    command = [str(binary), "--kernels", ",".join(kernels),
               "--seed", str(args.seed)] + workload["flags"]
    for stale in WORK.glob("raw-%s-*" % name):
        stale.unlink()
    cache = WORK / "pass-cache"
    fill = None
    run_start = time.monotonic()
    if workload.get("warm"):
        # Set-up: one cold pass fills the --pass-cache file that every
        # timed process then loads and saves on each call.
        cache.unlink(missing_ok=True)
        command += ["--pass-cache", str(cache)]
        fill = run_process(command, WORK / ("raw-%s-fill.json" % name), False)
    if not args.quick:
        command += ["--repeat-seconds", str(REPEAT_S)]
    procs, offsets = [], []
    measure_start = time.monotonic()
    min_procs = 1 if args.quick else MIN_PROCS
    while len(procs) < min_procs or (
            not args.quick and time.monotonic() - measure_start < args.seconds):
        offsets.append(time.monotonic() - run_start)
        procs.append(run_process(command, WORK / ("raw-%s-%d.json" % (name, len(procs))),
                                 args.trace))
    total_s = time.monotonic() - run_start
    cache.unlink(missing_ok=True)

    events = []
    if args.trace:
        events.append({"name": name, "ph": "X", "ts": 0, "dur": total_s * 1e6,
                       "pid": 1, "tid": 1, "args": {"seed": args.seed}})
        for i, offset in enumerate(offsets):
            path = WORK / ("raw-%s-%d.trace.json" % (name, i))
            for event in json.loads(path.read_text())["traceEvents"]:
                event["ts"] += offset * 1e6
                events.append(event)
            path.unlink()
    return fill, procs, events


def field(sample, key):
    """A value seer-bench recorded for one call, or its layer counter."""
    return sample[key] if key in sample else sample.get("layers", {}).get(key)


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def golden_errors(by_kernel):
    """paper9_cold at the default seed must reproduce tests/golden/."""
    errors = []
    for kernel, samples in by_kernel.items():
        path = ROOT / "tests" / "golden" / (kernel + ".golden")
        if not path.is_file():
            errors.append("missing " + str(path))
            continue
        header, _, ir = path.read_text().partition("---\n")
        for line in header.splitlines():
            key, value = line.split(" ", 1)
            got = field(samples[0], GOLDEN_KEYS[key])
            if str(got) != value:
                errors.append("%s: %s %s, golden %s" % (kernel, key, got, value))
        if samples[0]["ir"] != ir:
            errors.append(kernel + ": output IR differs from the golden file")
    return errors


def check(name, args, fill, procs, by_kernel):
    """Every correctness gate over one workload's samples."""
    errors = []
    everything = ([fill] if fill else []) + procs
    for proc in everything:
        for sample in proc["samples"]:
            if "error" in sample:
                errors.append(sample["kernel"] + ": " + sample["error"])
            elif sample["degraded"]:
                errors.append(sample["kernel"] + ": optimize() returned degraded")
    if errors:
        return errors
    for kernel, samples in by_kernel.items():
        calls = samples + [s for s in (fill or {}).get("samples", [])
                           if s["kernel"] == kernel]
        for key in DETERMINISTIC:
            # The fill pass evaluates what the timed calls then reuse.
            values = {json.dumps(field(s, key))
                      for s in (samples if key == "eval.evaluations" else calls)}
            if len(values) > 1:
                errors.append("%s: %s differs between calls: %s"
                              % (kernel, key, sorted(values)))
        if fill and any(s["layers"]["eval.evaluations"] for s in samples):
            errors.append(kernel + ": a warm call evaluated passes")
    for proc in procs:
        if proc["cache_file"] and proc["cache_file"]["error"]:
            errors.append("pass cache file: " + proc["cache_file"]["error"])
    if name == "paper9_cold" and args.seed == 0:
        errors.extend(golden_errors(by_kernel))
    return errors


def scaled(seconds, ref_before, ref_after):
    """A wall time in seconds at the nominal host speed."""
    return seconds / ((ref_before + ref_after) / 2) * REF_NOMINAL_S


def scaled_optimize(sample):
    return scaled(sample["optimize_s"], *sample["refs"][:2])


def scaled_flow(sample):
    """optimize() plus the verify checks, each scaled by the reference
    times taken at its two ends."""
    flow = scaled_optimize(sample)
    if sample["verify_s"]:
        flow += scaled(sample["verify_s"], *sample["refs"][1:3])
    return flow


def scaled_setup(proc):
    """Median of one process's set-ups, each scaled by the reference
    times taken just before and after it."""
    refs = proc["setup_refs"]
    return statistics.median(scaled(s, refs[i], refs[i + 1])
                             for i, s in enumerate(proc["setup_s"]))


def kernel_rows(by_kernel):
    rows = []
    for kernel, samples in by_kernel.items():
        times = [s["optimize_s"] for s in samples]
        layers = {key: statistics.fmean(s["layers"][key] for s in samples)
                  for key in samples[0]["layers"]}
        for key in ("verify.records_s", "verify.module_s", "verify.checks",
                    "verify.inconclusive", "golden_check_s"):
            layers[key] = statistics.fmean(s.get(key, 0.0) for s in samples)
        rows.append({
            "name": kernel, "n": len(times),
            "median_s": statistics.median(times), "min_s": min(times),
            "max_s": max(times), "mean_s": statistics.fmean(times),
            "norm_median_s": statistics.median(map(scaled_optimize, samples)),
            "norm_flow_median_s": statistics.median(map(scaled_flow, samples)),
            "ref_median_s": statistics.median(s["refs"][0] for s in samples),
            "hls": samples[0]["hls"], "layers": layers,
            "counters": {key: field(samples[0], key) for key in DETERMINISTIC},
        })
    return rows


def end_to_end(fill, procs, rows):
    hls = [row["hls"] for row in rows]
    setup = statistics.median(map(scaled_setup, procs))
    if fill:
        setup += sum(map(scaled_flow, fill["samples"]))
    return {
        "compile_s": sum(r["norm_median_s"] for r in rows),
        "compile_kernel_gm_s": geomean([r["norm_median_s"] for r in rows]),
        "flow_s": sum(r["norm_flow_median_s"] for r in rows),
        "setup_s": setup,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in procs),
        "cycles_ratio_gm": geomean([h["cycles"] / h["base_cycles"] for h in hls]),
        "area_ratio_gm": geomean([h["area"] / h["base_area"] for h in hls]),
    }


def per_layer(procs, rows):
    """Per-kernel means, summed over kernels (peaks: the maximum), plus
    ratios whose base is a metric of its own."""
    total = {}
    for row in rows:
        for key, value in row["layers"].items():
            if key in PEAKS:
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    out = dict(total)
    out["egraph.match_skipped_frac"] = ratio(
        total["egraph.match_skipped"],
        total["egraph.match_candidates"] + total["egraph.match_skipped"])
    out["egraph.match_parallel_efficiency"] = ratio(
        total["egraph.match_shard_s"],
        sum(r["layers"]["egraph.match_wall_s"] * r["layers"]["egraph.match_jobs"]
            for r in rows))
    out["eval.cache_hit_rate"] = ratio(total["eval.cache_hits"],
                                       total["eval.cache_lookups"])
    for key in ("cache.load_s", "cache.save_s", "cache.file_mb", "cache.entries"):
        out[key] = statistics.median((p["cache_file"] or {}).get(key, 0.0)
                                     for p in procs)
    out["ir.parse_s"] = statistics.median(sum(p["parse_s"]) for p in procs)
    out["ir.golden_check_s"] = total["golden_check_s"]
    out["hls.evaluate_s"] = sum(r["hls"]["evaluate_s"] for r in rows)
    out["host.ref_s"] = statistics.median(r["ref_median_s"] for r in rows)
    out["wall.compile_s"] = sum(r["median_s"] for r in rows)
    return out


def measure(binary, name, args):
    fill, procs, events = run_workload(binary, name, args)
    by_kernel = {}
    for proc in procs:
        for sample in proc["samples"]:
            by_kernel.setdefault(sample["kernel"], []).append(sample)
    result = {"workload": name, "build_type": procs[0]["build_type"],
              "compiler": procs[0]["compiler"], "jobs": procs[0]["jobs"],
              "processes": len(procs),
              "attempted": sum(len(p["samples"]) for p in ([fill] if fill else []) + procs),
              "errors": check(name, args, fill, procs, by_kernel)}
    result["failed"] = sum(1 for p in ([fill] if fill else []) + procs
                           for s in p["samples"] if "error" in s)
    if result["errors"]:
        return result
    result["tracer_s"] = sum(p["tracer_s"] for p in procs)
    result["calls_s"] = sum(s["optimize_s"] + s["verify_s"]
                            for p in procs for s in p["samples"])
    rows = kernel_rows(by_kernel)
    result.update({"end_to_end": end_to_end(fill, procs, rows),
                   "per_layer": per_layer(procs, rows), "kernels": rows})
    if args.trace:
        path = WORK / ("trace-%s.json" % name)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
        result["trace_file"] = str(path.relative_to(ROOT))
    return result


def print_kernels(result, seed):
    print("\n== %s: seed %d, %d processes, %d calls, %d failed, jobs %d ==" % (
        result["workload"], seed, result["processes"], result["attempted"],
        result["failed"], result["jobs"]))
    print("%-17s %3s %10s %10s %10s %10s %10s %8s %8s %9s %8s" % (
        "kernel", "n", "wall_med_s", "min_s", "max_s", "norm_med_s", "norm_flow",
        "unions", "evals", "cycles_x", "area_x"))
    for r in result["kernels"]:
        h = r["hls"]
        print("%-17s %3d %10.4f %10.4f %10.4f %10.4f %10.4f %8s %8s %9.4f %8.4f" % (
            r["name"], r["n"], r["median_s"], r["min_s"], r["max_s"],
            r["norm_median_s"], r["norm_flow_median_s"], r["counters"]["egraph.unions"],
            r["counters"]["eval.evaluations"],
            h["cycles"] / h["base_cycles"], h["area"] / h["base_area"]))


def print_layers(rows):
    """Mean per call: the parts plus the unattributed rest make up the
    optimize() wall time; the last column shows that they do."""
    parts = ["egraph.iter_s", "extract.latency_s", "extract.area_s",
             "optimize.unattributed_s"]
    print("%-17s %10s %10s %10s %10s %10s %10s %8s" % (
        "kernel", "optimize_s", "iter_s", "(mlir_s)", "ext_lat_s", "ext_area_s",
        "unattr_s", "sum_err"))
    for r in rows:
        layers = r["layers"]
        total = sum(layers[p] for p in parts)
        print("%-17s %10.4f %10.4f %10.4f %10.4f %10.4f %10.4f %7.3f%%" % (
            r["name"], r["mean_s"], layers["egraph.iter_s"], layers["eval.mlir_s"],
            layers["extract.latency_s"], layers["extract.area_s"],
            layers["optimize.unattributed_s"],
            100 * abs(total - r["mean_s"]) / r["mean_s"]))


def print_overhead(name, result):
    """Spans wrap the timed calls, so their cost is the time spent
    recording them; the comparison with the last untraced run also
    carries whatever else changed on the host in between."""
    print("tracing overhead: recording spans took %.6f s of %.3f s of calls (%.4f%%)"
          % (result["tracer_s"], result["calls_s"],
             100 * result["tracer_s"] / result["calls_s"]))
    last = WORK / ("last-%s.json" % name)
    if last.is_file():
        untraced = json.loads(last.read_text())["end_to_end"]["compile_s"]
        traced = result["end_to_end"]["compile_s"]
        print("traced compile_s %.4f s vs last untraced run %.4f s (%+.2f%%)"
              % (traced, untraced, 100 * (traced / untraced - 1)))


def provenance(args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        ref = ROOT / ".git" / commit[len("ref: "):]
        if commit.startswith("ref: ") and ref.is_file():
            commit = ref.read_text().strip()
    return {"nproc": os.cpu_count(), "cpu": cpu, "commit": commit,
            "seed": args.seed, "seconds": args.seconds, "quick": args.quick,
            "trace": args.trace}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), action="append",
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="offset of the input, validation and verify seeds "
                             "(0: the repository's defaults)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="start no new process after this many seconds")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: record spans and report the per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="one process on seq_loops, gemm_blocked, sort_radix")
    parser.add_argument("--out", default=str(ROOT / "bench-results.json"),
                        help="results file")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build()
    results = {name: measure(binary, name, args)
               for name in args.workload or list(WORKLOADS)}

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for name, result in results.items():
        for error in result["errors"]:
            print("ERROR %s: %s" % (name, error))
        if result["errors"]:
            continue
        print_kernels(result, args.seed)
        if args.trace:
            print_layers(result["kernels"])
            print_overhead(name, result)
            print("trace written to " + result["trace_file"])
        elif not args.quick:
            (WORK / ("last-%s.json" % name)).write_text(json.dumps(result))
        print("%s metrics:" % section)
        prefix = "" if len(results) == 1 else name + "."
        for s in spec[section]:
            value = result[section][s["name"]]
            print("  %-34s %14.6g %s" % (s["name"], value, s["unit"]))
            metrics[prefix + s["name"]] = {"value": value, "unit": s["unit"]}

    with open(args.out, "w") as f:
        json.dump({"provenance": dict(provenance(args),
                                      build_type=next(iter(results.values()))["build_type"],
                                      compiler=next(iter(results.values()))["compiler"]),
                   "workloads": results}, f, indent=1)
    correct = all(not r["errors"] for r in results.values())
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
