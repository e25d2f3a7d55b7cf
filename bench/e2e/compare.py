#!/usr/bin/env python3
"""Compare runs of bench/e2e/run.py: a parent commit against a change.

    python3 bench/e2e/compare.py PARENT CHANGE
    python3 bench/e2e/compare.py --self-check A B

Each side is a results file written by run.py (--out) or a directory of
them; the i-th file of one side is paired with the i-th of the other in
name order, so run them alternately and name them so they sort in pairs.

For every (workload, metric) pair it prints each side's median and
quartiles and how many pairs the change won. A gain needs the change to
win at least 9/10 of the pairs and the medians to differ by more than
the parent's interquartile range. An end-to-end metric regresses when
the change's median is worse than the parent's by more than the bound in
BENCHMARK.json; when the parent's own spread is wider than the bound the
verdict is "unresolved", unless every change run beats every parent run.
Deterministic counters (output hashes, unions, nodes, classes,
evaluations, rejected) and the HLS quality ratios must match exactly
between runs with the same seed.

--self-check compares two sets of runs of the same code: every
end-to-end median must agree within its bound in either direction, and
the deterministic values must match. The exit code is 1 on any
regression, mismatch or failed self-check.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
EXACT = ("cycles_ratio_gm", "area_ratio_gm")


def load_side(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = [json.loads(f.read_text()) for f in files]
    if not runs:
        sys.exit("compare.py: no results files in " + str(path))
    return runs


def values(runs, workload, section, metric):
    return [run["workloads"][workload][section][metric] for run in runs
            if section in run["workloads"].get(workload, {})]


def quartiles(data):
    if len(data) < 2:
        return data[0], data[0], data[0]
    q1, q2, q3 = statistics.quantiles(data, n=4)
    return q1, statistics.median(data), q3


def better(a, b, direction):
    """True when value a is better than value b."""
    return a < b if direction == "lower" else a > b


def compare_metric(parent, change, spec, bounded, self_check):
    direction = spec["better"]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p, direction))
    row = {"parent": (p1, pm, p3), "change": (c1, cm, c3), "wins": wins,
           "pairs": len(pairs)}
    gain = (wins >= 0.9 * len(pairs) and better(cm, pm, direction)
            and abs(cm - pm) > (p3 - p1))
    row["verdict"] = "gain" if gain else "-"
    if not bounded:
        return row
    bound = spec["bound"]
    shift = (cm - pm) / pm if pm else 0.0
    worse = shift if direction == "lower" else -shift
    spread = (p3 - p1) / pm if pm else 0.0
    if self_check:
        row["verdict"] = "ok" if abs(shift) <= bound else "DISAGREE"
    elif spread > bound:
        all_better = all(better(c, p, direction) for c in change for p in parent)
        row["verdict"] = "better" if all_better else "unresolved"
    elif worse > bound:
        row["verdict"] = "REGRESSION"
    elif gain:
        row["verdict"] = "gain"
    else:
        row["verdict"] = "ok"
    row["shift"] = shift
    return row


def deterministic_mismatches(parent, change):
    """Same-seed runs must agree on every counter and quality ratio."""
    problems = []
    before = {(run["provenance"]["seed"], name): result
              for run in parent for name, result in run["workloads"].items()}
    for run in change:
        seed = run["provenance"]["seed"]
        for name, result in run["workloads"].items():
            base = before.get((seed, name))
            if not base or "kernels" not in base or "kernels" not in result:
                continue
            for metric in EXACT:
                a, b = base["end_to_end"][metric], result["end_to_end"][metric]
                if a != b:
                    problems.append("%s seed %s: %s %r vs %r" % (name, seed, metric, a, b))
            kernels = {k["name"]: k["counters"] for k in base["kernels"]}
            for kernel in result["kernels"]:
                counters = kernels.get(kernel["name"])
                if counters is not None and counters != kernel["counters"]:
                    diff = {key: (counters.get(key), value)
                            for key, value in kernel["counters"].items()
                            if counters.get(key) != value}
                    problems.append("%s seed %s %s: %s" % (name, seed, kernel["name"], diff))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--self-check", action="store_true",
                        help="both sides ran the same code; check they agree")
    parser.add_argument("parent", help="results file or directory (parent, or A)")
    parser.add_argument("change", help="results file or directory (change, or B)")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_side(args.parent), load_side(args.change)

    failed = False
    workloads = [w for w in dict.fromkeys(n for run in parent for n in run["workloads"])
                 if any(w in run["workloads"] for run in change)]
    for workload in workloads:
        print("== %s (%d parent runs, %d change runs)" % (
            workload, len(values(parent, workload, "end_to_end", "compile_s")),
            len(values(change, workload, "end_to_end", "compile_s"))))
        print("  %-34s %-32s %-32s %6s %8s  %s" % (
            "metric", "parent q1/median/q3", "change q1/median/q3", "wins",
            "shift", "verdict"))
        for section, bounded in (("end_to_end", True), ("per_layer", False)):
            for metric in spec[section]:
                p = values(parent, workload, section, metric["name"])
                c = values(change, workload, section, metric["name"])
                if not p or not c:
                    continue
                row = compare_metric(p, c, metric, bounded, args.self_check)
                failed |= row["verdict"] in ("REGRESSION", "DISAGREE")
                shift = "%+7.2f%%" % (100 * row["shift"]) if "shift" in row else ""
                print("  %-34s %-32s %-32s %3d/%-2d %8s  %s" % (
                    metric["name"],
                    "/".join("%.4g" % v for v in row["parent"]),
                    "/".join("%.4g" % v for v in row["change"]),
                    row["wins"], row["pairs"], shift, row["verdict"]))
    problems = deterministic_mismatches(parent, change)
    for problem in problems:
        print("MISMATCH " + problem)
    if not problems:
        print("deterministic counters and quality ratios: identical for every shared seed")
    failed |= bool(problems)
    print("FAIL" if failed else "PASS")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
