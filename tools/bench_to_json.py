#!/usr/bin/env python3
"""Turn a seer-corpus run report into the BENCH_corpus.json artifact.

Reads the JSON report `seer-corpus --out FILE` writes (schema
seer-corpus-v1), keeps it whole under "corpus", and adds a summary
section: the pass rate and the failure taxonomy.

Usage:
    tools/bench_to_json.py --report corpus_run.json [--out BENCH_corpus.json]
"""

import argparse
import json
import sys


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


def print_summary(summary):
    print(f"corpus: {summary['passed']}/{summary['total']} passed "
          f"(pass rate {summary['pass_rate']:.4f}), "
          f"{summary['failed']} failed, "
          f"{summary['timeouts']} timed out, "
          f"{summary['degraded']} degraded "
          f"in {summary['total_seconds']:.1f}s")
    for kind, count in sorted(summary["taxonomy"].items()):
        print(f"  {kind}: {count}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--report", required=True,
                        help="seer-corpus run report (--out FILE)")
    parser.add_argument("--out", default="BENCH_corpus.json",
                        help="output path (default BENCH_corpus.json)")
    args = parser.parse_args()

    with open(args.report) as f:
        report = json.load(f)
    out = {
        "generated_by": "tools/bench_to_json.py",
        "mode": "corpus",
        "corpus": report,
        "summary": summarize_corpus(report),
    }
    with open(args.out, "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")
    print_summary(out["summary"])
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
