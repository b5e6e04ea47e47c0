#!/usr/bin/env python3
"""Run-to-run spread and agreement of the benchmark's end-to-end metrics.

    python3 fjbench/spread.py run --workload plan-cold --seeds 1-10 --out a.json
    python3 fjbench/spread.py compare a.json b.json

`run` runs the benchmark once per seed (with BENCHMARK.json's run_seconds)
and reports, for every end-to-end metric, the median and the interquartile
distance as a share of the median, judged against the metric's bound.
`compare` checks that the second set's median is not worse than the
first's by more than the bound. Both exit non-zero when a check fails.
setup_s is exempt from the spread check, not from the agreement check.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def rel_spread(values):
    """Interquartile distance over the median, from statistics.quantiles(n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else float("inf")


def worse_by(first, second, better):
    """How much worse the second median is than the first, as a share."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def check_spreads(runs, spec):
    """Returns [(metric, median, spread, bound, ok)] over the run results."""
    rows = []
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        spread = rel_spread(values)
        ok = m["name"] == "setup_s" or spread <= m["bound"]
        rows.append((m["name"], statistics.median(values), spread, m["bound"], ok))
    return rows


def check_agreement(first, second, spec):
    """Returns [(metric, median1, median2, worse, bound, ok)]."""
    rows = []
    for m in spec["end_to_end"]:
        a = statistics.median(r["metrics"][m["name"]]["value"] for r in first)
        b = statistics.median(r["metrics"][m["name"]]["value"] for r in second)
        worse = worse_by(a, b, m["better"])
        rows.append((m["name"], a, b, worse, m["bound"], worse <= m["bound"]))
    return rows


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(args, spec):
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print("seed %d: run failed (exit %d)" % (seed, proc.returncode))
            return 1
        runs.append(result)
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)
    failed = 0
    for name, med, spread, bound, ok in check_spreads(runs, spec):
        print("%-18s median %14.6g  spread %6.3f  bound %.3f  %s" %
              (name, med, spread, bound, "ok" if ok else "TOO WIDE"))
        failed += 0 if ok else 1
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "runs": runs}, f)
    return 1 if failed else 0


def compare(args, spec):
    with open(args.first) as f:
        first = json.load(f)
    with open(args.second) as f:
        second = json.load(f)
    failed = 0
    for name, a, b, worse, bound, ok in check_agreement(first["runs"], second["runs"], spec):
        print("%-18s %14.6g -> %14.6g  worse by %7.3f  bound %.3f  %s" %
              (name, a, b, worse, bound, "ok" if ok else "DISAGREE"))
        failed += 0 if ok else 1
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out")
    p = sub.add_parser("compare")
    p.add_argument("first")
    p.add_argument("second")
    args = parser.parse_args()
    spec = load_spec()
    return run(args, spec) if args.cmd == "run" else compare(args, spec)


if __name__ == "__main__":
    sys.exit(main())
