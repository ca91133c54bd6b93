#!/usr/bin/env python3
"""Steadiness tool for the benchmark in BENCHMARK.json.

    # ten runs of one workload, one seed each, saved as JSON lines
    python3 perfbench/steady.py run --workload caida --seeds 1-10 --out a.jsonl
    # per metric: median, quartiles, spread (IQR / median) against its bound
    python3 perfbench/steady.py summary a.jsonl
    # two sets of runs of the same code: medians within the bounds, and the
    # same share of failed operations
    python3 perfbench/steady.py compare a.jsonl b.jsonl
    # the bound each end-to-end metric needs: three times the widest
    # spread seen and at least the median shift between the sets, capped
    # at the largest bound allowed (0.25); "no bound holds" when even the
    # spread or the shift itself is above 0.25
    python3 perfbench/steady.py bounds a.jsonl b.jsonl

Run from the repository root. Exits 1 when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAX_BOUND = 0.25


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def stats(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def by_metric(runs, workload):
    table = {}
    for run in runs:
        if run["workload"] != workload:
            continue
        for name, metric in run["result"]["metrics"].items():
            table.setdefault(name, []).append(metric["value"])
    return table


def workloads(runs):
    return sorted({run["workload"] for run in runs})


def cmd_run(args):
    s = spec()
    trace = str(args.trace)
    with open(args.out, "a") as out:
        for seed in seeds(args.seeds):
            command = s["command"] + [
                "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(args.seconds or s["run_seconds"]),
                "--trace", trace]
            proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("seed %d: exit %d, no result" % (seed, proc.returncode))
                return 1
            result = json.loads(lines[-1])
            out.write(json.dumps({"workload": args.workload, "seed": seed,
                                  "trace": args.trace,
                                  "result": result}) + "\n")
            out.flush()
            print("seed %d: correct=%s attempted=%d failed=%d" % (
                seed, result["correct"], result["attempted"],
                result["failed"]))
            if not result["correct"]:
                return 1
    return 0


def cmd_summary(args):
    bounds = {m["name"]: m.get("bound") for m in spec()["end_to_end"]}
    runs = load(args.runs)
    status = 0
    for workload in workloads(runs):
        print("== %s (%d runs)" % (workload, sum(
            r["workload"] == workload for r in runs)))
        print("%-24s %12s %12s %12s %8s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for name, values in sorted(by_metric(runs, workload).items()):
            median, q1, q3, spread = stats(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag, status = "  OVER BOUND", 1
            elif bound is not None and spread > bound / 3:
                flag = "  above bound/3"
            print("%-24s %12.6g %12.6g %12.6g %8.4f %6s%s" % (
                name, median, q1, q3, spread,
                "" if bound is None else "%.2f" % bound, flag))
    return status


def failed_share(runs, workload):
    shares = {r["result"]["failed"] / r["result"]["attempted"]
              for r in runs if r["workload"] == workload}
    return shares


def cmd_compare(args):
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in spec()["end_to_end"]}
    a, b = load(args.first), load(args.second)
    status = 0
    for workload in workloads(a):
        ma, mb = by_metric(a, workload), by_metric(b, workload)
        print("== %s" % workload)
        for name, (bound, better) in sorted(bounds.items()):
            if name not in ma or name not in mb:
                print("%-24s missing" % name)
                status = 1
                continue
            first = statistics.median(ma[name])
            second = statistics.median(mb[name])
            change = (second - first) / first if first else 0.0
            worse = change if better == "lower" else -change
            verdict = "ok" if worse <= bound else "WORSE THAN BOUND"
            if worse > bound:
                status = 1
            print("%-24s %12.6g -> %12.6g  %+7.2f%%  bound %.2f  %s" % (
                name, first, second, 100 * change, bound, verdict))
        sa, sb = failed_share(a, workload), failed_share(b, workload)
        same = len(sa | sb) == 1
        print("failed share: %s vs %s  %s" % (
            sorted(sa), sorted(sb), "ok" if same else "DIFFERS"))
        if not same:
            status = 1
    return status


def cmd_bounds(args):
    runs = [load(path) for path in args.sets]
    names = [m["name"] for m in spec()["end_to_end"]]
    for workload in workloads(runs[0]):
        print("== %s" % workload)
        for name in names:
            spreads, medians = [], []
            for s in runs:
                values = by_metric(s, workload).get(name)
                if values:
                    median, _, _, spread = stats(values)
                    spreads.append(spread)
                    medians.append(median)
            if not spreads:
                continue
            shift = (max(medians) - min(medians)) / min(medians)
            # The bound must cover the widest spread and the shift seen;
            # three times the spread leaves room for sets not yet run.
            need = max(max(spreads), shift)
            want = max(3 * max(spreads), shift)
            verdict = ("bound %.2f" % min(MAX_BOUND, want) if want <= MAX_BOUND
                       else "bound %.2f, under 3x the spread" % MAX_BOUND
                       if need <= MAX_BOUND else "no bound holds")
            print("%-24s widest spread %.4f, median shift %.4f -> %s" % (
                name, max(spreads), shift, verdict))
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Steadiness tool for BENCHMARK.json")
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", required=True)
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--seconds", type=int, default=0,
                     help="run length (default: run_seconds)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", required=True)
    summary = sub.add_parser("summary")
    summary.add_argument("runs")
    compare = sub.add_parser("compare")
    compare.add_argument("first")
    compare.add_argument("second")
    bounds = sub.add_parser("bounds")
    bounds.add_argument("sets", nargs="+")
    args = parser.parse_args()
    return {"run": cmd_run, "summary": cmd_summary, "compare": cmd_compare,
            "bounds": cmd_bounds}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
