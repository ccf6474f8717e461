#!/usr/bin/env python3
"""Steadiness check: repeated runs, medians and spreads, set comparison.

    python3 perfbench/steady.py run --runs 10 [--workloads explore,public]
        [--seed0 1] [--seconds S] [--trace 0|1] --out set.json
    python3 perfbench/steady.py compare base.json new.json

`run` runs perfbench/run.py N times per workload, each with its own seed
(seed0, seed0+1, ...), keeps every result record, and prints each metric's
median and interquartile spread: (Q3 - Q1) / median, with Q1 and Q3 from
statistics.quantiles(values, n=4). A spread wider than the metric's bound
in BENCHMARK.json is flagged UNRESOLVED (a change to it cannot be told
from noise); wider than a third of the bound, NOISY.

`compare` reads two saved sets and judges each end-to-end metric of each
workload: REGRESSION when the new median is worse than the base median by
more than the bound, UNRESOLVED when either set's spread exceeds the
bound (unless every new run beats every base run), else OK.
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
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, metrics


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def run_set(args):
    spec, bounds = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    out = {"seconds": seconds, "trace": args.trace, "runs": {}}
    for w in workloads:
        records = []
        for i in range(args.runs):
            seed = args.seed0 + i
            proc = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", w, "--seed", str(seed), "--seconds",
                 str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stdout + proc.stderr)
                sys.exit("run failed: %s seed %d (exit %d)" %
                         (w, seed, proc.returncode))
            result = json.loads(lines[-1])
            prov = next((l[len("provenance "):] for l in lines
                         if l.startswith("provenance ")), "{}")
            records.append({"seed": seed, "result": result,
                            "provenance": json.loads(prov)})
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.6g" % (k, v["value"])
                for k, v in result["metrics"].items())), flush=True)
        out["runs"][w] = records
        report(w, records, bounds)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)


def values_of(records):
    vals = {}
    for r in records:
        for k, v in r["result"]["metrics"].items():
            vals.setdefault(k, []).append(v["value"])
    return vals


def report(workload, records, bounds):
    print("\n%s: %d runs" % (workload, len(records)))
    print("  %-34s %14s %9s %7s  %s" % ("metric", "median", "spread",
                                        "bound", "verdict"))
    for name, vals in values_of(records).items():
        med, sp = spread(vals)
        bound = bounds.get(name, {}).get("bound")
        verdict = ""
        if bound is not None:
            verdict = ("UNRESOLVED" if sp > bound else
                       "NOISY" if sp > bound / 3 else "steady")
        print("  %-34s %14.6g %8.2f%% %7s  %s" % (
            name, med, 100 * sp, "" if bound is None else "%.0f%%" %
            (100 * bound), verdict))


def compare(args):
    _, bounds = load_spec()
    with open(args.base) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    worst = 0
    for w, records in new["runs"].items():
        if w not in base["runs"]:
            continue
        b_vals, n_vals = values_of(base["runs"][w]), values_of(records)
        print("\n%s" % w)
        for name, nv in n_vals.items():
            spec = bounds.get(name)
            if spec is None or "bound" not in spec or name not in b_vals:
                continue
            bv = b_vals[name]
            b_med, b_sp = spread(bv)
            n_med, n_sp = spread(nv)
            sign = 1 if spec["better"] == "lower" else -1
            worse = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
            all_better = (max(nv) < min(bv) if sign > 0 else
                          min(nv) > max(bv))
            if worse > spec["bound"]:
                verdict = "REGRESSION"
                worst = max(worst, 2)
            elif max(b_sp, n_sp) > spec["bound"] and not all_better:
                verdict = "UNRESOLVED"
                worst = max(worst, 1)
            else:
                verdict = "OK"
            print("  %-20s base %12.6g  new %12.6g  worse %+7.2f%%  "
                  "spreads %.2f%%/%.2f%%  bound %.0f%%  %s" % (
                      name, b_med, n_med, 100 * worse, 100 * b_sp,
                      100 * n_sp, 100 * spec["bound"], verdict))
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--workloads", default="")
    r.add_argument("--seed0", type=int, default=1)
    r.add_argument("--seconds", type=float, default=0)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", default="")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("new")
    args = parser.parse_args()
    if args.cmd == "run":
        run_set(args)
        return 0
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
