#!/usr/bin/env python3
"""Steadiness check for the benchmark described in BENCHMARK.json.

Runs the benchmark command once per seed on each workload and reports, per
end-to-end metric, the median and the spread (interquartile range as a share
of the median, from statistics.quantiles(values, n=4)) against a third of the
metric's bound. Beside the normalised op time it reports the same spread of the
raw wall clock (host.raw_op_p50_ms) and of the reference kernel (host.ref_us),
so a drifting host shows as a drifting host.

setup_s is the one metric whose spread is shown but not gated: it is the median
of 15 set-ups, not of hundreds of ops, so one run's value spreads more (see
pulsebench/README.md). Its median shift against an earlier set (--against) is
gated like every other metric's.

    python3 pulsebench/steady.py --seeds 10 [--workloads a,b] [--save F] [--against F]

Run from the repository root. --save writes the per-run values as JSON;
--against compares this set's medians with a saved set (the second median
may not be worse than the first by more than the bound).
"""

import argparse
import json
import re
import statistics
import subprocess
import sys

DRIFT = re.compile(r"host\.ref_us=([\d.]+) .*host\.raw_op_p50_ms=([\d.]+)")


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    m = statistics.median(values)
    return (q3 - q1) / m if m else 0.0


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr}")
    out = json.loads(p.stdout.strip().splitlines()[-1])
    if not out["correct"]:
        sys.exit(f"{workload} seed {seed}: output checks failed\n{p.stderr}")
    values = {k: v["value"] for k, v in out["metrics"].items()}
    drift = DRIFT.search(p.stderr)
    if drift:
        values["host.ref_us"] = float(drift.group(1))
        values["host.raw_op_p50_ms"] = float(drift.group(2))
    return values


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads")
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    runs = {w: [run_once(bench, w, s) for s in seeds] for w in names}
    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f, indent=1)
    earlier = None
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)

    ok = True
    for w, rows in runs.items():
        print(f"{w} ({len(rows)} seeds)")
        for name in list(bounds) + ["host.raw_op_p50_ms", "host.ref_us"]:
            values = [r[name] for r in rows if name in r]
            if len(values) < 2:
                continue
            m, sp = statistics.median(values), spread(values)
            bound = bounds.get(name)
            line = f"  {name:20s} median {m:12.5g}  spread {sp:6.3f}"
            if bound is not None:
                gate = "not gated" if name == "setup_s" else "ok" if sp < bound / 3 else "WIDE"
                ok &= name == "setup_s" or sp < bound / 3
                line += f"  bound {bound:5.3f}  {gate}"
            if earlier and bound is not None and w in earlier:
                m0 = statistics.median([r[name] for r in earlier[w]])
                better = next(x["better"] for x in bench["end_to_end"] if x["name"] == name)
                worse = (m - m0) / m0 if better == "lower" else (m0 - m) / m0
                flag = "ok" if worse <= bound else "SHIFT"
                ok &= worse <= bound
                line += f"  vs earlier {worse:+.3f} {flag}"
            print(line)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
