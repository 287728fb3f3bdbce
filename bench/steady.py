"""Steadiness self-check: two sets of benchmark runs of the same code.

usage: python3 bench/steady.py [--seeds K] [--sets S] [--workload NAME ...]

Runs bench/run.py K times per workload in each of S sets, each run with its
own seed, with the workloads interleaved so that a drift in machine speed
falls on all of them alike.  Each run is printed as one JSON line.  The
summary gives, per workload and end-to-end metric, each set's median and its
spread (quartile distance over the median, from statistics.quantiles with
n=4), the change of the last set's median against the first, and the
metric's bound from BENCHMARK.json.  A check fails if any spread, or the size
of the change in either direction, exceeds the bound, if a run reports
incorrect outputs or a failed operation, or if a count differs between the
traced runs (one per workload and set).  Exits 1 if a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    """The run's result object and the lines it printed before it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args(argv)
    workloads = args.workload or names
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    results: dict = {}
    counts: dict = {}
    for s in range(args.sets):
        for k in range(args.seeds):
            seed = 1 + s * args.seeds + k
            for w in workloads:
                res, notes = run(w, seed, seconds, 0)
                print(json.dumps({"set": s, "seed": seed, "workload": w, "result": res,
                                  "notes": notes}), flush=True)
                results.setdefault((w, s), []).append(res)
        for w in workloads:
            res, _ = run(w, 1 + s * args.seeds, seconds, 1)
            print(json.dumps({"set": s, "workload": w, "trace": res}), flush=True)
            counts[(w, s)] = {k: v["value"] for k, v in res["metrics"].items()
                              if v["unit"] == "count"}

    ok = True
    print(f"\n{'workload':<20} {'metric':<12} " + " ".join(
        f"{'median' + str(s):>10} {'spread' + str(s):>8}" for s in range(args.sets))
        + f" {'change':>7} {'bound':>6}")
    for w in workloads:
        runs = [results[(w, s)] for s in range(args.sets)]
        if any(not r["correct"] for rs in runs for r in rs):
            print(f"{w}: a run reported incorrect outputs")
            ok = False
        if any(r["failed"] for rs in runs for r in rs):
            print(f"{w}: a run had failed operations")
            ok = False
        if any(counts[(w, s)] != counts[(w, 0)] for s in range(args.sets)):
            print(f"{w}: counts differ between sets")
            ok = False
        for name, m in bounds.items():
            vals = [[r["metrics"][name]["value"] for r in rs] for rs in runs]
            meds = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals]
            change = (meds[-1] - meds[0]) / meds[0]
            bad = abs(change) > m["bound"] or max(spreads) > m["bound"]
            ok = ok and not bad
            cells = " ".join(f"{md:>10.4f} {sp:>8.3f}" for md, sp in zip(meds, spreads))
            print(f"{w:<20} {name:<12} {cells} {change:>7.3f} {m['bound']:>6.2f}"
                  + ("  OVER" if bad else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
