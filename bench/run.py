"""End-to-end and per-layer benchmark of the exact and expansion routes.

usage: python3 bench/run.py --workload NAME [--seed N] --seconds S [--trace 0|1]

Run from the root of a source checkout; the program is imported from ./src.
Every operation runs in a fresh child interpreter, because every CLI user pays
for a cold start.  With --trace 0 the run repeats rounds of (set-up child,
operation child, set-up child) for about S seconds and reports the medians of
wall_s, peak_rss_mb and setup_s.  With --trace 1 it repeats a child that calls
each layer's public functions inside timed spans (bench/child.py) and reports
the median of every span plus counts that must repeat exactly.  Every output
is checked against bench/reference.py, a brute force that shares no code with
ergm_cluster.  A failed operation makes the run incorrect and stays out of the
medians.  The last line of standard output is one JSON object.

The speed of a shared machine swings by up to a factor of two within minutes,
and every interpreter on it speeds up and slows down together.  So each round
is bracketed by a fixed pure-Python loop run in this process, and every time
measured in the round is rescaled to the speed at which that loop takes
CAL_NOMINAL_S: the reported times are seconds at that nominal speed, not raw
wall seconds.  The unscaled medians are printed on the line before the result.

The parent imports only the standard library until every child has been
reaped: a child's ru_maxrss starts from its parent's peak RSS at spawn time,
so a small parent is what makes the child's peak readable from os.wait4.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_ROUNDS = 3
# Length of the calibration loop, and its median time on the 2-CPU box the
# reference figures in bench/README.md come from.
CAL_LOOPS = 2_000_000
CAL_NOMINAL_S = 0.21
SWEEP_POINTS = 320
REL_TOL = 1e-12
# The program's log W is log-sum-exp minus C(n,2) log 2, so its last bits are
# those of a number of size C(n,2) log 2.  A deviation within this many
# rounding units of that number is accepted even where it exceeds REL_TOL
# relative to a tiny log W (see the FOUND line on partition_normalized).
ROUND_ULPS = 16
SETUP_CODE = "import ergm_cluster.cli as c; c.build_parser()"

PER_LAYER_SPANS = (
    "cli.import_s",
    "lattice.support_families_s",
    "lattice.build_interaction_s",
    "coefficients.abar_recursion_s",
    "expansion.kp_certify_s",
    "expansion.polymer_table_s",
    "expansion.truncated_log_partition_s",
    "ensemble.partition_normalized_s",
    "ensemble.motif_hom_table_s",
    "ensemble.psi_n_s",
    "ensemble.expectation_densities_s",
)
PER_LAYER_COUNTS = (
    "lattice.links",
    "expansion.polymers",
    "expansion.connected_link_sets",
    "ensemble.graphs",
    "sweep.points",
)

DIAMOND = {"name": "diamond", "m": 4,
           "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3]]}
MOTIF_SHAPES = {
    "edge": (2, [[0, 1]]),
    "two-star": (3, [[0, 1], [1, 2]]),
    "triangle": (3, [[0, 1], [0, 2], [1, 2]]),
    "diamond": (DIAMOND["m"], DIAMOND["edges"]),
}


def certified_budget(p: int, m: int) -> float:
    """Largest sum of |beta_i| the certificate accepts at the optimal base M.

    The closed form of the paper's convergence region, written out here so the
    inputs depend on the seed alone and stay the same across program versions.
    """
    log_m = (-p + math.sqrt(5.0 * p * p - 4.0 * p)) / (2.0 * p * (p - 1))
    M = math.exp(log_m)
    rhs = log_m * (p - 1) ** p / (2.0 * (M * p) ** p * (1.0 + (p - 1) * log_m))
    return min(rhs, 0.5) / (m * (m - 1))


def budget_betas(rng: random.Random, k: int, p: int, m: int) -> list[float]:
    """k couplings with random signs whose sum of |beta_i| is 20-90 % of the budget."""
    total = certified_budget(p, m) * rng.uniform(0.2, 0.9)
    cuts = sorted(rng.uniform(0.1, 0.9) for _ in range(k - 1))
    shares = [b - a for a, b in zip([0.0] + cuts, cuts + [1.0])]
    return [rng.choice((-1.0, 1.0)) * total * s for s in shares]


@dataclass(frozen=True)
class Job:
    """One workload's generated inputs: motifs, size and parameter points."""

    route: str  # "expand" or "ensemble"
    motifs: tuple[str, ...]  # names; "diamond" is written to a motif file
    n: int
    points: tuple[tuple[float, ...], ...]
    order: int = 0
    max_links: int = 4

    def motif_args(self, tmp: Path) -> list[str]:
        return [str(tmp / "diamond.json") if s == "diamond" else s for s in self.motifs]


def make_job(workload: str, rng: random.Random) -> Job:
    if workload == "expand-mixed-n5":
        betas = budget_betas(rng, 2, p=3, m=3)
        return Job("expand", ("two-star", "triangle"), 5, (tuple(betas),), order=2)
    if workload == "expand-diamond-n4":
        betas = budget_betas(rng, 1, p=5, m=4)
        return Job("expand", ("diamond",), 4, (tuple(betas),), order=4)
    if workload == "exact-edgetri-n6":
        betas = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        return Job("ensemble", ("edge", "triangle"), 6, (betas,))
    if workload == "sweep-edgetri-n6":
        lo, hi = rng.uniform(-1.5, -0.5), rng.uniform(0.5, 1.5)
        tri = rng.uniform(-0.5, 0.5)
        step = (hi - lo) / (SWEEP_POINTS - 1)
        points = tuple((lo + i * step, tri) for i in range(SWEEP_POINTS))
        return Job("ensemble", ("edge", "triangle"), 6, points)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("expand-mixed-n5", "expand-diamond-n4", "exact-edgetri-n6", "sweep-edgetri-n6")


class Children:
    """Spawns child interpreters against ./src and reads their rusage."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.log = tmp / "child.log"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, argv: list[str]) -> tuple[float, float, int]:
        """(wall seconds, peak RSS in MB, exit code) of one child."""
        own_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with open(self.log, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if usage.ru_maxrss <= own_peak:
            raise RuntimeError("child peak RSS is not above the parent's; "
                               "the reading would be the parent's")
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def log_tail(self) -> str:
        return self.log.read_text(errors="replace")[-2000:]

    def setup(self) -> float:
        wall, _, code = self.run([sys.executable, "-c", SETUP_CODE])
        if code != 0:
            raise RuntimeError(f"importing ergm_cluster failed:\n{self.log_tail()}")
        return wall


def op_argv(job: Job, tmp: Path, out: Path) -> list[str]:
    """The untraced operation: the CLI for one point, a library sweep otherwise."""
    if len(job.points) > 1:
        return [sys.executable, str(HERE / "child.py"), "sweep", str(tmp / "spec.json"), str(out)]
    betas = [repr(b) for b in job.points[0]]
    argv = [sys.executable, "-m", "ergm_cluster.cli"]
    if job.route == "expand":
        argv += ["expand", "--motifs", *job.motif_args(tmp), "--betas", *betas,
                 "--n", str(job.n), "--order", str(job.order),
                 "--max-links", str(job.max_links)]
    else:
        argv += ["exact", "--motifs", *job.motif_args(tmp), "--betas", *betas,
                 "--n", str(job.n)]
    return argv + ["--out", str(out)]


def calibrate() -> float:
    """Seconds this interpreter takes for a fixed pure-Python loop."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CAL_LOOPS):
        x = (x * 31 + i) % 1000003
    return time.perf_counter() - t0


def rounds(step, seconds: float) -> list[tuple[object, float]]:
    """Repeat step for about `seconds`, never fewer than MIN_ROUNDS times.

    Each step is bracketed by two calibration loops and returned with its
    speed scale CAL_NOMINAL_S / (mean calibration time): multiplying a time
    measured in the step by the scale gives seconds at nominal speed.
    """
    start = time.perf_counter()
    done = []
    while True:
        before = calibrate()
        result = step()
        after = calibrate()
        done.append((result, 2.0 * CAL_NOMINAL_S / (before + after)))
        elapsed = time.perf_counter() - start
        if len(done) >= MIN_ROUNDS and elapsed * (len(done) + 1) / len(done) > seconds:
            return done


def read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


class Checker:
    """Compares program outputs with the brute-force reference."""

    def __init__(self, job: Job):
        sys.path.insert(0, str(HERE))
        import reference

        patterns = [reference.Pattern(s, MOTIF_SHAPES[s][0],
                                      tuple(tuple(e) for e in MOTIF_SHAPES[s][1]))
                    for s in job.motifs]
        ens = reference.Ensemble(patterns, job.n)
        self.job = job
        self.ref = [ens.values(b) for b in job.points]
        self.sites = ens.sites
        self.log_w_floor = ROUND_ULPS * sys.float_info.epsilon * ens.sites * math.log(2.0)
        self.errors: list[str] = []

    def close(self, what: str, got, want: float, floor: float = 0.0) -> None:
        """|got - want| <= max(REL_TOL * |want|, floor), floor an absolute slack."""
        if got is None or not abs(got - want) <= max(REL_TOL * abs(want), floor):
            self.errors.append(f"{what}: got {got!r}, reference {want!r}")

    def ensemble_point(self, i: int, log_w, psi, phi, expectations) -> None:
        ref = self.ref[i]
        self.close(f"point {i} log W", log_w, ref.log_w, self.log_w_floor)
        self.close(f"point {i} phi_n", phi, ref.phi, self.log_w_floor / self.sites)
        self.close(f"point {i} psi_n", psi, ref.psi)
        for k, (got, want) in enumerate(zip(expectations, ref.expectations)):
            self.close(f"point {i} E[t_{k}]", got, want)
        if len(expectations) != len(ref.expectations):
            self.errors.append(f"point {i}: {len(expectations)} expectations")

    def expansion(self, log_w, partials, tail_bounds, verdict) -> None:
        ref = self.ref[0].log_w
        self.close("log W", log_w, ref, self.log_w_floor)
        if verdict is not True:
            self.errors.append("certificate did not pass inside the budget")
        if len(partials) != self.job.order or len(tail_bounds) != self.job.order:
            self.errors.append(f"expected {self.job.order} orders, got {len(partials)}")
        allowance = REL_TOL * abs(ref)
        for k, (partial, bound) in enumerate(zip(partials, tail_bounds), start=1):
            if bound is None or not abs(partial - ref) <= bound + allowance:
                self.errors.append(f"order {k}: gap {abs(partial - ref)!r} "
                                   f"exceeds tail bound {bound!r}")

    def cli_artifact(self, doc: dict) -> None:
        if self.job.route == "expand":
            rows = doc["orders"]
            self.expansion(doc["log_w_exact"], [r["partial_sum"] for r in rows],
                           [r["tail_bound"] for r in rows], doc["kp"]["verdict"])
        else:
            self.ensemble_point(0, doc["log_w_normalized"], doc["psi_n"],
                                doc["phi_n"], doc["expectations"])

    def points(self, rows: list[dict]) -> None:
        if len(rows) != len(self.ref):
            self.errors.append(f"{len(rows)} points returned, {len(self.ref)} asked")
        for i, row in enumerate(rows):
            self.ensemble_point(i, row["log_w"], row["psi"], row["phi"], row["expectations"])

    def trace(self, out: dict) -> None:
        if self.job.route == "expand":
            self.expansion(out["log_w"], out["partials"], out["tail_bounds"], out["verdict"])
        else:
            self.points(out["points"])


def measure_end_to_end(job: Job, kids: Children, seconds: float):
    out = kids.tmp / "out.json"
    argv = op_argv(job, kids.tmp, out)
    docs: list = []
    failed = 0

    def step():
        nonlocal failed
        first = kids.setup()
        if out.exists():
            out.unlink()
        wall, rss, code = kids.run(argv)
        second = kids.setup()
        if code != 0:
            failed += 1
            sys.stderr.write(f"operation exited {code}:\n{kids.log_tail()}\n")
            return None
        docs.append(read_json(out))
        return wall, rss, (first, second)

    attempted = rounds(step, seconds)
    # A failed operation makes the run incorrect, and its times stay out of
    # the medians.
    done = [(r, scale) for r, scale in attempted if r is not None]
    if not done:
        return len(attempted), failed, docs, None
    walls = [wall * scale for (wall, _, _), scale in done]
    setups = [s * scale for (_, _, pair), scale in done for s in pair]
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r[1] for r, _ in done), "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }
    print(f"{len(done)} rounds; unscaled medians: wall "
          f"{statistics.median(r[0] for r, _ in done):.4f} s, setup "
          f"{statistics.median(s for r, _ in done for s in r[2]):.4f} s; "
          f"speed scale {statistics.median(sc for _, sc in done):.4f}")
    return len(attempted), failed, docs, metrics


def measure_layers(job: Job, kids: Children, seconds: float):
    out = kids.tmp / "trace.json"
    argv = [sys.executable, str(HERE / "child.py"), "trace", str(kids.tmp / "spec.json"), str(out)]
    docs: list = []
    failed = 0

    def step():
        nonlocal failed
        if out.exists():
            out.unlink()
        wall, _, code = kids.run(argv)
        if code != 0:
            failed += 1
            sys.stderr.write(f"traced child exited {code}:\n{kids.log_tail()}\n")
            return None
        doc = read_json(out)
        if not Path(doc["package"]).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"ergm_cluster was imported from {doc['package']}, not ./src")
        docs.append(doc)
        return wall, doc["spans"]

    attempted = rounds(step, seconds)
    done = [(r, scale) for r, scale in attempted if r is not None]
    if not done:
        return len(attempted), failed, docs, None, []
    metrics = {}
    for name in PER_LAYER_SPANS:
        spans = [r[1].get(name, 0.0) * scale for r, scale in done]
        metrics[name] = {"value": statistics.median(spans), "unit": "s"}
    walls = [r[0] * scale for r, scale in done]
    metrics["trace.total_s"] = {"value": statistics.median(walls), "unit": "s"}
    counts = [d["counts"] for d in docs]
    for name in PER_LAYER_COUNTS:
        metrics[name] = {"value": counts[0].get(name, 0), "unit": "count"}
    metrics["src.lines"] = {"value": src_lines(), "unit": "count"}
    return len(attempted), failed, docs, metrics, counts


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ergm_cluster" / "cli.py").is_file():
        sys.stderr.write(f"no ergm_cluster sources under {SRC}; run from a source checkout\n")
        return 1

    job = make_job(args.workload, random.Random(f"{args.workload}/{args.seed}"))
    with tempfile.TemporaryDirectory(prefix=".bench_out-", dir=ROOT) as tmpdir:
        tmp = Path(tmpdir)
        (tmp / "diamond.json").write_text(json.dumps(DIAMOND))
        spec = {"route": job.route, "motifs": job.motif_args(tmp), "n": job.n,
                "order": job.order, "max_links": job.max_links,
                "points": [list(p) for p in job.points]}
        (tmp / "spec.json").write_text(json.dumps(spec))
        kids = Children(tmp)
        kids.setup()  # warm-up: a fresh checkout compiles its bytecode here
        if args.trace:
            attempted, failed, docs, metrics, counts = measure_layers(job, kids, args.seconds)
        else:
            attempted, failed, docs, metrics = measure_end_to_end(job, kids, args.seconds)
            counts = []
    if metrics is None:
        sys.stderr.write(f"all {attempted} operations failed; nothing was measured\n")
        return 1

    checker = Checker(job)
    for doc in docs:
        if args.trace:
            checker.trace(doc)
        elif len(job.points) > 1:
            checker.points(doc["points"])
        else:
            checker.cli_artifact(doc)
    if any(c != counts[0] for c in counts):
        checker.errors.append(f"counts differ between rounds: {counts}")
    if failed:
        checker.errors.append(f"{failed} of {attempted} operations failed")
    for err in checker.errors[:20]:
        sys.stderr.write(f"check failed: {err}\n")
    result = {"correct": not checker.errors, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
