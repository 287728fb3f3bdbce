"""Library-side operations of the benchmark, each run in a fresh interpreter.

usage: python3 bench/child.py sweep|trace SPEC_JSON OUT_JSON

sweep  calls ergm_cluster.ensemble_result at every point of the spec, the way
       a library user sweeps a model (demos/exact_free_energy.py).
trace  runs the workload's operation layer by layer: each public function is
       called cold, in the order the CLI reaches it, inside a timed span.  A
       memoised table is charged to the public function that fills it, so
       support_families runs before build_interaction, motif_hom_table before
       psi_n, and abar_recursion before kp_certify.  Counts are taken outside
       the spans.

Floats are written with repr, so the parent reads back the exact values.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Spans:
    """Summed wall time per span name."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)

    @contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - t0


def sweep(spec: dict) -> dict:
    from ergm_cluster import ensemble_result, load_motif

    motifs = [load_motif(s) for s in spec["motifs"]]
    rows = []
    for betas in spec["points"]:
        res = ensemble_result(motifs, betas, spec["n"])
        rows.append({"log_w": res.log_w_normalized, "psi": res.psi, "phi": res.phi,
                     "expectations": list(res.expectations)})
    return {"points": rows}


def _trace_ensemble(spec: dict, spans: Spans, ec) -> dict:
    """Layers of ensemble_result, once per point of the spec."""
    motifs = [ec.load_motif(s) for s in spec["motifs"]]
    n = spec["n"]
    sites = n * (n - 1) // 2
    rows = []
    links = 0
    for betas in spec["points"]:
        with spans.span("lattice.support_families_s"):
            for H in motifs:
                ec.support_families(H, n)
        with spans.span("lattice.build_interaction_s"):
            K = ec.build_interaction(motifs, betas, n)
        with spans.span("ensemble.partition_normalized_s"):
            log_w = ec.partition_normalized(K)
        with spans.span("ensemble.motif_hom_table_s"):
            for H in motifs:
                ec.motif_hom_table(H, n)
        with spans.span("ensemble.psi_n_s"):
            psi = ec.psi_n(motifs, betas, n)
        with spans.span("ensemble.expectation_densities_s"):
            expect = ec.expectation_densities(motifs, betas, n)
        links = len(K)
        rows.append({"log_w": log_w, "psi": psi, "phi": log_w / sites,
                     "expectations": list(expect)})
    counts = {"lattice.links": links, "ensemble.graphs": 1 << sites,
              "sweep.points": len(spec["points"])}
    return {"points": rows, "counts": counts}


def _trace_expand(spec: dict, spans: Spans, ec) -> dict:
    """Layers of expansion_report for one parameter point."""
    motifs = [ec.load_motif(s) for s in spec["motifs"]]
    n, order, max_links = spec["n"], spec["order"], spec["max_links"]
    (betas,) = spec["points"]
    sites = n * (n - 1) // 2
    with spans.span("lattice.support_families_s"):
        for H in motifs:
            ec.support_families(H, n)
    with spans.span("lattice.build_interaction_s"):
        K = ec.build_interaction(motifs, betas, n)
    p = K.p_max
    norm = ec.banach_norm(K)
    M = ec.optimal_M(p) if p >= 2 else 2.0
    if 0.0 < norm <= 0.5:
        # kp_certify's analytic tail reads this memoised table (order 30).
        with spans.span("coefficients.abar_recursion_s"):
            ec.abar_recursion(p, norm, M, 30)
    with spans.span("expansion.kp_certify_s"):
        cert = ec.kp_certify(K, M, max_links)
    with spans.span("expansion.polymer_table_s"):
        polymers = ec.polymer_table(K, max_links)
    with spans.span("expansion.truncated_log_partition_s"):
        partials = ec.truncated_log_partition(K, order, max_links)
    with spans.span("ensemble.partition_normalized_s"):
        log_w = ec.partition_normalized(K)
    _, tail_fn = ec.radius_and_tail(p, norm, M)
    connected = sum(1 for _ in ec.enumerate_connected_hypergraphs(K, max_links))
    return {
        "log_w": log_w,
        "partials": partials,
        "tail_bounds": [sites * tail_fn(k) for k in range(1, order + 1)],
        "verdict": cert.verdict,
        "counts": {"lattice.links": len(K), "expansion.polymers": len(polymers),
                   "expansion.connected_link_sets": connected,
                   "ensemble.graphs": 1 << sites, "sweep.points": 1},
    }


def trace(spec: dict) -> dict:
    spans = Spans()
    with spans.span("cli.import_s"):
        import ergm_cluster as ec
        import ergm_cluster.cli  # noqa: F401
    if spec["route"] == "expand":
        out = _trace_expand(spec, spans, ec)
    else:
        out = _trace_ensemble(spec, spans, ec)
    out["spans"] = dict(spans.seconds)
    out["package"] = ec.__file__
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[0] not in ("sweep", "trace"):
        sys.stderr.write(__doc__)
        return 2
    mode, spec_path, out_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    out = sweep(spec) if mode == "sweep" else trace(spec)
    with open(out_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
