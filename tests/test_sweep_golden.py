"""The exact route's bits, pinned across versions.

tests/data/sweep_golden.json holds float.hex of log W, psi, phi and every
expectation at 64 ladder points of three families.  The ladders include points
where two link classes take one value, points where a class's value is zero,
and points on both branches of log W (log1p of the mean expm1, and the shifted
log-sum-exp).  A 1-ulp drift in any output fails here, where the mpmath checks
allow a tolerance.  Regenerate the file only for a deliberate change of
results:

    PYTHONPATH=src python tests/test_sweep_golden.py
"""

import json
from pathlib import Path

import pytest

from ergm_cluster import (
    BUILTIN_MOTIFS,
    build_interaction,
    ensemble_result,
    partition_normalized,
)
from ergm_cluster.lattice import _link_table

from oracles import expectations_by_graph, psi_by_graph

GOLDEN = Path(__file__).parent / "data" / "sweep_golden.json"

FAMILIES = [(("edge", "triangle"), 6), (("two-star", "triangle"), 5),
            (("edge", "two-star", "triangle"), 6)]


def _ladder(names):
    """64 points: a sign-alternating ladder plus hand-placed special points.

    Special points per family: two classes with one value, a class at zero,
    all of K zero, a largest energy past 700, a mean weight under 1/2, and
    betas near 1e-300 and past 10.
    """
    k = len(names)
    special = {
        ("edge", "triangle"): [
            # K = 2 b1 on the edges, b2 on the triangles
            (0.1, 0.2), (-0.35, -0.7), (0.0625, 0.125), (0.0, 0.3), (0.4, 0.0), (0.0, 0.0),
            (30.0, 0.1), (25.0, -1.0), (-2.0, 0.5), (-0.9, -0.9), (1e-300, 2e-300),
            (1e-3, -1e-3), (-40.0, 0.0), (5.0, -5.0), (3.0, -3.0), (-0.5, 4.0)],
        ("two-star", "triangle"): [
            # K = 2 b1 / 5 on edges and two-paths, 6 b2 / 5 on the triangles
            (0.3, 0.1), (-1.5, -0.5), (0.75, 0.25), (0.0, 0.4), (0.6, 0.0), (0.0, 0.0),
            (200.0, 1.0), (150.0, -3.0), (-8.0, 0.5), (-3.0, -3.0), (3e-300, 1e-300),
            (1e-3, -1e-3), (-100.0, 0.0), (20.0, -20.0), (9.0, -6.0), (-2.0, 12.0)],
        ("edge", "two-star", "triangle"): [
            # K = 2 b1 + b2 / 3 on edges, b2 / 3 on two-paths, b3 on triangles
            (0.0, 0.6, 0.5), (0.125, 0.75, 0.5), (0.0, 0.75, 0.25), (-0.125, 0.75, 0.3),
            (0.4, 0.0, 0.2), (0.0, 0.0, 0.0), (25.0, 3.0, 0.1), (-2.0, 0.3, 0.5),
            (-0.9, -0.9, -0.9), (1e-300, 3e-300, 2e-300), (1e-3, -1e-3, 1e-3),
            (-40.0, 0.0, 0.0), (5.0, -5.0, 1.0), (0.2, 0.0, 0.0), (0.0, 0.0, 0.7),
            (-0.5, 2.0, 4.0)],
    }[names]
    signs = (0.3, -0.2, 0.05, -0.45)
    ladder = [(-1.2 + 0.05 * i, *(signs[(i + j) % 4] for j in range(k - 1)))
              for i in range(64 - len(special))]
    return [tuple(map(float, p)) for p in special + ladder]


def _outputs(motifs, betas, n):
    res = ensemble_result(motifs, betas, n)
    return {"log_w": res.log_w_normalized.hex(), "psi": res.psi.hex(),
            "phi": res.phi.hex(), "expectations": [e.hex() for e in res.expectations]}


def _golden():
    return json.loads(GOLDEN.read_text())["families"]


def _motifs(names):
    return [BUILTIN_MOTIFS[x] for x in names]


@pytest.mark.parametrize("family", range(len(FAMILIES)))
def test_every_output_bit_for_bit(family):
    entry = _golden()[family]
    motifs, n = _motifs(entry["motifs"]), entry["n"]
    for point in entry["points"]:
        betas = [float.fromhex(b) for b in point["betas"]]
        want = {key: point[key] for key in ("log_w", "psi", "phi", "expectations")}
        assert _outputs(motifs, betas, n) == want, betas
        # build_interaction's K reaches the same histogram and the same bits
        got = partition_normalized(build_interaction(motifs, betas, n))
        assert got.hex() == point["log_w"], betas


@pytest.mark.parametrize("family", range(len(FAMILIES)))
def test_ladder_covers_merges_zeros_and_both_branches(family):
    entry = _golden()[family]
    motifs, n = _motifs(entry["motifs"]), entry["n"]
    assert len(entry["points"]) == 64
    classes = _link_table(tuple(motifs), n).classes
    merged = zero = shifted = plain = 0
    for point in entry["points"]:
        K = build_interaction(motifs, [float.fromhex(b) for b in point["betas"]], n)
        values = [K.k_map.get(c[0], 0.0) for c in classes]
        nonzero = [v for v in values if v]
        merged += len(set(nonzero)) < len(nonzero)
        zero += 0 < len(nonzero) < len(values)
        log_w = float.fromhex(point["log_w"])
        # shifted: W < 1/2, or the complete graph's energy is past 700;
        # plain: W > 1/2 and every energy is below 700
        shifted += log_w < -1.0 or sum(K.k_map.values()) > 800.0
        plain += log_w > -0.5 and sum(map(abs, K.k_map.values())) < 600.0
    assert min(merged, zero, shifted, plain) >= 2, (merged, zero, shifted, plain)


@pytest.mark.parametrize("family", range(len(FAMILIES)))
def test_psi_and_expectations_match_the_per_graph_oracles(family):
    # psi and log W read one histogram, so the identity between them checks
    # neither; the per-graph sums over the numpy-walk hom tables share no
    # table with the library.  They form each log-weight as the library does,
    # so only the sums differ: psi within 1e-14 relative plus 1e-15 / n^2 for
    # log z near 0, each expectation, a sum of positive terms, within 1e-14
    # relative.
    entry = _golden()[family]
    motifs, n = _motifs(entry["motifs"]), entry["n"]
    for point in entry["points"]:
        betas = [float.fromhex(b) for b in point["betas"]]
        res = ensemble_result(motifs, betas, n)
        want = psi_by_graph(motifs, betas, n)
        assert abs(res.psi - want) <= 1e-14 * abs(want) + 1e-15 / (n * n), betas
        for e, w in zip(res.expectations, expectations_by_graph(motifs, betas, n), strict=True):
            assert abs(e - w) <= 1e-14 * abs(w), betas


def main():
    families = []
    for names, n in FAMILIES:
        motifs = _motifs(names)
        points = []
        for betas in _ladder(names):
            points.append({"betas": [b.hex() for b in betas], **_outputs(motifs, betas, n)})
        families.append({"motifs": list(names), "n": n, "points": points})
    GOLDEN.write_text(json.dumps({"families": families}, indent=1) + "\n")


if __name__ == "__main__":
    main()
