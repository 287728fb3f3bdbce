import math
import random
from pathlib import Path

import pytest

import numpy as np

from ergm_cluster import (
    GuardExceeded,
    Motif,
    build_interaction,
    derivative_check,
    ensemble_result,
    expectation_densities,
    partition_normalized,
    phi_n,
    psi_n,
    graph_from_mask,
    hom_count,
    results_csv,
)
from ergm_cluster.ensemble import csv_header, csv_row, motif_hom_table
from ergm_cluster.graphs import all_edge_sites

DATA = Path(__file__).parent / "data"


def edge_log_w(n: int, beta: float) -> float:
    # independent edges: W = prod over sites of (1 + e^{2 beta}) / 2
    return n * (n - 1) // 2 * (math.log1p(math.exp(2 * beta)) - math.log(2.0))


class TestPartition:
    def test_empty_interaction(self, edge):
        K = build_interaction([edge], [0.0], 4)
        assert partition_normalized(K) == 0.0

    def test_edge_model_closed_form(self, edge):
        for n in (3, 4, 5):
            for beta in (-0.7, -0.1, 0.2, 0.9):
                K = build_interaction([edge], [beta], n)
                assert partition_normalized(K) == pytest.approx(
                    edge_log_w(n, beta), abs=1e-12)

    def test_guard_raise_and_force(self, edge):
        K = build_interaction([edge], [0.3], 7)
        with pytest.raises(GuardExceeded):
            partition_normalized(K)
        got = partition_normalized(K, force=True)
        assert got == pytest.approx(edge_log_w(7, 0.3), abs=1e-11)

    def test_deterministic_bitwise(self, two_star, triangle):
        K = build_interaction([two_star, triangle], [0.04, -0.03], 4)
        assert partition_normalized(K) == partition_normalized(K)

    def test_phi_is_log_w_per_site(self, two_star):
        K = build_interaction([two_star], [0.05], 4)
        assert phi_n(K) == pytest.approx(partition_normalized(K) / 6, abs=1e-15)


class TestPsi:
    def test_uniform_measure_at_zero(self, edge):
        for n in (3, 4, 5):
            sites = n * (n - 1) // 2
            assert psi_n([edge], [0.0], n) == pytest.approx(
                sites * math.log(2.0) / (n * n), abs=1e-14)

    def test_edge_closed_form(self, edge):
        n, beta = 5, 0.3
        want = (10 / 25) * math.log1p(math.exp(2 * beta))
        assert psi_n([edge], [beta], n) == pytest.approx(want, abs=1e-12)

    def test_bookkeeping_identity(self, edge, two_star, triangle):
        for motifs, betas in (([edge], [0.4]),
                              ([two_star], [-0.2]),
                              ([edge, triangle], [0.05, 0.02])):
            for n in (3, 4, 5):
                K = build_interaction(motifs, betas, n)
                sites = n * (n - 1) // 2
                rhs = (sites * math.log(2.0) + partition_normalized(K)) / (n * n)
                assert psi_n(motifs, betas, n) == pytest.approx(rhs, abs=1e-12)

    def test_convex_along_random_segments(self, edge, triangle):
        rng = random.Random(11)
        for _ in range(10):
            a = [rng.uniform(-0.8, 0.8) for _ in range(2)]
            b = [rng.uniform(-0.8, 0.8) for _ in range(2)]
            mid = [(x + y) / 2 for x, y in zip(a, b)]
            fa = psi_n([edge, triangle], a, 4)
            fb = psi_n([edge, triangle], b, 4)
            fm = psi_n([edge, triangle], mid, 4)
            assert fm <= (fa + fb) / 2 + 1e-12


class TestExpectations:
    def test_independent_edges_at_zero(self, edge, triangle):
        for n in (3, 4, 5):
            e_edge, e_tri = expectation_densities([edge, triangle], [0.0, 0.0], n)
            assert e_edge == pytest.approx((n - 1) / (2 * n), abs=1e-12)
            assert e_tri == pytest.approx(n * (n - 1) * (n - 2) / (8 * n ** 3), abs=1e-12)

    def test_large_negative_beta_suppresses_edges(self, edge):
        (val,) = expectation_densities([edge], [-5.0], 4)
        assert val < 1e-3

    def test_large_positive_beta_saturates(self, edge):
        (val,) = expectation_densities([edge], [5.0], 4)
        assert val == pytest.approx(12 / 16, abs=1e-3)


class TestDerivative:
    def test_at_zero(self, edge):
        fd, ev = derivative_check([edge], [0.0], 4, 0)
        assert ev == pytest.approx(0.375, abs=1e-12)
        assert abs(fd - ev) <= 1e-6

    def test_edge_model(self, edge):
        fd, ev = derivative_check([edge], [0.3], 4, 0)
        assert abs(fd - ev) <= 1e-6

    def test_two_star_model(self, two_star):
        fd, ev = derivative_check([two_star], [0.01], 4, 0)
        assert abs(fd - ev) <= 1e-6


class TestResultPlumbing:
    def test_result_consistency(self, edge, triangle):
        res = ensemble_result([edge, triangle], [0.05, 0.02], 4)
        assert res.phi == pytest.approx(res.log_w_normalized / 6, abs=1e-15)
        rhs = (6 / 16) * (math.log(2.0) + res.phi)
        assert res.psi == pytest.approx(rhs, abs=1e-12)
        assert len(res.expectations) == 2

    def test_csv_layout(self, edge, triangle):
        res = ensemble_result([edge, triangle], [0.05, 0.02], 4)
        assert csv_header(2) == "n,beta_1,beta_2,psi_n,phi_n,E_1,E_2"
        row = csv_row(res)
        cells = row.split(",")
        assert cells[0] == "4" and len(cells) == 7
        # 17 significant digits round-trip
        assert float(cells[3]) == res.psi

    def test_golden_csv(self, edge, triangle):
        res = ensemble_result([edge, triangle], [0.05, 0.02], 4)
        assert results_csv([res]) == (DATA / "ensemble_golden.csv").read_text()

    def test_results_csv_validation(self, edge, triangle):
        with pytest.raises(ValueError):
            results_csv([])
        a = ensemble_result([edge], [0.1], 3)
        b = ensemble_result([edge, triangle], [0.1, 0.2], 3)
        with pytest.raises(ValueError):
            results_csv([a, b])

    def test_result_shares_one_weight_vector(self, two_star, triangle):
        motifs, betas = [two_star, triangle], [0.04, -0.03]
        for n in (3, 4, 5):
            res = ensemble_result(motifs, betas, n)
            assert res.psi == psi_n(motifs, betas, n)
            assert list(res.expectations) == expectation_densities(motifs, betas, n)

    def test_hom_table_is_frozen(self, two_star):
        table = motif_hom_table(two_star, 4)
        assert not table.flags.writeable
        assert table.dtype == np.int64 and len(table) == 1 << 6


def _motif(name, m, edges):
    return Motif(name, m, frozenset(edges))


ORACLE_MOTIFS = [
    _motif("edge", 2, [(0, 1)]),
    _motif("two-star", 3, [(0, 1), (1, 2)]),
    _motif("triangle", 3, [(0, 1), (0, 2), (1, 2)]),
    _motif("diamond", 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    _motif("K4", 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    _motif("P4", 4, [(0, 1), (1, 2), (2, 3)]),
    _motif("two-edges", 4, [(0, 1), (2, 3)]),
    _motif("edge+isolated", 3, [(0, 1)]),
]


def _adjacency_stack(n):
    """Adjacency matrices of every graph on n vertices, in bitmask order."""
    masks = np.arange(1 << len(all_edge_sites(n)))
    A = np.zeros((len(masks), n, n), dtype=np.int64)
    for k, (u, v) in enumerate(all_edge_sites(n)):
        A[:, u, v] = A[:, v, u] = masks >> k & 1
    return A


class TestHomTable:
    @pytest.mark.parametrize("H", ORACLE_MOTIFS, ids=lambda H: H.name)
    def test_matches_backtracking_on_every_mask(self, H):
        for n in range(1, 6):
            want = [hom_count(H, graph_from_mask(n, mask))
                    for mask in range(1 << len(all_edge_sites(n)))]
            assert motif_hom_table(H, n).tolist() == want

    def test_closed_forms_at_n6(self, edge, two_star, triangle):
        A = _adjacency_stack(6)
        deg = A.sum(axis=2)
        assert len(A) == 32768
        assert np.array_equal(motif_hom_table(edge, 6), deg.sum(axis=1))
        assert np.array_equal(motif_hom_table(two_star, 6), (deg * deg).sum(axis=1))
        assert np.array_equal(motif_hom_table(triangle, 6),
                              np.einsum("gij,gjk,gki->g", A, A, A))
