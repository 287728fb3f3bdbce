"""Tests of the benchmark's brute-force reference against closed forms.

Run with: python3 -m pytest bench/test_bench_reference.py
"""

import math

import pytest

from reference import EDGE, TRIANGLE, TWO_STAR, Ensemble, Pattern, adjacency_stack, \
    enumerated_homs, hom_counts


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("beta", [-3.0, -0.7, -1e-9, 0.0, 3e-7, 0.35, 1.2, 30.0])
def test_pure_edge_closed_form(n, beta):
    # Each of the C(n,2) sites is occupied independently with odds exp(2 beta).
    sites = n * (n - 1) // 2
    got = Ensemble([EDGE], n).values([beta])
    psi = sites / n ** 2 * math.log1p(math.exp(2 * beta))
    log_w = sites * math.log1p(math.expm1(2 * beta) / 2)
    occupied = 1 / (1 + math.exp(-2 * beta))
    assert got.psi == pytest.approx(psi, rel=1e-14)
    assert got.log_w == pytest.approx(log_w, rel=1e-13, abs=1e-300)
    assert got.phi == pytest.approx(log_w / sites, rel=1e-13, abs=1e-300)
    assert got.expectations[0] == pytest.approx(2 * sites * occupied / n ** 2, rel=1e-14)


@pytest.mark.parametrize("H", [EDGE, TWO_STAR, TRIANGLE])
def test_formulas_match_enumerated_maps(H):
    A = adjacency_stack(5)
    assert (hom_counts(H, A) == enumerated_homs(H, A)).all()


def test_complete_graph_counts():
    n = 5
    A = adjacency_stack(n)[-1:]  # the last code has every site occupied
    assert hom_counts(EDGE, A)[0] == n * (n - 1)
    assert hom_counts(TWO_STAR, A)[0] == n * (n - 1) ** 2
    assert hom_counts(TRIANGLE, A)[0] == n * (n - 1) * (n - 2)
    diamond = Pattern("diamond", 4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)))
    assert hom_counts(diamond, A)[0] == n * (n - 1) * (n - 2) ** 2


def test_rejects_misaligned_couplings():
    with pytest.raises(ValueError):
        Ensemble([EDGE, TRIANGLE], 3).values([0.1])
