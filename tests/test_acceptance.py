"""End-to-end checks, one test per shipped guarantee.

Each test is self-contained and prints one pass/fail line under pytest -v.
Runtime limits are asserted where a guarantee includes one.
"""

import math
import time
from fractions import Fraction
from itertools import chain, combinations

import pytest

from ergm_cluster import (
    abar_recursion,
    build_interaction,
    coefficient_tail,
    exact_density,
    expansion_report,
    generating_function_check,
    hom_density,
    kp_certify,
    optimal_M,
    partition_normalized,
    pinned_density,
    psi_n,
    region_bound,
    representation_check,
)
from ergm_cluster.coefficients import gamma_closed_form
from ergm_cluster.graphs import all_edge_sites

from oracles import cluster_partition_sum, derivative_check, enumerate_graphs

MOTIF_KEYS = ("edge", "two-star", "triangle")


def all_subsets(items):
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def test_criterion_01_worked_example(fig_graph, two_star):
    start = time.perf_counter()
    assert hom_density(two_star, fig_graph) == Fraction(18, 64)
    edges = sorted(fig_graph.edges)
    for X in all_subsets(edges):
        d = exact_density(two_star, X, 4)
        if len(X) == 1:
            assert d == Fraction(2, 64)
        elif len(X) == 2 and set(X[0]) & set(X[1]):
            assert d == Fraction(2, 64)
        else:
            assert d == 0
    assert time.perf_counter() - start < 1.0


def test_criterion_02_density_decomposition(edge, two_star, triangle):
    start = time.perf_counter()
    for n in (3, 4, 5):
        for G in enumerate_graphs(n):
            for H in (edge, two_star, triangle):
                assert representation_check(H, G), (n, H.name, sorted(G.edges))
    assert time.perf_counter() - start < 60.0


def test_criterion_03_pinned_density_bound(edge, two_star, triangle):
    for n in (3, 4, 5):
        sites = all_edge_sites(n)
        for G in enumerate_graphs(n):
            for H in (edge, two_star, triangle):
                cap = Fraction(H.m * (H.m - 1), n * n)
                for e in sites:
                    assert pinned_density(H, G, e) <= cap


def test_criterion_04_free_energy_bookkeeping(edge, two_star, triangle):
    grid = [-1.0 + 0.04 * i for i in range(51)]
    for n in (3, 4, 5):
        sites = n * (n - 1) // 2
        for H in (edge, two_star, triangle):
            for beta in grid:
                via_counts = psi_n([H], [beta], n)
                K = build_interaction([H], [beta], n)
                via_interaction = (sites * math.log(2.0)
                                   + partition_normalized(K)) / (n * n)
                assert abs(via_counts - via_interaction) <= 1e-12
                if H.name == "edge":
                    closed = (sites / n ** 2) * math.log1p(math.exp(2 * beta))
                    assert abs(via_counts - closed) <= 1e-12


def test_criterion_05_derivative_matches_expectation(edge, two_star, triangle):
    for motifs, betas in (([edge], [0.2]),
                          ([two_star, triangle], [0.05, 0.02])):
        for i in range(len(betas)):
            fd, expectation = derivative_check(motifs, betas, 4, i, h=1e-4)
            assert abs(fd - expectation) <= 1e-6


def test_criterion_06_polymer_resummation(edge, two_star, triangle):
    start = time.perf_counter()
    b2 = region_bound(2, 3, optimal_M(2))
    b3 = region_bound(3, 3, optimal_M(3))
    cases = (([two_star], [b2 / 2]),
             ([triangle], [b3 / 2]),
             ([edge, triangle], [b3 / 4, b3 / 4]))
    for motifs, betas in cases:
        for n in (3, 4):
            K = build_interaction(motifs, betas, n)
            resummed = cluster_partition_sum(K)
            direct = math.exp(partition_normalized(K))
            assert abs(resummed - direct) <= 1e-9 * max(1.0, direct)
    assert time.perf_counter() - start < 300.0


def test_criterion_07_certified_truncation_error(two_star):
    beta = region_bound(2, 3, optimal_M(2)) / 2
    report = expansion_report([two_star], [beta], 4, order=4, max_links=4)
    assert report.certificate.verdict
    gaps = []
    for row in report.orders:
        assert row.tail_bound is not None and math.isfinite(row.tail_bound)
        assert row.gap_to_exact <= row.tail_bound
        gaps.append(row.gap_to_exact)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_criterion_08_coefficient_identities():
    for p in (2, 3, 4):
        M = optimal_M(p)
        table = abar_recursion(p, 0.01, M, n_max=30)
        for n in range(1, 31):
            g = table.gamma[n]
            assert g == gamma_closed_form(p, n)
            # growth bound, exact in rational arithmetic
            assert g * (p - 1) ** (1 + (p - 1) * n) <= Fraction(p ** (p * n))
        assert generating_function_check(p, n_max=30)
        # full majorant sum stays below log M on the boundary of the region
        log_m = math.log(M)
        threshold = (log_m * (p - 1) ** p
                     / (2 * (M * p) ** p * (1 + (p - 1) * log_m)))
        for scale in (1.0, 0.999999):
            t = abar_recursion(p, scale * threshold, M, n_max=30)
            total = sum(t.abar(k) for k in range(1, 31)) + coefficient_tail(t, 30)
            assert total <= log_m * (1 + 1e-9)
        assert total < log_m


def test_criterion_09_optimal_weight_base():
    inv = (math.sqrt(5) - 1) / 2
    for p in (2, 3, 4):
        f = lambda M: region_bound(p, 3, M)
        a, b = 1.0 + 1e-9, 20.0
        c = b - inv * (b - a)
        d = a + inv * (b - a)
        fc, fd = f(c), f(d)
        for _ in range(120):
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - inv * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + inv * (b - a)
                fd = f(d)
        assert abs((a + b) / 2 - optimal_M(p)) <= 1e-6


def test_criterion_10_overdriven_coupling_is_reported(triangle):
    beta = 4 * region_bound(3, 3, optimal_M(3))
    M = optimal_M(3)
    # n = 8: the certificate survives the norm cap but the site sums blow past log M
    cert = kp_certify(build_interaction([triangle], [beta], 8), M, head_links=2)
    assert not cert.verdict
    assert cert.reason != ""
    assert cert.max_site_sum > cert.log_m
    # n = 10: the same coupling pushes the majorant series past its radius
    cert = kp_certify(build_interaction([triangle], [beta], 10), M, head_links=2)
    assert not cert.verdict
    assert math.isinf(cert.tail)
    assert "divergent" in cert.reason
    assert cert.norm < 0.5
