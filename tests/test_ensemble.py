import math
import random
import time
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import mpmath
import pytest

import numpy as np

from ergm_cluster import (
    BUILTIN_MOTIFS,
    GuardExceeded,
    Interaction,
    Motif,
    build_interaction,
    ensemble_result,
    expectation_densities,
    partition_normalized,
    phi_n,
    psi_n,
    hom_count,
)
from ergm_cluster import cli, ensemble, lattice
from ergm_cluster.ensemble import (
    _column_energies,
    _link_classes,
    _link_histogram,
    _statistic_histogram,
    motif_hom_table,
)
from ergm_cluster.graphs import all_edge_sites, edge_index

from oracles import (
    derivative_check,
    distinct_columns_by_sort,
    energies_by_link,
    energies_by_subset_sums,
    expectations_by_graph,
    graph_from_mask,
    hamiltonian,
    hom_table_by_numpy_walk,
    interaction_dump,
    interaction_from_dump,
    psi_by_graph,
)

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

    def test_phi_needs_two_vertices(self, edge):
        # One vertex has no edge site: log W = 0 and phi_n = 0 / C(1,2).
        K = build_interaction([edge], [0.1], 1)
        assert partition_normalized(K) == 0.0
        with pytest.raises(ValueError):
            phi_n(K)
        with pytest.raises(ValueError):
            ensemble_result([edge], [0.1], 1)


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


class TestOverflow:
    @pytest.mark.parametrize("betas", [[5e307, 0.1], [-5e307, 1e308], [1.7e308, 0.0]])
    @pytest.mark.parametrize("run", [psi_n, expectation_densities, ensemble_result])
    def test_non_finite_weight_raises(self, edge, triangle, betas, run):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                run([edge, triangle], betas, 4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("run", [psi_n, expectation_densities, ensemble_result,
                                     build_interaction])
    def test_non_finite_beta_refused_before_any_table(self, monkeypatch, edge, triangle,
                                                      bad, run):
        def refuse(*args, **kwargs):
            raise AssertionError("a table was read for a non-finite beta")

        monkeypatch.setattr(lattice, "_link_table", refuse)
        monkeypatch.setattr(ensemble, "_statistic_histogram", refuse)
        with pytest.raises(ValueError, match=f"^weight 1 is {bad}, not a finite number$"):
            run([edge, triangle], [0.1, bad], 4)

    def test_minus_inf_weights_are_empty_columns(self, edge):
        # each term is finite; their sum is -inf on every graph but the empty one
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert psi_n([edge, edge], [-1e307, -1e307], 4) == 0.0
            assert expectation_densities([edge, edge], [-1e307, -1e307], 4) == [0.0, 0.0]


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


def exact_csv(tmp_path) -> str:
    """The CSV artifact of `exact` for edge and triangle at (0.05, 0.02), n = 4."""
    out = tmp_path / "exact.csv"
    assert cli.main(["exact", "--motifs", "edge", "triangle", "--betas", "0.05", "0.02",
                     "--n", "4", "--out", str(out), "--format", "csv"]) == 0
    return out.read_text()


class TestResultPlumbing:
    def test_result_consistency(self, edge, triangle):
        res = ensemble_result([edge, triangle], [0.05, 0.02], 4)
        assert res.phi == pytest.approx(res.log_w_normalized / 6, abs=1e-15)
        rhs = (6 / 16) * (math.log(2.0) + res.phi)
        assert res.psi == pytest.approx(rhs, abs=1e-12)
        assert len(res.expectations) == 2

    def test_csv_layout(self, edge, triangle, tmp_path):
        res = ensemble_result([edge, triangle], [0.05, 0.02], 4)
        header, row = exact_csv(tmp_path).splitlines()
        assert header == "n,beta_1,beta_2,psi_n,phi_n,E_1,E_2"
        cells = row.split(",")
        assert cells[0] == "4" and len(cells) == 7
        # 17 significant digits round-trip
        assert float(cells[3]) == res.psi

    def test_golden_csv(self, tmp_path):
        assert exact_csv(tmp_path) == (DATA / "ensemble_golden.csv").read_text()

    def test_golden_csv_is_correctly_rounded(self, edge, triangle):
        # Every float in the golden row is the 50-digit value of its quantity,
        # rounded once: psi_n, phi_n and the expectations, from backtracking
        # hom counts and the row's own couplings.
        header, row = (DATA / "ensemble_golden.csv").read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        n, motifs = int(cells["n"]), [edge, triangle]
        betas = [mpmath.mpf(float(cells[f"beta_{i}"])) for i in (1, 2)]
        sites = len(all_edge_sites(n))
        graphs = [graph_from_mask(n, mask) for mask in range(1 << sites)]
        dens = [[mpmath.mpf(hom_count(H, G)) / n ** H.m for G in graphs] for H in motifs]
        with mpmath.workdps(50):
            weights = [mpmath.exp(n * n * sum(b * t[g] for b, t in zip(betas, dens)))
                       for g in range(len(graphs))]
            z = mpmath.fsum(weights)
            want = {
                "psi_n": mpmath.log(z) / (n * n),
                "phi_n": mpmath.log(z / 2 ** sites) / sites,
                "E_1": mpmath.fsum(w * t for w, t in zip(weights, dens[0])) / z,
                "E_2": mpmath.fsum(w * t for w, t in zip(weights, dens[1])) / z,
            }
        for name, value in want.items():
            assert float(cells[name]) == float(value), name

    def test_result_shares_one_weight_vector(self, two_star, triangle):
        motifs, betas = [two_star, triangle], [0.04, -0.03]
        for n in (3, 4, 5):
            res = ensemble_result(motifs, betas, n)
            assert res.psi == psi_n(motifs, betas, n)
            assert list(res.expectations) == expectation_densities(motifs, betas, n)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.float32, np.float64, bool, int])
    def test_beta_types_act_as_their_floats(self, edge, triangle, kind):
        # A numpy integer beta once entered the exact K as itself and wrapped
        # around in its products: np.int64(1) gave K = -2.0 on every link at
        # n = 4, and np.int32(3) raised OverflowError.
        def hexes(res):
            return [x.hex() for x in (res.log_w_normalized, res.psi, res.phi,
                                      *res.betas, *res.expectations)]

        for raw in ([kind(1), 0.05], [0.05, kind(3)]):
            floats = [float(b) for b in raw]
            for n in (2, 4, 6):
                got = build_interaction([edge, triangle], raw, n).k_map
                want = build_interaction([edge, triangle], floats, n).k_map
                assert [(X, v.hex()) for X, v in got.items()] == \
                    [(X, v.hex()) for X, v in want.items()]
                assert hexes(ensemble_result([edge, triangle], raw, n)) == \
                    hexes(ensemble_result([edge, triangle], floats, n))

    def test_hom_table_is_frozen(self, two_star):
        table = motif_hom_table(two_star, 4)
        assert not table.flags.writeable
        # hom(two-star, K_4) = 4 * 3^2 = 36 fits in one byte.
        assert table.dtype == np.uint8 and len(table) == 1 << 6


def _motif(name, m, edges):
    return Motif(name, m, frozenset(edges))


ORACLE_MOTIFS = [
    _motif("edge", 2, [(0, 1)]),
    _motif("two-star", 3, [(0, 1), (1, 2)]),
    _motif("triangle", 3, [(0, 1), (0, 2), (1, 2)]),
    _motif("diamond", 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    _motif("K4", 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    # C4 and the house: the map walk places their vertices in a greedy
    # order, not breadth-first.
    _motif("C4", 4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    _motif("house", 5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4)]),
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

    @pytest.mark.parametrize("H", ORACLE_MOTIFS, ids=lambda H: H.name)
    def test_matches_the_numpy_walk(self, H):
        assert motif_hom_table(H, 0).tolist() == [0]
        for n in range(1, 7):
            assert np.array_equal(motif_hom_table(H, n), hom_table_by_numpy_walk(H, n)), n

    @pytest.mark.parametrize("H", BUILTIN_MOTIFS.values(), ids=lambda H: H.name)
    def test_builtins_match_the_numpy_walk_at_n7(self, H):
        # Unmemoized: three 2 MB tables need not outlive the test.
        assert np.array_equal(motif_hom_table.__wrapped__(H, 7), hom_table_by_numpy_walk(H, 7))

    def test_refuses_past_int64(self):
        # hom(H, K_6) = 30 * 6^23 for an edge with 23 isolated vertices.
        H = Motif("edge+23", 25, frozenset({(0, 1)}))
        with pytest.raises(OverflowError, match="int64"):
            motif_hom_table(H, 6)
        H = Motif("edge+21", 23, frozenset({(0, 1)}))
        assert int(motif_hom_table(H, 6)[-1]) == 30 * 6 ** 21

    @pytest.mark.parametrize("H,n", [(H, n) for H in ORACLE_MOTIFS for n in range(1, 7)]
                             + [(H, 7) for H in BUILTIN_MOTIFS.values()]
                             # 30 * 6^9 takes uint32 and 30 * 6^21 int64.
                             + [(Motif(f"edge+{k}", k + 2, frozenset({(0, 1)})), 6)
                                for k in (9, 21)],
                             ids=lambda x: getattr(x, "name", x))
    def test_smallest_dtype_that_holds_hom_of_the_complete_graph(self, H, n):
        # Unmemoized, so the 2 MB tables at n = 7 need not outlive the test.
        table = motif_hom_table.__wrapped__(H, n)
        total = sum(lattice._support_counts(H, n).values())
        assert int(table[-1]) == total == int(table.max())
        want = next((t for t in (np.uint8, np.uint16, np.uint32)
                     if total <= np.iinfo(t).max), np.int64)
        assert table.dtype == want

    def test_table_at_n7_is_one_byte_per_graph(self, triangle):
        lattice._support_counts(triangle, 7)  # the walk is not the table's cost
        tracemalloc.start()
        try:
            table = motif_hom_table.__wrapped__(triangle, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 2^21 graphs: 2 MB in uint8, against 16 MB in int64.
        assert table.nbytes == 1 << 21
        assert peak < 2.5 * (1 << 20)

    @pytest.mark.parametrize("n", [8, 12])
    def test_refused_past_the_ceiling_before_any_work(self, triangle, n):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(GuardExceeded, match="ceiling") as info:
                motif_hom_table(triangle, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 0.1
        assert peak < 1 << 20
        assert info.value.hint == "no option lifts the ceiling: use n <= 7"

    def test_closed_forms_at_n6(self, edge, two_star, triangle):
        A = _adjacency_stack(6)
        deg = A.sum(axis=2)
        assert len(A) == 32768
        assert np.array_equal(motif_hom_table(edge, 6), deg.sum(axis=1))
        assert np.array_equal(motif_hom_table(two_star, 6), (deg * deg).sum(axis=1))
        assert np.array_equal(motif_hom_table(triangle, 6),
                              np.einsum("gij,gjk,gki->g", A, A, A))


def _family(*names):
    by_name = {H.name: H for H in ORACLE_MOTIFS}
    return [by_name[x] for x in names]


ENERGY_FAMILIES = [("edge", "triangle"), ("two-star", "triangle"), ("diamond",)]


def _sum_bound(K):
    # Each route adds at most C(n,2) (subset sums) or one term per link
    # (masking loop, hamiltonian) into an energy, and each addition rounds by
    # at most u times the absolute mass behind it, u * sum|K| < ulp(sum|K|).
    total = math.fsum(abs(v) for v in K.k_map.values())
    return (len(all_edge_sites(K.n)) + len(K.k_map)) * math.ulp(total)


def _class_counts(K, classes):
    """Links of each class inside every configuration, by one masking pass per link."""
    idx = edge_index(K.n)
    masks = np.arange(1 << len(idx), dtype=np.int64)
    bits = [[sum(1 << idx[e] for e in X) for X in c] for c in classes]
    return [sum(((masks & x) == x).astype(np.int64) for x in c) for c in bits]


def _configuration_energies(K):
    """The library's column energy of every configuration, by bitmask."""
    classes, values = _link_classes(K)
    sites = len(all_edge_sites(K.n))
    if not classes:
        return np.zeros(1 << sites)
    rows, _ = _link_histogram(K.n, classes)
    column = dict(zip(map(tuple, rows.T.tolist()), _column_energies(rows, values)))
    counts = [t.tolist() for t in _class_counts(K, classes)]
    return np.array([column[key] for key in zip(*counts)])


class TestEnergies:
    @pytest.mark.parametrize("names", ENERGY_FAMILIES, ids="+".join)
    def test_column_energies_are_correctly_rounded(self, names):
        rng = random.Random(23)
        motifs = _family(*names)
        interactions = []
        for n in range(2, 7):
            for scale in (1e-300, 1e-4, 1.0, 1e3):
                betas = [rng.uniform(-2.0, 2.0) * scale for _ in motifs]
                interactions.append(build_interaction(motifs, betas, n))
        if names == ("two-star", "triangle"):
            # 95 links of distinct values, and values 1e-300 and 1e3 apart
            K = build_interaction(motifs, [0.04, -0.03], 6)
            interactions.append(_with_values(K, lambda i, v: v * (1 + (i + 1) * 2.0 ** -20)))
            K = build_interaction(motifs, [0.7, -0.3], 5)
            interactions.append(_with_values(K, lambda i, v: v * (1e-300, 1e3)[i % 2]))
        for K in interactions:
            classes, values = _link_classes(K)
            if not classes:  # the diamond has no link at n = 2
                continue
            # exact sums, over a common denominator of the values
            den = math.lcm(*(Fraction(v).denominator for v in values))
            nums = [int(Fraction(v) * den) for v in values]
            rows, _ = _link_histogram(K.n, classes)
            for col, got in zip(rows.T.tolist(), _column_energies(rows, values)):
                want = Fraction(sum(a * k for a, k in zip(nums, col) if k), den)
                assert got == float(want), (K.n, values, col)

    @pytest.mark.parametrize("names", ENERGY_FAMILIES, ids="+".join)
    def test_subset_sums_match_masking_loop(self, names):
        rng = random.Random(17)
        motifs = _family(*names)
        for n in range(1, 7):
            for _ in range(3):
                betas = [rng.uniform(-2.0, 2.0) * 10 ** rng.randint(-4, 0) for _ in motifs]
                K = build_interaction(motifs, betas, n)
                got, want = _configuration_energies(K), energies_by_link(K)
                assert len(got) == 1 << len(all_edge_sites(n))
                assert np.max(np.abs(got - want)) <= _sum_bound(K), (n, betas)
                per_mask = energies_by_subset_sums(K)
                assert np.max(np.abs(per_mask - want)) <= _sum_bound(K), (n, betas)

    @pytest.mark.parametrize("names", ENERGY_FAMILIES, ids="+".join)
    def test_energy_is_minus_hamiltonian(self, names):
        motifs = _family(*names)
        for n in range(1, 5):
            K = build_interaction(motifs, [0.3, -0.2][:len(motifs)], n)
            got = _configuration_energies(K)
            for mask in range(len(got)):
                want = -hamiltonian(K, graph_from_mask(n, mask))
                assert abs(got[mask] - want) <= _sum_bound(K), mask

    @pytest.mark.parametrize("names,betas,n", [
        (("two-star", "triangle"), [0.04, -0.03], 5),
        (("edge", "two-star", "triangle", "diamond", "K4"), [0.3, -0.2, 0.1, 0.05, -0.02], 6),
        (("triangle",), [0.7], 2),
    ])
    def test_exact_route_reads_no_hom_table(self, monkeypatch, names, betas, n):
        motifs = _family(*names)

        def bits():
            res = ensemble_result(motifs, betas, n)
            return (psi_n(motifs, betas, n).hex(),
                    [e.hex() for e in expectation_densities(motifs, betas, n)],
                    res.psi.hex(), res.log_w_normalized.hex(), res.phi.hex(),
                    [e.hex() for e in res.expectations])

        want = bits()

        def refuse(*args, **kwargs):
            raise AssertionError("the exact route must not read a hom table")

        monkeypatch.setattr(ensemble, "motif_hom_table", refuse)
        # Rebuild the memoized tables and histograms under the patch, so the
        # check is not answered from a cache filled before it.
        for cached in (motif_hom_table, _statistic_histogram, _link_histogram,
                       lattice._link_table, lattice._support_counts):
            cached.cache_clear()
        assert bits() == want

    def test_log_w_reads_no_hom_table(self, monkeypatch, two_star, triangle):
        K = build_interaction([two_star, triangle], [0.04, -0.03], 5)
        want = partition_normalized(K)

        def refuse(*args, **kwargs):
            raise AssertionError("log W must not read the graph weights")

        monkeypatch.setattr(ensemble, "motif_hom_table", refuse)
        monkeypatch.setattr(ensemble, "_statistic_histogram", refuse)
        assert partition_normalized(K) == want
        assert phi_n(K) == want / 10


def _mp_ensemble(motifs, betas, n):
    """psi_n and the expectations in 50 digits, from the couplings' own floats.

    Graphs are grouped by their hom-count column with a Counter, independently
    of the library's histogram.
    """
    columns = Counter(zip(*(motif_hom_table(H, n).tolist() for H in motifs)))
    with mpmath.workdps(50):
        scales = [n * n * mpmath.mpf(b) / n ** H.m for H, b in zip(motifs, betas)]
        weighted = [(c * mpmath.exp(mpmath.fsum(s * h for s, h in zip(scales, col))), col)
                    for col, c in columns.items()]
        z = mpmath.fsum(w for w, _ in weighted)
        psi = mpmath.log(z) / (n * n)
        expect = [mpmath.fsum(w * col[i] for w, col in weighted) / z / n ** H.m
                  for i, H in enumerate(motifs)]
        return psi, expect


HISTOGRAM_FAMILIES = [("edge", "triangle"), ("two-star", "triangle"), ("diamond",),
                      ("edge", "two-star", "triangle", "diamond", "K4")]


class TestHistogram:
    @pytest.mark.parametrize("names,columns", [
        (("edge", "triangle"), 49),
        (("two-star", "triangle"), 102),
        (("edge", "two-star", "triangle", "diamond", "K4"), 131),
    ])
    def test_column_counts_at_n6(self, names, columns):
        rows, counts = _statistic_histogram(tuple(_family(*names)), 6)
        assert rows.shape == (len(names), columns) == (len(names), len(counts))
        # never more columns than the 156 isomorphism classes of 6-vertex graphs
        assert columns <= 156 and int(counts.sum()) == 32768
        assert not rows.flags.writeable and not counts.flags.writeable
        # hom(diamond, K_6) = 480 and hom(K4, K_6) = 360 need two bytes; the
        # other motifs' hom(H, K_6) fit in one.
        dtype = np.uint16 if "diamond" in names else np.uint8
        assert rows.dtype == dtype and counts.dtype == np.int64

    @pytest.mark.parametrize("names", HISTOGRAM_FAMILIES, ids="+".join)
    def test_columns_match_the_lexsort_oracle(self, names):
        # At n = 6 the five-motif family's key range outgrows any fold.
        for n in range(1, 7):
            rows, counts = _statistic_histogram(tuple(_family(*names)), n)
            want_rows, want_counts = distinct_columns_by_sort(
                [motif_hom_table(H, n) for H in _family(*names)])
            assert rows.dtype == want_rows.dtype and counts.dtype == want_counts.dtype
            assert np.array_equal(rows, want_rows) and np.array_equal(counts, want_counts)

    def test_one_class_per_link_matches_the_lexsort_oracle(self, two_star, triangle):
        # 95 links of distinct values: far more classes than one key can hold.
        K = build_interaction([two_star, triangle], [0.04, -0.03], 6)
        distinct = _with_values(K, lambda i, v: v * (1 + (i + 1) * 2.0 ** -20))
        classes, _ = _link_classes(distinct)
        assert len(classes) == len(distinct) == 95
        rows, counts = _link_histogram(6, classes)
        want_rows, want_counts = distinct_columns_by_sort(_class_counts(distinct, classes))
        assert rows.dtype == np.uint8 and counts.dtype == want_counts.dtype
        assert np.array_equal(rows, want_rows) and np.array_equal(counts, want_counts)

    def test_class_tables_stack_in_the_widest_dtype(self):
        # The 575 links of at most three sites at n = 6 take a uint16 table and
        # the 15 single sites a uint8 one; rows come out in uint16.
        sites = all_edge_sites(6)
        links = tuple(X for k in (1, 2, 3) for X in combinations(sites, k))
        classes = (links, tuple((e,) for e in sites))
        rows, counts = _link_histogram(6, classes)
        want_rows, want_counts = distinct_columns_by_sort(
            _class_counts(Interaction(6, {}, 1), classes))
        assert rows.dtype == np.uint16 and counts.dtype == want_counts.dtype
        assert np.array_equal(rows, want_rows) and np.array_equal(counts, want_counts)

    @pytest.mark.parametrize("names", HISTOGRAM_FAMILIES, ids="+".join)
    def test_matches_per_graph_oracle(self, names):
        rng = random.Random(41)
        motifs = _family(*names)
        for n in range(2, 7):
            for _ in range(3):
                betas = [rng.uniform(-1.0, 1.0) for _ in motifs]
                psi = psi_n(motifs, betas, n)
                assert psi == pytest.approx(psi_by_graph(motifs, betas, n), rel=1e-14)
                want = expectations_by_graph(motifs, betas, n)
                assert expectation_densities(motifs, betas, n) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("names", HISTOGRAM_FAMILIES, ids="+".join)
    def test_against_mpmath(self, n, names):
        rng = random.Random(100 * n + len(names))
        motifs = _family(*names)
        for _ in range(4):
            betas = [rng.uniform(-1.0, 1.0) * 10 ** rng.randint(-3, 0) for _ in motifs]
            psi, expect = _mp_ensemble(motifs, betas, n)
            res = ensemble_result(motifs, betas, n)
            assert abs(float((res.psi - psi) / psi)) <= 1e-14, betas
            for got, want in zip(res.expectations, expect):
                assert abs(float((got - want) / want)) <= 1e-14, betas


ZERO = (0.0).hex()


class TestEmptyLinkTable:
    # No motif has a link at n = 1, nor the triangle at n = 2: every graph has
    # hom 0 there, so psi_n is C(n,2) log 2 / n^2 and each expectation is 0.
    @pytest.mark.parametrize("names", [(name,) for name in BUILTIN_MOTIFS]
                             + [tuple(BUILTIN_MOTIFS)], ids="+".join)
    @pytest.mark.parametrize("beta", [0.3, -2.0])
    def test_one_vertex(self, names, beta):
        motifs = [BUILTIN_MOTIFS[x] for x in names]
        betas = [beta] * len(motifs)
        assert lattice._link_table(tuple(motifs), 1).classes == ()
        assert psi_n(motifs, betas, 1).hex() == ZERO
        assert [e.hex() for e in expectation_densities(motifs, betas, 1)] == [ZERO] * len(motifs)
        with pytest.raises(ValueError, match="need n >= 2"):
            ensemble_result(motifs, betas, 1)

    @pytest.mark.parametrize("names,betas,psi,log_w,expectations", [
        (("triangle",), [0.3], "0x1.62e42fefa39efp-3", ZERO, [ZERO]),
        (("triangle",), [-5.0], "0x1.62e42fefa39efp-3", ZERO, [ZERO]),
        (("edge", "triangle"), [0.05, 0.02], "0x1.7d218f1c8904fp-3", "0x1.a3d5f2ce56602p-5",
         ["0x1.0cca12729afb8p-2", ZERO]),
        (("edge", "triangle"), [-1.5, 4.0], "0x1.8e070fc0456f2p-7", "-0x1.4a03bef39f47fp-1",
         ["0x1.848343c905446p-6", ZERO]),
    ])
    def test_two_vertices(self, names, betas, psi, log_w, expectations):
        motifs = [BUILTIN_MOTIFS[x] for x in names]
        if names == ("triangle",):
            assert lattice._link_table(tuple(motifs), 2).classes == ()
            assert float.fromhex(psi) == math.log(2) / 4
        res = ensemble_result(motifs, betas, 2)
        assert (res.psi.hex(), res.log_w_normalized.hex(), res.phi.hex()) == (psi, log_w, log_w)
        assert [e.hex() for e in res.expectations] == expectations
        assert psi_n(motifs, betas, 2).hex() == psi
        assert [e.hex() for e in expectation_densities(motifs, betas, 2)] == expectations


def _mp_log_w(K):
    """log W in 50 digits, from the interaction's own float K values."""
    idx = edge_index(K.n)
    links = [(sum(1 << idx[e] for e in X), mpmath.mpf(v)) for X, v in K.k_map.items()]
    count = 1 << len(idx)
    with mpmath.workdps(50):
        # log mean exp(E) as log1p(mean expm1(E)): no cancellation against 1,
        # so 50 digits resolve even log W = 6e-300.
        mean = mpmath.fsum(mpmath.expm1(mpmath.fsum(v for x, v in links if x & mask == x))
                           for mask in range(count)) / count
        return mpmath.log1p(mean)


class TestLogWPrecision:
    @pytest.mark.parametrize("n", [4, 5])
    def test_small_betas_to_full_relative_precision(self, n, two_star, triangle):
        rng = random.Random(2024 + n)
        for _ in range(20):
            betas = [rng.uniform(-1e-3, 1e-3) for _ in range(2)]
            K = build_interaction([two_star, triangle], betas, n)
            want = _mp_log_w(K)
            assert abs(float((partition_normalized(K) - want) / want)) <= 1e-14, betas

    @pytest.mark.parametrize("beta", [-40.0, 50.0, 60.0, 1e-300, -0.7])
    def test_each_branch_against_mpmath(self, edge, beta):
        # -40 and -0.7: mean weight under 1/2, shifted sum.  50: mean weight
        # near e^600 / 64, still log1p.  60: exp(720) would overflow, shifted
        # sum.  1e-300: log W = 6e-300, which the shifted sum would lose.
        K = build_interaction([edge], [beta], 4)
        assert partition_normalized(K) == float(_mp_log_w(K))


def _relative_error(K):
    want = _mp_log_w(K)
    return abs(float((partition_normalized(K) - want) / want))


def _with_values(K, value_of):
    """K rebuilt through its dump, with value_of(index, value) at each link."""
    terms = interaction_dump(K)
    for i, term in enumerate(terms):
        term["value"] = value_of(i, term["value"])
    return interaction_from_dump(K.n, K.p_max, terms)


class TestLinkClasses:
    def test_zero_beta_drops_a_class(self, edge, triangle):
        for n in (3, 4, 5):
            K = build_interaction([edge, triangle], [0.0, 0.3], n)
            classes, _ = _link_classes(K)
            assert len(classes) == 1 and len(classes[0]) == len(K) == math.comb(n, 3)
            assert _relative_error(K) <= 1e-14
            got, want = _configuration_energies(K), energies_by_link(K)
            assert np.max(np.abs(got - want)) <= _sum_bound(K)
            assert len(_link_classes(build_interaction([edge, triangle], [1e-3, 0.3], n))[0]) == 2

    def test_equal_values_merge_classes(self, edge, triangle):
        for n in (3, 4, 5):
            K = build_interaction([edge, triangle], [0.2, -0.1], n)
            edge_value = K.k_map[((0, 1),)]
            merged = _with_values(K, lambda i, v: edge_value)
            classes, values = _link_classes(merged)
            assert values == (edge_value,) and classes[0] == tuple(sorted(K.k_map))
            assert _relative_error(merged) <= 1e-14
            got, want = _configuration_energies(merged), energies_by_link(merged)
            assert np.max(np.abs(got - want)) <= _sum_bound(merged)

    def test_no_repeated_value(self, two_star, triangle):
        # One class per link: no compression, and the histogram cache stays
        # bounded while the class structures change.
        for n in (3, 4):
            for seed in range(12):
                K = build_interaction([two_star, triangle], [0.04, -0.03 * seed], n)
                distinct = _with_values(K, lambda i, v: v * (1 + (i + seed) * 2.0 ** -20))
                assert len(set(distinct.k_map.values())) == len(distinct)
                classes, _ = _link_classes(distinct)
                assert len(classes) == len(distinct)
                assert _relative_error(distinct) <= 1e-14
        info = _link_histogram.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize

    def test_result_log_w_is_partition_normalized_bitwise(self, edge, two_star, triangle):
        # ensemble_result merges the link table's classes by value; K's own
        # links, grouped by _link_classes, must give the same classes, values
        # and log W.  Cases: K = 1.0 on all 35 links (one class), a zero beta,
        # a class that cancels exactly, and K = 0.
        assert len(_link_classes(build_interaction([edge, triangle], [0.5, 1.0], 6))[0]) == 1
        cases = [([edge, triangle], [0.5, 1.0], 6), ([edge, triangle], [0.0, 0.3], 6),
                 ([edge, triangle], [0.3, 0.0], 5), ([two_star, triangle], [0.04, -0.03], 5),
                 ([edge, two_star], [0.25, -1.0], 4), ([edge, triangle], [0.0, 0.0], 4)]
        for motifs, betas, n in cases:
            K = build_interaction(motifs, betas, n)
            got = ensemble_result(motifs, betas, n).log_w_normalized
            # K, and a hand-made K with its links in reverse order, read the
            # histogram entry that ensemble_result filled, through _link_classes.
            misses = _link_histogram.cache_info().misses
            assert got.hex() == partition_normalized(K).hex(), (betas, n)
            hand = Interaction(K.n, dict(reversed(K.k_map.items())), K.p_max)
            assert partition_normalized(hand).hex() == got.hex()
            assert _link_histogram.cache_info().misses == misses

    def test_sweep_builds_each_table_once(self, edge, triangle):
        rng = random.Random(31)
        lattice._link_table.cache_clear()
        _link_histogram.cache_clear()
        for _ in range(320):
            ensemble_result([edge, triangle], [rng.uniform(-1, 1), rng.uniform(-0.5, 0.5)], 6)
        assert lattice._link_table.cache_info().misses == 1
        assert _link_histogram.cache_info().misses == 1

    def test_warm_call_allocates_no_configuration_table(self, edge, triangle):
        K = build_interaction([edge, triangle], [0.3, -0.2], 6)
        want = partition_normalized(K)  # fills the histogram cache
        tracemalloc.start()
        try:
            assert partition_normalized(K) == want
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A 2^15-entry float64 table alone would be 256 KB.
        assert peak < 64 * 1024
