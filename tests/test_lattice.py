import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from ergm_cluster import (
    BUILTIN_MOTIFS,
    Interaction,
    Motif,
    banach_norm,
    build_interaction,
    exact_density,
    exact_hom_count,
    hom_density,
    partition_normalized,
    pinned_density,
    representation_check,
    support_families,
    truncated_log_partition,
)
from ergm_cluster.graphs import all_edge_sites
from ergm_cluster.lattice import _images_in, freeze_sites

from oracles import (
    complete_graph,
    empty_graph,
    graph_from_mask,
    hamiltonian,
    interaction_by_fractions,
    interaction_dump,
    interaction_from_dump,
    pinned_abs_sum,
    weighted_density,
)

DATA = Path(__file__).parent / "data"

AB, AC, AD, BC, BD, CD = (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)

FAMILY_MOTIFS = dict(BUILTIN_MOTIFS, diamond=Motif(
    "diamond", 4, frozenset([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])))
BIT_FAMILIES = [("edge", "triangle"), ("two-star", "triangle"), ("diamond",),
                ("edge", "two-star")]


class TestExactDensity:
    def test_two_star_singleton(self, two_star):
        assert exact_density(two_star, ((0, 1),), 4) == Fraction(2, 64)

    def test_two_star_adjacent_pair(self, two_star):
        assert exact_density(two_star, freeze_sites([AB, BC], 4), 4) == Fraction(2, 64)

    def test_two_star_disjoint_pair(self, two_star):
        assert exact_density(two_star, freeze_sites([AB, CD], 4), 4) == 0

    def test_empty_subset(self, two_star):
        assert exact_density(two_star, (), 4) == 0

    def test_oversized_subset_vanishes(self, two_star):
        X = freeze_sites([AB, BC, BD], 4)
        assert len(X) > two_star.p
        assert exact_density(two_star, X, 4) == 0

    def test_subset_outside_vertex_range(self, two_star):
        with pytest.raises(ValueError):
            exact_hom_count(two_star, ((0, 5),), 4)

    def test_subset_pairs_are_canonicalized(self, two_star):
        assert exact_hom_count(two_star, ((1, 0),), 4) == exact_hom_count(two_star, ((0, 1),), 4)
        assert exact_hom_count(two_star, ((2, 1), (0, 1)), 4) == 2
        with pytest.raises(ValueError):
            exact_hom_count(two_star, ((1, 1),), 4)

    def test_triangle_needs_full_triangle(self, triangle):
        assert exact_density(triangle, freeze_sites([AB], 4), 4) == 0
        assert exact_density(triangle, freeze_sites([AB, BC], 4), 4) == 0
        assert exact_density(triangle, freeze_sites([AB, BC, AC], 4), 4) == Fraction(6, 64)


class TestSupportFamilies:
    def test_two_star_family_on_four(self, two_star):
        fam = support_families(two_star, 4)
        singles = {X for X in fam if len(X) == 1}
        pairs = {X for X in fam if len(X) == 2}
        assert len(singles) == 6 and len(pairs) == 12
        assert len(fam) == 18
        assert all(fam[X] == Fraction(2, 64) for X in fam)

    def test_edge_family_on_three(self, edge):
        fam = support_families(edge, 3)
        assert fam == {((0, 1),): Fraction(2, 9),
                       ((0, 2),): Fraction(2, 9),
                       ((1, 2),): Fraction(2, 9)}

    def test_triangle_family_on_three(self, triangle):
        fam = support_families(triangle, 3)
        assert fam == {((0, 1), (0, 2), (1, 2)): Fraction(6, 27)}

    def test_family_sums_to_complete_density(self, edge, two_star, triangle):
        for H in (edge, two_star, triangle):
            for n in (3, 4, 5):
                total = sum(support_families(H, n).values())
                assert total == hom_density(H, complete_graph(n))

    def test_family_agrees_with_exact_density(self, two_star):
        fam = support_families(two_star, 4)
        for X, d in fam.items():
            assert exact_density(two_star, X, 4) == d


class TestRepresentation:
    def test_figure_graph(self, fig_graph, two_star):
        assert representation_check(two_star, fig_graph)

    def test_empty_graph(self, triangle):
        assert representation_check(triangle, empty_graph(4))

    def test_triangle_on_complete(self, triangle):
        assert representation_check(triangle, complete_graph(4))

    def test_small_sweep(self, edge, two_star, triangle):
        for H in (edge, two_star, triangle):
            for mask in range(64):
                assert representation_check(H, graph_from_mask(4, mask))

    def test_images_are_the_family_inside_the_graph(self, edge, two_star, triangle):
        # The X inside E(G) with d(H, X) != 0 are the images of the maps into
        # G, and the sums over them equal the K_n-family formula.
        rng = random.Random(5)
        for n in range(1, 8):
            for _ in range(3):
                G = graph_from_mask(n, rng.getrandbits(n * (n - 1) // 2))
                for H in (edge, two_star, triangle):
                    fam = {X: d for X, d in support_families(H, n).items()
                           if G.edges.issuperset(X)}
                    assert sorted(_images_in(H, G)) == sorted(fam)
                    assert representation_check(H, G)
                    assert sum(fam.values()) == hom_density(H, G)
                    for e in all_edge_sites(n):
                        want = sum((d for X, d in fam.items() if e in X), Fraction(0))
                        assert pinned_density(H, G, e) == want

    def test_needs_a_vertex(self, edge):
        with pytest.raises(ValueError, match="need at least one vertex"):
            representation_check(edge, empty_graph(0))
        with pytest.raises(ValueError, match="^need at least one vertex$"):
            exact_density(edge, (), 0)
        with pytest.raises(ValueError, match="^need at least one vertex$"):
            support_families(edge, 0)


class TestPinnedDensity:
    def test_absent_site_gives_zero(self, fig_graph, two_star):
        assert pinned_density(two_star, fig_graph, AC) == 0

    def test_figure_value_and_bound(self, fig_graph, two_star):
        t_ab = pinned_density(two_star, fig_graph, AB)
        assert t_ab == Fraction(8, 64)
        assert t_ab <= Fraction(3 * 2, 16)

    def test_edge_on_complete(self, edge):
        for n in (3, 5):
            assert pinned_density(edge, complete_graph(n), (0, 1)) == Fraction(2, n * n)


class TestInteraction:
    def test_zero_betas_empty(self, edge, triangle):
        K = build_interaction([edge, triangle], [0.0, 0.0], 4)
        assert len(K) == 0
        assert banach_norm(K) == 0.0

    def test_two_star_singleton_value(self, two_star):
        K = build_interaction([two_star], [1.0], 4)
        assert K.k_map[((0, 1),)] == 0.5

    def test_edge_model_value(self, edge):
        for n in (3, 5):
            K = build_interaction([edge], [0.25], n)
            assert all(v == 0.5 for v in K.k_map.values())
            assert len(K) == n * (n - 1) // 2

    def test_finite_body_property(self, edge, two_star, triangle):
        K = build_interaction([edge, two_star, triangle], [0.3, -0.2, 0.1], 5)
        assert all(1 <= len(X) <= K.p_max for X in K.k_map)

    def test_exact_cancellation_is_dropped(self, two_star):
        # equal and opposite copies of the same motif cancel exactly
        K = build_interaction([two_star, two_star], [0.7, -0.7], 4)
        assert len(K) == 0

    @pytest.mark.parametrize("n,beta_edge", [(4, 0.25), (5, 0.25), (6, 0.125)])
    def test_edge_against_two_star_cancels(self, edge, two_star, n, beta_edge):
        # On one site, K = 2 beta_edge + 2 beta_two_star / n: zero at -n beta_edge.
        motifs, betas = [edge, two_star], [beta_edge, -n * beta_edge]
        K = build_interaction(motifs, betas, n)
        assert K.k_map and all(len(X) == 2 for X in K.k_map)
        want = interaction_by_fractions(motifs, betas, n).k_map
        assert list(K.k_map) == list(want)
        assert [v.hex() for v in K.k_map.values()] == [v.hex() for v in want.values()]

    @pytest.mark.parametrize("names", BIT_FAMILIES, ids="+".join)
    def test_bit_identical_to_fraction_accumulation(self, names):
        rng = random.Random(73)
        motifs = [FAMILY_MOTIFS[x] for x in names]
        for n in range(1, 7):
            for _ in range(8):
                betas = [rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-300.0, 3.0)
                         for _ in motifs]
                got = build_interaction(motifs, betas, n).k_map
                want = interaction_by_fractions(motifs, betas, n).k_map
                assert list(got) == list(want), (n, betas)
                assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]

    def test_validation(self):
        with pytest.raises(ValueError):
            Interaction(3, {(): 1.0}, 2)
        with pytest.raises(ValueError):
            Interaction(3, {((0, 1), (0, 2)): 1.0}, 1)
        with pytest.raises(ValueError):
            Interaction(3, {((0, 5),): 1.0}, 2)
        with pytest.raises(ValueError):
            Interaction(3, {((0, 1),): 0.0}, 2)

    # The same link written in two orders, a repeated site, a float and a
    # bool vertex that hash like ints, and a vertex count that is no int.
    @pytest.mark.parametrize("n,k_map", [
        (3, {((0, 1), (0, 2)): 0.1, ((0, 2), (0, 1)): 0.1}),
        (3, {((0, 1), (0, 1)): 0.1}),
        (3, {((0.0, 1),): 0.1}),
        (3, {((True, 2),): 0.1}),
        (3.5, {((0, 1),): 0.1}),
    ], ids=["two-orders", "repeated-site", "float-vertex", "bool-vertex", "float-n"])
    def test_non_canonical_links_refused(self, n, k_map):
        with pytest.raises(ValueError):
            Interaction(n, k_map, 2)

    def test_values_are_stored_as_floats(self):
        # Both routes read the float K(X): a Fraction 1/3 is the float 1/3.
        third = Interaction(2, {((0, 1),): Fraction(1, 3)}, 1)
        K = Interaction(2, {((0, 1),): 1 / 3}, 1)
        assert third == K and type(third.k_map[((0, 1),)]) is float
        log_w = partition_normalized(K)
        assert partition_normalized(third).hex() == log_w.hex()
        series = truncated_log_partition(third, 8)
        assert series == truncated_log_partition(K, 8)
        assert abs(series[-1] - log_w) < 1e-7

    def test_owns_its_links(self):
        d = {((0, 2),): 0.5, ((0, 1),): 0.25}
        K = Interaction(3, d, 1)
        d[((0, 1),)] = math.nan
        d[((1, 2),)] = 1.0
        assert list(K.k_map.items()) == [(((0, 1),), 0.25), (((0, 2),), 0.5)]
        assert math.isfinite(partition_normalized(K))

    # An int past the float range is refused like inf, not by OverflowError.
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 10**400, -10**400],
                             ids=["nan", "inf", "-inf", "10**400", "-10**400"])
    def test_non_finite_value_refused(self, x):
        link = ((0, 1), (0, 2))
        with pytest.raises(ValueError) as info:
            Interaction(3, {((1, 2),): 0.5, link: x}, 2)
        assert str(info.value) == f"non-finite value {x} stored at {link}"
        terms = [{"sites": [[0, 1]], "value": 0.5}, {"sites": [[0, 2], [0, 1]], "value": x}]
        with pytest.raises(ValueError, match=rf"non-finite value {x} stored at"):
            interaction_from_dump(3, 2, terms)

    def test_links_sorted(self, two_star):
        K = build_interaction([two_star], [0.1], 4)
        links = K.links()
        assert links == sorted(links)


class TestNorm:
    def test_edge_norm_tight(self, edge):
        K = build_interaction([edge], [0.1], 5)
        assert banach_norm(K) == pytest.approx(0.2, abs=1e-15)

    def test_two_star_norm_value(self, two_star):
        # pinned sum: singleton 1/2 plus four adjacent pairs at 1/2
        K = build_interaction([two_star], [1.0], 4)
        assert banach_norm(K) == pytest.approx(2.5, abs=1e-12)
        assert banach_norm(K) <= 3 * 2 * 1.0

    def test_pinned_abs_sum_matches_norm_by_symmetry(self, two_star):
        K = build_interaction([two_star], [0.3], 4)
        pins = [pinned_abs_sum(K, e) for e in ((0, 1), (2, 3), (1, 2))]
        assert max(pins) == pytest.approx(banach_norm(K), abs=1e-15)

    def test_random_family_respects_norm_bound(self, edge, two_star, triangle):
        rng = random.Random(7)
        motifs = [edge, two_star, triangle]
        for _ in range(25):
            betas = [rng.uniform(-1, 1) for _ in range(3)]
            for n in (4, 5):
                K = build_interaction(motifs, betas, n)
                bound = 3 * 2 * sum(abs(b) for b in betas)
                assert banach_norm(K) <= bound + 1e-12


class TestHamiltonian:
    def test_empty_graph_zero(self, two_star):
        K = build_interaction([two_star], [1.0], 4)
        assert hamiltonian(K, empty_graph(4)) == 0.0

    def test_figure_value(self, fig_graph, two_star):
        K = build_interaction([two_star], [1.0], 4)
        assert hamiltonian(K, fig_graph) == pytest.approx(-16 * 18 / 64, abs=1e-12)

    def test_complete_graph_edge_model(self, edge):
        n, beta = 5, 0.4
        K = build_interaction([edge], [beta], n)
        assert hamiltonian(K, complete_graph(n)) == pytest.approx(-beta * n * (n - 1), abs=1e-12)

    def test_matches_weighted_density_everywhere(self, edge, two_star, triangle):
        motifs, betas = [edge, two_star, triangle], [0.08, -0.05, 0.02]
        for n in (3, 4):
            K = build_interaction(motifs, betas, n)
            for mask in range(1 << (n * (n - 1) // 2)):
                G = graph_from_mask(n, mask)
                want = -n * n * weighted_density(motifs, betas, G)
                assert hamiltonian(K, G) == pytest.approx(want, abs=1e-12)

    def test_vertex_count_mismatch(self, edge):
        K = build_interaction([edge], [0.1], 4)
        with pytest.raises(ValueError):
            hamiltonian(K, empty_graph(5))


class TestDumpFormat:
    def test_round_trip(self, edge, triangle):
        K = build_interaction([edge, triangle], [0.05, 0.02], 4)
        back = interaction_from_dump(K.n, K.p_max, interaction_dump(K))
        assert back.k_map == dict(K.k_map)
        assert back.p_max == K.p_max

    def test_duplicate_subsets_rejected(self):
        terms = [{"sites": [[0, 1]], "value": 1.0}, {"sites": [[1, 0]], "value": 2.0}]
        with pytest.raises(ValueError):
            interaction_from_dump(3, 2, terms)

    def test_golden_dump(self, edge, triangle):
        from ergm_cluster.cli import render_json

        K = build_interaction([edge, triangle], [0.05, 0.02], 4)
        doc = {"n": K.n, "p_max": K.p_max, "terms": interaction_dump(K)}
        assert render_json(doc) + "\n" == (DATA / "interaction_golden.json").read_text()

    def test_golden_reparses_losslessly(self, edge, triangle):
        doc = json.loads((DATA / "interaction_golden.json").read_text())
        K = interaction_from_dump(doc["n"], doc["p_max"], doc["terms"])
        fresh = build_interaction([edge, triangle], [0.05, 0.02], 4)
        assert K.k_map == dict(fresh.k_map)


class TestFreezeSites:
    def test_canonical_and_sorted(self):
        assert freeze_sites([(3, 1), (0, 2)], 4) == ((0, 2), (1, 3))

    def test_duplicates_collapse(self):
        assert freeze_sites([(0, 1), (1, 0)], 3) == ((0, 1),)

    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            freeze_sites([(1, 1)], 3)
