import copy
import json
import pickle
import struct
import time
from fractions import Fraction

import pytest

from ergm_cluster import (
    BUILTIN_MOTIFS,
    GuardExceeded,
    Interaction,
    Motif,
    SimpleGraph,
    build_interaction,
    ensemble_result,
    expansion_report,
    expectation_densities,
    graph_from_json,
    hom_count,
    hom_density,
    make_graph,
    motif_from_json,
    load_motif,
    partition_normalized,
    phi_n,
    psi_n,
    support_families,
    truncated_log_partition,
)
from ergm_cluster.ensemble import motif_hom_table
from ergm_cluster.graphs import MAP_BUDGET, _maps, _traversal_order, all_edge_sites, \
    canonical_edge, check_alignment, edge_index, mask_sites, site_mask

from oracles import complete_graph, empty_graph, enumerate_graphs, graph_from_mask, graph_mask, \
    weighted_density


class TestSitesAndGraphs:
    def test_canonical_edge_orders_pairs(self):
        assert canonical_edge(3, 1, 5) == (1, 3)
        assert canonical_edge(0, 4, 5) == (0, 4)

    def test_canonical_edge_rejects_loops_and_range(self):
        with pytest.raises(ValueError):
            canonical_edge(2, 2, 5)
        with pytest.raises(ValueError):
            canonical_edge(0, 5, 5)
        with pytest.raises(ValueError):
            canonical_edge(-1, 2, 5)

    def test_site_order_is_lexicographic(self):
        assert all_edge_sites(4) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        idx = edge_index(4)
        assert idx[(0, 1)] == 0 and idx[(2, 3)] == 5

    def test_make_graph_canonicalizes(self):
        G = make_graph(3, [(2, 0), (1, 2)])
        assert G.edges == frozenset({(0, 2), (1, 2)})

    def test_make_graph_rejects_duplicates_when_strict(self):
        with pytest.raises(ValueError):
            make_graph(2, [(0, 1), (1, 0)])

    def test_make_graph_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            make_graph(3, [(0, 3)])
        with pytest.raises(ValueError):
            make_graph(3, [(1, 1)])
        with pytest.raises(ValueError, match=r"^vertex pair \(0, 1\.0\) must be integers$"):
            make_graph(3, [(0, 1.0)])
        with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
            make_graph(-1, [])

    def test_mask_round_trip(self):
        # Every link of every built-in motif at n <= 6 decodes back to itself.
        for n in range(1, 7):
            for H in BUILTIN_MOTIFS.values():
                for X in support_families(H, n):
                    assert mask_sites(n, site_mask(n, X)) == X
        for mask in range(64):
            assert graph_mask(graph_from_mask(4, mask)) == mask

    def test_enumeration_counts(self):
        assert sum(1 for _ in enumerate_graphs(2)) == 2
        assert sum(1 for _ in enumerate_graphs(3)) == 8
        assert sum(1 for _ in enumerate_graphs(4)) == 64

    def test_enumeration_distinct_and_deterministic(self):
        first = [G.edges for G in enumerate_graphs(4)]
        second = [G.edges for G in enumerate_graphs(4)]
        assert first == second
        assert len(set(first)) == 64

    def test_enumeration_guard(self):
        with pytest.raises(GuardExceeded):
            next(enumerate_graphs(8))


EDGE = BUILTIN_MOTIFS["edge"]

# Every exhaustive entry point, and the oracles' graph enumeration, run on the
# edge model at vertex count n; truncated_log_partition takes no force.
SWEEPS = {
    "enumerate_graphs": lambda n, **kw: next(enumerate_graphs(n, **kw)),
    "psi_n": lambda n, **kw: psi_n([EDGE], [0.1], n, **kw),
    "expectation_densities": lambda n, **kw: expectation_densities([EDGE], [0.1], n, **kw),
    "partition_normalized":
        lambda n, **kw: partition_normalized(build_interaction([EDGE], [0.1], n), **kw),
    "phi_n": lambda n, **kw: phi_n(build_interaction([EDGE], [0.1], n), **kw),
    "ensemble_result": lambda n, **kw: ensemble_result([EDGE], [0.1], n, **kw),
    "truncated_log_partition":
        lambda n, **kw: truncated_log_partition(build_interaction([EDGE], [0.1], n), 1,
                                                max_links=1, **kw),
    "expansion_report":
        lambda n, **kw: expansion_report([EDGE], [0.1], n, order=1, max_links=1, **kw),
}


class TestSizeGuard:
    @pytest.mark.parametrize("name", sorted(SWEEPS))
    def test_one_limit_for_every_sweep(self, name):
        run = SWEEPS[name]
        run(6)
        start = time.perf_counter()
        with pytest.raises(GuardExceeded):
            run(7)
        assert time.perf_counter() - start < 1.0
        if name != "truncated_log_partition":
            run(7, force=True)
            # force stops at the table ceiling, before any work
            start = time.perf_counter()
            with pytest.raises(GuardExceeded) as exc:
                run(8, force=True)
            assert time.perf_counter() - start < 1.0
            assert "--force" not in exc.value.hint


class TestMotifs:
    def test_builtin_shapes(self):
        assert BUILTIN_MOTIFS["edge"].p == 1 and BUILTIN_MOTIFS["edge"].m == 2
        assert BUILTIN_MOTIFS["two-star"].p == 2 and BUILTIN_MOTIFS["two-star"].m == 3
        assert BUILTIN_MOTIFS["triangle"].p == 3 and BUILTIN_MOTIFS["triangle"].m == 3

    def test_motif_validation(self):
        with pytest.raises(ValueError):
            Motif("bad", 1, frozenset({(0, 1)}))
        with pytest.raises(ValueError):
            Motif("bad", 3, frozenset())
        with pytest.raises(ValueError):
            Motif("bad", 2, frozenset({(0, 2)}))

    def test_motif_json_round_trip(self):
        doc = {"name": "path-3", "m": 4, "edges": [[0, 1], [1, 2], [2, 3]]}
        H = motif_from_json(json.dumps(doc))
        assert H.name == "path-3" and H.m == 4 and H.p == 3
        # The edges go through make_graph, and so does its refusal.
        with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\) after canonicalization$"):
            motif_from_json({"name": "x", "m": 2, "edges": [[0, 1], [1, 0]]})
        with pytest.raises(ValueError):
            motif_from_json({"name": "x", "m": 2})

    def test_load_motif_builtin_file_and_error(self, tmp_path):
        assert load_motif("triangle").p == 3
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"name": "pair", "m": 2, "edges": [[0, 1]]}))
        assert load_motif(str(path)).m == 2
        with pytest.raises(ValueError):
            load_motif("no-such-motif")

    def test_graph_from_json(self):
        G = graph_from_json('{"n": 3, "edges": [[0, 1], [2, 1]]}')
        assert G.n == 3 and G.edges == frozenset({(0, 1), (1, 2)})
        with pytest.raises(ValueError):
            graph_from_json('{"edges": []}')

    @pytest.mark.parametrize("doc,message", [
        ('{"n": 3.9, "edges": [[0.9, 1]]}', "vertex count 3.9 must be an integer"),
        ('{"n": 3, "edges": [[0.9, 1], [1, 2], [0, 2]]}',
         r"vertex pair \(0.9, 1\) must be integers"),
        ('{"n": "3", "edges": [["0", "1"], [true, 2]]}', "vertex count '3' must be an integer"),
        ('{"n": 3, "edges": [[0, 1], [true, 2]]}', r"vertex pair \(True, 2\) must be integers"),
        ('{"n": true, "edges": []}', "vertex count True must be an integer"),
    ], ids=["n3.9", "vertex-0.9", "strings", "vertex-true", "n-true"])
    def test_graph_json_is_taken_as_given(self, doc, message):
        # make_graph refuses what is not an int, a bool included; nothing is truncated.
        with pytest.raises(ValueError, match=f"^{message}$"):
            graph_from_json(doc)

    def test_motif_json_is_taken_as_given(self):
        with pytest.raises(ValueError, match=r"^vertex pair \(0, 1.7\) must be integers$"):
            motif_from_json({"name": "x", "m": 3, "edges": [[0, 1.7], [1, 2]]})
        with pytest.raises(ValueError, match="^vertex count 3.0 must be an integer$"):
            motif_from_json({"name": "x", "m": 3.0, "edges": [[0, 1]]})

    def test_check_alignment(self):
        H = BUILTIN_MOTIFS["edge"]
        check_alignment([H], [0.5])
        with pytest.raises(ValueError):
            check_alignment([H], [0.5, 0.1])
        with pytest.raises(ValueError, match="^empty motif family$"):
            check_alignment([], [])
        with pytest.raises(ValueError, match="^not a motif: 'edge'$"):
            check_alignment(["edge"], [0.5])


class TestRecordSemantics:
    """What a frozen dataclass gave the record types, kept by their validated
    NamedTuple forms."""

    def test_fields_cannot_be_assigned_or_added(self):
        H = Motif("pair", 2, frozenset({(0, 1)}))
        K = Interaction(3, {((0, 1),): 0.5}, 1)
        res = ensemble_result([H], [0.1], 3)
        for record, field in ((H, "m"), (make_graph(2, [(0, 1)]), "n"), (K, "n"), (K, "k_map"),
                              (res, "psi"), (res, "no_such_field")):
            with pytest.raises(AttributeError):
                setattr(record, field, 0)
        with pytest.raises(AttributeError):
            del K.p_max
        assert K.n == 3 and res.n == 3 and H.m == 2

    def test_equal_motifs_share_one_cache_entry(self):
        a = Motif("pair", 2, frozenset({(0, 1)}))
        b = Motif(name="pair", m=2, edges=frozenset([(0, 1)]))
        assert a is not b and a == b and hash(a) == hash(b)
        assert support_families(a, 5) is support_families(b, 5)
        assert motif_hom_table(a, 4) is motif_hom_table(b, 4)

    def test_equality_repr_and_hashing(self):
        H = Motif("pair", 2, frozenset({(0, 1)}))
        G = SimpleGraph(2, frozenset({(0, 1)}))
        assert repr(H) == "Motif(name='pair', m=2, edges=frozenset({(0, 1)}))"
        assert repr(G) == "SimpleGraph(n=2, edges=frozenset({(0, 1)}))"
        # Equal to its own type only, as a frozen dataclass was.
        assert H != ("pair", 2, frozenset({(0, 1)})) and not H == ("pair", 2, H.edges)
        assert G != (2, frozenset({(0, 1)})) and H != Motif("other", 2, H.edges)
        assert {H: 1}[Motif("pair", 2, frozenset({(0, 1)}))] == 1
        K = Interaction(n=3, k_map={((0, 1),): 0.5}, p_max=1)
        assert repr(K) == "Interaction(n=3, k_map={((0, 1),): 0.5}, p_max=1)"
        assert K == Interaction(3, {((0, 1),): 0.5}, 1) != Interaction(3, {((0, 1),): 0.5}, 2)
        assert K != (3, {((0, 1),): 0.5}, 1) and K.__eq__(K.k_map) is NotImplemented
        with pytest.raises(TypeError):
            hash(K)

    def test_copies_validate_and_stay_equal(self):
        H = BUILTIN_MOTIFS["triangle"]
        K = build_interaction([H], [0.1], 4)
        for record in (H, make_graph(3, [(0, 1)]), K):
            for twin in (copy.copy(record), copy.deepcopy(record),
                         pickle.loads(pickle.dumps(record))):
                assert type(twin) is type(record) and twin == record
        assert H._replace(name="tri") == Motif("tri", 3, H.edges)
        with pytest.raises(ValueError):
            H._replace(m=2)
        with pytest.raises(ValueError):
            SimpleGraph._make((1, frozenset({(0, 1)})))

    def test_interaction_counts_links_and_validates_its_copies(self):
        K = build_interaction([BUILTIN_MOTIFS["triangle"]], [0.1], 4)
        # len counts the links; iterating or indexing gives the three fields.
        assert len(K) == len(K.k_map) > 3 and len(Interaction(3, {}, 1)) == 0
        assert tuple(K) == (K[0], K[1], K[2]) == (4, K.k_map, 3) and K != tuple(K)
        assert max(map(len, K.k_map)) == 3
        with pytest.raises(ValueError, match=r"has more than p_max=0 sites$"):
            K._replace(p_max=0)
        with pytest.raises(ValueError, match=r"^exact zero stored at \(\(0, 1\),\)$"):
            Interaction._make((3, {((0, 1),): 0.0}, 1))

    def test_unpickling_validates_at_every_protocol(self):
        K = Interaction(3, {((0, 1),): 0.5}, 1)
        half, zero = struct.pack(">d", 0.5), struct.pack(">d", 0.0)
        for proto in range(pickle.HIGHEST_PROTOCOL + 1):
            data = pickle.dumps(K, proto)
            # The text and the binary float opcodes of 0.5, made 0.0.
            bad = data.replace(b"F0.5\n", b"F0.0\n").replace(b"G" + half, b"G" + zero)
            assert bad != data and pickle.loads(data) == K
            with pytest.raises(ValueError, match="^exact zero stored at"):
                pickle.loads(bad)

    def test_sizes_must_be_integers(self):
        # A float size would fail later, inside the counting code, as a TypeError.
        for build in (lambda: Motif("x", 3.0, frozenset({(0, 1)})),
                      lambda: Motif("x", True, frozenset({(0, 1)})),
                      lambda: BUILTIN_MOTIFS["triangle"]._replace(m=3.0),
                      lambda: SimpleGraph(4.5, frozenset({(0, 1)})),
                      lambda: SimpleGraph(True, frozenset())):
            with pytest.raises(ValueError, match=r"vertex count \S+ must be an integer$"):
                build()

    def test_edge_vertices_must_be_integers(self):
        # A float vertex would fail later, inside hom_density, as a TypeError;
        # a bool one would read as 0 or 1.
        for build in (lambda: SimpleGraph(3, frozenset({(0.5, 1)})),
                      lambda: Motif("x", 3, frozenset({(True, 2)}))):
            with pytest.raises(ValueError, match=r"^vertex pair \(\S+, \S+\) must be integers$"):
                build()


class TestHomCounting:
    def test_figure_example(self, fig_graph, two_star):
        assert hom_count(two_star, fig_graph) == 18
        assert hom_density(two_star, fig_graph) == Fraction(18, 64)

    def test_edge_count_is_twice_edges(self, edge):
        for mask in range(64):
            G = graph_from_mask(4, mask)
            assert hom_count(edge, G) == 2 * G.edge_count

    def test_empty_graph_kills_motifs(self, triangle):
        assert hom_count(triangle, empty_graph(5)) == 0
        assert hom_density(triangle, empty_graph(5)) == 0
        # hom_count is 0 on the empty vertex set, but n^m is 0 too.
        assert hom_count(triangle, empty_graph(0)) == 0
        with pytest.raises(ValueError, match="^homomorphism density needs at least one vertex$"):
            hom_density(triangle, empty_graph(0))

    def test_complete_graph_closed_forms(self, edge, two_star, triangle):
        # maps only need adjacent motif vertices distinct in K_n
        for n in (3, 4, 5):
            K = complete_graph(n)
            assert hom_count(edge, K) == n * (n - 1)
            assert hom_count(two_star, K) == n * (n - 1) ** 2
            assert hom_count(triangle, K) == n * (n - 1) * (n - 2)

    def test_density_of_edge_on_complete(self, edge):
        for n in (2, 3, 6):
            assert hom_density(edge, complete_graph(n)) == Fraction(n * (n - 1), n * n)

    def test_isolated_motif_vertex_gives_free_factor(self, fig_graph):
        H = Motif("edge-plus-isolated", 3, frozenset({(0, 1)}))
        assert hom_count(H, fig_graph) == 4 * 2 * fig_graph.edge_count

    def test_density_bounds_and_edge_monotonicity(self):
        # every motif density sits in [0, 1] and grows with added edges
        for name in ("edge", "two-star", "triangle"):
            H = BUILTIN_MOTIFS[name]
            for n in (3, 4, 5):
                table = motif_hom_table(H, n)
                denom = n ** H.m
                nsites = len(all_edge_sites(n))
                for mask in range(1 << nsites):
                    assert 0 <= table[mask] <= denom
                    for k in range(nsites):
                        if not mask >> k & 1:
                            assert table[mask | (1 << k)] >= table[mask]

    def test_hom_table_matches_direct_counts(self, two_star):
        table = motif_hom_table(two_star, 4)
        for mask in (0, 5, 21, 63):
            assert table[mask] == hom_count(two_star, graph_from_mask(4, mask))


def _path(k):
    return Motif(f"P{k}", k, frozenset((i, i + 1) for i in range(k - 1)))


def _disjoint_edges(k):
    return Motif(f"{k} edges", 2 * k, frozenset((2 * i, 2 * i + 1) for i in range(k)))


class _Reached(Exception):
    pass


def _reach(H, n):
    """Walk the maps of H into K_n up to the first leaf: True if the walk starts."""
    full = (1 << n) - 1

    def leaf(images, cand):
        raise _Reached

    try:
        _maps(H, [full ^ (1 << v) for v in range(n)], leaf)
    except _Reached:
        return True
    return False


class TestMapBudget:
    @pytest.mark.parametrize("H,n,bound", [
        (_path(11), 6, 6 * 5 ** 10),
        (_disjoint_edges(2), 65, 65 ** 2 * 64 ** 2),
        (_disjoint_edges(3), 17, 17 ** 3 * 16 ** 3),
    ])
    def test_refused_before_the_first_vertex(self, H, n, bound):
        # s^r D^(m'-r): one factor s per component root, D per other vertex.
        assert bound > MAP_BUDGET
        start = time.perf_counter()
        with pytest.raises(GuardExceeded, match=f"up to {bound} vertex maps") as info:
            _reach(H, n)
        assert time.perf_counter() - start < 1.0
        assert "--force does not lift" in info.value.hint

    @pytest.mark.parametrize("H,n,bound", [
        (_path(10), 6, 6 * 5 ** 9),
        (_disjoint_edges(2), 64, 64 ** 2 * 63 ** 2),
        (BUILTIN_MOTIFS["two-star"], 100, 100 * 99 ** 2),
    ])
    def test_admitted_up_to_the_budget(self, H, n, bound):
        assert bound <= MAP_BUDGET
        assert _reach(H, n)

    @pytest.mark.parametrize("H,n,count", [
        (BUILTIN_MOTIFS["triangle"], 300, 300 * 299 * 298),
        (BUILTIN_MOTIFS["two-star"], 300, 300 * 299 ** 2),
        (Motif("K4", 4, frozenset(all_edge_sites(4))), 65, 65 * 64 * 63 * 62),
    ])
    def test_hom_count_is_charged_per_leaf_call(self, H, n, count):
        # A popcount leaf is charged s^r D^(m'-r-1): 300 * 299 and 65 * 64^2
        # leaf calls, though s^r D^(m'-r) is past the budget.
        assert n * (n - 1) ** (H.m - 1) > MAP_BUDGET
        start = time.perf_counter()
        assert hom_count(H, make_graph(n, all_edge_sites(n))) == count
        assert time.perf_counter() - start < 2.0

    def test_hom_count_refused_past_its_leaf_calls(self):
        # P12 into K_6: 6 * 5^10 leaf calls.
        start = time.perf_counter()
        with pytest.raises(GuardExceeded, match="up to 58593750 partial vertex maps"):
            hom_count(_path(12), make_graph(6, all_edge_sites(6)))
        assert time.perf_counter() - start < 1.0

    def test_isolated_vertices_are_free(self):
        H = Motif("edge+10", 12, frozenset({(0, 1)}))
        assert hom_count(H, make_graph(100, [(0, 1)])) == 2 * 100 ** 10


class TestTraversalOrder:
    @pytest.mark.parametrize("edges,earlier", [
        ([(0, 1), (1, 2), (2, 3), (0, 3)], [[], [0], [1], [0, 2]]),
        ([(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4)], [[], [0], [1], [0, 2], [0, 1]]),
        ([(0, 2), (3, 4)], [[], [0], [], [2]]),
    ], ids=["C4", "house", "two-components"])
    def test_lowest_vertex_with_a_placed_neighbour_comes_next(self, edges, earlier):
        m = 1 + max(v for e in edges for v in e)
        assert _traversal_order(Motif("H", m, frozenset(edges))) == (earlier, m - len(earlier))


class TestWeightedDensity:
    def test_zero_betas(self, fig_graph, edge, two_star):
        assert weighted_density([edge, two_star], [0.0, 0.0], fig_graph) == 0.0

    def test_single_edge_motif(self, fig_graph, edge):
        assert weighted_density([edge], [1.0], fig_graph) == 0.5

    def test_two_motifs_sum(self, fig_graph, edge, two_star):
        want = float(Fraction(1, 2) + Fraction(18, 64))
        assert weighted_density([edge, two_star], [1.0, 1.0], fig_graph) == want

    def test_alignment_enforced(self, fig_graph, edge):
        with pytest.raises(ValueError):
            weighted_density([edge], [1.0, 2.0], fig_graph)
