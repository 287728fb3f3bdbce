import json
import math
import random
import time
import tracemalloc
import warnings
from fractions import Fraction
from itertools import accumulate, combinations

import numpy as np
import pytest

from ergm_cluster import (
    BUILTIN_MOTIFS,
    GuardExceeded,
    banach_norm,
    build_interaction,
    enumerate_connected_hypergraphs,
    expansion_report,
    kp_certify,
    optimal_M,
    partition_normalized,
    polymer_table,
    region_bound,
    truncated_log_partition,
)
from ergm_cluster import cli, expansion, subsets
from ergm_cluster.expansion import (
    ORDER_GUARD,
    _cluster_sums,
    _connected_item_sets,
    _connected_walk,
    _last_item,
    _LinkSystem,
    _polymer_sums,
)
from ergm_cluster.graphs import SWEEP_BUDGET, check_guard, site_mask
from ergm_cluster.lattice import Interaction, freeze_sites
from ergm_cluster.subsets import _family_totals, _words

import oracles
from oracles import _connected_batches, _pinned_abs_sums, _spin_sum, activity_bound, \
    cluster_partition_sum, connected_sets_one_by_one, exact_log_series, pinned_cluster_abs_sum, \
    polymer_activity, ursell_coefficient, words_by_shifts

HALF_BUDGET = region_bound(2, 3, optimal_M(2)) / 2

# motif names, couplings and n of the fixed oracle comparisons
ORACLE_CASES = (
    (("two-star",), (HALF_BUDGET,), 4),
    (("two-star", "triangle"), (0.0009, -0.0007), 4),
    (("triangle",), (0.002,), 4),
    (("edge", "two-star"), (-0.01, 0.002), 3),
)

# edge sites used to build overlap patterns by hand
A, B, C, D, E = (0, 1), (2, 3), (4, 5), (6, 7), (8, 9)


def oracle_connected_sets(adj, max_size):
    """All connected subsets by brute force: test every subset with BFS."""
    n = len(adj)
    found = set()
    for size in range(1, max_size + 1):
        for sub in combinations(range(n), size):
            inside = set(sub)
            seen = {sub[0]}
            frontier = [sub[0]]
            while frontier:
                v = frontier.pop()
                for w in inside - seen:
                    if adj[v] >> w & 1:
                        seen.add(w)
                        frontier.append(w)
            if seen == inside:
                found.add(frozenset(sub))
    return found


def random_adjacencies(seed, count, max_items):
    """Random symmetric adjacency bitmasks on 1..max_items items."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_items)
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        yield adj


class TestMaskCodec:
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_matches_the_shift_reference(self, width):
        rng = random.Random(width)
        top = (1 << 64 * width) - 1
        values = [0, 1, (1 << 63) - 1, 1 << 63, top, *(rng.randint(0, top) for _ in range(200))]
        got, want = _words(values, width), words_by_shifts(values, width)
        assert (got.dtype, got.shape) == (want.dtype, want.shape) == (np.int64, (205, width))
        assert got.tolist() == want.tolist()
        assert _words([], width).shape == words_by_shifts([], width).shape == (0, width)


class TestConnectedSets:
    def test_matches_brute_force(self):
        rng = random.Random(3)
        for _ in range(12):
            n = rng.randint(1, 8)
            adj = [0] * n
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.35:
                        adj[i] |= 1 << j
                        adj[j] |= 1 << i
            for max_size in (1, 2, n):
                got = list(_connected_item_sets(adj, max_size))
                assert len(got) == len(set(got)), "a subset was produced twice"
                assert {frozenset(s) for s in got} == oracle_connected_sets(adj, max_size)

    def test_deterministic(self):
        adj = [0b0110, 0b1001, 0b0001, 0b0010]
        assert list(_connected_item_sets(adj, 4)) == list(_connected_item_sets(adj, 4))

    def test_zero_size_is_empty(self):
        assert list(_connected_item_sets([0, 0], 0)) == []

    def test_count_guard(self, monkeypatch):
        adj = [0b1110, 0b1101, 0b1011, 0b0111]
        monkeypatch.setattr(subsets, "DEFAULT_MAX_COUNT", 3)
        with pytest.raises(GuardExceeded):
            list(_connected_item_sets(adj, 4))

    def test_order_matches_the_one_by_one_recursion(self):
        for adj in random_adjacencies(seed=11, count=30, max_items=9):
            for max_size in range(len(adj) + 2):
                want = list(connected_sets_one_by_one(adj, max_size))
                assert list(_connected_item_sets(adj, max_size)) == want

    def test_guard_fires_exactly_past_the_count(self, monkeypatch):
        for adj in random_adjacencies(seed=13, count=20, max_items=8):
            for max_size in range(1, len(adj) + 1):
                count = len(list(connected_sets_one_by_one(adj, max_size)))
                monkeypatch.setattr(subsets, "DEFAULT_MAX_COUNT", count)
                assert len(list(_connected_item_sets(adj, max_size))) == count
                sizes = [(np.ones(len(adj), dtype=np.int64), np.add, 0)]
                assert sum(len(chunk[0]) for chunk in
                           _connected_walk(adj, max_size, sizes)) == count
                monkeypatch.setattr(subsets, "DEFAULT_MAX_COUNT", count - 1)
                with pytest.raises(GuardExceeded) as exc:
                    list(_connected_item_sets(adj, max_size))
                assert str(exc.value) == f"connected-set enumeration exceeded {count - 1} sets"
                assert exc.value.hint == "lower --max-links"
                with pytest.raises(GuardExceeded):
                    next(_connected_walk(adj, max_size, sizes))

    def test_batches_carry_supports_and_products(self):
        # the level walk's columns against the recursive walk that carries
        # supports and products down, set by set and bit for bit
        rng = random.Random(17)
        for adj in random_adjacencies(seed=19, count=10, max_items=8):
            masks = [rng.getrandbits(12) for _ in adj]
            ew = [rng.uniform(-2.0, 2.0) for _ in adj]
            ev = [abs(x) for x in ew]
            columns = [(np.ones(len(adj), dtype=np.int64), np.add, 0),
                       (np.arange(len(adj)), _last_item, 0),
                       (np.array(masks), np.bitwise_or, 0),
                       (np.array(ew), np.multiply, 1.0), (np.array(ev), np.multiply, 1.0)]
            for max_size in range(1, 5):
                want = []
                for sub, support, w, v, leaves in _connected_batches(adj, max_size, masks,
                                                                     ew, ev):
                    want.append((len(sub), sub[-1], support, w, v))
                    for x in range(len(adj)):
                        if leaves >> x & 1:
                            want.append((len(sub) + 1, x, support | masks[x],
                                         w * ew[x], v * ev[x]))
                got = [row for chunk in _connected_walk(adj, max_size, columns)
                       for row in zip(*(col.tolist() for col in chunk))]
                assert [(size, x, support, w.hex(), v.hex())
                        for size, x, support, w, v in got] == \
                    [(size, x, support, w.hex(), v.hex())
                     for size, x, support, w, v in want]

    def test_guard_counts_before_the_deepest_level(self, two_star, triangle):
        # 95 links at n = 6: the fifth level alone holds more than the budget
        # of 5 000 000 sets, and the count refuses without building it
        sys = _LinkSystem(build_interaction([two_star, triangle], [0.0005, 0.0004], 6))
        start = time.perf_counter()
        with pytest.raises(GuardExceeded):
            next(_connected_walk(sys.adj, 5))
        assert time.perf_counter() - start < 1.0


class TestHypergraphEnumeration:
    def test_edge_model_has_isolated_links(self, edge):
        K = build_interaction([edge], [0.3], 3)
        got = list(enumerate_connected_hypergraphs(K, 2))
        # three single-site links that never overlap
        assert len(got) == 3
        assert all(len(h) == 1 for h in got)

    def test_zero_links(self, two_star):
        K = build_interaction([two_star], [0.1], 4)
        assert list(enumerate_connected_hypergraphs(K, 0)) == []

    @pytest.mark.parametrize("names, n, max_links, count", [
        (("two-star", "triangle"), 5, 4, 53130),
        (("two-star",), 4, 3, None),
        (("edge", "two-star", "triangle"), 4, 4, None),
    ])
    def test_sequence_kept(self, names, n, max_links, count):
        K = build_interaction([BUILTIN_MOTIFS[x] for x in names], [0.001] * len(names), n)
        sys = _LinkSystem(K)
        got = list(enumerate_connected_hypergraphs(K, max_links))
        want = [tuple(sys.links[i] for i in idxs)
                for idxs in connected_sets_one_by_one(sys.adj, max_links)]
        assert got == want
        assert count is None or len(got) == count

    def test_negative_links_rejected(self, two_star):
        K = build_interaction([two_star], [0.1], 4)
        with pytest.raises(ValueError):
            list(enumerate_connected_hypergraphs(K, -1))


class TestActivities:
    def test_singleton_closed_form(self, edge):
        beta = 0.3
        K = build_interaction([edge], [beta], 4)
        w = polymer_activity(K, [(0, 1)], 4)
        assert w == math.expm1(2 * beta) / 2

    def test_two_site_closed_form(self, two_star):
        # support {AB, BC}: the pair link alone or dressed with either
        # singleton, which resums to expm1(c) e^(a+b) / 4
        K = build_interaction([two_star], [0.07], 4)
        a = K.k_map[freeze_sites([(0, 1)], 4)]
        b = K.k_map[freeze_sites([(1, 2)], 4)]
        c = K.k_map[freeze_sites([(0, 1), (1, 2)], 4)]
        want = math.expm1(c) * math.exp(a + b) / 4
        got = polymer_activity(K, [(0, 1), (1, 2)], 4)
        assert got == pytest.approx(want, rel=1e-14)

    def test_empty_interaction(self, edge):
        K = build_interaction([edge], [0.0], 3)
        assert polymer_activity(K, [(0, 1)], 3) == 0.0

    def test_empty_support_rejected(self, edge):
        K = build_interaction([edge], [0.2], 3)
        with pytest.raises(ValueError):
            polymer_activity(K, [], 3)

    def test_bound_dominates_activity(self, edge, two_star, triangle):
        for motifs, betas, n in (([two_star], [0.4], 4),
                                 ([two_star], [-0.4], 4),
                                 ([edge, triangle], [0.3, -0.5], 4)):
            K = build_interaction(motifs, betas, n)
            for p in polymer_table(K, 3):
                assert abs(p.activity) <= p.bound
                assert p.bound == activity_bound(K, p.support, 3)

    def test_table_matches_per_support_sums(self, two_star):
        K = build_interaction([two_star], [0.37], 4)
        for p in polymer_table(K, 3):
            assert p.activity == polymer_activity(K, p.support, 3)

    def test_spin_sum_equals_collapsed_product(self, two_star):
        K = build_interaction([two_star], [-0.23], 4)
        sys = _LinkSystem(K)
        for idxs in _connected_item_sets(sys.adj, 3):
            support = 0
            prod = 1.0
            for i in idxs:
                support |= sys.masks[i]
                prod *= math.expm1(sys.values[i])
            literal = _spin_sum([sys.values[i] for i in idxs],
                                [sys.masks[i] for i in idxs], support)
            assert literal == prod / (1 << support.bit_count())

    @pytest.mark.parametrize("n", [8, 12])
    def test_sums_past_the_mask_table_match_the_per_set_loop(self, two_star, triangle, n):
        # 28 sites keep int64 masks in dicts; 66 sites need Python-int masks
        sys = _LinkSystem(build_interaction([two_star, triangle], [0.0005, -0.0004], n))
        for got, want in zip(oracles.polymer_sum_dicts(sys, 2),
                             oracles.polymer_sums_by_set(sys, 2)):
            assert list(got) == list(want)
            assert [x.hex() for x in got.values()] == [x.hex() for x in want.values()]

    @pytest.mark.parametrize("max_links", [1, 2])
    @pytest.mark.parametrize("n", [8, 12])
    @pytest.mark.parametrize("name, beta", [("two-star", -0.0004), ("triangle", 0.0005)])
    def test_one_motif_past_the_mask_table_matches_the_per_set_loop(self, name, beta, n,
                                                                    max_links):
        sys = _LinkSystem(build_interaction([BUILTIN_MOTIFS[name]], [beta], n))
        masks, sizes, activities, bounds = _polymer_sums(sys, max_links)
        want_w, want_v = oracles.polymer_sums_by_set(sys, max_links)
        assert masks.dtype == (np.int64 if n == 8 else object)
        assert masks.tolist() == list(want_w) == list(want_v)
        assert sizes.tolist() == [m.bit_count() for m in want_w]
        assert [x.hex() for x in activities.tolist()] == [x.hex() for x in want_w.values()]
        assert [x.hex() for x in bounds.tolist()] == [x.hex() for x in want_v.values()]

    def test_spin_sum_site_guard(self):
        with pytest.raises(GuardExceeded):
            _spin_sum([], [], (1 << 21) - 1)


class TestUrsell:
    def test_single(self):
        assert ursell_coefficient([[A]]) == 1

    def test_overlapping_pair(self):
        assert ursell_coefficient([[A, B], [B, C]]) == -1

    def test_disjoint_pair(self):
        assert ursell_coefficient([[A], [B]]) == 0

    def test_repeated_support(self):
        assert ursell_coefficient([[A], [A]]) == -1

    def test_triangle_of_overlaps(self):
        assert ursell_coefficient([[A, B], [B, C], [C, A]]) == 2

    def test_path_of_three(self):
        assert ursell_coefficient([[A], [A, B], [B]]) == 1

    def test_four_cycle(self):
        assert ursell_coefficient([[A, B], [B, C], [C, D], [D, A]]) == -3

    def test_complete_four(self):
        assert ursell_coefficient([[E, A], [E, B], [E, C], [E, D]]) == -6

    def test_size_guard(self):
        with pytest.raises(GuardExceeded):
            ursell_coefficient([[A]] * 9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ursell_coefficient([])

    def test_matches_partition_recursion(self):
        # independent oracle: with f(S) = 1 when S spans no overlap edges and
        # 0 otherwise, the unconstrained signed sum factors over connected
        # blocks, f(S) = sum_{B containing min S} u(B) f(S - B), which pins
        # u(S) without ever enumerating spanning subgraphs
        def oracle(k, estar):
            def no_edges(s):
                return all(not (i in s and j in s) for i, j in estar)

            memo = {}

            def u(s):
                if len(s) == 1:
                    return 1
                if s not in memo:
                    v = min(s)
                    rest = sorted(s - {v})
                    total = 1 if no_edges(s) else 0
                    for pick in range(1 << len(rest)):
                        block = frozenset(
                            [v] + [rest[t] for t in range(len(rest))
                                   if pick >> t & 1])
                        if block == s:
                            continue
                        if no_edges(s - block):
                            total -= u(block)
                    memo[s] = total
                return memo[s]

            return u(frozenset(range(k)))

        rng = random.Random(19)
        sites = [(2 * i, 2 * i + 1) for i in range(40)]
        for _ in range(25):
            k = rng.randint(1, 6)
            estar = [(i, j) for i in range(k) for j in range(i + 1, k)
                     if rng.random() < 0.5]
            # realize the pattern: one private site per polymer plus one
            # shared site per overlap edge
            fresh = iter(sites)
            supports = [[next(fresh)] for _ in range(k)]
            for i, j in estar:
                shared = next(fresh)
                supports[i].append(shared)
                supports[j].append(shared)
            assert ursell_coefficient(supports) == oracle(k, estar)


class TestTruncatedExpansion:
    def test_single_polymer_taylor_series(self, edge):
        # one site, one polymer: partial sums must be those of log(1 + w)
        beta = 0.1
        K = build_interaction([edge], [beta], 2)
        w = math.expm1(2 * beta) / 2
        partials = truncated_log_partition(K, 6)
        taylor = 0.0
        for k in range(1, 7):
            taylor += (-1) ** (k - 1) * w ** k / k
            assert partials[k - 1] == pytest.approx(taylor, rel=1e-14)
        assert abs(partials[-1] - partition_normalized(K)) < w ** 7

    def test_first_order_edge_model(self, edge):
        for n in (3, 4, 5):
            beta = 0.2
            K = build_interaction([edge], [beta], n)
            partials = truncated_log_partition(K, 1)
            sites = n * (n - 1) // 2
            assert partials[0] == pytest.approx(
                sites * math.expm1(2 * beta) / 2, rel=1e-15)

    def test_converges_to_exact(self, two_star):
        K = build_interaction([two_star], [0.005], 3)
        exact = partition_normalized(K)
        gaps = [abs(p - exact) for p in truncated_log_partition(K, 4)]
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]
        assert gaps[-1] < 1e-9

    def test_zero_interaction(self, edge):
        K = build_interaction([edge], [0.0], 4)
        assert truncated_log_partition(K, 3) == [0.0, 0.0, 0.0]

    def test_order_window(self, edge):
        K = build_interaction([edge], [0.1], 3)
        with pytest.raises(ValueError):
            truncated_log_partition(K, 0)
        with pytest.raises(ValueError):
            truncated_log_partition(K, 9)

    @pytest.mark.parametrize("beta", [600.0, 10000.0])
    def test_activity_past_the_float_range_refused(self, two_star, beta):
        # At 600 products of expm1(300) overflow in the walk; at 10000
        # expm1(5000) itself does.  Neither may warn, and the certificate
        # fails on its infinite head instead of raising.
        K = build_interaction([two_star], [beta], 4)
        value = beta / 2
        assert max(map(abs, K.k_map.values())) == value
        message = (r"^the partial sum through order 1 is inf; the largest link is .*, "
                   rf"with K = {value!r}$")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=message):
                truncated_log_partition(K, 2)
            with pytest.raises(OverflowError, match=message):
                expansion_report([two_star], [beta], 4, order=2)
            cert = kp_certify(K, optimal_M(2))
        assert not cert.verdict and cert.max_site_sum == math.inf

    def test_partial_sum_past_the_float_range_refused(self):
        # Two disjoint single-site polymers of activity about 6e199: each
        # is finite, and so is order 1, but their pair at order 2 is not.
        K = Interaction(4, {((0, 1),): 460.0, ((2, 3),): 460.0}, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(truncated_log_partition(K, 1)[0])
            message = r"^the partial sum through order 2 is nan; the largest link is \(\(0, 1\),\)"
            with pytest.raises(OverflowError, match=message):
                truncated_log_partition(K, 2)


def polymer_system(names, betas, n, max_links):
    """Link system, polymers, their site masks and activities for one case."""
    K = build_interaction([BUILTIN_MOTIFS[x] for x in names], list(betas), n)
    sys = _LinkSystem(K)
    polymers = polymer_table(K, max_links)
    masks = [site_mask(K.n, p.support) for p in polymers]
    return K, sys, polymers, masks, [p.activity for p in polymers]


def assert_close(got, want, rel):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(Fraction(g) - Fraction(w)) <= rel * abs(Fraction(w)), (got, want)


@pytest.mark.parametrize("names,betas,n", ORACLE_CASES)
class TestLogSeriesOracles:
    """Plain, absolute and pinned cluster sums from the truncated log of the
    polymer-gas polynomial, against the multiset walk weighted by Ursell
    coefficients and against the same series in exact rationals."""

    def test_plain_matches_multiset_walk(self, names, betas, n):
        K, sys, polymers, masks, ws = polymer_system(names, betas, n, 3)
        got = _cluster_sums(len(sys.sites), masks, ws, 3)
        assert_close(got, oracles._cluster_sums(polymers, 3, sys), 1e-11)
        assert truncated_log_partition(K, 3, max_links=3) == list(accumulate(got))

    def test_abs_matches_multiset_walk(self, names, betas, n):
        _, sys, polymers, masks, ws = polymer_system(names, betas, n, 3)
        got = [-s for s in _cluster_sums(len(sys.sites), masks, [-abs(w) for w in ws], 3)]
        assert_close(got, oracles._cluster_sums(polymers, 3, sys, use_abs=True), 1e-11)

    def test_pinned_matches_multiset_walk(self, names, betas, n):
        K, sys, polymers, _, _ = polymer_system(names, betas, n, 3)
        for pin in sorted({0, len(polymers) // 2, len(polymers) - 1}):
            want = sum(oracles._cluster_sums(polymers, 3, sys, use_abs=True, required=pin))
            got = pinned_cluster_abs_sum(K, polymers[pin].support, 3, max_links=3)
            assert_close([got], [want], 1e-11)

    def test_plain_matches_exact_rationals(self, names, betas, n):
        _, sys, _, masks, ws = polymer_system(names, betas, n, 4)
        got = _cluster_sums(len(sys.sites), masks, ws, 4)
        assert_close(got, exact_log_series(masks, ws, 4), 1e-13)

    def test_abs_matches_exact_rationals(self, names, betas, n):
        _, sys, _, masks, ws = polymer_system(names, betas, n, 4)
        neg = [-abs(w) for w in ws]
        got = [-s for s in _cluster_sums(len(sys.sites), masks, neg, 4)]
        assert_close(got, [-s for s in exact_log_series(masks, neg, 4)], 1e-13)

    def test_pinned_matches_exact_rationals(self, names, betas, n):
        # in rationals the pinned mass is exactly the absolute total minus the
        # absolute total without the pinned polymer
        _, sys, _, masks, ws = polymer_system(names, betas, n, 4)
        neg = [-abs(w) for w in ws]
        total = exact_log_series(masks, neg, 4)
        for pin in sorted({0, len(masks) // 2, len(masks) - 1}):
            rest = exact_log_series(masks[:pin] + masks[pin + 1:],
                                    neg[:pin] + neg[pin + 1:], 4)
            got = _pinned_abs_sums(len(sys.sites), masks, ws, 4, pin)
            assert_close(got, [r - t for t, r in zip(total, rest)], 1e-13)


class TestSweepGuard:
    def test_limits(self):
        check_guard(7)  # n = 7, C(7,2) = 21 sites
        with pytest.raises(GuardExceeded):
            check_guard(8)  # n = 8, C(8,2) = 28 sites

    def test_report_refuses_before_work(self, two_star, triangle):
        start = time.perf_counter()
        with pytest.raises(GuardExceeded):
            expansion_report([two_star, triangle], [0.001, 0.001], 7, order=2)
        assert time.perf_counter() - start < 1.0

    def test_library_entry_points_refuse(self, two_star, triangle):
        K = build_interaction([two_star, triangle], [0.001, 0.001], 7)
        with pytest.raises(GuardExceeded) as info:
            truncated_log_partition(K, 2)
        assert info.value.hint == "lower --order or --max-links, or use a smaller --n"
        # the hint names remedies that run: one order, or one-link polymers
        assert len(truncated_log_partition(K, 1)) == 1
        assert len(truncated_log_partition(K, 2, max_links=1)) == 2
        with pytest.raises(GuardExceeded) as info:
            truncated_log_partition(build_interaction([two_star], [0.001], 8), 1, max_links=1)
        assert info.value.hint == "no option lifts the ceiling: use n <= 7"
        with pytest.raises(GuardExceeded):
            pinned_cluster_abs_sum(build_interaction([two_star], [0.001], 8), [(0, 1)], 1,
                                   max_links=1)


class TestSweepBudget:
    # Every nonempty mask over the 15 sites of K_6 as a polymer: each subset R
    # of the sites below P's highest outside P is one pair: (3^15 - 1)/2 per order.
    MASKS = range(1, 1 << 15)
    PAIRS = (3 ** 15 - 1) // 2

    def test_every_n6_sweep_fits(self):
        assert self.PAIRS * (ORDER_GUARD - 1) <= SWEEP_BUDGET
        weights = [1e-3] * len(self.MASKS)
        xi = _family_totals(15, self.MASKS, weights, ORDER_GUARD)
        assert len(xi) == ORDER_GUARD + 1

    def test_refused_before_the_table(self, monkeypatch):
        # One order past what fits: 10 orders past the first, 7.2e7 pairs.
        order = SWEEP_BUDGET // self.PAIRS + 2

        class NoTables:
            def __getattr__(self, name):
                return getattr(np, name)

            def zeros(self, *args, **kwargs):
                raise AssertionError("the sweep allocated its table")

        monkeypatch.setattr(subsets, "np", NoTables())
        with pytest.raises(GuardExceeded) as info:
            _family_totals(15, self.MASKS, [1e-3] * len(self.MASKS), order)
        assert str(info.value) == (f"the polymer-gas sweep through order {order} visits "
                                   f"{self.PAIRS * (order - 1)} (polymer, subset) pairs, "
                                   f"past the budget of {SWEEP_BUDGET}")

    def test_report_refuses_before_the_certificate(self, monkeypatch, two_star, triangle):
        # Two-star+triangle at n = 7 through order 4 is past the sweep budget;
        # the report refuses it without computing the certificate.
        def no_certificate(*args):
            raise AssertionError("the report computed the certificate")

        monkeypatch.setattr(expansion, "_certify", no_certificate)
        with pytest.raises(GuardExceeded, match="past the budget of"):
            expansion_report([two_star, triangle], [0.001, 0.001], 7, order=4)


class TestFamilySweep:
    def test_edge_model_at_n7(self, edge):
        # 21 one-site polymers over 2^21 site masks
        K = build_interaction([edge], [0.1], 7)
        sys = _LinkSystem(K)
        masks, ws = sys.masks, [math.expm1(v) / 2 for v in sys.values]
        got = _cluster_sums(len(sys.sites), masks, ws, 2)
        assert_close(got, exact_log_series(masks, ws, 2), 1e-13)
        # the per-mask sweep adds 2^21 column entries one by one: float-oracle tolerance
        table = oracles._family_sweep(len(sys.sites), masks, ws, 2)
        assert_close(got, oracles._log_series(table.sum(axis=0).tolist()), 1e-11)
        rep = expansion_report([edge], [0.1], 7, order=2, max_links=2)
        assert [row.partial_sum for row in rep.orders] == list(accumulate(got))


class TestResummation:
    def test_matches_transfer_sum(self, edge, two_star, triangle):
        for motifs, betas, n in (([edge], [0.4], 4),
                                 ([two_star], [0.15], 3),
                                 ([triangle], [0.6], 4),
                                 ([edge, triangle], [0.2, -0.3], 4)):
            K = build_interaction(motifs, betas, n)
            want = math.exp(partition_normalized(K))
            assert cluster_partition_sum(K) == pytest.approx(want, rel=1e-12)

    def test_empty_interaction(self, edge):
        K = build_interaction([edge], [0.0], 4)
        assert cluster_partition_sum(K) == 1.0


class TestPinnedMass:
    def test_certified_bound_holds(self, two_star):
        M = optimal_M(2)
        K = build_interaction([two_star], [HALF_BUDGET], 4)
        assert kp_certify(K, M, head_links=3).verdict
        table = polymer_table(K, 3)
        sample = [p for p in table if len(p.support) == 1] + \
                 [p for p in table if len(p.support) > 1][:4]
        for p in sample:
            bound = p.bound * M ** len(p.support)
            prev = 0.0
            for order in (1, 2, 3):
                mass = pinned_cluster_abs_sum(K, p.support, order, max_links=3)
                assert prev <= mass <= bound * (1 + 1e-12)
                prev = mass

    def test_unrealizable_support_rejected(self, two_star):
        K = build_interaction([two_star], [0.1], 4)
        with pytest.raises(ValueError):
            pinned_cluster_abs_sum(K, [(0, 1), (2, 3)], 3)


class TestCertificate:
    def test_empty_interaction_passes(self, edge):
        K = build_interaction([edge], [0.0], 4)
        cert = kp_certify(K, 2.0)
        assert cert.verdict
        assert set(cert.per_site_sums.values()) == {0.0}
        assert cert.norm == 0.0 and cert.tail == 0.0
        assert cert.max_site_sum == 0.0

    def test_head_past_the_float_range_fails_without_a_warning(self):
        # expm1(709) is finite, but its bound times M = 3 is not.
        K = Interaction(3, {((0, 1),): 709.0}, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = kp_certify(K, 3.0, head_links=1)
        assert not cert.verdict and cert.per_site_sums[(0, 1)] == math.inf

    def test_nan_head_term_counts_as_inf(self):
        # The pair's bound 1e-200 * 1e-200 underflows to 0.0, and its 3-site
        # support meets M^3 = inf: 0.0 * inf is NaN, which must fail safe.
        K = Interaction(3, {((0, 1), (0, 2)): 1e-200, ((0, 2), (1, 2)): 1e-200}, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = kp_certify(K, 1e300, head_links=2)
        assert not cert.verdict
        assert set(cert.per_site_sums.values()) == {math.inf}
        assert cert.margin == -math.inf and cert.worst_site == (0, 1)

    # At M = 1e300 the head's M^k and the tail's M^p are past the float
    # range; at M = 1e20 only the tail's powers c^n would be.
    @pytest.mark.parametrize("M", [1e20, 1e300])
    def test_weight_base_past_the_float_range_fails_without_a_warning(self, two_star, M):
        K = build_interaction([two_star], [0.001], 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = kp_certify(K, M)
        assert not cert.verdict and cert.tail == math.inf
        assert cert.reason.startswith("tail series divergent")

    def test_half_budget_passes(self, two_star):
        K = build_interaction([two_star], [HALF_BUDGET], 4)
        cert = kp_certify(K, optimal_M(2))
        assert cert.verdict
        assert cert.reason == ""
        assert cert.max_site_sum <= cert.log_m
        assert math.isfinite(cert.tail)

    def test_norm_cap_reported(self, two_star):
        K = build_interaction([two_star], [1.0], 4)
        cert = kp_certify(K, optimal_M(2))
        assert not cert.verdict
        assert math.isinf(cert.tail)
        assert "cap" in cert.reason

    def test_divergent_tail_reported(self, two_star):
        beta = 10 * region_bound(2, 3, optimal_M(2))
        K = build_interaction([two_star], [beta], 4)
        cert = kp_certify(K, optimal_M(2))
        assert banach_norm(K) < 0.5
        assert not cert.verdict
        assert math.isinf(cert.tail)
        assert "divergent" in cert.reason

    def test_margin_and_worst_site_of_a_pass(self, two_star):
        K = build_interaction([two_star], [HALF_BUDGET], 4)
        cert = kp_certify(K, optimal_M(2))
        assert cert.margin == cert.log_m - cert.max_site_sum > 0
        sums = list(cert.per_site_sums.values())
        first = sums.index(max(sums))
        assert cert.worst_site == list(cert.per_site_sums)[first]

    def test_margin_and_worst_site_of_a_fail(self, triangle):
        M = optimal_M(3)
        beta = 4 * region_bound(3, 3, M)
        cert = kp_certify(build_interaction([triangle], [beta], 8), M, head_links=2)
        assert not cert.verdict and math.isfinite(cert.tail)
        assert cert.margin == cert.log_m - cert.max_site_sum < 0
        assert cert.per_site_sums[cert.worst_site] == cert.max_site_sum
        # a divergent tail puts inf on every site: the first one is the worst
        cert = kp_certify(build_interaction([triangle], [beta], 10), M, head_links=2)
        assert cert.margin == -math.inf
        assert cert.worst_site == (0, 1)

    def test_worst_site_is_the_first_to_reach_the_max(self):
        # one link on site (1, 2) alone: every other site carries the tail only
        K = Interaction(n=3, k_map={((1, 2),): 0.01}, p_max=1)
        cert = kp_certify(K, 2.0, head_links=1)
        assert cert.worst_site == (1, 2)
        assert cert.margin == math.log(2.0) - (math.expm1(0.01) * 2.0 + cert.tail)
        K = Interaction(n=3, k_map={((0, 2),): 0.01, ((1, 2),): 0.01}, p_max=1)
        assert kp_certify(K, 2.0, head_links=1).worst_site == (0, 2)
        assert kp_certify(build_interaction([BUILTIN_MOTIFS["edge"]], [0.0], 3),
                          2.0).worst_site == (0, 1)
        assert kp_certify(build_interaction([BUILTIN_MOTIFS["edge"]], [0.1], 1),
                          2.0).worst_site is None

    def test_site_sums_grow_with_coupling(self, two_star):
        M = optimal_M(2)
        sums = [kp_certify(build_interaction([two_star], [t * HALF_BUDGET], 4),
                           M, head_links=2).max_site_sum
                for t in (0.0, 0.5, 1.0, 1.5, 2.0)]
        assert all(a <= b for a, b in zip(sums, sums[1:]))

    def test_head_dominates_singleton_term(self, edge):
        beta, M = 0.05, 2.0
        K = build_interaction([edge], [beta], 3)
        cert = kp_certify(K, M)
        for v in cert.per_site_sums.values():
            assert v >= math.expm1(2 * beta) * M

    def test_head_groups_the_hypergraph_sum(self, two_star, triangle):
        # sum over polymers N containing e of v_N M^|N| is the sum over
        # connected hypergraphs of prod expm1|K| M^|support|, grouped
        M = optimal_M(3)
        K = build_interaction([two_star, triangle], [0.0009, -0.0004], 4)
        cert = kp_certify(K, M, head_links=3)
        want = {site: 0.0 for site in cert.per_site_sums}
        for h in enumerate_connected_hypergraphs(K, 3):
            support = {e for X in h for e in X}
            term = math.prod(math.expm1(abs(K.k_map[X])) for X in h) * M ** len(support)
            for e in support:
                want[e] += term
        for site, got in cert.per_site_sums.items():
            assert got - cert.tail == pytest.approx(want[site], rel=1e-13)

    # The triangle at 6, 28, 66 and 136 sites: one, one, two and three words
    # of site bits; two-star+triangle with 957 and 14 798 polymers.
    @pytest.mark.parametrize("names, betas, n, links", [
        *(pytest.param(("triangle",), (0.0005,), n, 2, id=str(n)) for n in (4, 8, 12, 17)),
        *(pytest.param(("two-star", "triangle"), (0.0005, 0.0004), n, 4,
                       id=f"two-star+triangle-{n}") for n in (5, 6))])
    def test_head_is_the_per_polymer_loop(self, names, betas, n, links):
        M = optimal_M(3)
        K = build_interaction([BUILTIN_MOTIFS[name] for name in names], betas, n)
        cert = kp_certify(K, M, head_links=links)
        heads = dict.fromkeys(cert.per_site_sums, 0.0)
        for p in polymer_table(K, links):
            for site in p.support:
                heads[site] += p.bound * M ** len(p.support)
        assert {site: head + cert.tail for site, head in heads.items()} == cert.per_site_sums

    def test_validation(self, edge):
        K = build_interaction([edge], [0.1], 3)
        with pytest.raises(ValueError):
            kp_certify(K, 1.0)
        with pytest.raises(ValueError):
            kp_certify(K, 2.0, head_links=-1)


def expand_artifact(tmp_path, motifs, betas, n) -> dict:
    """The JSON artifact of `expand` at the library's defaults, read back."""
    out = tmp_path / "report.json"
    assert cli.main(["expand", "--motifs", *motifs, "--betas", *map(repr, betas),
                     "--n", str(n), "--out", str(out)]) == 0
    return json.loads(out.read_text())


class TestReport:
    def test_structure_and_convergence(self, two_star):
        rep = expansion_report([two_star], [HALF_BUDGET], 4)
        assert rep.p == 2 and rep.m == 3
        assert rep.M == optimal_M(2)
        assert [row.order for row in rep.orders] == [1, 2, 3, 4]
        assert rep.certificate.verdict
        assert rep.log_w_exact is not None
        for row in rep.orders:
            assert row.tail_bound is not None
            assert row.gap_to_exact <= row.tail_bound
        gaps = [row.gap_to_exact for row in rep.orders]
        assert gaps == sorted(gaps, reverse=True)

    def test_jsonable_layout(self, tmp_path):
        doc = expand_artifact(tmp_path, ["two-star"], [HALF_BUDGET], 3)
        assert set(doc) == {"n", "motifs", "betas", "norm", "log_w_exact",
                            "orders", "kp", "region"}
        assert set(doc["kp"]) == {"M", "max_site_sum", "logM", "margin", "worst_site",
                                  "verdict", "tail_order", "divergent", "reason"}
        assert set(doc["region"]) == {"p", "m", "M", "beta_budget"}
        for row in doc["orders"]:
            assert set(row) == {"order", "partial_sum", "gap_to_exact", "tail_bound"}
        assert doc["kp"]["verdict"] is True
        assert doc["kp"]["divergent"] is False

    def test_single_site_family_has_no_region(self, edge, tmp_path):
        rep = expansion_report([edge], [0.1], 4)
        assert rep.p == 1
        assert rep.M == 2.0
        assert rep.beta_budget is None
        doc = expand_artifact(tmp_path, ["edge"], [0.1], 4)
        assert doc["region"]["beta_budget"] is None
        assert all(row["tail_bound"] is None for row in doc["orders"])

    def test_zero_betas_report(self, tmp_path):
        doc = expand_artifact(tmp_path, ["two-star"], [0.0], 4)
        assert doc["kp"]["verdict"] is True
        assert doc["kp"]["max_site_sum"] == 0.0
        assert all(row["partial_sum"] == 0.0 for row in doc["orders"])

    def test_outputs_are_plain_floats(self, two_star, triangle):
        rep = expansion_report([two_star, triangle], [0.001, 0.0005], 4, order=3)
        values = [rep.log_w_exact, rep.norm, rep.certificate.tail]
        values += list(rep.certificate.per_site_sums.values())
        for row in rep.orders:
            values += [row.partial_sum, row.gap_to_exact, row.tail_bound]
        K = build_interaction([two_star], [0.001], 4)
        values += truncated_log_partition(K, 3, max_links=3)
        values += [p.activity for p in polymer_table(K, 3)]
        values += [pinned_cluster_abs_sum(K, [(0, 1)], 3, max_links=3),
                   cluster_partition_sum(K), partition_normalized(K)]
        assert all(type(v) is float for v in values)

    @pytest.mark.parametrize("head", [2, 5])
    def test_head_depth_matches_entry_points(self, two_star, triangle, head):
        # the certificate's head reaches max_links, at the optimal base
        motifs, betas = [two_star, triangle], [0.0009, -0.0007]
        rep = expansion_report(motifs, betas, 4, order=3, max_links=head)
        K = build_interaction(motifs, betas, 4)
        assert rep.M == optimal_M(3)
        assert rep.certificate == kp_certify(K, optimal_M(3), head)
        assert [row.partial_sum for row in rep.orders] == truncated_log_partition(K, 3, head)

    @pytest.mark.parametrize("knob", [{"M": 2.0}, {"head_links": 2}])
    def test_certificate_depth_and_base_are_no_keywords(self, two_star, knob):
        with pytest.raises(TypeError):
            expansion_report([two_star], [0.001], 4, **knob)

    @pytest.mark.parametrize("head", [None, 2, 5])
    def test_one_walk_per_report(self, two_star, triangle, head, monkeypatch):
        calls = []
        walk = expansion._connected_walk

        def counted(*args, **kwargs):
            calls.append(args[1])
            return walk(*args, **kwargs)

        monkeypatch.setattr(expansion, "_connected_walk", counted)
        links = {} if head is None else {"max_links": head}
        expansion_report([two_star, triangle], [0.0009, -0.0007], 4, order=3, **links)
        assert calls == [4 if head is None else head]

    def test_memory_of_a_warm_report(self, two_star, triangle):
        # two-star and triangle at n = 5, order 2, four links: 53 130 sets and
        # 957 polymers.  The per-set walk with dict sums and the per-polymer
        # sweep over every site mask peaked at 269 KB on this input; chunked
        # steps keep every temporary below that.
        args = ([two_star, triangle], [0.0005, -0.0004], 5)
        expansion_report(*args, order=2, max_links=4)
        tracemalloc.start()
        try:
            expansion_report(*args, order=2, max_links=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 269 * 1024

    def test_negative_max_links_refused_before_any_work(self, two_star, monkeypatch):
        K = build_interaction([two_star], [0.001], 4)

        def refuse(*args, **kwargs):
            raise AssertionError("work started before max_links was checked")

        monkeypatch.setattr(expansion, "build_interaction", refuse)
        monkeypatch.setattr(expansion, "_LinkSystem", refuse)
        with pytest.raises(ValueError, match="max_links cannot be negative"):
            expansion_report([two_star], [0.001], 4, order=2, max_links=-1)
        with pytest.raises(ValueError, match="max_links cannot be negative"):
            truncated_log_partition(K, 2, max_links=-1)
        with pytest.raises(ValueError, match="max_links cannot be negative"):
            polymer_table(K, -1)
        with pytest.raises(ValueError, match="max_links cannot be negative"):
            next(enumerate_connected_hypergraphs(K, -1))

    def test_deterministic(self, tmp_path):
        a = expand_artifact(tmp_path, ["two-star", "triangle"], [0.001, 0.0005], 3)
        b = expand_artifact(tmp_path, ["two-star", "triangle"], [0.001, 0.0005], 3)
        assert a == b
