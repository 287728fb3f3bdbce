"""Property tests of the cluster expansion and the hom tables.

Each expansion example is a family of built-in motifs, at least one of them
with two or more edges, at n = 3 or 4, with couplings whose absolute sum stays
inside half the certified region budget for the family's (p, m).  Each hom
table example, and each example of the one vertex-map walk, is a random motif
on at most 5 vertices with at least one edge, isolated vertices and several
components allowed, at n <= 5, and so is each example of the walk's placement
order; each histogram example is one to three such
motifs on at most 4 vertices, at n <= 5, and each link-histogram example adds
couplings that may be zero or equal.  Each interaction example is one to
three motifs, repeats allowed, drawn from the built-in ones, the diamond, K4
and random motifs on at most 4 vertices, at n <= 7, with couplings that may be
0, -0.0 or the smallest subnormal, or of any magnitude from 1e-320 to 1e5; its
log W is checked where the exact ensemble runs without force, n = 2..6.  Each
distinct-columns example is one to five tables of 1 to 40 entries, all uint8
or all int64, each with its own value range, from a single value to the whole
int64 range.  Each polymer-sum example draws such a family with random
couplings and two walk depths in 0..4, and is kept when its walk has at most
WALK_CAP connected sets, which bounds its running time.  Each polymer-gas example is up to ten distinct
nonempty site masks on at most six sites, in any order, with weights of
either sign in [-1, 1], and an order in 1..4.  Each link-order example is one
to three random motifs on at most 4 vertices at n = 2..4, with couplings in
[-1, 1], and K's links in a drawn order.  The examples are derandomized, so
every run checks the same ones.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import accumulate, permutations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ergm_cluster import (
    BUILTIN_MOTIFS,
    Interaction,
    Motif,
    banach_norm,
    build_interaction,
    ensemble_result,
    exact_hom_count,
    expansion_report,
    hom_count,
    kp_certify,
    optimal_M,
    partition_normalized,
    polymer_table,
    region_bound,
    support_families,
    truncated_log_partition,
)
from ergm_cluster.ensemble import (
    _distinct_columns,
    _link_classes,
    _link_histogram,
    _statistic_histogram,
    motif_hom_table,
)
from ergm_cluster.expansion import _cluster_sums, _connected_item_sets, _LinkSystem, _log_series
from ergm_cluster.graphs import GuardExceeded, _traversal_order, all_edge_sites, edge_index, \
    site_mask

from oracles import _family_sweep, distinct_columns_by_sort, exact_log_series, \
    graph_from_mask, image_counts_by_subset_differences, interaction_by_fractions, \
    polymer_sum_dicts, polymer_sums_by_set

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                             database=None)
WALK_CAP = 100_000


@st.composite
def families(draw):
    names = draw(st.lists(st.sampled_from(sorted(BUILTIN_MOTIFS)), min_size=1,
                          max_size=len(BUILTIN_MOTIFS), unique=True)
                 .filter(lambda ns: any(BUILTIN_MOTIFS[x].p >= 2 for x in ns)))
    motifs = [BUILTIN_MOTIFS[x] for x in names]
    p = max(H.p for H in motifs)
    half = region_bound(p, max(H.m for H in motifs), optimal_M(p)) / 2
    shares = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(motifs),
                           max_size=len(motifs)))
    betas = [half * s / len(motifs) for s in shares]
    return motifs, betas, draw(st.sampled_from([3, 4]))


@PROPERTY_SETTINGS
@given(families(), st.integers(1, 4))
def test_partials_match_exact_rationals(family, order):
    # The float error of a partial sum scales with the absolute cluster mass
    # behind it, so that mass (exact) is the scale of the comparison.
    motifs, betas, n = family
    K = build_interaction(motifs, betas, n)
    sys = _LinkSystem(K)
    polymers = polymer_table(K, 4)
    masks = [site_mask(K.n, p.support) for p in polymers]
    ws = [p.activity for p in polymers]
    want = list(accumulate(exact_log_series(masks, ws, order)))
    mass = list(accumulate(-s for s in exact_log_series(masks, [-abs(w) for w in ws], order)))
    got = truncated_log_partition(K, order)
    for g, w, a in zip(got, want, mass):
        assert abs(Fraction(g) - w) <= Fraction(1e-13) * a


@PROPERTY_SETTINGS
@given(families())
def test_every_order_inside_its_tail_bound(family):
    # Exact arithmetic would give gap <= tail bound.  The exact log W is good
    # to a few ulp of itself, but the float partial sums of the series are
    # not: they can land several ulp of the partial away from the exact value,
    # beyond a tail bound many orders smaller (or one that underflows to 0).
    # The allowance of 16 ulp of C(n,2) log 2 covers that until the series is
    # rounded outward (see the FOUND line on this test in CHANGES.md).
    motifs, betas, n = family
    rep = expansion_report(motifs, betas, n)
    assert rep.certificate.verdict
    rounding = 16 * math.ulp(1.0) * n * (n - 1) / 2 * math.log(2.0)
    for row in rep.orders:
        assert row.gap_to_exact <= row.tail_bound + rounding, row


@st.composite
def polymer_gases(draw):
    sites = draw(st.integers(1, 6))
    masks = draw(st.lists(st.integers(1, (1 << sites) - 1), min_size=1, max_size=10,
                          unique=True))
    weights = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(masks), max_size=len(masks)))
    return sites, masks, weights, draw(st.integers(1, 4))


@PROPERTY_SETTINGS
@given(polymer_gases())
def test_family_sweep_matches_rationals_and_the_per_mask_sweep(gas):
    # Both signs of weight, polymers in any order.  The float error of a
    # cluster sum scales with the absolute cluster mass behind it.
    sites, masks, weights, order = gas
    got = _cluster_sums(sites, masks, weights, order)
    want = exact_log_series(masks, weights, order)
    mass = [-s for s in exact_log_series(masks, [-abs(w) for w in weights], order)]
    per_mask = _log_series(_family_sweep(sites, masks, weights, order).sum(axis=0).tolist())
    for g, w, p, a in zip(got, want, per_mask, mass):
        assert abs(Fraction(g) - w) <= Fraction(1e-13) * a
        assert abs(Fraction(g) - Fraction(p)) <= Fraction(1e-11) * a


@st.composite
def motifs(draw, max_m=5):
    m = draw(st.integers(2, max_m))
    pairs = [(u, v) for u in range(m) for v in range(u + 1, m)]
    edges = draw(st.sets(st.sampled_from(pairs), min_size=1))
    return Motif("drawn", m, frozenset(edges))


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(motifs())
def test_traversal_order_places_every_vertex_next_to_a_placed_one(H):
    # Some order of the non-isolated vertices sends the positions in earlier
    # onto the motif's edges, each edge once.  Each position joins at most one
    # earlier part, so every part is a whole component, rooted at its first.
    earlier, isolated = _traversal_order(H)
    touched = sorted({v for e in H.edges for v in e})
    assert isolated == H.m - len(touched) == H.m - len(earlier)
    pairs = [(j, i) for i, js in enumerate(earlier) for j in js]
    assert len(pairs) == H.p and all(j < i for j, i in pairs)
    assert any({(min(o[j], o[i]), max(o[j], o[i])) for j, i in pairs} == H.edges
               for o in permutations(touched))
    part: list[int] = []
    for i, js in enumerate(earlier):
        joined = {part[j] for j in js}
        assert len(joined) <= 1
        part.append(joined.pop() if joined else i)


@PROPERTY_SETTINGS
@given(motifs(), st.integers(1, 5))
def test_hom_table_matches_backtracking(H, n):
    table = motif_hom_table(H, n)
    assert len(table) == 1 << n * (n - 1) // 2
    for mask, count in enumerate(table.tolist()):
        assert count == hom_count(H, graph_from_mask(n, mask)), mask


@settings(PROPERTY_SETTINGS, max_examples=60)
@example(Motif("two-components", 5, frozenset({(0, 2), (3, 4)})), 4, [0b110001, 1023])
@given(motifs(), st.integers(1, 5), st.lists(st.integers(1, (1 << 10) - 1), max_size=4))
def test_one_map_walk_inverts_the_hom_table(H, n, drawn):
    # c(H, X) = n^m d(H, X) from support_families and from exact_hom_count,
    # against the subset differences of the numpy hom table; drawn masks
    # outside the family must count 0.
    want = image_counts_by_subset_differences(H, n)
    fam = support_families(H, n)
    assert list(fam) == sorted(want)
    assert {X: d * n ** H.m for X, d in fam.items()} == want
    for X, count in want.items():
        assert exact_hom_count(H, X, n) == count
    sites = all_edge_sites(n)
    for mask in drawn:
        X = tuple(sites[k] for k in range(len(sites)) if mask >> k & 1)
        if X and X not in want:
            assert exact_hom_count(H, X, n) == 0, X


@PROPERTY_SETTINGS
@given(st.lists(motifs(max_m=4), min_size=1, max_size=3), st.integers(1, 5))
def test_histogram_partitions_the_graphs(family, n):
    tables = [motif_hom_table(H, n) for H in family]
    rows, counts = _statistic_histogram(tuple(family), n)
    assert int(counts.sum()) == 1 << n * (n - 1) // 2
    for row, table in zip(rows.tolist(), tables):
        assert sum(c * h for c, h in zip(counts.tolist(), row)) == int(table.sum())
    want = Counter(zip(*(t.tolist() for t in tables)))
    assert dict(zip(map(tuple, rows.T.tolist()), counts.tolist())) == want


@PROPERTY_SETTINGS
@given(st.lists(motifs(max_m=4), min_size=1, max_size=3), st.integers(1, 5), st.data())
def test_link_histogram_partitions_the_configurations(family, n, data):
    # Zero and repeated couplings drop and merge value classes.
    betas = data.draw(st.lists(st.one_of(st.sampled_from([0.0, 0.5, -0.25]),
                                         st.floats(-1.0, 1.0)),
                               min_size=len(family), max_size=len(family)))
    K = build_interaction(family, betas, n)
    classes, values = _link_classes(K)
    assert sorted(X for c in classes for X in c) == sorted(K.k_map)
    assert [{K.k_map[X] for X in c} for c in classes] == [{v} for v in values]
    assert len(set(values)) == len(values)
    if not classes:
        return
    rows, counts = _link_histogram(n, classes)
    sites = n * (n - 1) // 2
    assert int(counts.sum()) == 1 << sites
    idx = edge_index(n)
    masks = [[sum(1 << idx[e] for e in X) for X in c] for c in classes]
    want = Counter(tuple(sum(x & config == x for x in c) for c in masks)
                   for config in range(1 << sites))
    assert dict(zip(map(tuple, rows.T.tolist()), counts.tolist())) == want


FOUR_VERTEX = [Motif("diamond", 4, frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)})),
               Motif("K4", 4, frozenset((u, v) for u in range(4) for v in range(u + 1, 4)))]
MAGNITUDES = st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
                       st.floats(-320.0, 5.0))
COUPLINGS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.5, -0.25]),
                      MAGNITUDES, MAGNITUDES)


def _interaction_or_error(build, family, betas, n):
    try:
        K = build(family, betas, n)
    except ValueError as exc:  # a nonzero K(X) that rounds to 0.0
        return type(exc)
    return [(X, v.hex()) for X, v in K.k_map.items()]


@settings(PROPERTY_SETTINGS, max_examples=300)
@example([BUILTIN_MOTIFS["two-star"]] * 2, 4, [0.7, -0.7, 0.0])
@example([BUILTIN_MOTIFS["edge"], BUILTIN_MOTIFS["triangle"]], 6, [0.5, 1.0, 0.0])
@example([BUILTIN_MOTIFS["two-star"]], 5, [5e-324, 0.0, 0.0])
@given(st.lists(st.one_of(st.sampled_from([BUILTIN_MOTIFS[x] for x in sorted(BUILTIN_MOTIFS)]
                                          + FOUR_VERTEX),
                          motifs(max_m=4)), min_size=1, max_size=3),
       st.sampled_from(range(1, 8)), st.lists(COUPLINGS, min_size=3, max_size=3))
def test_interaction_is_the_fraction_sum_rounded_once(family, n, betas):
    # Same keys in the same order, the same float.hex, or the same refusal;
    # where the exact ensemble runs without force, its log W from the link
    # table's classes is partition_normalized of that K, bit for bit.
    betas = betas[:len(family)]
    got = _interaction_or_error(build_interaction, family, betas, n)
    assert got == _interaction_or_error(interaction_by_fractions, family, betas, n)
    if n < 2 or n > 6:
        return
    if got is ValueError:
        with pytest.raises(ValueError):
            ensemble_result(family, betas, n)
        return
    want = partition_normalized(build_interaction(family, betas, n))
    assert ensemble_result(family, betas, n).log_w_normalized.hex() == want.hex()


@PROPERTY_SETTINGS
@given(st.lists(motifs(max_m=4), min_size=1, max_size=3), st.integers(2, 4), st.data())
def test_interaction_fixes_its_link_order(family, n, data):
    # K from its links in any order is K: sorted keys, and the same bits from
    # the exact route, the norm and the certificate's per-site sums.
    betas = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(family),
                               max_size=len(family)))
    K = build_interaction(family, betas, n)
    shuffled = Interaction(n, dict(data.draw(st.permutations(list(K.k_map.items())))), K.p_max)
    assert shuffled == K and list(shuffled.k_map) == sorted(K.k_map)
    assert partition_normalized(shuffled).hex() == partition_normalized(K).hex()
    assert banach_norm(shuffled).hex() == banach_norm(K).hex()
    M = optimal_M(max(2, K.p_max))
    sums = [[(e, v.hex()) for e, v in kp_certify(L, M, 2).per_site_sums.items()]
            for L in (shuffled, K)]
    assert sums[0] == sums[1]


INT64 = (-1 << 63, (1 << 63) - 1)


# The table dtypes that reach _distinct_columns, with the value ranges drawn:
# the unsigned ones up to their full range, int64 up to all of it (None).
TABLE_WIDTHS = {np.uint8: [1, 2, 3, 7, 50, 1 << 8], np.uint16: [1, 3, 300, 1 << 16],
                np.uint32: [1, 3, 70000, 1 << 32], np.int64: [1, 2, 5, 100, 1 << 40, None]}


@st.composite
def stacked_tables(draw):
    """One to five equal-length tables; each draws its own dtype and value range."""
    size = draw(st.integers(1, 40))
    tables = []
    for _ in range(draw(st.integers(1, 5))):
        dtype = draw(st.sampled_from(list(TABLE_WIDTHS)))
        width = draw(st.sampled_from(TABLE_WIDTHS[dtype]))
        lo = draw(st.integers(-1000, 1000)) if dtype is np.int64 else 0
        values = st.integers(*INT64) if width is None else st.integers(lo, lo + width - 1)
        tables.append(np.array(draw(st.lists(values, min_size=size, max_size=size)),
                               dtype=dtype))
    return tables


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(stacked_tables())
# Only folds; a re-rank by counting before the third fold; a table too wide
# for any fold, ranked by sorting (and re-ranked by counting at once).
@example([np.array([0, 1, 1], dtype=np.uint8)])
@example([np.array(t, dtype=np.uint8) for t in ([0, 1], [0, 1], [1, 0])])
@example([np.array(t, dtype=np.int64) for t in ([5, -3], [-(1 << 63), (1 << 63) - 1])])
# A full-range uint32 table ranked by sorting, then a uint16 table folded.
@example([np.array([1, 0, 1], dtype=np.uint16),
          np.array([0, (1 << 32) - 1, 0], dtype=np.uint32)])
def test_distinct_columns_match_the_lexsort_oracle(tables):
    got, want = _distinct_columns(tables), distinct_columns_by_sort(tables)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)
        assert not a.flags.writeable and not b.flags.writeable
        assert (a.flags.c_contiguous, a.flags.f_contiguous) == \
            (b.flags.c_contiguous, b.flags.f_contiguous)


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(st.lists(motifs(max_m=4), min_size=1, max_size=3), st.integers(3, 5),
       st.integers(0, 4), st.data())
def test_batched_polymer_sums_match_the_per_set_loop(family, n, max_links, data):
    betas = data.draw(st.lists(st.floats(-1.0, 1.0).filter(bool), min_size=len(family),
                               max_size=len(family)))
    sys = _LinkSystem(build_interaction(family, betas, n))
    try:
        for _ in _connected_item_sets(sys.adj, max_links, WALK_CAP):
            pass
    except GuardExceeded:
        assume(False)
    got = polymer_sum_dicts(sys, max_links)
    want = polymer_sums_by_set(sys, max_links)
    for g, w in zip(got, want):
        assert list(g) == list(w)
        assert [x.hex() for x in g.values()] == [x.hex() for x in w.values()]
