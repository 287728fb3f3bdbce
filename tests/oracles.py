"""Reference implementations that only the tests use.

Most compute a quantity the library also computes, by a slower and more
literal route: mask words by shifts and two's complement, the connected sets
one recursive step each, the recursive walk that carries supports and
products down in batches, and the polymer sums
recomputed from every set, the literal spin sum behind a polymer activity,
per-support hypergraph sums, signed connected-graph (Ursell) coefficients,
the polymer-gas sums by one pass over all 2^C(n,2) site masks per polymer,
cluster sums as
a walk over connected multisets of polymers, the same sums in exact rationals,
the majorant coefficients by their compositions recursion, their
generating-function identity by powering a truncated series, the distinct
columns of stacked tables by one lexsort, the links of each class inside
every configuration by masking, the energy of every configuration by one
masking pass per interaction link and by one float subset-sum transform,
log W by log-sum-exp over exact Fraction energies, the interaction
accumulated in Fractions, and
psi_n and the motif expectations summed graph by graph over one log-weight
per graph, the hom tables that those sums read by a numpy walk that grows
every vertex map at once, and the exact-image counts c(H, X) by inverting
that table.
Three check quantities the library never needs: the absolute cluster mass
pinned to one polymer, which the Kotecky-Preiss condition bounds, W resummed
over every family of disjoint polymers, which must equal the exact partition
function, and the central difference of psi_n in one coupling, which must
match the motif expectation.  The last few are small graph helpers the
library never calls: empty and complete graphs, a graph from its site mask
and back, every graph on n vertices (under the library's table ceiling), the
weighted density sum_i beta_i t(H_i, G), one site's absolute interaction
sum, and the Hamiltonian of one graph.  The interaction's JSON dump and its
reader serve only tests as well.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Sequence

import numpy as np

from ergm_cluster import subsets
from ergm_cluster.expansion import (
    Polymer,
    _check_order,
    _connected_item_sets,
    _LinkSystem,
    _log_series,
    _polymer_sums,
)
from ergm_cluster.ensemble import _subset_sums, expectation_densities, psi_n
from ergm_cluster.graphs import (
    GuardExceeded,
    Motif,
    SimpleGraph,
    _traversal_order,
    all_edge_sites,
    canonical_edge,
    check_alignment,
    check_guard,
    edge_index,
    hom_density,
    mask_sites,
    site_mask,
)
from ergm_cluster.lattice import EdgeSubset, Interaction, freeze_sites, support_families

URSELL_GUARD = 8
SPIN_GUARD = 20


def _spin_sum(values: Sequence[float], masks: Sequence[int], nmask: int) -> float:
    """Normalized sum over occupation states on the support of one hypergraph.

    Each link contributes exp(K(X) sigma_X) - 1 with sigma_X the product of
    the occupation numbers on its sites.  expm1(0) = 0 kills every state that
    leaves a link uncovered, so only the all-occupied state survives; the loop
    still runs the literal definition.
    """
    site_bits = []
    m = nmask
    while m:
        bit = m & -m
        m ^= bit
        site_bits.append(bit)
    s = len(site_bits)
    if s > SPIN_GUARD:
        raise GuardExceeded(f"spin sum over {s} sites exceeds guard {SPIN_GUARD}",
                            hint="use a support of fewer sites")
    total = 0.0
    for occ in range(1 << s):
        sigma = 0
        for j in range(s):
            if occ >> j & 1:
                sigma |= site_bits[j]
        prod = 1.0
        for val, lm in zip(values, masks):
            prod *= math.expm1(val if (sigma & lm) == lm else 0.0)
            if prod == 0.0:
                break
        total += prod
    return total / (1 << s)


def _subsystem(sys: _LinkSystem, nmask: int) -> tuple[list[int], list[int]]:
    """Indices of links inside nmask and their adjacency restricted there."""
    inside = [i for i, m in enumerate(sys.masks) if m and (m & nmask) == m]
    back = {i: j for j, i in enumerate(inside)}
    adj = [0] * len(inside)
    for j, i in enumerate(inside):
        nbrs = sys.adj[i]
        while nbrs:
            bit = nbrs & -nbrs
            nbrs ^= bit
            k = bit.bit_length() - 1
            if k in back:
                adj[j] |= 1 << back[k]
    return inside, adj


def polymer_activity(K: Interaction, N: Sequence[Sequence[int]], max_links: int) -> float:
    """w_N: spin-summed weight of all connected hypergraphs with support N.

    Only links inside N can participate, so the sum over hypergraphs is finite
    even without the max_links cut; the cut is honored anyway as the polymer
    universe is built from bounded hypergraphs.
    """
    sys = _LinkSystem(K)
    X = freeze_sites(N, K.n)
    if not X:
        raise ValueError("a polymer support cannot be empty")
    nmask = site_mask(K.n, X)
    inside, adj = _subsystem(sys, nmask)
    total = 0.0
    for idxs in _connected_item_sets(adj, max_links):
        support = 0
        for j in idxs:
            support |= sys.masks[inside[j]]
        if support != nmask:
            continue
        total += _spin_sum([sys.values[inside[j]] for j in idxs],
                           [sys.masks[inside[j]] for j in idxs], nmask)
    return total


def activity_bound(K: Interaction, N: Sequence[Sequence[int]], max_links: int) -> float:
    """v_N: the same hypergraph sum with every factor replaced by expm1(|K(X)|).

    Dominates |w_N| term by term."""
    sys = _LinkSystem(K)
    X = freeze_sites(N, K.n)
    if not X:
        raise ValueError("a polymer support cannot be empty")
    nmask = site_mask(K.n, X)
    inside, adj = _subsystem(sys, nmask)
    total = 0.0
    for idxs in _connected_item_sets(adj, max_links):
        support = 0
        prod = 1.0
        for j in idxs:
            support |= sys.masks[inside[j]]
            prod *= math.expm1(abs(sys.values[inside[j]]))
        if support == nmask:
            total += prod
    return total


def words_by_shifts(values: Sequence[int], width: int) -> np.ndarray:
    """Non-negative ints as rows of `width` int64 words, lowest first: each
    64-bit word cut out by shift and mask, then read as two's complement."""
    words = [[v >> 64 * j & (1 << 64) - 1 for j in range(width)] for v in values]
    rows = [[w - (w >> 63 << 64) for w in row] for row in words]
    return np.array(rows, dtype=np.int64).reshape(len(values), width)


def connected_sets_one_by_one(adj: Sequence[int], max_size: int) -> Iterator[tuple[int, ...]]:
    """Every connected subset of at most max_size items, one generator step each.

    The same depth-first extension as the library walk, but every set, the
    last level included, is its own recursive call: the order reference for
    the batched walk.
    """

    def rec(sub: tuple[int, ...], ext: int, covered: int,
            above: int) -> Iterator[tuple[int, ...]]:
        yield sub
        if len(sub) == max_size:
            return
        e = ext
        while e:
            wbit = e & -e
            e ^= wbit
            w = wbit.bit_length() - 1
            grow = adj[w] & ~covered & above
            yield from rec(sub + (w,), e | grow, covered | grow | wbit, above)

    if max_size <= 0:
        return
    for v in range(len(adj)):
        above = -1 << (v + 1)
        yield from rec((v,), adj[v] & above, (1 << v) | adj[v], above)


# One step of the recursive walk: (sub, support, w, v, leaves); see
# _connected_batches.
Batch = tuple[tuple[int, ...], int, float, float, int]


def _connected_batches(adj: Sequence[int], max_size: int, masks: Sequence[int],
                       ew: Sequence[float], ev: Sequence[float]) -> Iterator[Batch]:
    """Every connected subset of at most max_size items, exactly once, in batches.

    Items are graph nodes with adjacency bitmasks.  Depth-first extension
    rooted at each item r in turn, growing only through indices above r and
    only into nodes not already reachable, which is what makes each subset
    appear a single time.  Deterministic lowest-bit-first order.

    Each set sub shorter than max_size, and each single item when max_size is
    1, comes as one batch (sub, support, w, v, leaves): support ORs the items'
    masks, w and v are the left-to-right products of ew and ev over sub,
    carried down the recursion.  A set one item short of max_size hands over
    its extension bitmask as leaves: every bit x of it, lowest first, is the
    next set sub + (x,) in the order, with no batch of its own.  leaves is 0
    on the other batches.  GuardExceeded is raised as soon as the sets
    counted so far exceed subsets.DEFAULT_MAX_COUNT, read when the walk starts.
    """
    if max_size <= 0:
        return
    budget = max_count = subsets.DEFAULT_MAX_COUNT
    last = max_size - 1

    def rec(sub: tuple[int, ...], ext: int, covered: int, above: int,
            support: int, w: float, v: float) -> Iterator[Batch]:
        nonlocal budget
        full = len(sub) >= last
        leaves = ext if full else 0
        budget -= 1 + leaves.bit_count()
        if budget < 0:
            raise GuardExceeded(f"connected-set enumeration exceeded {max_count} sets",
                                hint="lower --max-links")
        yield sub, support, w, v, leaves
        if full:
            return
        e = ext
        while e:
            wbit = e & -e
            e ^= wbit
            x = wbit.bit_length() - 1
            grow = adj[x] & ~covered & above
            yield from rec(sub + (x,), e | grow, covered | grow | wbit, above,
                           support | masks[x], w * ew[x], v * ev[x])

    for r in range(len(adj)):
        above = -1 << (r + 1)
        # at max_size 1 a root is already full and has no leaves
        ext = adj[r] & above if last else 0
        yield from rec((r,), ext, (1 << r) | adj[r], above, masks[r], ew[r], ev[r])


def polymer_sums_by_set(sys: _LinkSystem, depth: int) -> tuple[dict[int, float], dict[int, float]]:
    """The library's polymer sums, recomputed from every connected set's tuple.

    Each set's support and its products of expm1(K) and expm1(|K|) are formed
    from scratch, left to right, and added per support with dict.get; the
    walk's sets come one by one through _connected_item_sets.
    """
    ew = [math.expm1(v) for v in sys.values]
    ev = [math.expm1(abs(v)) for v in sys.values]
    acc_w: dict[int, float] = {}
    acc_v: dict[int, float] = {}
    for idxs in _connected_item_sets(sys.adj, depth):
        support = 0
        w = 1.0
        v = 1.0
        for i in idxs:
            support |= sys.masks[i]
            w *= ew[i]
            v *= ev[i]
        acc_w[support] = acc_w.get(support, 0.0) + w
        acc_v[support] = acc_v.get(support, 0.0) + v
    activities = {mask: acc_w[mask] / (1 << mask.bit_count()) for mask in sorted(acc_w)}
    return activities, {mask: acc_v[mask] for mask in sorted(acc_v)}


def polymer_sum_dicts(sys: _LinkSystem, depth: int) -> tuple[dict[int, float], dict[int, float]]:
    """The library's polymer sums as two dicts, mask to activity and mask to bound."""
    masks, _, activities, bounds = _polymer_sums(sys, depth)
    return (dict(zip(masks.tolist(), activities.tolist())),
            dict(zip(masks.tolist(), bounds.tolist())))


def _family_sweep(site_count: int, masks: Sequence[int], weights: Sequence[float],
                  order: int) -> np.ndarray:
    """table[S, k]: sum over families of k pairwise-disjoint polymers whose
    supports tile the site mask S exactly, of the product of their weights.

    Polymers enter one at a time in the given order; families of more than
    `order` polymers are dropped, which truncates Xi(lambda) at lambda^order.
    """
    table = np.zeros((1 << site_count, order + 1), dtype=np.float64)
    table[0, 0] = 1.0
    rows = np.arange(1 << site_count, dtype=np.int64)
    for sup, w in zip(masks, weights):
        free = rows[(rows & sup) == 0]
        table[free | sup, 1:] += table[free, :-1] * w
    return table


def _spanning_connected(n: int, edges: Sequence[tuple[int, int]]) -> bool:
    if n == 1:
        return True
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    comps = n
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            comps -= 1
    return comps == 1


@lru_cache(maxsize=None)
def _ursell_pairs(n: int, pair_mask: int) -> int:
    """Sum of (-1)^|R| over connected spanning subgraphs R of the overlap graph.

    Exhaustive over subsets of the present overlap edges, memoized by the
    (n, overlap bitmask) pattern; dense patterns near the size guard are
    expensive, which is why tuple sizes are capped at URSELL_GUARD.
    """
    if n == 1:
        return 1
    pairs = list(combinations(range(n), 2))
    present = [pairs[k] for k in range(len(pairs)) if pair_mask >> k & 1]
    total = 0
    for sub in range(1 << len(present)):
        chosen = [present[j] for j in range(len(present)) if sub >> j & 1]
        if len(chosen) < n - 1:
            continue
        if _spanning_connected(n, chosen):
            total += -1 if len(chosen) & 1 else 1
    return total


def ursell_coefficient(supports: Sequence[Sequence[Sequence[int]]]) -> int:
    """Signed connected-graph coefficient of a tuple of polymer supports.

    Builds the overlap graph of the tuple (repeats allowed; equal supports
    always overlap) and sums (-1)^edges over its connected spanning subgraphs.
    Zero exactly when the overlap graph is disconnected.
    """
    k = len(supports)
    if k == 0:
        raise ValueError("the empty tuple has no coefficient")
    if k > URSELL_GUARD:
        raise GuardExceeded(f"tuple size {k} exceeds guard {URSELL_GUARD}",
                            hint="use fewer polymers")
    sets = [frozenset(tuple(e) for e in X) for X in supports]
    mask = 0
    for bit, (i, j) in enumerate(combinations(range(k), 2)):
        if sets[i] & sets[j]:
            mask |= 1 << bit
    return _ursell_pairs(k, mask)


def _blowup_ursell(r: int, pattern: int, comp: tuple[int, ...]) -> int:
    """Ursell coefficient of a multiset: r distinct supports with the given
    pairwise-overlap pattern, repeated comp[j] times each.

    The tuple overlap graph is the blow-up: copies of one support always
    overlap each other, cross copies follow the base pattern.
    """
    total = sum(comp)
    if total > URSELL_GUARD:
        raise GuardExceeded(f"cluster size {total} exceeds guard {URSELL_GUARD}",
                            hint="use fewer polymers")
    group = []
    for j, kj in enumerate(comp):
        group.extend([j] * kj)
    mask = 0
    base_pairs = {pair: bool(pattern >> bit & 1)
                  for bit, pair in enumerate(combinations(range(r), 2))}
    for bit, (a, b) in enumerate(combinations(range(total), 2)):
        ga, gb = group[a], group[b]
        if ga == gb or base_pairs[(ga, gb) if ga < gb else (gb, ga)]:
            mask |= 1 << bit
    return _ursell_pairs(total, mask)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` positive integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _cluster_sums(polymers: Sequence[Polymer], order: int, sys: _LinkSystem,
                  use_abs: bool = False, required: int | None = None) -> list[float]:
    """Per-size cluster sums S_1..S_order over the given polymer universe.

    A cluster is a multiset of polymers with connected overlap graph; ordered
    tuples collapse onto multisets with weight n!/prod k_j!, so each multiset
    contributes ursell * prod w^k / prod k!.  With use_abs the absolute-value
    version is accumulated, optionally restricted to multisets containing the
    polymer at index `required`.
    """
    per_size = [0.0] * (order + 1)
    if not polymers:
        return per_size[1:]
    pmasks = [site_mask(sys.n, p.support) for p in polymers]
    ws = [p.activity for p in polymers]
    adj = [0] * len(polymers)
    for i in range(len(polymers)):
        for j in range(i + 1, len(polymers)):
            if pmasks[i] & pmasks[j]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    fact = [math.factorial(i) for i in range(order + 1)]
    for base in _connected_item_sets(adj, order):
        if required is not None and required not in base:
            continue
        r = len(base)
        pattern = 0
        for bit, (a, b) in enumerate(combinations(range(r), 2)):
            if pmasks[base[a]] & pmasks[base[b]]:
                pattern |= 1 << bit
        base_w = [ws[i] for i in base]
        for total in range(r, order + 1):
            for comp in _compositions(total, r):
                coeff = _blowup_ursell(r, pattern, comp)
                if coeff == 0:
                    continue
                term = float(coeff)
                for wj, kj in zip(base_w, comp):
                    term *= wj ** kj / fact[kj]
                per_size[total] += abs(term) if use_abs else term
    return per_size[1:]


def exact_log_series(masks: Sequence[int], weights: Sequence[float],
                     order: int) -> list[Fraction]:
    """[lambda^1..lambda^order] of log Xi(lambda) in exact rationals.

    Xi_k sums the products of k pairwise-disjoint polymers, found by walking
    the families directly (no site-mask table), and the log is the truncated
    series sum_m (-1)^(m-1) (Xi - 1)^m / m (no log-derivative recursion).
    Each float weight enters as the exact binary rational behind it.
    """
    ws = [Fraction(w) for w in weights]
    xi = [Fraction(0)] * (order + 1)

    def walk(start: int, used: int, size: int, prod: Fraction) -> None:
        xi[size] += prod
        if size == order:
            return
        for i in range(start, len(masks)):
            if not masks[i] & used:
                walk(i + 1, used | masks[i], size + 1, prod * ws[i])

    walk(0, 0, 0, Fraction(1))
    x = [Fraction(0)] + xi[1:]
    power = [Fraction(1)] + [Fraction(0)] * order
    out = [Fraction(0)] * (order + 1)
    for m in range(1, order + 1):
        nxt = [Fraction(0)] * (order + 1)
        for i, a in enumerate(power):
            if a:
                for j in range(1, order + 1 - i):
                    nxt[i + j] += a * x[j]
        power = nxt
        for k in range(order + 1):
            out[k] += Fraction((-1) ** (m - 1), m) * power[k]
    return out[1:]


def gamma_by_compositions(p: int, n_max: int) -> tuple[Fraction, ...]:
    """gamma_1..gamma_n_max by the convolution recursion, 0-slot padded.

    gamma_1 = 1; for n >= 2,
    gamma_n = sum_{k=1..p} binom(p, k) sum over compositions n_1+..+n_k = n-1
    of gamma_{n_1} ... gamma_{n_k}.
    """
    g: list[Fraction] = [Fraction(0), Fraction(1)]
    for n in range(2, n_max + 1):
        total = Fraction(0)
        for k in range(1, p + 1):
            if n - 1 < k:
                break
            coeff = math.comb(p, k)
            for comp in _compositions(n - 1, k):
                prod = Fraction(coeff)
                for part in comp:
                    prod *= g[part]
                total += prod
        g.append(total)
    return tuple(g)


def identity_by_powering(p: int, gamma: Sequence[Fraction]) -> bool:
    """Does w = z (1 + w)^p hold through the tabulated order?  (1 + w)^p by
    square-and-multiply over truncated rational series; gamma is 0-padded."""
    n_max = len(gamma) - 1

    def mul(a: list, b: list) -> list:
        out = [0] * (n_max + 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b[:n_max + 1 - i]):
                out[i + j] += ai * bj
        return out

    w = [0, *gamma[1:]]
    base, power = [1, *w[1:]], [1] + [0] * n_max
    while p > 0:
        if p & 1:
            power = mul(power, base)
        p >>= 1
        if p:
            base = mul(base, base)
    return [0, *power[:n_max]] == w


def distinct_columns_by_sort(tables: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(rows, counts): the distinct columns of the stacked tables, in lexsort order.

    rows[i, c] is tables[i][x] for each of the counts[c] masks x of column c;
    read-only, because the memoized histograms share them.
    """
    order = np.lexsort(tables)
    cols = np.stack([t[order] for t in tables])
    starts = np.flatnonzero(np.r_[True, np.any(cols[:, 1:] != cols[:, :-1], axis=0)])
    rows, counts = cols[:, starts], np.diff(starts, append=cols.shape[1])
    rows.flags.writeable = counts.flags.writeable = False
    return rows, counts


def class_counts_by_masking(n: int, classes: Sequence[Sequence[EdgeSubset]]) -> list[np.ndarray]:
    """The links of each class inside every configuration on n vertices, by
    bitmask: one masking pass per link, in the smallest dtype holding len(c)."""
    idx = edge_index(n)
    masks = np.arange(1 << len(idx), dtype=np.int64)
    bits = [[sum(1 << idx[e] for e in X) for X in c] for c in classes]
    return [sum((masks & x) == x for x in c).astype(np.min_scalar_type(len(c))) for c in bits]


def energies_by_link(K: Interaction) -> np.ndarray:
    """sum K(X) over the stored X inside each configuration, by bitmask.

    Each stored X adds K(X) to every bitmask containing it, one comparison of
    all 2^C(n,2) masks per link, in sorted link order.
    """
    idx = edge_index(K.n)
    count = 1 << len(idx)
    energies = np.zeros(count, dtype=np.float64)
    masks = np.arange(count, dtype=np.int64)
    for X in sorted(K.k_map):
        xmask = 0
        for e in X:
            xmask |= 1 << idx[e]
        energies[(masks & xmask) == xmask] += K.k_map[X]
    return energies


def energies_by_subset_sums(K: Interaction) -> np.ndarray:
    """The same energies from one float subset-sum transform over the bitmasks.

    Each K(X) is written at the bitmask of X; this was the library's
    per-configuration route to log W before it grouped links by value.
    """
    idx = edge_index(K.n)
    energies = np.zeros(1 << len(idx), dtype=np.float64)
    for X, k in K.k_map.items():
        energies[sum(1 << idx[e] for e in X)] += k
    return _subset_sums(energies)


def log_w_by_log_sum_exp(K: Interaction) -> float:
    """log W by log-sum-exp over every configuration's energy, each summed
    exactly in Fractions: E* + log sum exp(E - E*) - C(n,2) log 2 about the
    largest energy E*, rounded once.  Any energy works, however large; the
    two logs carry an absolute error of a few ulp of C(n,2) log 2, so a small
    log W has no full relative precision here."""
    idx = edge_index(K.n)
    links = [(sum(1 << idx[e] for e in X), Fraction(v)) for X, v in K.k_map.items()]
    energies = [sum((v for x, v in links if x & mask == x), Fraction(0))
                for mask in range(1 << len(idx))]
    top = max(energies)
    shifted = math.fsum(math.exp(float(e - top)) for e in energies)
    return float(top + Fraction(math.log(shifted)) - len(idx) * Fraction(math.log(2.0)))


def interaction_by_fractions(motifs: Sequence[Motif], betas: Sequence[float],
                             n: int) -> Interaction:
    """K(X) = n^2 * sum_i beta_i d(H_i, X), accumulated in Fractions, rounded once."""
    check_alignment(motifs, betas)
    acc: dict[EdgeSubset, Fraction] = {}
    for H, b in zip(motifs, betas):
        fb = Fraction(b)
        if fb == 0:
            continue
        for X, d in support_families(H, n).items():
            acc[X] = acc.get(X, Fraction(0)) + fb * d
    n2 = n * n
    k_map = {X: float(n2 * v) for X, v in sorted(acc.items()) if v != 0}
    return Interaction(n=n, k_map=k_map, p_max=max(H.p for H in motifs))


def interaction_dump(K: Interaction) -> list[dict]:
    """A JSON-ready list of {sites, value}, one per link, in K's sorted order."""
    return [{"sites": [list(e) for e in X], "value": v} for X, v in K.k_map.items()]


def interaction_from_dump(n: int, p_max: int, terms: Iterable[dict]) -> Interaction:
    """Rebuild an Interaction from its dump plus the (n, p_max) envelope.

    Each value goes to Interaction as given, which refuses a non-finite one
    and a string, so a dump must carry numbers."""
    k_map: dict[EdgeSubset, float] = {}
    for term in terms:
        X = freeze_sites(term["sites"], n)
        if X in k_map:
            raise ValueError(f"duplicate subset {X} in dump")
        k_map[X] = term["value"]
    return Interaction(n=n, k_map=k_map, p_max=p_max)


def graph_log_weights(motifs: Sequence[Motif], betas: Sequence[float], n: int) -> np.ndarray:
    """n^2 * T(G) for every graph by bitmask, T(G) = sum_i beta_i t(H_i, G),
    from the hom tables of hom_table_by_numpy_walk."""
    check_alignment(motifs, betas)
    weights = np.zeros(1 << n * (n - 1) // 2, dtype=np.float64)
    n2 = float(n * n)
    for H, b in zip(motifs, betas):
        if b != 0:
            weights += (n2 * float(b) / n ** H.m) * hom_table_by_numpy_walk(H, n)
    return weights


def psi_by_graph(motifs: Sequence[Motif], betas: Sequence[float], n: int) -> float:
    """(1/n^2) log sum_G exp(n^2 T(G)), one max-shifted term per graph."""
    weights = graph_log_weights(motifs, betas, n)
    hi = float(np.max(weights))
    return (hi + math.log(float(np.sum(np.exp(weights - hi))))) / (n * n)


def expectations_by_graph(motifs: Sequence[Motif], betas: Sequence[float],
                          n: int) -> list[float]:
    """E[t(H_i, G)], one normalized probability per graph."""
    weights = graph_log_weights(motifs, betas, n)
    probs = np.exp(weights - np.max(weights))
    probs /= np.sum(probs)
    return [float(np.sum(hom_table_by_numpy_walk(H, n) * probs)) / n ** H.m for H in motifs]


def derivative_check(motifs: Sequence[Motif], betas: Sequence[float], n: int,
                     i: int, h: float = 1e-4) -> tuple[float, float]:
    """Central difference of psi_n in beta_i against the motif expectation.

    Returns (finite_difference, expectation); the two agree to O(h^2) because
    d psi_n / d beta_i = E[t(H_i, G)] at every finite n.
    """
    check_alignment(motifs, betas)
    if not 0 <= i < len(betas):
        raise ValueError(f"coordinate {i} out of range")
    if h <= 0:
        raise ValueError("step must be positive")
    up = list(betas)
    dn = list(betas)
    up[i] += h
    dn[i] -= h
    fd = (psi_n(motifs, up, n) - psi_n(motifs, dn, n)) / (2 * h)
    return fd, expectation_densities(motifs, betas, n)[i]


def hom_table_by_numpy_walk(H: Motif, n: int) -> np.ndarray:
    """hom_count(H, G) for every graph G on n vertices, indexed by bitmask,
    from a walk of its own: the maps of the non-isolated motif vertices are
    grown in numpy one vertex at a time, all at once, dropping those that send
    a motif edge to a loop; counting them per edge-image mask gives c(H, .),
    and one subset-sum transform over the C(n,2) bits gives the table.
    Isolated motif vertices add a free factor n each.  It holds every map at
    once, so keep H small."""
    earlier, isolated = _traversal_order(H)
    bit = np.zeros((n, n), dtype=np.int64)  # zero on the diagonal marks a loop
    for (u, v), k in edge_index(n).items():
        bit[u, v] = bit[v, u] = 1 << k
    images: list[np.ndarray] = []
    masks = np.zeros(1, dtype=np.int64)
    for js in earlier:
        cand = np.tile(np.arange(n), len(masks))
        images = [np.repeat(c, n) for c in images] + [cand]
        masks = np.repeat(masks, n)
        keep = np.ones(len(masks), dtype=bool)
        for j in js:
            b = bit[images[j], cand]
            keep &= b != 0
            masks |= b
        images = [c[keep] for c in images]
        masks = masks[keep]
    table = _subset_sums(
        np.bincount(masks, minlength=1 << n * (n - 1) // 2).astype(np.int64, copy=False))
    table *= n ** isolated
    return table


def image_counts_by_subset_differences(H: Motif, n: int) -> dict[EdgeSubset, int]:
    """c(H, X), the number of vertex maps whose edge image is exactly X, for
    every X with c != 0: hom(H, G) sums c(H, X) over X inside E(G), so the
    subset-difference (Moebius) transform of hom_table_by_numpy_walk inverts
    it, without the package's own map walk."""
    table = hom_table_by_numpy_walk(H, n)
    for s in range(len(table).bit_length() - 1):
        t = table.reshape(-1, 2, 1 << s)
        t[:, 1] -= t[:, 0]
    sites = all_edge_sites(n)
    return {tuple(sites[k] for k in range(len(sites)) if mask >> k & 1): c
            for mask, c in enumerate(table.tolist()) if c}


def _pinned_abs_sums(site_count: int, masks: Sequence[int], weights: Sequence[float],
                     order: int, pin: int) -> list[float]:
    """Per-size absolute mass of the clusters that contain polymer `pin`.

    Xi = Xi_without + lambda w0 Xi_disjoint, where Xi_without sums families
    without the pinned polymer and Xi_disjoint those disjoint from it, so the
    clusters holding it sum to log(1 + lambda w0 Xi_disjoint / Xi_without).
    Taking that ratio, rather than the difference of two cluster totals,
    keeps the small pinned mass free of cancellation.  Weights enter as -|w|.
    """
    rest = [i for i in range(len(masks)) if i != pin]
    table = _family_sweep(site_count, [masks[i] for i in rest],
                          [-abs(weights[i]) for i in rest], order - 1)
    rows = np.arange(1 << site_count, dtype=np.int64)
    without = table.sum(axis=0).tolist()
    disjoint = table[(rows & masks[pin]) == 0].sum(axis=0).tolist()
    ratio: list[float] = []
    for k in range(order):
        acc = disjoint[k]
        for j in range(1, k + 1):
            acc -= without[j] * ratio[k - j]
        ratio.append(acc)
    w0 = -abs(weights[pin])
    return [-s for s in _log_series([1.0] + [w0 * r for r in ratio])]


def pinned_cluster_abs_sum(K: Interaction, N: Sequence[Sequence[int]], order: int,
                           max_links: int = 4) -> float:
    """Absolute cluster mass through the given order of multisets containing N.

    This is the quantity the Kotecky-Preiss condition controls: when the
    certificate passes it is bounded by v_N * M^|N|.
    """
    _check_order(order)
    check_guard(K.n)
    sys = _LinkSystem(K)
    X = freeze_sites(N, K.n)
    masks, _, activities, _ = _polymer_sums(sys, max_links)
    masks = masks.tolist()
    if site_mask(K.n, X) not in masks:
        raise ValueError(f"{X} is not a realizable polymer support here")
    pin = masks.index(site_mask(K.n, X))
    return sum(_pinned_abs_sums(len(sys.sites), masks, activities.tolist(), order, pin))


def cluster_partition_sum(K: Interaction) -> float:
    """W resummed as sum over collections of pairwise-disjoint polymers.

    Polymer activities are aggregated over every connected hypergraph (no
    link-count cut: links inside a finite site set are finite), then the sum
    over disjoint collections is the site-mask sweep of the cluster sums,
    with room for one polymer per site.  Equals exp(partition_normalized(K))
    up to float arithmetic.
    """
    check_guard(K.n)
    sys = _LinkSystem(K)
    site_count = len(sys.sites)
    masks, _, activities, _ = _polymer_sums(sys, len(sys.links))
    table = _family_sweep(site_count, masks.tolist(), activities.tolist(), site_count)
    return float(np.sum(table))


def empty_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, frozenset())


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, frozenset(all_edge_sites(n)))


def graph_from_mask(n: int, mask: int) -> SimpleGraph:
    """Decode an edge-subset bitmask (canonical site order) into a graph."""
    if mask < 0 or mask >= (1 << len(all_edge_sites(n))):
        raise ValueError(f"mask {mask} out of range for n={n}")
    return SimpleGraph(n, frozenset(mask_sites(n, mask)))


def graph_mask(G: SimpleGraph) -> int:
    """Edge-subset bitmask of a graph in the canonical site order."""
    return site_mask(G.n, G.edges)


def enumerate_graphs(n: int) -> Iterator[SimpleGraph]:
    """All 2^C(n,2) labeled graphs on n vertices, in increasing bitmask order.

    Refused past the TABLE_SITES ceiling at the call, before the first graph
    is asked for.
    """
    check_guard(n, least=0)
    return (graph_from_mask(n, mask) for mask in range(1 << len(all_edge_sites(n))))


def weighted_density(motifs: Sequence[Motif], betas: Sequence[float], G: SimpleGraph) -> float:
    """Sum of beta_i * t(H_i, G), accumulated exactly and rounded once.

    Floats are binary rationals, so folding each beta in as a Fraction keeps
    the whole sum exact; the only rounding is the final conversion.
    """
    check_alignment(motifs, betas)
    total = Fraction(0)
    for H, b in zip(motifs, betas):
        total += Fraction(b) * hom_density(H, G)
    return float(total)


def pinned_abs_sum(K: Interaction, e: Sequence[int]) -> float:
    """Sum of |K(X)| over stored subsets X containing the site e."""
    site = canonical_edge(e[0], e[1], K.n)
    return sum(abs(v) for X, v in sorted(K.k_map.items()) if site in X)


def hamiltonian(K: Interaction, G: SimpleGraph) -> float:
    """H(sigma_G) = -sum over stored X inside E(G) of K(X).

    sigma_G is the edge-indicator configuration of G, so the product of
    occupation numbers over X is 1 exactly when X is a subset of E(G).
    Equals -n^2 * weighted_density for the motif family that built K.
    """
    if G.n != K.n:
        raise ValueError(f"graph on {G.n} vertices against interaction on {K.n}")
    total = 0.0
    for X, v in sorted(K.k_map.items()):
        if all(e in G.edges for e in X):
            total += v
    return -total
