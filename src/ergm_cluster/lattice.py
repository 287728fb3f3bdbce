"""Edge-subset densities and the induced finite-body lattice-gas interaction.

A motif H contributes to an edge subset X through maps whose edge image lands
inside X and covers all of it; d(H, X) is that count over n^m.  Summing d over
the subsets of E(G) recovers the homomorphism density t(H, G), which is what
lets a motif family act as a lattice gas on the C(n,2) edge sites with a
finite-body interaction K(X) = n^2 * sum_i beta_i d(H_i, X).  The counts
c(H, X) = n^m d(H, X) come from the one vertex-map walk of graphs._maps,
grouped by edge image: over K_n for every X at once (_support_counts, which
support_families divides by n^m, and the link table and ensemble's hom tables
read as they are), over X's own support for one X (exact_hom_count), and over
a graph G for the X inside E(G) (representation_check, pinned_density).

All structural densities are exact rationals; K values are floats with a
single documented rounding point in build_interaction.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from functools import lru_cache
from operator import mul
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from .graphs import (
    Motif,
    SimpleGraph,
    adjacency,
    canonical_edge,
    check_alignment,
    hom_density,
    _ValueType,
    _edge_images,
)

if TYPE_CHECKING:
    from fractions import Fraction

EdgeSubset = tuple[tuple[int, int], ...]


def freeze_sites(sites: Iterable[Sequence[int]], n: int) -> EdgeSubset:
    """Canonicalize a collection of vertex pairs into a sorted site tuple."""
    out = set()
    for pair in sites:
        u, v = pair
        out.add(canonical_edge(u, v, n))
    return tuple(sorted(out))


def exact_hom_count(H: Motif, X: EdgeSubset, n: int) -> int:
    """Number of maps V(H) -> V_n whose edge image lies inside X and covers X.

    Non-isolated motif vertices can only land on support vertices of X (their
    incident edges must map into X), so the maps are grouped by edge image
    over the host X on its support, relabeled 0..k-1 in order, which keeps
    every pair and the sort order canonical; isolated vertices contribute a
    free factor n each.  X goes through freeze_sites, so a pair outside V_n or
    a self-loop raises ValueError.  Short-circuits to 0 when |X| exceeds the
    motif edge count: p edges cannot cover more sites.
    """
    X = freeze_sites(X, n)
    if not X or len(X) > H.p:
        return 0
    verts = sorted({v for e in X for v in e})
    label = {v: i for i, v in enumerate(verts)}
    Y = tuple((label[u], label[v]) for u, v in X)
    counts, isolated = _edge_images(H, adjacency(len(verts), Y))
    return counts.get(Y, 0) * n ** isolated


def exact_density(H: Motif, X: EdgeSubset, n: int) -> Fraction:
    """d(H, X): exact homomorphism density of H on the edge subset X."""
    from fractions import Fraction

    if n < 1:
        raise ValueError("need at least one vertex")
    return Fraction(exact_hom_count(H, X, n), n ** H.m)


@lru_cache(maxsize=None)
def _support_counts(H: Motif, n: int) -> dict[EdgeSubset, int]:
    """c(H, X) = n^m d(H, X) for every X with d(H, X) != 0, memoized.

    Walks every map of the non-isolated motif vertices into V_n that sends no
    motif edge to a loop, and buckets the maps by their edge image; scanning
    the 2^C(n,2) subsets never happens.  Keys are canonical site tuples in
    sorted order; isolated motif vertices multiply each count by n.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    counts, isolated = _edge_images(H, [((1 << n) - 1) ^ (1 << v) for v in range(n)])
    scale = n ** isolated
    return {X: c * scale for X, c in sorted(counts.items())}


@lru_cache(maxsize=None)
def support_families(H: Motif, n: int) -> dict[EdgeSubset, Fraction]:
    """All X with d(H, X) != 0: the counts of _support_counts over n^m, in the
    same sorted key order, as exact rationals."""
    from fractions import Fraction

    denom = n ** H.m
    return {X: Fraction(c, denom) for X, c in _support_counts(H, n).items()}


def _images_in(H: Motif, G: SimpleGraph) -> list[EdgeSubset]:
    """The X inside E(G) with d(H, X) != 0: the edge images of the maps into G."""
    return list(_edge_images(H, adjacency(G.n, G.edges))[0])


def representation_check(H: Motif, G: SimpleGraph) -> bool:
    """Exact identity t(H, G) == sum of d(H, X) over subsets X of E(G).

    Only the X that are edge images of maps into G have d(H, X) != 0; each
    d(H, X) is counted afresh by exact_density on X's own support, so the sum
    shares no count with hom_density.
    """
    if G.n < 1:
        raise ValueError("need at least one vertex")
    total = sum(exact_density(H, X, G.n) for X in _images_in(H, G))
    return total == hom_density(H, G)


def pinned_density(H: Motif, G: SimpleGraph, e: Sequence[int]) -> Fraction:
    """Sum of d(H, X) over subsets X of E(G) that contain the site e.

    Bounded by m(m-1)/n^2 regardless of G: pinning one motif edge to e fixes
    an ordered vertex pair (m(m-1) ways) and frees the remaining m-2 images.
    The X are the edge images of the maps into G, as in representation_check.
    """
    from fractions import Fraction

    site = canonical_edge(e[0], e[1], G.n)
    return sum((exact_density(H, X, G.n) for X in _images_in(H, G) if site in X), Fraction(0))


class _InteractionFields(NamedTuple):
    n: int
    k_map: Mapping[EdgeSubset, float]
    p_max: int


class Interaction(_ValueType, _InteractionFields):
    """Sparse finite-body interaction on the edge sites of K_n.

    k_map, K's own copy of the given mapping sorted by link with float values,
    sends each X with freeze_sites(X, n) == X to K(X).  Exact zeros are never
    stored, and no stored X has more than p_max sites.  The fields are
    read-only; equal fields make equal interactions, which are unhashable.
    len(K) counts the links; iterating or indexing K gives its three fields.
    """

    __slots__ = ()

    def __new__(cls, n: int, k_map: Mapping[EdgeSubset, float], p_max: int) -> Interaction:
        if type(n) is not int:
            raise ValueError(f"vertex count {n!r} must be an integer")
        for X, v in k_map.items():
            if not X:
                raise ValueError("empty subsets cannot carry interaction")
            if len(X) > p_max:
                raise ValueError(f"{X} has more than p_max={p_max} sites")
            if freeze_sites(X, n) != X:
                raise ValueError(f"{X} is not a sorted tuple of distinct sites")
            if not abs(v) <= sys.float_info.max:
                raise ValueError(f"non-finite value {v} stored at {X}")
            if float(v) == 0.0:
                raise ValueError(f"exact zero stored at {X}")
        return tuple.__new__(cls, (n, {X: float(k_map[X]) for X in sorted(k_map)}, p_max))

    def links(self) -> list[EdgeSubset]:
        """Stored subsets in canonical sorted order."""
        return list(self.k_map)

    def __len__(self) -> int:
        return len(self.k_map)


class _LinkTable(NamedTuple):
    """The beta-free part of K for one (motifs, n): its links, grouped into classes.

    The links are the union of the motifs' support families.  A class holds
    the links that share one integer count vector (n^m_i d(H_i, X))_i, which
    is vectors[c] for classes[c]; each class is sorted, and the classes by
    their links.
    """

    classes: tuple[tuple[EdgeSubset, ...], ...]
    vectors: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def _link_table(motifs: tuple[Motif, ...], n: int) -> _LinkTable:
    """The link table of (motifs, n), memoized: every K on it is one value per class."""
    families = [_support_counts(H, n) for H in motifs]
    by_vector: dict[tuple[int, ...], list[EdgeSubset]] = defaultdict(list)
    for X in sorted(set().union(*families)):
        by_vector[tuple(f.get(X, 0) for f in families)].append(X)
    classes = sorted((tuple(c), v) for v, c in by_vector.items())
    return _LinkTable(classes=tuple(c for c, _ in classes),
                      vectors=tuple(v for _, v in classes))


def _class_couplings(motifs: Sequence[Motif], betas: Sequence[float],
                     n: int) -> tuple[_LinkTable, list[float]]:
    """(table, values): the link table of (motifs, n) and K's value on each class.

    K(X) = n^2 * sum_i beta_i c_i / n^m_i, with (c_i)_i the count vector of
    X's class and each beta taken through float() and then exactly as a
    binary rational.  Over the common denominator of the betas and the n^m_i
    every class has an integer numerator, so cancellations are exact; the one
    rounding is the correctly rounded int/int division per class.  A zero
    numerator gives 0.0; a nonzero one that rounds to zero raises ValueError,
    and one past the float range OverflowError, each with the class's first
    link: K is nonzero there but no float holds it.
    The caller checks the alignment.
    """
    table = _link_table(tuple(motifs), n)
    ratios = [float(b).as_integer_ratio() for b in betas]
    denom = math.lcm(1, *(d * n ** H.m for (_, d), H in zip(ratios, motifs)))
    scales = [a * denom // (d * n ** H.m) for (a, d), H in zip(ratios, motifs)]
    nums = [sum(map(mul, scales, vec)) for vec in table.vectors]
    values = []
    for c, v in zip(table.classes, nums):
        try:
            values.append(n * n * v / denom)
        except OverflowError:
            raise OverflowError(f"the exact K of the class of {c[0]} is past the float "
                                "range") from None
    lost = 0.0 in values and [c[0] for c, v, k in zip(table.classes, nums, values) if v and not k]
    if lost:
        raise ValueError(f"the exact K of the class of {min(lost)} is nonzero "
                         "but underflows to 0.0")
    return table, values


def build_interaction(motifs: Sequence[Motif], betas: Sequence[float], n: int) -> Interaction:
    """K(X) = n^2 * sum_i beta_i d(H_i, X), assembled exactly and rounded once per class.

    Links with equal count vectors share one value, computed by
    _class_couplings; exact zeros are dropped.
    """
    check_alignment(motifs, betas)
    table, values = _class_couplings(motifs, betas, n)
    k_map = {X: v for c, v in zip(table.classes, values) if v for X in c}
    return Interaction(n=n, k_map=k_map, p_max=max(H.p for H in motifs))


def banach_norm(K: Interaction) -> float:
    """sup over edge sites e of sum_{X contains e} |K(X)|; 0 when K is empty.

    Bounded above by m(m-1) * sum_i |beta_i| for an interaction built from
    motifs on at most m vertices.  The links are summed in sorted order, which
    fixes each site's rounding; the max of the non-negative sums needs no order.
    """
    per_site: dict[tuple[int, int], float] = defaultdict(float)
    for X, v in K.k_map.items():
        a = abs(v)
        for e in X:
            per_site[e] += a
    return max(per_site.values(), default=0.0)


def interaction_dump(K: Interaction) -> list[dict]:
    """Dump format: a JSON-ready list of {sites, value}, canonically sorted."""
    return [{"sites": [list(e) for e in X], "value": v} for X, v in K.k_map.items()]


def interaction_from_dump(n: int, p_max: int, terms: Iterable[dict]) -> Interaction:
    """Rebuild an Interaction from its dump plus the (n, p_max) envelope."""
    k_map: dict[EdgeSubset, float] = {}
    for term in terms:
        X = freeze_sites(term["sites"], n)
        if X in k_map:
            raise ValueError(f"duplicate subset {X} in dump")
        try:
            k_map[X] = float(term["value"])
        except OverflowError:  # an int no float holds: Interaction names it as given
            k_map[X] = term["value"]
    return Interaction(n=n, k_map=k_map, p_max=p_max)
