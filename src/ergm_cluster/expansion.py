"""Polymer expansion of the normalized partition function.

The links of an interaction are its stored subsets; a hypergraph is a set of
links, connected when the links cannot be split into two groups with disjoint
supports.  Grouping connected hypergraphs by their support N gives polymers
with activity w_N; disjoint collections of polymers resum the partition
function exactly.  One walk over the connected link sets accumulates, per
support mask, the activities and the bounds of the sets up to one link
depth; the series and the certificate both read it.  The walk
(subsets._connected_walk) builds the sets level by level, all roots
together, in numpy chunks that carry each set's support mask and its running
products of expm1(K) and expm1(|K|); the chunks come in depth-first order,
so every sum is added in the same order, and comes out bit for bit the same,
as a per-set loop would give.
Scaling every activity by lambda, the per-size cluster sum S_k is
[lambda^k] log Xi(lambda), where Xi sums over families of pairwise disjoint
polymers (the Mayer expansion read as a formal power series).  One sweep
(subsets._family_totals) fills the families that tile each site mask, block
by block of the masks' highest site, with every polymer of that highest site
in one vectorized step; the log-series recursion follows.  The per-site Kotecky-Preiss condition
sum_{N containing e} |w_N|-bound * M^|N| <= log M is certified by the
polymer bounds up to a link-count head plus the analytic coefficient tail.

Enumeration order everywhere is fixed: links in canonical subset order,
connected sets by depth-first extension over that order, polymers in site-mask
order.  Results are bit-reproducible across runs.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import accumulate
from operator import or_
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .coefficients import (_majorant_tail, _or_inf, _validate_base, optimal_M, radius_and_tail,
                           region_bound)
from .ensemble import partition_normalized
from .graphs import (TABLE_SITES, Motif, all_edge_sites, check_alignment, check_guard,
                     mask_sites, site_mask)
from .lattice import EdgeSubset, Interaction, banach_norm, build_interaction
from .subsets import CHUNK, _connected_walk, _family_totals, _words

ORDER_GUARD = 8
# Majorant coefficients summed order by order before the geometric tail takes over.
TABLE_ORDER = 30


class _LinkSystem:
    """Indexed view of an interaction's links for the enumeration routines."""

    def __init__(self, K: Interaction):
        self.n = K.n
        self.sites = all_edge_sites(K.n)
        self.links: tuple[EdgeSubset, ...] = tuple(K.k_map)
        self.values = tuple(K.k_map.values())
        self.masks = tuple(site_mask(K.n, X) for X in self.links)
        # Link overlap graph: adjacency bitmasks over link indices, each link
        # the union of the links on its sites, itself left out.
        by_site = dict.fromkeys(self.sites, 0)
        for i, X in enumerate(self.links):
            for e in X:
                by_site[e] |= 1 << i
        self.adj = [reduce(or_, (by_site[e] for e in X)) & ~(1 << i)
                    for i, X in enumerate(self.links)]


def _last_item(prefix: np.ndarray, item: np.ndarray) -> np.ndarray:
    return np.where(item > 0, item, prefix)


def _connected_item_sets(adj: Sequence[int], max_size: int) -> Iterator[tuple[int, ...]]:
    """The sets of _connected_walk one by one, as tuples of item indices.

    In depth-first order a set of k items is the last set of k - 1 items
    before it plus its own last item."""
    prefix: list[int] = []
    columns = [(np.ones(len(adj), dtype=np.int64), np.add, 0),
               (np.arange(len(adj)), _last_item, 0)]
    for sizes, last in _connected_walk(adj, max_size, columns):
        for size, item in zip(sizes.tolist(), last.tolist()):
            del prefix[size - 1:]
            prefix.append(item)
            yield tuple(prefix)


@np.errstate(over="ignore", invalid="ignore")
def _polymer_sums(sys: _LinkSystem, depth: int) -> tuple[np.ndarray, ...]:
    """(masks, sizes |N|, activities, bounds) of the polymers built from at most
    depth links, in sorted mask order, from one walk over the connected link sets.

    Each set adds its product of expm1(K) to its support's activity and its
    product of expm1(|K|) to its bound, in walk order: np.add.at adds in
    index order and 0.0 + w == w, so every sum is bit for bit the one a
    per-set loop gives.  Masks are int64 while the sites fit, Python ints
    beyond.  A sum past the float range is inf or nan, without a warning.
    """
    site_count = len(sys.sites)
    dtype = np.int64 if site_count < 64 else object
    columns = [(np.array(sys.masks, dtype=dtype), np.bitwise_or, 0),
               (np.array([_or_inf(math.expm1, v) for v in sys.values]), np.multiply, 1.0),
               (np.array([_or_inf(math.expm1, abs(v)) for v in sys.values]), np.multiply, 1.0)]
    # Sums sit at their mask in a table up to the sweeps' ceiling, in dicts
    # beyond it, where only kp_certify and polymer_table reach.
    dense = site_count <= TABLE_SITES
    sums = np.zeros((2, 1 << site_count)) if dense else ({}, {})
    seen = np.zeros(1 << site_count, dtype=bool) if dense else None
    for support, *terms in _connected_walk(sys.adj, depth, columns):
        if dense:
            seen[support] = True
        for acc, x in zip(sums, terms):
            if dense:
                np.add.at(acc, support, x)
            else:
                for mask, term in zip(support.tolist(), x.tolist()):
                    acc[mask] = acc.get(mask, 0.0) + term
    if dense:
        masks = np.flatnonzero(seen)
        activities, bounds = sums[:, masks]
    else:
        masks = np.array(sorted(sums[0]), dtype=dtype)
        activities, bounds = (np.array([acc[m] for m in masks.tolist()]) for acc in sums)
    # The activity carries the 2^-|N| spin normalization; the bound, by its
    # definition, does not (it dominates |w_N| all the more).
    sizes = np.array([m.bit_count() for m in masks.tolist()], dtype=np.int64)
    return masks, sizes, np.ldexp(activities, -sizes), bounds


def enumerate_connected_hypergraphs(K: Interaction,
                                    max_links: int) -> Iterator[tuple[EdgeSubset, ...]]:
    """Connected sets of at most max_links links, as tuples of site tuples.

    max_links = 0 yields nothing.
    """
    _check_max_links(max_links)
    sys = _LinkSystem(K)
    for idxs in _connected_item_sets(sys.adj, max_links):
        yield tuple(sys.links[i] for i in idxs)


class Polymer(NamedTuple):
    """A realizable support with its activity and the absolute-value bound."""

    support: EdgeSubset
    activity: float
    bound: float


def polymer_table(K: Interaction, max_links: int) -> list[Polymer]:
    """All polymers realizable with at most max_links links, canonically sorted.

    Activities accumulate per connected hypergraph using the collapsed form
    of the spin sum: every state short of full occupation carries an expm1(0)
    factor, so the normalized sum equals the plain product of expm1(K(X))
    (bitwise identical to the literal spin sum, which a test pins down).
    """
    _check_max_links(max_links)
    sys = _LinkSystem(K)
    masks, _, activities, bounds = _polymer_sums(sys, max_links)
    return [Polymer(mask_sites(sys.n, mask), w, v)
            for mask, w, v in zip(masks.tolist(), activities.tolist(), bounds.tolist())]


def _check_max_links(max_links: int) -> None:
    if max_links < 0:
        raise ValueError("max_links cannot be negative")


def _check_order(order: int) -> None:
    if not 1 <= order <= ORDER_GUARD:
        raise ValueError(f"order must lie in 1..{ORDER_GUARD}")


def _log_series(xi: Sequence[float]) -> list[float]:
    """[lambda^1..lambda^K] of log Xi(lambda) from Xi_0 = 1, Xi_1..Xi_K.

    From Xi' = (log Xi)' Xi: L_k = Xi_k - (1/k) sum_{j<k} j L_j Xi_{k-j}.
    """
    out: list[float] = []
    for k in range(1, len(xi)):
        acc = 0.0
        for j in range(1, k):
            acc += j * out[j - 1] * xi[k - j]
        out.append(xi[k] - acc / k)
    return out


def _cluster_sums(site_count: int, masks: Sequence[int], weights: Sequence[float],
                  order: int) -> list[float]:
    """Per-size cluster sums S_1..S_order = [lambda^k] log Xi(lambda).

    Run on -|w| and negated, the same sweep gives the absolute sums: the
    connected-graph coefficient of a k-polymer cluster has sign (-1)^(k-1).
    """
    return _log_series(_family_totals(site_count, masks, weights, order))


def _partials(sys: _LinkSystem, masks: np.ndarray, activities: np.ndarray,
              order: int) -> list[float]:
    """The partial sums of the series through each order; one past the float
    range raises OverflowError naming its order and the largest link."""
    partials = list(accumulate(_cluster_sums(len(sys.sites), masks, activities, order)))
    for k, partial in enumerate(partials, start=1):
        if not math.isfinite(partial):
            X, v = max(zip(sys.links, sys.values), key=lambda link: abs(link[1]))
            raise OverflowError(f"the partial sum through order {k} is {partial}; "
                                f"the largest link is {X}, with K = {v!r}")
    return partials


def truncated_log_partition(K: Interaction, order: int, max_links: int = 4) -> list[float]:
    """Partial sums of the cluster expansion of log W through each order.

    Polymers come from connected hypergraphs with at most max_links links;
    entry n0-1 of the result is the expansion truncated at cluster size n0.
    """
    _check_order(order)
    _check_max_links(max_links)
    check_guard(K.n)
    sys = _LinkSystem(K)
    masks, _, activities, _ = _polymer_sums(sys, max_links)
    return _partials(sys, masks, activities, order)


class KPCertificate(NamedTuple):
    """Outcome of the per-site convergence check at weight base M.

    per_site_sums maps each edge site to its certified upper bound: the
    enumerated head over hypergraphs with at most tail_order links plus the
    analytic coefficient tail.  verdict is True when every entry is at most
    log M and the tail converges.  margin and worst_site say how close the
    check came to failing and where.
    """

    M: float
    per_site_sums: Mapping[tuple[int, int], float]
    verdict: bool
    tail_order: int
    norm: float
    tail: float
    reason: str = ""

    @property
    def log_m(self) -> float:
        return math.log(self.M)

    @property
    def max_site_sum(self) -> float:
        return max(self.per_site_sums.values(), default=0.0)

    @property
    def margin(self) -> float:
        """log M - max_site_sum: how far the worst site stays inside the condition."""
        return self.log_m - self.max_site_sum

    @property
    def worst_site(self) -> tuple[int, int] | None:
        """The first site, in site order, whose sum is max_site_sum; None without sites."""
        top = self.max_site_sum
        return next((site for site, v in self.per_site_sums.items() if v == top), None)


@np.errstate(over="ignore", invalid="ignore")
def _certify(sites: Sequence[tuple[int, int]], masks: np.ndarray, sizes: np.ndarray,
             bounds: np.ndarray, M: float, head_links: int, norm: float, p: int) -> KPCertificate:
    """kp_certify from the bounds of the polymers of at most head_links links.

    Each polymer puts bound * M^|N| on every site of N, in polymer order, so
    each site's head is the same float sum a loop over the polymers gives.
    A power of M past the float range is inf, as is then the head or tail; a
    NaN term (0.0 bound times inf, or a NaN bound) counts as +inf, failing safe."""
    heads = np.zeros(len(sites))
    powers = [_or_inf(pow, M, k) for k in range(sizes.max(initial=0) + 1)]
    terms = bounds * np.array(powers)[sizes]
    terms[np.isnan(terms)] = math.inf
    rows = CHUNK // 8
    for lo in range(0, len(masks), rows):
        words = _words(masks[lo:lo + rows].tolist(), (len(sites) + 63) // 64)
        bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
        polymer, site = np.divmod(np.flatnonzero(bits), bits.shape[1])
        np.add.at(heads, site, terms[lo + polymer])
    heads = heads.tolist()
    reason = ""
    if norm == 0.0:
        tail = 0.0
    elif norm > 0.5:
        tail = math.inf
        reason = (f"norm {norm:.6g} exceeds the 1/2 cap; "
                  "the analytic tail is not justified there")
    else:
        # coefficient_tail of abar_recursion(p, norm, M, TABLE_ORDER), bit for
        # bit, without the table's exact rationals.
        tail = _majorant_tail(p, 2.0 * norm * _or_inf(pow, float(M), p), head_links, TABLE_ORDER)
        if math.isinf(tail):
            reason = ("tail series divergent: 2 norm (M p)^p reaches "
                      "(p-1)^(p-1) at this norm")
    per_site = {site: head + tail for site, head in zip(sites, heads)}
    log_m = math.log(M)
    verdict = math.isfinite(tail) and all(v <= log_m for v in per_site.values())
    if not verdict and not reason:
        reason = "a per-site sum exceeds log M"
    return KPCertificate(M=float(M), per_site_sums=per_site, verdict=verdict,
                         tail_order=head_links, norm=norm, tail=tail, reason=reason)


def kp_certify(K: Interaction, M: float, head_links: int = 4) -> KPCertificate:
    """Certify the per-site condition sum_{N ni e} v_N M^|N| <= log M.

    The head is exact: every polymer built from at most head_links links puts
    its bound v_N times M^|N| on each site of its support N.  Everything
    longer is dominated by the coefficient tail, which requires the
    interaction norm at or below 1/2 and a convergent majorant series.  Both
    failure modes, and an M whose powers pass the float range, return a
    failing certificate with a reason instead of raising.
    """
    _validate_base(M)
    if head_links < 0:
        raise ValueError("head_links cannot be negative")
    sys = _LinkSystem(K)
    masks, sizes, _, bounds = _polymer_sums(sys, head_links)
    return _certify(sys.sites, masks, sizes, bounds, M, head_links, banach_norm(K), K.p_max)


class OrderRow(NamedTuple):
    order: int
    partial_sum: float
    gap_to_exact: float
    tail_bound: float | None


class ExpansionReport(NamedTuple):
    """Per-order truncation data plus the certificate and the parameter region."""

    n: int
    motif_names: tuple[str, ...]
    betas: tuple[float, ...]
    M: float
    p: int
    m: int
    norm: float
    max_links: int
    orders: tuple[OrderRow, ...]
    certificate: KPCertificate
    beta_budget: float | None
    log_w_exact: float


def expansion_report(motifs: Sequence[Motif], betas: Sequence[float], n: int,
                     order: int = 4, max_links: int = 4) -> ExpansionReport:
    """Run the whole expansion pipeline for one parameter point.

    The certificate's exact head reaches max_links links, and its weight base
    M is the region-optimal one for the family's maximal edge count (2.0 for
    single-edge families, which have no optimum).  The exact log W,
    partition_normalized of the same K, is the reference for every order's gap.
    """
    check_alignment(motifs, betas)
    _check_order(order)
    _check_max_links(max_links)
    check_guard(n)
    site_count = n * (n - 1) // 2
    p = max(H.p for H in motifs)
    m = max(H.m for H in motifs)
    M = optimal_M(p) if p >= 2 else 2.0
    K = build_interaction(motifs, betas, n)
    norm = banach_norm(K)
    # One walk over the connected link sets serves the series and then the
    # certificate head, so the series' sweep budget refuses a job first.
    sys = _LinkSystem(K)
    masks, sizes, activities, bounds = _polymer_sums(sys, max_links)
    partials = _partials(sys, masks, activities, order)
    cert = _certify(sys.sites, masks, sizes, bounds, M, max_links, norm, p)
    exact = partition_normalized(K)
    tail_fn: Callable[[int], float] | None = None
    if p >= 2 and norm > 0:
        _, tail_fn = radius_and_tail(p, norm, M)
    rows = []
    for n0, partial in enumerate(partials, start=1):
        tb: float | None
        if norm == 0:
            tb = 0.0
        elif tail_fn is None:
            tb = None
        else:
            t = tail_fn(n0)
            tb = site_count * t if math.isfinite(t) else None
        rows.append(OrderRow(order=n0, partial_sum=partial, gap_to_exact=abs(partial - exact),
                             tail_bound=tb))
    budget = region_bound(p, m, M) if p >= 2 else None
    return ExpansionReport(
        n=n, motif_names=tuple(H.name for H in motifs),
        betas=tuple(float(b) for b in betas), M=float(M), p=p, m=m, norm=norm,
        max_links=max_links, orders=tuple(rows), certificate=cert,
        beta_budget=budget, log_w_exact=exact,
    )
