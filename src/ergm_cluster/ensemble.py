"""Exhaustive ensemble computations on small vertex sets.

Everything here sums over all 2^C(n,2) graphs: the exact normalized partition
function of an interaction, the finite-size free energies psi_n and phi_n,
and model expectations of motif densities.

Both routes sum over histograms, not graphs.  psi_n and the expectations go
through raw homomorphism counts, reduced once per (motifs, n) to the distinct
statistic columns (hom(H_i, G))_i and their graph counts.  partition_normalized
goes through the sparse interaction: its links are grouped by value, and a
configuration's energy is fixed by how many links of each class it contains,
so the distinct class-count columns and their configuration counts are
reduced once per class structure.  The two pipelines share only the beta-free
edge-image counts c(H, X) of lattice._support_counts: the hom tables are their
subset sums, and K is n^2 sum_i beta_i c(H_i, X) / n^m_i.  No K, link class,
histogram or weight is shared, which is what keeps the identity
psi_n = (C(n,2) log 2 + log W) / n^2 a cross-check: the hom tables never read
build_interaction or the link table, and log W reads only the lattice side:
K, or the beta-free link table and K's value on each of its classes.
"""

from __future__ import annotations

import math
from collections import defaultdict
from functools import lru_cache
from operator import mul
from typing import NamedTuple, Sequence

import numpy as np

from .graphs import Motif, check_alignment, check_guard, site_mask
from .lattice import EdgeSubset, Interaction, _class_couplings, _support_counts


def _subset_sums(table: np.ndarray) -> np.ndarray:
    """In place, table[mask] becomes the sum of table[X] over the X inside mask.

    The passes of the lowest three bits loop over their columns, because numpy
    adds many short strided rows slowly.
    """
    for s in range(len(table).bit_length() - 1):
        t = table.reshape(-1, 2, 1 << s)
        for u in t.T if s < 3 else [t.transpose(1, 0, 2)]:
            u[1] += u[0]
    return table


def _count_table(n: int, counts: dict[EdgeSubset, int]) -> np.ndarray:
    """The sum of counts[X] over the X inside each of the 2^C(n,2) site masks,
    by one subset-sum transform.  No entry exceeds the sum of the counts, so
    the table takes the smallest unsigned dtype of at most 32 bits that holds
    that sum, else int64."""
    total = sum(counts.values())
    dtype = np.min_scalar_type(total) if total < 1 << 32 else np.int64
    table = np.zeros(1 << n * (n - 1) // 2, dtype=dtype)
    table[[site_mask(n, X) for X in counts]] = list(counts.values())
    return _subset_sums(table)


@lru_cache(maxsize=None)
def motif_hom_table(H: Motif, n: int) -> np.ndarray:
    """hom_count(H, G) for every graph G on n vertices, indexed by bitmask.

    hom(H, G) sums c(H, X), the number of vertex maps whose edge image is
    exactly X, over X inside E(G): the _count_table of lattice._support_counts.
    Past the table ceiling GuardExceeded is raised before any map is walked,
    and past the int64 range OverflowError before any table is built.
    Memoized per (motif, n); the exact array is read-only because it is shared.
    """
    check_guard(n, force=True, least=0)
    # No map reaches the empty vertex set: its one graph has hom 0.
    counts = _support_counts(H, n) if n else {}
    total = sum(counts.values())
    if total >= 1 << 63:
        raise OverflowError(f"hom({H.name}, K_{n}) = {total} exceeds the int64 "
                            "range of the hom table")
    table = _count_table(n, counts)
    table.flags.writeable = False
    return table


def _distinct_columns(tables: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(rows, counts): the distinct columns of the stacked tables, in lexsort order.

    rows[i, c] is tables[i][x] for each of the counts[c] masks x of column c,
    in the tables' common dtype; read-only, because the memoized histograms
    share them.  Each table is unsigned of at most 32 bits, or int64.  The
    tables fold, last one most significant, into one int64 mixed-radix key per
    mask, so ascending keys are lexsort order, and np.bincount counts the keys
    (an int32 key would cost more: np.bincount casts it to intp).  A fold
    that would take the key past twice the table length re-ranks the key
    densely first; if even the dense key cannot take the next table, that
    table and then the key are ranked by sorting, as a last resort.  Each
    column's row is then read from the tables at one mask with its key.
    """
    size = len(tables[0])
    key, span = np.zeros(size, dtype=np.int64), 1
    for t in reversed(tables):
        lo = int(t.min())
        radix = int(t.max()) - lo + 1
        if span * radix > 2 * size:
            seen = np.bincount(key, minlength=span) != 0
            key = (np.cumsum(seen) - 1)[key]
            span = int(np.count_nonzero(seen))
        if span * radix <= 2 * size:
            key *= radix
            key += t
            key -= lo
            span *= radix
        else:
            values, digits = np.unique(t, return_inverse=True)
            key *= len(values)
            key += digits
            keys, key = np.unique(key, return_inverse=True)
            span = len(keys)
    counts = np.bincount(key, minlength=span)
    codes = np.flatnonzero(counts)
    # Any mask of each key will do, as its masks share one column.  Blocks of
    # 4096 masks keep the index arrays small: a fresh key-length one costs RSS.
    at = np.empty(span, dtype=np.int64)
    for lo in range(0, size, 4096):
        at[key[lo:lo + 4096]] = np.arange(lo, min(size, lo + 4096))
    at = at[codes]
    # Column-major, so _column_energies reads rows.T contiguously.
    rows = np.stack([t[at] for t in tables], axis=1).T
    counts = counts[codes]
    rows.flags.writeable = counts.flags.writeable = False
    return rows, counts


@lru_cache(maxsize=None)
def _statistic_histogram(motifs: tuple[Motif, ...], n: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, counts): the distinct columns of the stacked motif_hom_tables.

    rows[i, c] is hom(H_i, G) for each of the counts[c] graphs G of column c,
    exact, in the tables' common dtype.
    """
    return _distinct_columns([motif_hom_table(H, n) for H in motifs])


def _ensemble_sums(motifs: Sequence[Motif], betas: Sequence[float],
                   n: int) -> tuple[float, list[float]]:
    """psi_n and E[t(H_i, G)] from the statistic histogram; callers check the betas.

    A column's log-weight n^2 T(G) is the same float for all its graphs, so
    its count multiplies its shifted weight once.  A largest weight that is
    not finite raises OverflowError, as partition_normalized does.
    """
    rows, counts = _statistic_histogram(tuple(motifs), n)
    weights = np.zeros(len(counts), dtype=np.float64)
    n2 = float(n * n)
    with np.errstate(over="ignore", invalid="ignore"):
        for H, b, row in zip(motifs, betas, rows):
            weights += (n2 * float(b) / n ** H.m) * row
    hi = float(weights.max())
    if not math.isfinite(hi):
        raise OverflowError(f"a statistic column's weight n^2 T(G) is {hi} at n={n}")
    weights -= hi
    p = np.exp(weights, out=weights)
    p *= counts
    z = math.fsum(p.tolist())
    expectations = [math.fsum(s) / z / n ** H.m for H, s in zip(motifs, (rows * p).tolist())]
    return (hi + math.log(z)) / (n * n), expectations


def psi_n(motifs: Sequence[Motif], betas: Sequence[float], n: int, force: bool = False) -> float:
    """Finite-size free energy (1/n^2) log sum_G exp(n^2 T(G))."""
    check_guard(n, force)
    check_alignment(motifs, betas)
    return _ensemble_sums(motifs, betas, n)[0]


LinkClasses = tuple[tuple[EdgeSubset, ...], ...]


def _link_classes(K: Interaction) -> tuple[LinkClasses, Sequence[float]]:
    """K's links grouped by value, and the values: two aligned sequences."""
    return _merge_by_value(tuple((X,) for X in K.k_map), list(K.k_map.values()))


def _merge_by_value(classes: LinkClasses, values: Sequence[float]
                    ) -> tuple[LinkClasses, Sequence[float]]:
    """Sorted classes of links, one value each, merged into one class per nonzero value.

    Links are sorted within a class and the classes by their links, as on
    input, so equal class structures give equal keys for _link_histogram,
    whether the classes are K's single links or the classes of the link
    table.  Distinct nonzero values merge nothing and return the input.
    """
    if 0.0 not in values and len(set(values)) == len(values):
        return classes, values
    by_value: dict[float, list[EdgeSubset]] = defaultdict(list)
    for links, v in zip(classes, values):
        if v:
            by_value[v] += links
    merged = sorted((tuple(sorted(links)), v) for v, links in by_value.items())
    return tuple(c for c, _ in merged), tuple(v for _, v in merged)


@lru_cache(maxsize=8)
def _link_histogram(n: int, classes: LinkClasses) -> tuple[np.ndarray, np.ndarray]:
    """(rows, counts): the distinct per-class link counts over the 2^C(n,2) configurations.

    rows[c, j] is the number of links of classes[c] inside each of the counts[j]
    configurations of column j, from one _count_table per class.  The cache is
    bounded: an interaction without repeated values has one class per link.
    """
    return _distinct_columns([_count_table(n, dict.fromkeys(links, 1)) for links in classes])


def _column_energies(rows: np.ndarray, values: Sequence[float]) -> list[float]:
    """sum_c rows[c, j] * values[c] for every column j, correctly rounded.

    Over the largest denominator 2^s of the values every energy has an exact
    integer numerator sum_c rows[c, j] a_c.  Each a_c is cut into signed
    32-bit limbs; a column holds fewer than 2^21 links (at most 21 sites), so
    one int64 product per block of 4096 columns gives every limb sum exactly,
    below 2^53.  Scaled by 2^(32k - s), the limb sums are exact floats, and
    rounding them once gives the energy: one float addition for two limbs,
    math.fsum for more.  Values from 2^1001 up could overflow a scaled sum;
    they take Python ints, whose int / int raises OverflowError past the
    float range.
    """
    ratios = [v.as_integer_ratio() for v in values]
    scale = max(d for _, d in ratios).bit_length() - 1
    nums = [a << scale - d.bit_length() + 1 for a, d in ratios]
    cols = rows.T
    if max(map(abs, values)) >= 2.0 ** 1001:
        return [sum(map(mul, col.tolist(), nums)) / (1 << scale) for col in cols]
    width = max(map(abs, nums)).bit_length()
    limbs = np.array([[(abs(a) >> k & 0xFFFFFFFF) * (-1 if a < 0 else 1)
                       for k in range(0, width, 32)] for a in nums], dtype=np.int64)
    units = [math.ldexp(1.0, k - scale) for k in range(0, width, 32)]
    energies: list[float] = []
    for lo in range(0, len(cols), 4096):
        sums = np.dot(cols[lo:lo + 4096], limbs) * units
        energies += sums.sum(axis=1).tolist() if width <= 64 else map(math.fsum, sums.tolist())
    return energies


def partition_normalized(K: Interaction, force: bool = False) -> float:
    """log W for W = 2^-C(n,2) sum over configurations of exp(sum K(X) sigma_X).

    A configuration's energy depends only on how many links of each value class
    it contains, so the sum runs over the distinct count columns of the memoized
    _link_histogram, each energy correctly rounded and weighted by its count.
    log1p(mean expm1(E)) keeps full relative precision while mean exp(E) >= 1/2
    and exp(E) is finite, else log-sum-exp.
    """
    check_guard(K.n, force)
    return _log_w(K.n, *_link_classes(K))


def _log_w(n: int, classes: LinkClasses, values: Sequence[float]) -> float:
    """log W from K's value classes on K_n, for partition_normalized and ensemble_result."""
    if not classes:
        return 0.0
    sites = n * (n - 1) // 2
    rows, counts = _link_histogram(n, classes)
    energies, weights = _column_energies(rows, values), counts.tolist()
    hi = max(energies)
    if hi < 700.0:
        mean = math.fsum(map(mul, weights, map(math.expm1, energies))) / (1 << sites)
        if mean >= -0.5:
            return math.log1p(mean)
    shifted = math.fsum(map(mul, weights, map(math.exp, map(hi.__rsub__, energies))))
    return hi + math.log(shifted) - math.log(1 << sites)


def phi_n(K: Interaction, force: bool = False) -> float:
    """Per-site free energy log W / C(n,2); refused at n < 2, where it is 0/0."""
    check_guard(K.n, force, least=2)
    return partition_normalized(K, force=force) / (K.n * (K.n - 1) // 2)


def expectation_densities(motifs: Sequence[Motif], betas: Sequence[float], n: int,
                          force: bool = False) -> list[float]:
    """Model expectations E[t(H_i, G)] under the exponential family weights."""
    check_guard(n, force)
    check_alignment(motifs, betas)
    return _ensemble_sums(motifs, betas, n)[1]


class EnsembleResult(NamedTuple):
    """One exact-ensemble evaluation: free energies plus motif expectations.

    Satisfies psi == (C(n,2)/n^2) * (log 2 + phi) up to float arithmetic.
    """

    n: int
    betas: tuple[float, ...]
    log_w_normalized: float
    psi: float
    phi: float
    expectations: tuple[float, ...]


def ensemble_result(motifs: Sequence[Motif], betas: Sequence[float], n: int,
                    force: bool = False) -> EnsembleResult:
    """Run both exact pipelines for one parameter point.

    log W reads K's value on each class of the memoized link table, not K:
    with equal values merged and zeros dropped, these are the classes
    _link_classes finds in build_interaction's K, so partition_normalized of
    that K reaches the same histogram entry and bits.  One pass over the
    statistic histogram serves psi_n and the expectations.
    """
    check_guard(n, force, least=2)
    check_alignment(motifs, betas)
    table, values = _class_couplings(motifs, betas, n)
    log_w = _log_w(n, *_merge_by_value(table.classes, values))
    psi, expectations = _ensemble_sums(motifs, betas, n)
    return EnsembleResult(
        n=n,
        betas=tuple(map(float, betas)),
        log_w_normalized=log_w,
        psi=psi,
        phi=log_w / (n * (n - 1) // 2),
        expectations=tuple(expectations),
    )
