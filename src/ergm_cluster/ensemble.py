"""Exhaustive ensemble computations on small vertex sets.

Everything here sums over all 2^C(n,2) graphs: the exact normalized partition
function of an interaction, the finite-size free energies psi_n and phi_n,
and model expectations of motif densities.

The sums run over histograms, not graphs.  A configuration's energy is fixed
by how many links of each value class of K it contains, so
partition_normalized reduces the configurations, once per class structure,
to their distinct class-count columns and configuration counts
(_link_histogram).  For a motif family, the beta-free link table of
lattice groups the links of K_n by their count vectors (c(H_i, X))_i, and
hom(H_i, G) = sum_c vectors[c][i] r_c(G), where r_c(G) counts the links of
class c inside E(G).  So the one histogram of the link table's classes,
built once per (motifs, n), serves the whole exact route: psi_n and the
expectations weigh its columns mapped to the statistic columns
(hom(H_i, G))_i (_statistic_histogram), and log W reads it whenever the
class values are distinct and nonzero.  The identity
psi_n = (C(n,2) log 2 + log W) / n^2 therefore checks neither side; the
tests compare both with sums graph by graph over hom tables of their own.
motif_hom_table, hom(H, G) for every graph by bitmask, is no part of it.
"""

from __future__ import annotations

import math
from collections import defaultdict
from functools import lru_cache
from operator import mul
from typing import NamedTuple, Sequence

import numpy as np

from .graphs import SWEEP_BUDGET, GuardExceeded, Motif, check_alignment, check_guard, site_mask
from .lattice import EdgeSubset, Interaction, _class_couplings, _link_table, _support_counts


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


def _count_table(n: int, counts: dict[EdgeSubset, int], dtype: np.dtype) -> np.ndarray:
    """The sum of counts[X] over the X inside each of the 2^C(n,2) site masks,
    by one subset-sum transform.  No entry exceeds the sum of the counts, so a
    dtype that holds that sum holds every partial sum."""
    table = np.zeros(1 << n * (n - 1) // 2, dtype=dtype)
    table[[site_mask(n, X) for X in counts]] = list(counts.values())
    return _subset_sums(table)


def _hom_dtype(H: Motif, n: int) -> np.dtype:
    """The dtype of H's hom table on K_n: the smallest unsigned one of at most
    32 bits that holds its largest entry, hom(H, K_n) = sum_X c(H, X), else
    int64.  Past the int64 range OverflowError, before any table is built."""
    total = sum(_support_counts(H, n).values()) if n else 0
    if total >= 1 << 63:
        raise OverflowError(f"hom({H.name}, K_{n}) = {total} exceeds the int64 "
                            "range of the hom table")
    return np.min_scalar_type(total) if total < 1 << 32 else np.dtype(np.int64)


@lru_cache(maxsize=None)
def motif_hom_table(H: Motif, n: int) -> np.ndarray:
    """hom_count(H, G) for every graph G on n vertices, indexed by bitmask.

    hom(H, G) sums c(H, X), the number of vertex maps whose edge image is
    exactly X, over X inside E(G): the _count_table of lattice._support_counts
    in the _hom_dtype.  Past the table ceiling GuardExceeded is raised before
    any map is walked, and past the int64 range OverflowError before any table
    is built.  Memoized per (motif, n); the exact array is read-only because it
    is shared.  No route reads it.
    """
    check_guard(n, least=0)
    dtype = _hom_dtype(H, n)
    # No map reaches the empty vertex set: its one graph has hom 0.
    table = _count_table(n, _support_counts(H, n) if n else {}, dtype)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _statistic_histogram(motifs: tuple[Motif, ...], n: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, counts): the distinct statistic columns (hom(H_i, G))_i, in lexsort order.

    rows[i, c] is hom(H_i, G) for each of the counts[c] graphs G of column c,
    exact, in the common dtype of the motifs' hom tables, column-major and
    read-only as _link_histogram returns its rows.  Each column of the link
    table's _link_histogram maps, in Python ints, to the column
    sum_c vectors[c][i] r_c; columns that map to one merge, counts summed.  An
    empty link table (n = 1, or the triangle at n = 2) gives one zero column.
    A hom total past the int64 range raises OverflowError before any table.
    """
    dtype = np.result_type(*(_hom_dtype(H, n) for H in motifs))
    table = _link_table(motifs, n)
    if not table.classes:
        histogram = {(0,) * len(motifs): 1 << n * (n - 1) // 2}
    else:
        histogram = defaultdict(int)
        rows, counts = _link_histogram(n, table.classes)
        homs = list(zip(*table.vectors))
        for col, count in zip(rows.T.tolist(), counts.tolist()):
            histogram[tuple(sum(map(mul, col, h)) for h in homs)] += count
    # The last motif is the most significant, as the last class in _link_histogram's key.
    columns = sorted(histogram, key=lambda col: col[::-1])
    rows = np.array(columns, dtype=dtype).T
    counts = np.array([histogram[col] for col in columns], dtype=np.int64)
    rows.flags.writeable = counts.flags.writeable = False
    return rows, counts


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


def psi_n(motifs: Sequence[Motif], betas: Sequence[float], n: int) -> float:
    """Finite-size free energy (1/n^2) log sum_G exp(n^2 T(G))."""
    check_guard(n)
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
    configurations of column j, from one _count_table per class, in the tables'
    common dtype; read-only, because the cache shares them.  The cache is
    bounded: an interaction without repeated values has one class per link.
    Past SWEEP_BUDGET count-table entries GuardExceeded is raised before any
    table is built.

    Columns come in lexsort order.  A class's counts run from 0 to len(links),
    so the tables fold, last class most significant, into one int64 key per
    configuration with radix len(links) + 1, which np.bincount counts (an
    int32 key would cost more: np.bincount casts it to intp).  A fold that
    would take the key past twice the table length re-ranks the key densely
    first; if even the dense key cannot take the class, the folded key is
    ranked by sorting.  Each column's row is read at one of its configurations.
    """
    entries = len(classes) << n * (n - 1) // 2
    if entries > SWEEP_BUDGET:
        raise GuardExceeded(f"the link histogram of {len(classes)} classes at n={n} needs "
                            f"{entries} count-table entries, past the budget of {SWEEP_BUDGET}",
                            hint="use fewer motifs or distinct link values, or a smaller --n")
    tables = [_count_table(n, dict.fromkeys(links, 1), np.min_scalar_type(len(links)))
              for links in classes]
    size = len(tables[0])
    key, span = np.zeros(size, dtype=np.int64), 1
    for links, t in zip(reversed(classes), reversed(tables)):
        radix = len(links) + 1
        if span * radix > 2 * size:
            seen = np.bincount(key, minlength=span) != 0
            key = (np.cumsum(seen) - 1)[key]
            span = int(np.count_nonzero(seen))
        key *= radix
        key += t
        span *= radix
        if span > 2 * size:
            keys, key = np.unique(key, return_inverse=True)
            span = len(keys)
    counts = np.bincount(key, minlength=span)
    codes = np.flatnonzero(counts)
    # Any configuration of each key will do, as they share one column.  Blocks
    # of 4096 keep the index arrays small: a fresh key-length one costs RSS.
    at = np.empty(span, dtype=np.int64)
    for lo in range(0, size, 4096):
        at[key[lo:lo + 4096]] = np.arange(lo, min(size, lo + 4096))
    at = at[codes]
    # Column-major, so _column_energies reads rows.T contiguously.
    rows = np.stack([t[at] for t in tables], axis=1).T
    counts = counts[codes]
    rows.flags.writeable = counts.flags.writeable = False
    return rows, counts


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


def partition_normalized(K: Interaction) -> float:
    """log W for W = 2^-C(n,2) sum over configurations of exp(sum K(X) sigma_X).

    A configuration's energy depends only on how many links of each value class
    it contains, so the sum runs over the distinct count columns of the memoized
    _link_histogram, each energy correctly rounded and weighted by its count.
    log1p(mean expm1(E)) keeps full relative precision while mean exp(E) >= 1/2
    and exp(E) is finite, else log-sum-exp.
    """
    check_guard(K.n)
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


def phi_n(K: Interaction) -> float:
    """Per-site free energy log W / C(n,2); refused at n < 2, where it is 0/0."""
    check_guard(K.n, least=2)
    return partition_normalized(K) / (K.n * (K.n - 1) // 2)


def expectation_densities(motifs: Sequence[Motif], betas: Sequence[float],
                          n: int) -> list[float]:
    """Model expectations E[t(H_i, G)] under the exponential family weights."""
    check_guard(n)
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


def ensemble_result(motifs: Sequence[Motif], betas: Sequence[float], n: int) -> EnsembleResult:
    """Run the exact route for one parameter point.

    log W reads K's value on each class of the memoized link table, not K:
    with equal values merged and zeros dropped, these are the classes
    _link_classes finds in build_interaction's K, so partition_normalized of
    that K reaches the same histogram entry and bits.  One pass over the
    statistic histogram, read off the link table's class histogram, serves
    psi_n and the expectations.  It runs before log W, so a hom total past
    the int64 range raises OverflowError before any histogram is built.
    """
    check_guard(n, least=2)
    check_alignment(motifs, betas)
    table, values = _class_couplings(motifs, betas, n)
    psi, expectations = _ensemble_sums(motifs, betas, n)
    log_w = _log_w(n, *_merge_by_value(table.classes, values))
    return EnsembleResult(
        n=n,
        betas=tuple(map(float, betas)),
        log_w_normalized=log_w,
        psi=psi,
        phi=log_w / (n * (n - 1) // 2),
        expectations=tuple(expectations),
    )
