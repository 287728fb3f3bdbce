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
reduced once per class structure.  The two pipelines share no intermediate,
which is what makes the identity psi_n = (C(n,2) log 2 + log W) / n^2 a real
cross-check.  The hom tables never touch the interaction: they are built from
the edge images of vertex maps, not from lattice.support_families or
build_interaction; log W reads only K.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .graphs import Motif, _traversal_order, check_alignment, check_guard, edge_index
from .lattice import EdgeSubset, Interaction, build_interaction


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


@lru_cache(maxsize=None)
def motif_hom_table(H: Motif, n: int) -> np.ndarray:
    """hom_count(H, G) for every graph G on n vertices, indexed by bitmask.

    hom(H, G) sums c(H, X), the number of vertex maps whose edge image is
    exactly X, over X inside E(G).  The maps of the non-isolated motif
    vertices are grown one vertex at a time, dropping those that send a motif
    edge to a loop; counting them per edge-image mask gives c(H, .), and one
    in-place subset-sum transform over the C(n,2) bits gives the table.
    Isolated motif vertices add a free factor n each.  Memoized per (motif, n);
    the returned exact int64 array is read-only because it is shared.
    """
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
    table.flags.writeable = False
    return table


def _distinct_columns(tables: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(rows, counts): the distinct columns of the stacked tables, in lexsort order.

    rows[i, c] is tables[i][x] for each of the counts[c] masks x of column c;
    read-only, because the memoized histograms share them.  The tables fold,
    last one most significant, into one int64 mixed-radix key per mask, so
    ascending keys are lexsort order, and np.bincount counts the keys.  A fold
    that would take the key past twice the table length re-ranks the key
    densely first; if even the dense key cannot take the next table, that
    table and then the key are ranked by sorting, as a last resort.
    """
    size = len(tables[0])
    key, span = np.zeros(size, dtype=np.int64), 1
    # Per fold (i, lo, values, radix); per re-rank the old keys that occur, after
    # a sort as the sorted keys, else as a packed bitmap over the old key range,
    # because with one class per link nearly every fold follows a re-rank.
    steps: list = []
    for i in reversed(range(len(tables))):
        t = tables[i]
        lo = int(t.min())
        radix = int(t.max()) - lo + 1
        if span * radix > 2 * size:
            seen = np.bincount(key, minlength=span) != 0
            key = (np.cumsum(seen) - 1)[key]
            steps.append(np.packbits(seen))
            span = int(np.count_nonzero(seen))
        if span * radix <= 2 * size:
            key *= radix
            key += t
            key -= lo
            steps.append((i, lo, None, radix))
            span *= radix
        else:
            values, digits = np.unique(t, return_inverse=True)
            key *= len(values)
            key += digits
            keys, key = np.unique(key, return_inverse=True)
            steps += [(i, 0, values, len(values)), keys]
            span = len(keys)
    counts = np.bincount(key, minlength=span)
    codes = np.flatnonzero(counts)
    counts = counts[codes]
    # Column-major, so _column_energies reads rows.T contiguously.
    rows = np.empty((len(codes), len(tables)), dtype=np.result_type(*tables)).T
    for step in reversed(steps):
        if isinstance(step, tuple):
            i, lo, values, radix = step
            codes, digits = np.divmod(codes, radix)
            rows[i] = digits + lo if values is None else values[digits]
        elif step.dtype == np.uint8:
            codes = np.flatnonzero(np.unpackbits(step))[codes]
        else:
            codes = step[codes]
    rows.flags.writeable = counts.flags.writeable = False
    return rows, counts


@lru_cache(maxsize=None)
def _statistic_histogram(motifs: tuple[Motif, ...], n: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, counts): the distinct columns of the stacked motif_hom_tables.

    rows[i, c] is hom(H_i, G) for each of the counts[c] graphs G of column c;
    exact int64.
    """
    return _distinct_columns([motif_hom_table(H, n) for H in motifs])


def _ensemble_sums(motifs: Sequence[Motif], betas: Sequence[float],
                   n: int) -> tuple[float, list[float]]:
    """psi_n and E[t(H_i, G)] from the statistic histogram.

    A column's log-weight n^2 T(G) is the same float for all its graphs, so
    its count multiplies its shifted weight once.  A largest weight that is
    not finite raises OverflowError, as partition_normalized does.
    """
    check_alignment(motifs, betas)
    rows, counts = _statistic_histogram(tuple(motifs), n)
    weights = np.zeros(len(counts), dtype=np.float64)
    n2 = float(n * n)
    with np.errstate(over="ignore", invalid="ignore"):
        for H, b, row in zip(motifs, betas, rows):
            weights += (n2 * float(b) / n ** H.m) * row
    hi = float(np.max(weights))
    if not math.isfinite(hi):
        raise OverflowError(f"a statistic column's weight n^2 T(G) is {hi} at n={n}")
    p = np.exp(weights - hi) * counts
    z = math.fsum(p)
    expectations = [math.fsum(row * p) / z / n ** H.m for H, row in zip(motifs, rows)]
    return (hi + math.log(z)) / (n * n), expectations


def psi_n(motifs: Sequence[Motif], betas: Sequence[float], n: int, force: bool = False) -> float:
    """Finite-size free energy (1/n^2) log sum_G exp(n^2 T(G))."""
    check_guard(n, force)
    return _ensemble_sums(motifs, betas, n)[0]


LinkClasses = tuple[tuple[EdgeSubset, ...], ...]


def _link_classes(K: Interaction) -> tuple[LinkClasses, tuple[float, ...]]:
    """K's links grouped by value, and the values: two aligned tuples.

    Links are sorted within a class and the classes by their links, so equal
    class structures give equal keys for _link_histogram.
    """
    by_value: dict[float, list[EdgeSubset]] = defaultdict(list)
    for X, v in K.k_map.items():
        by_value[v].append(X)
    classes = sorted((tuple(sorted(links)), v) for v, links in by_value.items())
    return tuple(c for c, _ in classes), tuple(v for _, v in classes)


@lru_cache(maxsize=8)
def _link_histogram(n: int, classes: LinkClasses) -> tuple[np.ndarray, np.ndarray]:
    """(rows, counts): the distinct per-class link counts over the 2^C(n,2) configurations.

    rows[c, j] is the number of links of classes[c] inside each of the counts[j]
    configurations of column j.  One subset-sum pass per class, in the smallest
    unsigned dtype that holds the largest class; the cache is bounded, because
    an interaction without repeated values has one class per link.
    """
    idx = edge_index(n)
    dtype = np.min_scalar_type(max(map(len, classes)))
    tables = []
    for links in classes:
        table = np.zeros(1 << len(idx), dtype=dtype)
        table[[sum(1 << idx[e] for e in X) for X in links]] = 1
        tables.append(_subset_sums(table))
    return _distinct_columns(tables)


def _column_energies(rows: np.ndarray, values: Sequence[float]) -> list[float]:
    """sum_c rows[c, j] * values[c] for every column j, correctly rounded.

    Over the largest denominator of the values, a power of two, every energy
    has an exact integer numerator: an object-dtype product of Python ints,
    taken in blocks of columns so the object arrays stay small.  The int / int
    division rounds it once.
    """
    ratios = [v.as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)
    nums = np.array([a * (den // d) for a, d in ratios], dtype=object)
    cols = rows.T
    return [e / den for lo in range(0, len(cols), 4096)
            for e in (cols[lo:lo + 4096].astype(object) @ nums).tolist()]


def partition_normalized(K: Interaction, force: bool = False) -> float:
    """log W for W = 2^-C(n,2) sum over configurations of exp(sum K(X) sigma_X).

    A configuration's energy depends only on how many links of each value class
    it contains, so the sum runs over the distinct count columns of the memoized
    _link_histogram, each energy correctly rounded and weighted by its count.
    log1p(mean expm1(E)) keeps full relative precision while mean exp(E) >= 1/2
    and exp(E) is finite, else log-sum-exp.
    """
    check_guard(K.n, force)
    classes, values = _link_classes(K)
    if not classes:
        return 0.0
    sites = K.n * (K.n - 1) // 2
    rows, counts = _link_histogram(K.n, classes)
    energies, weights = _column_energies(rows, values), counts.tolist()
    hi = max(energies)
    if hi < 700.0:
        mean = math.fsum(c * math.expm1(e) for c, e in zip(weights, energies)) / (1 << sites)
        if mean >= -0.5:
            return math.log1p(mean)
    shifted = math.fsum(c * math.exp(e - hi) for c, e in zip(weights, energies))
    return hi + math.log(shifted) - math.log(1 << sites)


def phi_n(K: Interaction, force: bool = False) -> float:
    """Per-site free energy log W / C(n,2); refused at n < 2, where it is 0/0."""
    check_guard(K.n, force, least=2)
    return partition_normalized(K, force=force) / (K.n * (K.n - 1) // 2)


def expectation_densities(motifs: Sequence[Motif], betas: Sequence[float], n: int,
                          force: bool = False) -> list[float]:
    """Model expectations E[t(H_i, G)] under the exponential family weights."""
    check_guard(n, force)
    return _ensemble_sums(motifs, betas, n)[1]


@dataclass(frozen=True)
class EnsembleResult:
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

    One pass over the statistic histogram serves psi_n and the expectations.
    """
    check_guard(n, force, least=2)
    K = build_interaction(motifs, betas, n)
    log_w = partition_normalized(K, force=force)
    psi, expectations = _ensemble_sums(motifs, betas, n)
    return EnsembleResult(
        n=n,
        betas=tuple(float(b) for b in betas),
        log_w_normalized=log_w,
        psi=psi,
        phi=log_w / (n * (n - 1) // 2),
        expectations=tuple(expectations),
    )


def _fmt(x: float) -> str:
    return "%.17g" % x


def csv_header(k: int) -> str:
    """Column layout: n, beta_1..beta_k, psi_n, phi_n, E_1..E_k."""
    parts = ["n"]
    parts += [f"beta_{i}" for i in range(1, k + 1)]
    parts += ["psi_n", "phi_n"]
    parts += [f"E_{i}" for i in range(1, k + 1)]
    return ",".join(parts)


def csv_row(res: EnsembleResult) -> str:
    parts = [str(res.n)]
    parts += [_fmt(b) for b in res.betas]
    parts += [_fmt(res.psi), _fmt(res.phi)]
    parts += [_fmt(e) for e in res.expectations]
    return ",".join(parts)


def results_csv(results: Sequence[EnsembleResult]) -> str:
    """Render results as one CSV document (header + one row per result)."""
    if not results:
        raise ValueError("nothing to render")
    k = len(results[0].betas)
    if any(len(r.betas) != k for r in results):
        raise ValueError("results carry differing parameter counts")
    return "\n".join([csv_header(k)] + [csv_row(r) for r in results]) + "\n"
