"""Vectorized enumeration over bitmasks: the two hot loops of the expansion.

`_connected_walk` lists every connected subset of an item graph, up to a
size, in depth-first order, building each level from the one above for all
roots together in numpy chunks; `_family_totals` sums the products of weights
over families of pairwise-disjoint polymers, one site-mask block at a time.
Both bound every temporary by CHUNK, or by a share of the table they fill.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Sequence

import numpy as np

from .graphs import GuardExceeded

# Enumeration stops with GuardExceeded after this many connected sets.
DEFAULT_MAX_COUNT = 5_000_000
# Cap on the sets one step of the level walk builds, and on the (polymer,
# subset) pairs one step of the family sweep holds, at small sizes.
CHUNK = 1024
# Set bits of every byte value.
_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
_WORD = (1 << 64) - 1


def _words(values: Sequence[int], width: int) -> np.ndarray:
    """Non-negative ints as rows of `width` 64-bit words, lowest first, in
    int64 (two's complement), the one dtype of every mask in the walk."""
    words = [[v >> 64 * j & _WORD for j in range(width)] for v in values]
    rows = [[w - (w >> 63 << 64) for w in row] for row in words]
    return np.array(rows, dtype=np.int64).reshape(len(values), width)


def _popcounts(words: np.ndarray) -> np.ndarray:
    return _POP8[words.view(np.uint8)].sum(axis=1, dtype=np.int64)


def _ranges(cost: np.ndarray) -> Iterator[tuple[int, int]]:
    """Consecutive row ranges whose costs add up to about CHUNK each."""
    ends = np.cumsum(cost)
    total = int(ends[-1]) if len(ends) else 0
    cuts = np.searchsorted(ends, np.arange(CHUNK, total, CHUNK), side="right").tolist()
    for a, b in zip([0, *cuts], [*cuts, len(cost)]):
        if a < b:
            yield a, b


class _ItemGraph:
    """Item adjacency as rows of 64-bit words, and one level of the walk.

    A level is a block of rows, each a set held as (ext, cov, root): the
    items it may still add, the items it or its neighbours cover, and its
    lowest item.  Item 0 is never added (every addition lies above the
    root), so row 0 of the addition tables stands for "the set itself": it
    adds no item, no extension and no coverage.
    """

    def __init__(self, adj: Sequence[int]):
        n = len(adj)
        width = 1
        while 64 * width < n:
            width *= 2
        self.shift = (64 * width).bit_length() - 1
        self.adj = _words(adj, width)
        # above[i]: the items past i, the only ones a set rooted at i may use
        self.above = _words([((1 << n) - 1) & (-1 << (i + 1)) for i in range(n)], width)
        self.covered = self.adj | _words([1 << i for i in range(n)], width)
        self.adj_x, self.above_x = self.adj.copy(), self.above.copy()
        self.adj_x[0] = self.above_x[0] = 0

    def additions(self, ext: np.ndarray, a: int, b: int,
                  itself: bool) -> tuple[np.ndarray, np.ndarray]:
        """(row, item) for every item rows a..b-1 may add, row-major, items
        ascending; with `itself`, each row first names item 0 for itself."""
        bits = np.unpackbits(ext[a:b].view(np.uint8), axis=1, bitorder="little").view(bool)
        if itself:
            bits[:, 0] = True
        flat = np.flatnonzero(bits)
        return (flat >> self.shift) + a, flat & ((1 << self.shift) - 1)

    def grow(self, ext: np.ndarray, cov: np.ndarray, root: np.ndarray, rows: np.ndarray,
             items: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sets rows + (items,): an added item x keeps the extensions
        above x and brings its neighbours above the root not yet covered."""
        root, cov = root[rows], cov[rows]
        grown = self.adj_x[items] & self.above[root]
        return (ext[rows] & self.above_x[items]) | (grown & ~cov), cov | grown, root

    def step(self, ext: np.ndarray, cov: np.ndarray, root: np.ndarray,
             values: list[np.ndarray], tables: list[tuple[np.ndarray, Callable]], a: int,
             b: int, last: bool) -> tuple[list[np.ndarray], tuple | None]:
        """Rows a..b-1, each as itself and then grown by each item it may
        add: their column values and, short of the last level, their state."""
        rows, items = self.additions(ext, a, b, itself=True)
        out = [op(col[rows], table[items]) for col, (table, op) in zip(values, tables)]
        return out, None if last else self.grow(ext, cov, root, rows, items)


def _connected_walk(adj: Sequence[int], max_size: int,
                    columns: Sequence[tuple[np.ndarray, Callable, object]] = (),
                    max_count: int = DEFAULT_MAX_COUNT) -> Iterator[list[np.ndarray]]:
    """Every connected subset of at most max_size items, exactly once, in
    depth-first order, as chunks of one array per column.

    Items are graph nodes with adjacency bitmasks.  A set rooted at its
    lowest item r grows only through items above r and only into items not
    already reachable, lowest first, so each subset appears a single time;
    each set comes before the sets grown from it.  A column (values, op,
    identity) gives a set the fold of op over its items' values, left to
    right.

    The walk builds level k + 1 from level k for all roots together.  Each
    row of a level becomes itself followed by its one-item extensions, so a
    level holds the walk's order down to that depth, and rows that stand for
    shallower sets pass through.  Every step builds rows adding up to about
    CHUNK, which bounds every temporary.  GuardExceeded is raised before the
    first set when more than max_count sets exist: each level's size is the
    bit count of the extension masks above it, so the deepest level is
    counted without being built.
    """
    n = len(adj)
    if max_size <= 0 or n == 0:
        return
    graph = _ItemGraph(adj)
    ext = graph.adj & graph.above if max_size > 1 else np.zeros_like(graph.adj)
    start = (ext, graph.covered, np.arange(n))
    if sum(math.comb(n, k) for k in range(1, min(max_size, n) + 1)) > max_count:
        count = n
        for more in _level_sizes(graph, max_size, 1, *start):
            count += more
            if count > max_count:
                raise GuardExceeded(f"connected-set enumeration exceeded {max_count} sets",
                                    hint="lower --max-links; --force does not lift this budget")
    values = [v for v, _, _ in columns]
    tables = []
    for v, op, identity in columns:
        table = v.copy()
        table[0] = identity
        tables.append((table, op))
    yield from _level_steps(graph, max_size, 1, *start, values, tables)


def _level_sizes(graph: _ItemGraph, max_size: int, level: int, ext: np.ndarray,
                 cov: np.ndarray, root: np.ndarray) -> Iterator[int]:
    """The size of the level below each block, before that level is built."""
    sizes = _popcounts(ext)
    yield int(sizes.sum())
    if level + 1 < max_size:
        for a, b in _ranges(sizes + 1):
            rows, items = graph.additions(ext, a, b, itself=False)
            yield from _level_sizes(graph, max_size, level + 1,
                                    *graph.grow(ext, cov, root, rows, items))


def _level_steps(graph: _ItemGraph, max_size: int, level: int, ext: np.ndarray,
                 cov: np.ndarray, root: np.ndarray, values: list[np.ndarray],
                 tables: list[tuple[np.ndarray, Callable]]) -> Iterator[list[np.ndarray]]:
    """The walk's chunks below one block of a level, in order."""
    cost = _popcounts(ext) + 1
    if not (cost > 1).any():
        # no row grows: the block is already in the walk's order
        yield values
        return
    last = level + 1 == max_size
    for a, b in _ranges(cost):
        if last:
            yield graph.step(ext, cov, root, values, tables, a, b, last)[0]
        else:
            out, below = graph.step(ext, cov, root, values, tables, a, b, last)
            yield from _level_steps(graph, max_size, level + 1, *below, out, tables)


def _subset_table(bits: int) -> tuple[np.ndarray, np.ndarray]:
    """(subsets, start): for every mask x below 2^bits, its subsets in
    ascending order are subsets[start[x]:start[x] + 2^|x|]."""
    subsets, start = [], []
    for x in range(1 << bits):
        start.append(len(subsets))
        s = 0
        while True:
            subsets.append(s)
            if s == x:
                break
            s = (s - x) & x
    return np.array(subsets), np.array(start)


@np.errstate(over="ignore", invalid="ignore")
def _family_totals(site_count: int, masks: Sequence[int], weights: Sequence[float],
                   order: int) -> list[float]:
    """Xi_0..Xi_order: sums over the families of k pairwise-disjoint polymers
    of the products of their weights.

    t[k, S] sums the families of k polymers whose supports tile the site mask
    S exactly.  The highest site b of S lies in one polymer P of the family,
    so t[k, S] sums w_P t[k-1, S - P] over the polymers P inside S whose
    highest site is b.  The masks with highest site b depend only on masks
    below 2^b, so all polymers with highest site b enter in one step: for
    each, R runs over the subsets of the sites below b outside P, and
    w_P t[k-1, R] is added at P + R.  Polymers with the same number of such
    subsets go together as a (polymer, R) grid, in chunks of CHUNK pairs or,
    for larger tables, of at most a 32nd of the table's entries.  Xi_k is the
    (pairwise) sum of t[k].
    """
    t = np.zeros((order + 1, 1 << site_count))
    t[0, 0] = 1.0
    masks = np.asarray(masks, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    np.add.at(t[1], masks, weights)
    top = np.array([m.bit_length() - 1 for m in masks.tolist()], dtype=np.int64)
    free = ((1 << top) - 1) & ~masks
    sizes = _popcounts(free[:, None])
    key = top * 64 + sizes
    by_key = np.array(sorted(range(len(key)), key=key.tolist().__getitem__), dtype=np.int64)
    key, sizes, free = key[by_key], sizes[by_key], free[by_key]
    masks, weights = masks[by_key, None], weights[by_key]
    half = site_count // 2
    low = (1 << half) - 1
    subsets, start = _subset_table(half)
    shift = _popcounts((free & low)[:, None])[:, None]
    high, part = start[free >> half][:, None], start[free & low][:, None]
    step = CHUNK
    while 32 * step <= t.size:
        step *= 2
    firsts = np.flatnonzero(np.diff(key, prepend=-1)).tolist() if order > 1 else []
    for first, last in zip(firsts, [*firsts[1:], len(key)]):
        cols = min(1 << int(sizes[first]), step)
        for i in range(first, last, step // cols):
            span = slice(i, min(i + step // cols, last))
            for q0 in range(0, 1 << int(sizes[first]), cols):
                q = np.arange(q0, q0 + cols)
                r = subsets[high[span] + (q >> shift[span])] << half
                r |= subsets[part[span] + (q & ((1 << shift[span]) - 1))]
                at = (r | masks[span]).ravel()
                r = r.ravel()
                wr = np.repeat(weights[span], cols)
                for k in range(2, order + 1):
                    np.add.at(t[k], at, wr * t[k - 1, r])
    return t.sum(axis=1).tolist()
