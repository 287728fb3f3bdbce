"""Labeled simple graphs, motif patterns, and exact homomorphism counting.

Vertices are integers 0..n-1.  An edge site is a pair (i, j) with i < j; the
site set over n vertices is ordered lexicographically, and the exhaustive
tables index edge-subset bitmasks in increasing order with bit k standing
for the k-th site.  That order is part of the contract: two runs of any
enumeration in this package produce identical sequences.

One backtracking walk over the vertex maps of a motif into a host graph,
_maps, serves every count in the package: hom_count counts the maps into G,
and _edge_images groups them by edge image, over K_n for
lattice.support_families, the link table and ensemble.motif_hom_table, over
the subset itself for lattice.exact_hom_count, and over G for the images
inside E(G).  A walk whose maps could number past MAP_BUDGET is refused
before it starts.  Counts are plain integers, densities exact rationals;
floats only appear once a beta vector is folded in.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

# The largest site-mask table any route builds: 2^21 entries at n = 7.  At
# n = 8 one float64 table over the 2^28 masks would take 2 GB.
TABLE_SITES = 21
# The most table entries one pass over the site masks may touch: the
# polymer-gas sweep's (polymer, subset) pairs over its orders past the first,
# or the link histogram's count-table entries.  Every n <= 6 sweep fits (all
# 2^15 - 1 masks at order 8: 5.0e7 pairs); at n = 7 the largest admitted
# series take about 2 s on a 2-CPU box.
SWEEP_BUDGET = 1 << 26
# The most vertex maps _maps walks (leaf calls, for a leaf that only reads its
# candidate mask): a 10-vertex path into K_6 (11.7 M maps) takes about 8 s on a
# 2-CPU box; an 11-vertex path (58.6 M) would take minutes.
MAP_BUDGET = 1 << 24


class GuardExceeded(RuntimeError):
    """A job refused before it starts: past the TABLE_SITES ceiling, the
    vertex-map budget, the series' connected-set budget or SWEEP_BUDGET.  No
    option lifts any of them; the hint names what does help."""

    def __init__(self, message: str, hint: str):
        super().__init__(message)
        self.hint = hint


def check_guard(n: int, least: int = 1) -> None:
    """Refuse a sweep over the 2^C(n,2) site masks past TABLE_SITES sites."""
    if n < least:
        raise ValueError(f"need n >= {least} vertices, got n={n}")
    if n * (n - 1) // 2 > TABLE_SITES:
        raise GuardExceeded(f"exhaustive sweep over the 2^C(n,2) site masks at n={n} "
                            f"exceeds the ceiling of {TABLE_SITES} sites",
                            hint="no option lifts the ceiling: use n <= 7")


def canonical_edge(u: int, v: int, n: int) -> tuple[int, int]:
    """Validate one vertex pair against n and return it as (min, max).  A
    vertex is an int and not a bool, so JSON's true does not read as 1."""
    if not (type(u) is int and type(v) is int):
        raise ValueError(f"vertex pair ({u!r}, {v!r}) must be integers")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"vertex pair ({u}, {v}) out of range for n={n}")
    if u == v:
        raise ValueError(f"({u}, {v}) is a self-loop, not an edge site")
    return (u, v) if u < v else (v, u)


@lru_cache(maxsize=None)
def all_edge_sites(n: int) -> tuple[tuple[int, int], ...]:
    """Every vertex pair over 0..n-1, lexicographically ordered."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


@lru_cache(maxsize=None)
def edge_index(n: int) -> dict[tuple[int, int], int]:
    """Position of each pair inside all_edge_sites(n); defines bitmask bits."""
    return {e: k for k, e in enumerate(all_edge_sites(n))}


def site_mask(n: int, X: Iterable[tuple[int, int]]) -> int:
    """The site mask of the canonical sites X over n vertices: bit k is site
    all_edge_sites(n)[k].  mask_sites decodes it."""
    index = edge_index(n)
    mask = 0
    for e in X:
        mask |= 1 << index[e]
    return mask


def mask_sites(n: int, mask: int) -> tuple[tuple[int, int], ...]:
    """The sites of a site mask over n vertices, in sorted order."""
    sites = all_edge_sites(n)
    return tuple(sites[k] for k in _bits(mask))


def adjacency(size: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """Neighbour sets of the vertices 0..size-1 of a graph, as vertex bitmasks."""
    adj = [0] * size
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


class _ValueType:
    """Equality of a validated NamedTuple: only with its own type, as for a
    frozen dataclass, while hashing stays tuple's own.  _make, and with it
    _replace, and copying and unpickling at every protocol go through the
    validating constructor."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)

    def __eq__(self, other):
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = tuple.__hash__


class _GraphFields(NamedTuple):
    n: int
    edges: frozenset[tuple[int, int]]


class SimpleGraph(_ValueType, _GraphFields):
    """A labeled simple graph: vertex count n plus a set of canonical edges."""

    __slots__ = ()

    def __new__(cls, n: int, edges: frozenset[tuple[int, int]]) -> SimpleGraph:
        if type(n) is not int:
            raise ValueError(f"vertex count {n!r} must be an integer")
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        for u, v in edges:
            if canonical_edge(u, v, n) != (u, v):
                raise ValueError(f"edge {(u, v)} is not canonical for n={n}")
        return tuple.__new__(cls, (n, edges))

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def make_graph(n: int, edges: Iterable[Sequence[int]]) -> SimpleGraph:
    """Build a SimpleGraph from raw vertex pairs.

    Pairs are canonicalized to (min, max); duplicates after that are rejected.
    """
    if type(n) is not int:
        raise ValueError(f"vertex count {n!r} must be an integer")
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        e = canonical_edge(u, v, n)
        if e in seen:
            raise ValueError(f"duplicate edge {e} after canonicalization")
        seen.add(e)
    return SimpleGraph(n, frozenset(seen))


class _MotifFields(NamedTuple):
    name: str
    m: int
    edges: frozenset[tuple[int, int]]


class Motif(_ValueType, _MotifFields):
    """A pattern graph on m vertices whose homomorphism density is tracked.

    p = number of edges.  Motifs must be simple with at least one edge; m >= 2.
    """

    __slots__ = ()

    def __new__(cls, name: str, m: int, edges: frozenset[tuple[int, int]]) -> Motif:
        if type(m) is not int:
            raise ValueError(f"motif vertex count {m!r} must be an integer")
        if m < 2:
            raise ValueError("a motif needs at least two vertices")
        if not edges:
            raise ValueError("a motif needs at least one edge")
        for u, v in edges:
            if canonical_edge(u, v, m) != (u, v):
                raise ValueError(f"motif edge {(u, v)} is not canonical for m={m}")
        return tuple.__new__(cls, (name, m, edges))

    @property
    def p(self) -> int:
        return len(self.edges)


BUILTIN_MOTIFS: dict[str, Motif] = {
    "edge": Motif("edge", 2, frozenset({(0, 1)})),
    "two-star": Motif("two-star", 3, frozenset({(0, 1), (1, 2)})),
    "triangle": Motif("triangle", 3, frozenset({(0, 1), (0, 2), (1, 2)})),
}


def motif_from_json(doc: str | dict) -> Motif:
    """Parse a motif document {"name": ..., "m": ..., "edges": [[u, v], ...]};
    m and the edges go through make_graph as given."""
    data = json.loads(doc) if isinstance(doc, str) else doc
    try:
        name = str(data["name"])
        m = data["m"]
        raw = data["edges"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"motif document must carry name, m, edges: {exc}") from exc
    return Motif(name, m, make_graph(m, raw).edges)


def load_motif(source: str) -> Motif:
    """Resolve a motif by builtin name or by JSON file path."""
    if source in BUILTIN_MOTIFS:
        return BUILTIN_MOTIFS[source]
    path = Path(source)
    if path.exists():
        return motif_from_json(path.read_text())
    raise ValueError(f"unknown motif {source!r}: not a builtin "
                     f"({', '.join(sorted(BUILTIN_MOTIFS))}) and no such file")


def graph_from_json(doc: str | dict) -> SimpleGraph:
    """Parse a graph document {"n": ..., "edges": [[u, v], ...]}; n and the
    edges go through make_graph as given."""
    data = json.loads(doc) if isinstance(doc, str) else doc
    try:
        n = data["n"]
        raw = data["edges"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"graph document must carry n and edges: {exc}") from exc
    return make_graph(n, raw)


def check_alignment(motifs: Sequence[Motif], betas: Sequence) -> None:
    """A parameter vector must pair one finite real weight with each motif."""
    if len(motifs) != len(betas):
        raise ValueError(f"{len(motifs)} motifs but {len(betas)} weights")
    if not motifs:
        raise ValueError("empty motif family")
    for H in motifs:
        if not isinstance(H, Motif):
            raise ValueError(f"not a motif: {H!r}")
    for i, b in enumerate(map(float, betas)):
        if not math.isfinite(b):
            raise ValueError(f"weight {i} is {b}, not a finite number")


def _traversal_order(H: Motif) -> tuple[list[list[int]], int]:
    """Backtracking order over the non-isolated motif vertices.

    Greedy: the next vertex is the lowest unplaced non-isolated one with a
    placed neighbour, or, when there is none, the lowest unplaced one, which
    roots a new component.  So every vertex after a component root has an
    already-placed neighbour (which is what makes the incremental candidate
    pruning bite).  Returns (earlier, isolated_count): earlier[i] lists the
    positions of the already-placed motif neighbours of the i-th placed
    vertex, so every motif edge appears in it exactly once.
    """
    adj = adjacency(H.m, H.edges)
    rest = [v for v in range(H.m) if adj[v]]
    order: list[int] = []
    placed = 0
    while rest:
        v = next((u for u in rest if adj[u] & placed), rest[0])
        rest.remove(v)
        order.append(v)
        placed |= 1 << v
    pos = {v: i for i, v in enumerate(order)}
    earlier = [[pos[u] for u in _bits(adj[v]) if pos[u] < i] for i, v in enumerate(order)]
    return earlier, H.m - len(order)


def _maps(H: Motif, adj: Sequence[int],
          leaf: Callable[[list[int], int], None], walk_last: bool = True) -> int:
    """The one backtracking walk over the vertex maps of a motif into a host.

    The host is given by neighbour bitmasks adj[v].  The non-isolated motif
    vertices are placed in _traversal_order: component roots on every host
    vertex, each later vertex on the common host neighbours of its placed
    motif neighbours.  For each placement of all but the last, leaf(images,
    cand) receives the images (images[i] hosts the i-th placed motif vertex)
    and the nonzero candidate mask of the last one.  Returns the isolated
    motif vertex count; each such vertex multiplies every count by the host size.

    Before any vertex is placed, the maps are bounded by s^r D^(m'-r): s host
    vertices for each of the r component roots, and the largest host degree D
    for each of the other m' - r placed vertices.  A leaf that only reads its
    candidate mask (walk_last=False) is charged per call instead: the last
    vertex is never a root, so that drops one D.  A bound past MAP_BUDGET
    raises GuardExceeded.
    """
    earlier, isolated = _traversal_order(H)
    roots = sum(not js for js in earlier)
    degree = max((a.bit_count() for a in adj), default=0)
    bound = len(adj) ** roots * degree ** (len(earlier) - roots - (not walk_last))
    if bound > MAP_BUDGET:
        what = "vertex maps" if walk_last else "partial vertex maps"
        raise GuardExceeded(f"{H.name} has up to {bound} {what} into the host, "
                            f"past the budget of {MAP_BUDGET}",
                            hint="use a motif with fewer vertices, a smaller --n, "
                                 "or a smaller or sparser --graph")
    last = len(earlier) - 1
    images = [0] * last
    everyone = (1 << len(adj)) - 1

    def place(i: int) -> None:
        cand = everyone
        for j in earlier[i]:
            cand &= adj[images[j]]
            if not cand:
                return
        if i == last:
            leaf(images, cand)
            return
        while cand:
            bit = cand & -cand
            cand ^= bit
            images[i] = bit.bit_length() - 1
            place(i + 1)

    place(0)
    return isolated


def _edge_images(H: Motif, adj: Sequence[int]
                 ) -> tuple[dict[tuple[tuple[int, int], ...], int], int]:
    """The maps of _maps(H, adj) counted by their edge image, plus the
    isolated motif vertex count.

    Images are keyed by canonical site tuples over the host vertices
    0..len(adj)-1, in sorted order.  A map sends motif edges to host edges
    only, so the image masks number the host's edges alone, in sorted order:
    on K_n that is the site mask.  Each leaf builds the mask of its placed
    vertices once and adds only the last vertex's sites per candidate.
    """
    earlier, _ = _traversal_order(H)
    last = len(earlier) - 1
    sites = [(a, b) for a in range(len(adj)) for b in _bits(adj[a]) if a < b]
    site_bit = [[0] * len(adj) for _ in adj]
    for k, (a, b) in enumerate(sites):
        site_bit[a][b] = site_bit[b][a] = 1 << k
    placed = [(k, j) for k in range(last) for j in earlier[k]]
    counts: dict[int, int] = {}

    def leaf(images: list[int], cand: int) -> None:
        image = 0
        for k, j in placed:
            image |= site_bit[images[k]][images[j]]
        rows = [site_bit[images[j]] for j in earlier[last]]
        while cand:
            bit = cand & -cand
            cand ^= bit
            w = bit.bit_length() - 1
            key = image
            for row in rows:
                key |= row[w]
            counts[key] = counts.get(key, 0) + 1

    isolated = _maps(H, adj, leaf)
    return {tuple(sites[k] for k in _bits(mask)): c for mask, c in counts.items()}, isolated


def hom_count(H: Motif, G: SimpleGraph) -> int:
    """Number of maps V(H) -> V(G) sending every motif edge to an edge of G.

    The maps of _maps into G's adjacency, the last vertex's candidates counted
    by popcount; isolated motif vertices contribute a free factor n each.
    """
    count = 0

    def leaf(images: list[int], cand: int) -> None:
        nonlocal count
        count += cand.bit_count()

    isolated = _maps(H, adjacency(G.n, G.edges), leaf, walk_last=False)
    return count * G.n ** isolated


def _bits(mask: int) -> Iterator[int]:
    while mask:
        bit = mask & -mask
        mask ^= bit
        yield bit.bit_length() - 1


def hom_density(H: Motif, G: SimpleGraph) -> Fraction:
    """t(H, G) = hom_count / n^m as an exact rational."""
    from fractions import Fraction

    if G.n == 0:
        raise ValueError("homomorphism density needs at least one vertex")
    return Fraction(hom_count(H, G), G.n ** H.m)
