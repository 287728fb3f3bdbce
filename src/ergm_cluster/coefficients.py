"""Upper-bound coefficients for rooted connected hypergraph sums.

The per-site convergence certificate needs a majorant for the contribution of
connected hypergraphs with a given number of links.  With c = 2 ||K|| M^p the
majorant is abar_n = gamma_n c^n where the gamma_n solve a convolution
recursion; their generating function w(z) = sum gamma_n z^n satisfies
w = z (1 + w)^p, so gamma_n = binom(p n, n - 1) / n by Lagrange inversion and
the series has radius (p-1)^(p-1) / p^p.  Everything structural here is exact
rational arithmetic; floats appear only when a norm is substituted in.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction

COEFFICIENT_GUARD = 64


def _validate_base(M: float) -> None:
    if not math.isfinite(M):
        raise ValueError(f"weight base M must be finite, got {M!r}")
    if not M > 1:
        raise ValueError(f"weight base M must exceed 1, got {M!r}")


def _validate_norm(norm: float) -> None:
    if not math.isfinite(norm):
        raise ValueError(f"interaction norm must be finite, got {norm!r}")
    if norm < 0:
        raise ValueError("interaction norm cannot be negative")


def optimal_M(p: int) -> float:
    """The weight base maximizing the admissible norm region for edge count p.

    Setting the M-derivative of the region bound to zero gives
    log M = (-p + sqrt(5 p^2 - 4 p)) / (2 p (p - 1)); degenerate at p = 1.
    """
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"optimal weight base needs p >= 2, got {p!r}")
    return math.exp((-p + math.sqrt(5.0 * p * p - 4.0 * p)) / (2.0 * p * (p - 1)))


def region_bound(p: int, m: int, M: float) -> float:
    """Largest admissible sum of |beta_i| for motifs on <= m vertices, <= p edges.

    The certificate tolerates interaction norms up to
    log M (p-1)^p / (2 (M p)^p (1 + (p-1) log M)), additionally capped at 1/2;
    dividing by the norm bound factor m(m-1) converts that into a budget on
    the parameter vector.  Degenerate at p = 1 (single-edge-motif families are
    solvable exactly and need no series region).
    """
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"region bound needs p >= 2, got {p!r}")
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"vertex count m must be an integer >= 2, got {m!r}")
    _validate_base(M)
    log_m = math.log(M)
    scale = _majorant_scale(p, M)
    rhs = log_m * (p - 1) ** p / (2.0 * scale * (1.0 + (p - 1) * log_m))
    return min(rhs, 0.5) / (m * (m - 1))


def _or_inf(f: Callable[..., float], *args: float) -> float:
    """f(*args), or inf past the float range, here and in the expansion."""
    try:
        return f(*args)
    except OverflowError:
        return math.inf


def _majorant_scale(p: int, M: float) -> float:
    """(M p)^p for region_bound and radius_and_tail.  Past the float range, as
    at every p >= 144, OverflowError names it before any exact (p-1)^p is built."""
    scale = _or_inf(pow, M * p, p)
    if scale == math.inf:
        raise OverflowError(f"(M p)^p is past the float range at M = {M!r}, p = {p}")
    return scale


@lru_cache(maxsize=None)
def _gamma_table(p: int, n_max: int) -> tuple[Fraction, ...]:
    """gamma_1..gamma_n_max as exact rationals, 0-slot padded for 1-indexing."""
    from fractions import Fraction

    return (Fraction(0),) + tuple(gamma_closed_form(p, n) for n in range(1, n_max + 1))


class CoefficientTable(NamedTuple):
    """abar_n = gamma_n * (2 norm M^p)^n for n = 1..n_max.

    gamma is stored exactly with the scalar c = 2 norm M^p factored out
    symbolically, so structural identities can be checked in rational
    arithmetic regardless of the float norm.
    """

    p: int
    norm: float
    M: float
    gamma: tuple[Fraction, ...]  # gamma[0] unused pad; entries 1..n_max live

    @property
    def n_max(self) -> int:
        return len(self.gamma) - 1

    @property
    def c(self) -> float:
        return 2.0 * self.norm * self.M ** self.p

    def abar(self, n: int) -> float:
        """gamma_n c^n; OverflowError where it is not a finite float."""
        if not 1 <= n <= self.n_max:
            raise ValueError(f"order {n} outside table 1..{self.n_max}")
        value = _or_inf(lambda: float(self.gamma[n]) * self.c ** n)
        if math.isinf(value):
            raise OverflowError(f"abar_{n} = gamma_{n} c^{n} is past the float range "
                                f"at c = {self.c!r}")
        return value


def abar_recursion(p: int, norm: float, M: float, n_max: int = 30) -> CoefficientTable:
    """Tabulate the majorant coefficients for one (p, norm, M) triple."""
    if not isinstance(p, int) or p < 1:
        raise ValueError(f"edge count p must be a positive integer, got {p!r}")
    _validate_base(M)
    _validate_norm(norm)
    if not 1 <= n_max <= COEFFICIENT_GUARD:
        raise ValueError(f"n_max must lie in 1..{COEFFICIENT_GUARD}")
    return CoefficientTable(p=p, norm=float(norm), M=float(M), gamma=_gamma_table(p, n_max))


def gamma_closed_form(p: int, n: int) -> Fraction:
    """binom(p n, n - 1) / n, the Lagrange-inversion value of gamma_n."""
    from fractions import Fraction

    if n < 1:
        raise ValueError("order must be positive")
    return Fraction(math.comb(p * n, n - 1), n)


def _satisfies_identity(p: int, gamma: tuple[Fraction, ...]) -> bool:
    """Does w = z (1 + w)^p hold through the tabulated order?

    gamma is 1-indexed with a 0 pad, and the identity says g = (1 + w)^p has
    g_k = gamma_(k+1).  J. C. P. Miller's power recurrence (Knuth, TAOCP vol.
    2, 4.7), k g_k = sum_(j=1..k) ((p + 1) j - k) gamma_j g_(k-j) with g_0 = 1,
    fixes each g_k from those before it, so the identity holds iff gamma_1 = 1
    and each later gamma_(k+1) satisfies it: O(n_max^2) exact products, any p.
    """
    g = gamma[1:]
    return not g or g[0] == 1 and all(
        k * g[k] == sum(((p + 1) * j - k) * gamma[j] * g[k - j] for j in range(1, k + 1))
        for k in range(1, len(g)))


def generating_function_check(p: int, n_max: int = 30) -> bool:
    """Verify the tabulated coefficients against their generating-function identity.

    The scalar c = 2 norm M^p only rescales z, so the identity is checked on
    the exact gamma coefficients, which depend on p and n_max alone.
    """
    return _satisfies_identity(p, _gamma_table(p, n_max))


def radius_and_tail(p: int, norm: float, M: float) -> tuple[float, Callable[[int], float]]:
    """Convergence radius in z and the closed-form geometric tail bound.

    abar_n <= (2 norm (M p)^p)^n (p-1)^(-(1 + (p-1) n)), a geometric sequence
    with ratio q = 2 norm (M p)^p / (p-1)^(p-1).  tail_bound(n0) sums the
    bound over n > n0 (math.inf when q >= 1, i.e. outside the radius).
    Degenerate at p = 1; norm = 0 returns an infinite radius and zero tails.
    """
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"radius/tail need p >= 2, got {p!r}")
    _validate_base(M)
    _validate_norm(norm)
    if norm == 0:
        return math.inf, lambda n0: 0.0
    scale = _majorant_scale(p, M)
    radius = (p - 1) ** (p - 1) / (2.0 * norm * scale)
    q = 2.0 * norm * scale / (p - 1) ** (p - 1)

    def tail_bound(n0: int) -> float:
        if n0 < 0:
            raise ValueError("tail order must be nonnegative")
        if q >= 1.0:
            return math.inf
        return q ** (n0 + 1) / ((p - 1) * (1.0 - q))

    return radius, tail_bound


def coefficient_tail(table: CoefficientTable, from_order: int) -> float:
    """sum_{n > from_order} abar_n: tabulated values, then a geometric cap."""
    return _majorant_tail(table.p, table.c, from_order, table.n_max)


def _majorant_tail(p: int, c: float, from_order: int, n_max: int) -> float:
    """sum_{n > from_order} gamma_n c^n: orders through n_max, then a geometric cap.

    Each gamma_n = comb(p n, n - 1) / n is one int/int division, which rounds
    correctly, so it is the float of the exact table's entry bit for bit and
    no Fraction is built.  Orders beyond n_max are covered by the closed-form
    bound on abar_n; returns math.inf when that bound's ratio reaches 1
    (series divergent), before any c^n is taken, so an infinite c or one
    whose powers pass the float range gives math.inf as well.
    """
    if from_order < 0:
        raise ValueError("tail order must be nonnegative")
    if c == 0:
        return 0.0
    if p == 1:
        # Links with one site never overlap, so gamma_n = 1 and the series
        # past the table is exactly geometric in c.
        ratio, scale = c, 1.0
    else:
        # p^p is past the float range for every p >= 144: raise before the
        # exact integers p^p and (p-1)^(p-1), of about p log2(p) bits, are built.
        if p * math.log2(p) >= 1024:
            raise OverflowError(f"p^p does not fit a float at p={p}")
        ratio, scale = c * p ** p / (p - 1) ** (p - 1), 1.0 / (p - 1)
    if ratio >= 1.0:
        return math.inf
    # ratio < 1 puts c below 1: no c^n overflows.
    total = 0.0
    for n in range(from_order + 1, n_max + 1):
        total += math.comb(p * n, n - 1) / n * c ** n
    start = max(from_order, n_max) + 1
    return total + scale * ratio ** start / (1.0 - ratio)
