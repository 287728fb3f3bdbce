"""Brute-force ERGM free energies from adjacency matrices.

This module is the benchmark's independent reference.  It imports nothing from
ergm_cluster: every simple graph on n vertices is materialised as an adjacency
matrix, homomorphism counts come from matrix formulas (edge = sum A,
two-star = sum deg^2, triangle = tr A^3) or, for any other motif, from direct
enumeration of all n^m vertex maps, and the free energies are sums over the
2^C(n,2) graphs.  Sums run through math.fsum and small logarithms through
log1p/expm1, so the reference is accurate to a few ulps of each quantity and
does not inherit the cancellation of log-sum-exp minus C(n,2) log 2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Pattern:
    """A motif as the reference sees it: a name, m vertices and an edge list."""

    name: str
    m: int
    edges: tuple[tuple[int, int], ...]


EDGE = Pattern("edge", 2, ((0, 1),))
TWO_STAR = Pattern("two-star", 3, ((0, 1), (1, 2)))
TRIANGLE = Pattern("triangle", 3, ((0, 1), (0, 2), (1, 2)))


def adjacency_stack(n: int) -> np.ndarray:
    """Adjacency matrices of all 2^C(n,2) simple graphs on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    codes = np.arange(1 << len(pairs), dtype=np.int64)
    A = np.zeros((codes.size, n, n), dtype=np.int64)
    for k, (i, j) in enumerate(pairs):
        bit = (codes >> k) & 1
        A[:, i, j] = bit
        A[:, j, i] = bit
    return A


def enumerated_homs(H: Pattern, A: np.ndarray) -> np.ndarray:
    """Homomorphism counts by summing edge products over all n^m vertex maps."""
    n = A.shape[1]
    total = np.zeros(A.shape[0], dtype=np.int64)
    for image in itertools.product(range(n), repeat=H.m):
        prod = np.ones(A.shape[0], dtype=np.int64)
        for u, v in H.edges:
            prod *= A[:, image[u], image[v]]
        total += prod
    return total


def hom_counts(H: Pattern, A: np.ndarray) -> np.ndarray:
    """hom(H, G) for every graph in the stack, by formula where one is known."""
    if H == EDGE:
        return A.sum(axis=(1, 2))
    if H == TWO_STAR:
        deg = A.sum(axis=2)
        return (deg * deg).sum(axis=1)
    if H == TRIANGLE:
        return np.einsum("gij,gjk,gki->g", A, A, A)
    return enumerated_homs(H, A)


@dataclass(frozen=True)
class Values:
    """Reference free energies and expectations at one parameter point."""

    log_w: float
    psi: float
    phi: float
    expectations: tuple[float, ...]


class Ensemble:
    """All graphs on n vertices with the hom counts of one motif family."""

    def __init__(self, patterns: Sequence[Pattern], n: int):
        self.n = n
        self.sites = n * (n - 1) // 2
        A = adjacency_stack(n)
        self.densities = [hom_counts(H, A) / float(n ** H.m) for H in patterns]

    def values(self, betas: Sequence[float]) -> Values:
        """log W, psi_n, phi_n and E[t(H_i, G)] at one coupling vector."""
        if len(betas) != len(self.densities):
            raise ValueError("one coupling per motif")
        n2 = float(self.n * self.n)
        dens = self.densities
        v = np.zeros(1 << self.sites, dtype=np.float64)
        for b, t in zip(betas, dens):
            v += n2 * float(b) * t
        count = float(v.size)
        hi = float(np.max(v))
        # nan, which fails the test below, where exp(v) would overflow.
        mean_expm1 = math.fsum(np.expm1(v)) / count if hi < 700.0 else math.nan
        if mean_expm1 > -0.5:
            # log W = log mean exp(v) = log1p(mean expm1(v)): no cancellation
            # against C(n,2) log 2 however small log W is.
            log_w = math.log1p(mean_expm1)
        else:
            # mean exp(v) is far from 1 or overflows, so log W is not small
            # and the shifted sum keeps its relative accuracy; log1p would
            # cancel in 1 + mean_expm1.
            log_w = hi + math.log(math.fsum(np.exp(v - hi)) / count)
        log_z = log_w + self.sites * math.log(2.0)
        weights = np.exp(v - hi)
        norm = math.fsum(weights)
        expect = tuple(math.fsum(weights * t) / norm for t in dens)
        return Values(log_w=log_w, psi=log_z / n2, phi=log_w / self.sites,
                      expectations=expect)
