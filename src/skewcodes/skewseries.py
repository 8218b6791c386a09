"""Truncated skew power series and the Ore denominator-set diagnostics.

A TruncSeries holds the class of a series modulo X^N (N = prec), the
Laurent window [0, N) stored densely: skewlaurent's product and X^n serve
it.  The ring exists iff delta is nilpotent; products then reduce to
truncated polynomial products in skewpoly.mul_arrays, as the left factor only
needs q + 1 = N m_delta coefficients: N_i^q vanishes once q >= (i + 1) *
m_delta (i applications of sigma split the delta-runs into at most i + 1
blocks, each shorter than m_delta).
That bound sets the windows; the product reads fewer where the N-table
certifies it (NOperatorTable.reach).  Where sigma delta = delta sigma,
N_i^q = C(q, i) sigma^i delta^(q-i) vanishes once q - i >= m_delta, so N
outputs read at most N + m_delta - 1 left coefficients.

The denominator-set diagnostics work coefficientwise:

    f X^m = X s  <=>  0 = delta(s_0),
                      0 = sigma(s_{j-1}) + delta(s_j)        (0 < j < m),
                      f_{j-m} = sigma(s_{j-1}) + delta(s_j)  (j >= m)

and X s = 0 for a finitely supported s of support < N adds the closing
equation sigma(s_{N-1}) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _gflinalg as la
from .errors import PrecisionError, RingUnavailableError
from .skewlaurent import laurent_mul, xn_times
from .skewmap import SkewDerivation, require_series_ring
from .skewpoly import (CoeffPoly, CoeffRows, SkewPoly, _over_algebra, _poly_rows,
                       _rows_from_zero, xn_arrays)


def q_bound(ctx: SkewDerivation, n: int) -> int:
    """Left-factor degree bound: coefficient n of s t only sees s_0..s_q."""
    m = require_series_ring(ctx)
    return (n + 1) * m - 1


class CoeffSeries(CoeffRows):
    """Class of a power series modulo X^prec, coefficient rows in a right
    A-module: a Laurent window [0, prec) of order >= 0, stored densely."""

    __slots__ = ()
    _tag = "trunc series"

    def __init__(self, ctx: SkewDerivation, prec: int, coeffs: np.ndarray):
        if prec < 0:
            raise ValueError("precision must be >= 0")
        self.ctx = ctx
        coeffs = np.array(coeffs)
        if coeffs.shape[:1] != (prec,):
            raise ValueError(f"coefficient block must be {prec} x {self.space.n}")
        self._set_window(0, coeffs, prec)

    @property
    def prec(self) -> int:
        return self.end

    def _new(self, ord_: int, coeffs: np.ndarray, end: int):
        return type(self)(*self._structure(), end,
                          _rows_from_zero(ord_, coeffs, end, end, "power series"))

    @classmethod
    def from_poly(cls, f: CoeffPoly, prec: int):
        return cls(*f._structure(), prec, f._window_arr(0, prec))

    @classmethod
    def from_laurent(cls, f: CoeffRows):
        """A window of order >= 0 mod X^end (X^support_end if exact)."""
        prec = f.support_end if f.end is None else f.end
        return cls(*f._structure(), prec,
                   _rows_from_zero(f.ord, f.coeffs, prec, f.end, "power series"))

    def truncate(self, prec: int):
        if prec > self.prec:
            raise PrecisionError(f"cannot extend precision {self.prec} to {prec}")
        return self._new(0, self.coeffs[:prec], prec)


class TruncSeries(CoeffSeries):
    """Class of a skew power series modulo X^prec."""

    __slots__ = ()

    def __init__(self, ctx: SkewDerivation, prec: int, coeffs: np.ndarray):
        require_series_ring(ctx)
        super().__init__(ctx, prec, coeffs)

    @classmethod
    def from_elements(cls, ctx: SkewDerivation, elems, prec: int) -> "TruncSeries":
        return cls.from_poly(SkewPoly.from_elements(ctx, list(elems)[:prec]), prec)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        return series_mul(self, other) if isinstance(other, TruncSeries) else NotImplemented


def series_mul(s: CoeffSeries, t: TruncSeries) -> CoeffSeries:
    """s t, the windowed product laurent_mul on the series windows: at least
    min(t.prec, s.prec // m_delta) coefficients; s over any right A-module."""
    return laurent_mul(s, t)


# ---- Ore denominator-set machinery ----

@dataclass(frozen=True)
class OreWitness:
    """Left Ore relation X^n f = g X^k."""

    n: int
    g: SkewPoly
    k: int = 1

    def verify(self, f: SkewPoly) -> bool:
        return xn_times(f, self.n) == self.g.shift(self.k)


def _element_chain_length(ctx: SkewDerivation, coords: np.ndarray) -> int:
    """Minimal n with delta^n applied to the element zero; raises if none."""
    cur = coords
    for n in range(ctx.algebra.dim + 1):
        if not cur.any():
            return n
        cur = la.mat_vec(ctx.field, ctx.delta.matrix, cur)
    raise RingUnavailableError(
        "no left Ore witness: delta chain on the constant term never vanishes")


def ore_left(f: SkewPoly, k: int = 1) -> OreWitness:
    """Witness X^n f = g X^k with n minimal at each of the k steps.

    Take the minimal n with delta^n(f_0) = 0; then X^n f = sum_j N_j^n(f) X^j
    has X^0 coefficient N_0^n(f_0) = delta^n(f_0) = 0, and g is the rest
    shifted down by one.
    """
    if k < 1:
        raise ValueError("ore_left needs k >= 1")
    _over_algebra(f, "the operand of ore_left")
    ctx = f.ctx
    total_n, cur = 0, _poly_rows(f, "the operand of ore_left")
    for _ in range(k):
        n = _element_chain_length(ctx, cur[0]) if cur.shape[0] else 0
        cur = xn_arrays(ctx, cur, n)[1:]
        total_n += n
    return OreWitness(total_n, SkewPoly(ctx, cur), k)


@dataclass(frozen=True)
class PermutabilityWitness:
    """Solution of f X^m = X s to the stated precision."""

    m: int
    s: TruncSeries


def _chain_system(ctx: SkewDerivation, n_eqs: int, n_unknowns: int) -> np.ndarray:
    """Block matrix of s -> (sigma(s_{j-1}) + delta(s_j))_{j < n_eqs}."""
    r = ctx.algebra.dim
    m = la.zeros((n_eqs * r, n_unknowns * r))
    for j in range(n_eqs):
        if j < n_unknowns:
            m[j * r:(j + 1) * r, j * r:(j + 1) * r] = ctx.delta.matrix
        if 0 < j <= n_unknowns:
            m[j * r:(j + 1) * r, (j - 1) * r: j * r] = ctx.sigma.matrix
    return m


def solve_right_permutable(f: TruncSeries, n_max: int) -> Optional[PermutabilityWitness]:
    """Smallest m <= n_max with f X^m = X s solvable on f's window, if any.

    The solution is verified coefficientwise before being returned.
    """
    ctx, n = f.ctx, f.prec
    if n == 0:
        return PermutabilityWitness(0, TruncSeries(ctx, 0, la.zeros((0, ctx.algebra.dim))))
    r = ctx.algebra.dim
    # one elimination, U system = [R; 0]: system x = b is solvable iff U b
    # is 0 below the rank, and then x = U b on the pivots, 0 elsewhere
    _, pivots, u = la.rref(ctx.field, _chain_system(ctx, n, n))
    for m in range(n_max + 1):
        shifted = f.shift(m).truncate(n)  # f X^m on f's window
        ub = la.mat_vec(ctx.field, u, shifted.coeffs.reshape(-1))
        if ub[len(pivots):].any():
            continue
        x = la.zeros(n * r)
        x[pivots] = ub[: len(pivots)]
        s = TruncSeries(ctx, n, x.reshape(n, r))
        if xn_times(s, 1).agrees_with(shifted):
            return PermutabilityWitness(m, s)
    return None


def kernel_left_x(ctx: SkewDerivation, n: int) -> list[TruncSeries]:
    """Basis of finitely supported s (support < n) with X s = 0 exactly.

    Includes the closing equation sigma(s_{n-1}) = 0, so every basis vector is
    an honest witness against right reversibility; empty basis means no such
    witness exists at this support size.
    """
    if n < 0:
        raise ValueError("kernel_left_x needs n >= 0")
    require_series_ring(ctx)
    if n == 0:
        return []
    system = _chain_system(ctx, n + 1, n)
    basis = la.nullspace(ctx.field, system)
    r = ctx.algebra.dim
    return [TruncSeries(ctx, n, v.reshape(n, r)) for v in basis]
