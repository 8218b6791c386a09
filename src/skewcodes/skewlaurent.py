"""Truncated skew Laurent series.

The Laurent ring A((X; sigma, delta)) exists iff sigma is invertible and both
delta and delta' = -delta o sigma^{-1} are nilpotent: series exist over ctx and
over ctx.opposite = A^op[X; sigma', delta'], sigma' = sigma^{-1}.  Then with m'
the nilpotency index of delta':

    X^{-1} s = sum_{k=0}^{m'-1} sigma' delta'^k(s) X^{-1-k}

(the k = m' term vanishes), and right multiplication by X^l is a plain shift
for every integer l.  n steps compose to X^{-n} s = sum_k sigma'
N'_{n-1}^{n-1+k}(s) X^{-n-k}, N' from the opposite's table ctx.opposite.ntable.

A TruncLaurent is a window (ord, coeffs, end) in the Laurent normal form
(skewpoly.CoeffRows); end = None means the element is exact (a Laurent
polynomial).  Every operation returns the largest window its inputs
support: X^{-n} maps window [o, e) to [o - n m', e - n m'), left
multiplication by X^n and shifts preserve window length, and products take
the window of their series parts from skewpoly.mul_arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _gflinalg as la
from .errors import RingUnavailableError
from .skewmap import SkewDerivation, require_series_ring
from .skewpoly import (CoeffRows, SkewPoly, _check_product, _lead, _over_algebra, _trim,
                       mul_arrays, xn_arrays)


# ---- availability report ----

@dataclass(frozen=True)
class LaurentAvailability:
    series: bool
    laurent: bool
    m_delta: Optional[int]
    m_delta_prime: Optional[int]
    series_witness: Optional[str]
    laurent_witness: Optional[str]

    def lines(self) -> list[str]:
        out = ["polynomials: yes"]
        if self.series:
            out.append(f"series: yes (m_delta = {self.m_delta})")
        else:
            out.append(f"series: no ({self.series_witness})")
        if self.laurent:
            out.append(f"laurent: yes (m_delta' = {self.m_delta_prime})")
        else:
            out.append(f"laurent: no ({self.laurent_witness})")
        return out


def _non_nilpotent_witness(ctx: SkewDerivation, name: str) -> Optional[str]:
    """None if the series ring over ctx exists, else why not."""
    if ctx.m_delta is not None:
        return None
    a, r, mat = ctx.algebra, ctx.algebra.dim, ctx.delta.matrix
    full = la.mat_pow(ctx.field, mat, r)
    # the first basis element a_j with mat^r(a_j) != 0, mat not being nilpotent
    j = int(np.flatnonzero(full.any(axis=0))[0])
    lbl = a.labels[j]
    if np.array_equal(mat[:, j], la.eye(r)[j]):
        return f"{name}({lbl}) = {lbl}"
    return f"{name}^{r}({lbl}) = {a.format_coords(full[:, j])} != 0"


def laurent_ring_exists(ctx: SkewDerivation) -> LaurentAvailability:
    """Existence report for the polynomial, series and Laurent rings: Laurent
    series need series over the context, then over its opposite."""
    op = ctx.opposite
    s_wit = _non_nilpotent_witness(ctx, "delta")
    l_wit = ("sigma is not invertible" if op is None
             else s_wit or _non_nilpotent_witness(op, "delta'"))
    return LaurentAvailability(s_wit is None, l_wit is None, ctx.m_delta,
                               None if op is None else op.m_delta, s_wit, l_wit)


def require_laurent_ring(ctx: SkewDerivation) -> int:
    """Return m_delta' (the opposite's m_delta), or raise if there are no
    Laurent series."""
    avail = laurent_ring_exists(ctx)
    if not avail.laurent:
        raise RingUnavailableError(f"laurent ring unavailable: {avail.laurent_witness}")
    return ctx.opposite.m_delta


# ---- the truncated Laurent class ----

class CoeffLaurent(CoeffRows):
    """Class of a Laurent series modulo X^end (end = None: exact), coefficient
    rows in a right A-module: the window without leading or trailing zero
    rows, and the zero class at order end (0 if exact)."""

    __slots__ = ()
    _tag = "trunc laurent"

    def __init__(self, ctx: SkewDerivation, ord_: int, coeffs: np.ndarray,
                 end: Optional[int] = None):
        self.ctx = ctx
        coeffs = np.asarray(coeffs)
        if coeffs.ndim != 2:
            raise ValueError(f"coefficient block must be L x {self.space.n}")
        # strip leading zeros (raising ord) and trailing zeros (end unchanged)
        lead = _lead(coeffs)
        ord_ += lead
        coeffs = _trim(coeffs[lead:])
        if coeffs.shape[0] == 0:
            ord_ = end if end is not None else 0
        elif end is not None and end < ord_ + coeffs.shape[0]:
            raise ValueError("window end precedes the stored coefficients")
        self._set_window(ord_, coeffs.copy(), end)

    def _new(self, ord_: int, coeffs: np.ndarray, end: Optional[int]):
        return type(self)(*self._structure(), ord_, coeffs, end)

    @classmethod
    def from_series(cls, s: CoeffRows):
        """A power series as the Laurent window [0, prec) it is."""
        return cls(*s._structure(), 0, s.coeffs, s.end)


class TruncLaurent(CoeffLaurent):
    """Class of a skew Laurent series modulo X^end (end = None: exact)."""

    __slots__ = ()

    def __init__(self, ctx: SkewDerivation, ord_: int, coeffs: np.ndarray,
                 end: Optional[int]):
        require_laurent_ring(ctx)
        super().__init__(ctx, ord_, coeffs, end)

    @classmethod
    def from_elements(cls, ctx: SkewDerivation, ord_: int, elems,
                      end: Optional[int]) -> "TruncLaurent":
        """Coefficients elems from X^ord_ on, modulo X^end (end = None: exact)."""
        return cls(ctx, ord_, SkewPoly.from_elements(ctx, list(elems)).coeffs, end)

    @classmethod
    def exact_zero(cls, ctx: SkewDerivation) -> "TruncLaurent":
        return cls(ctx, 0, la.zeros((0, ctx.algebra.dim)), None)

    def __mul__(self, other: "TruncLaurent") -> "TruncLaurent":
        return laurent_mul(self, other) if isinstance(other, TruncLaurent) else NotImplemented


# ---- core operations ----

def xinv_times(s: CoeffRows) -> CoeffRows:
    """X^{-1} s = sum_{k<m'} sigma' delta'^k(s) X^{-1-k}; window drops by m'."""
    return xn_times(s, -1)


def _composition_maps(ctx: SkewDerivation, n: int) -> list[np.ndarray]:
    """C_{n,k} = sum over k_1+..+k_n = k, k_j < m', of the composition
    sigma' delta'^{k_1} ... sigma' delta'^{k_n}, for k = 0 .. n(m'-1)."""
    spec, r, maps = ctx.field, ctx.algebra.dim, ctx.xinv_maps()
    cur: list[np.ndarray] = [la.eye(r)]
    for _ in range(n):
        nxt = [la.zeros((r, r)) for _ in range(len(cur) + len(maps) - 1)]
        for kk, m in enumerate(maps):
            for k0, c in enumerate(cur):
                nxt[kk + k0] = spec.add_arrays(nxt[kk + k0], la.mat_mul(spec, m, c))
        cur = nxt
    return cur


def xnegn_direct(s: TruncLaurent, n: int) -> TruncLaurent:
    """X^{-n} s via the closed multinomial expansion (test oracle).

    X^{-n} s = sum_{k=0}^{n(m'-1)} C_{n,k}(s) X^{-n-k}, the composed maps
    built from xinv_maps(); windows match xn_times(s, -n) exactly.
    """
    if n < 0:
        raise ValueError("xnegn_direct needs n >= 0")
    ctx = s.ctx
    mp = require_laurent_ring(ctx)
    spec = ctx.field
    if n == 0:
        return s
    L = s.coeffs.shape[0]
    end = None if s.end is None else s.end - n * mp
    if L == 0:
        return TruncLaurent(ctx, 0, s.coeffs, end)
    comps = _composition_maps(ctx, n)
    width = n * (mp - 1)
    out = la.zeros((L + width, ctx.algebra.dim))
    for k in range(width + 1):
        if not comps[k].any():
            continue
        rows = la.mat_mul(spec, s.coeffs, comps[k].T)
        pos = width - k
        out[pos: pos + L] = spec.add_arrays(out[pos: pos + L], rows)
    if end is not None:
        out = out[: max(0, end - (s.ord - n * mp))]
    return TruncLaurent(ctx, s.ord - n * mp, out, end)


def xn_floor(ctx: SkewDerivation, n: int) -> int:
    """Lowest exponent X^n a can reach for a scalar a: floor(n / m_delta) for
    n >= 0 (N_k^n vanishes once n >= (k + 1) m_delta), and n * m_delta'
    below zero (each X^{-1} reaches m_delta' further down)."""
    if n >= 0:
        return n // require_series_ring(ctx)
    return n * require_laurent_ring(ctx)


def _xn_window(f: CoeffRows, n: int) -> tuple:
    """X^n f as a window (ord, rows, end), f untouched for n = 0: X^n (f_hat
    X^o) = (X^n f_hat) X^o reads f_hat to X^l at X^l, so [o, e) stays put
    for n > 0 (skewpoly.xn_arrays) and drops to [o - k m', e - k m') for
    n = -k < 0.  The X^{-k-i} map sums the words sigma' delta'^{i_1} ...
    sigma' delta'^{i_k} with i_1 + .. + i_k = i, that is sigma'
    N'_{k-1}^{k-1+i}: one Toeplitz product with row block k - 1 of the
    opposite's table, one sigma' product."""
    if n == 0:
        return f.ord, f.coeffs, f.end
    ctx, limit = f.ctx, None if f.end is None else f.end - f.ord
    if n > 0:
        return f.ord, xn_arrays(ctx, f.coeffs, n, out_limit=limit), f.end
    k, mp, op, r = -n, require_laurent_ring(ctx), ctx.opposite, ctx.algebra.dim
    o, e, width = f.ord - k * mp, None if f.end is None else f.end - k * mp, k * (mp - 1)
    full = width + f.coeffs.shape[0]
    out_len = full if limit is None else min(limit, full)
    if f.coeffs.shape[0] == 0 or out_len <= 0:
        return o, la.zeros((0, r)), e
    # tap i = (N'_{k-1}^{k m'-1-i})^T: column blocks k - 1 .. k m' - 1, reversed
    row = op.ntable.stacked(k * mp - 1)[(k - 1) * r:k * r, (k - 1) * r:]
    w = row.reshape(r, width + 1, r)[:, ::-1].transpose(1, 0, 2).reshape(-1, r)
    out = la.toeplitz_mul(ctx.field, f.coeffs, w, out_len)
    return o, la.mat_mul(ctx.field, out, op.sigma.matrix.T), e


def xn_times(f: CoeffRows, n: int) -> CoeffRows:
    """X^n f for any window f over A and any integer n, in f's class: n < 0
    needs the Laurent ring, and refuses a polynomial or series of order < 0."""
    _over_algebra(f, "the operand of xn_times")
    return f._new(*_xn_window(f, n))


def laurent_mul(s: CoeffRows, t: CoeffRows) -> CoeffRows:
    """s t on the largest window the operands support; s over any right
    A-module, t over A, each a polynomial, series or Laurent window.

    Decomposes s = s_hat X^{o_s}, moves X^{o_s} across t to w = X^{o_s} t
    (_xn_window), multiplies s_hat by w from its first nonzero row (from its
    window end if none, as its rows then fill the window) on the window
    skewpoly.mul_arrays gives them, and shifts.
    """
    _check_product(s, t)
    # a zero class s, with no stored rows, moves nothing across t
    o_w, w, e_w = _xn_window(t, s.ord if s.coeffs.shape[0] else 0)
    lead = _lead(w)
    o_w += lead
    n_s = None if s.end is None else s.end - s.ord
    prod, n_out = mul_arrays(s.space, s.ctx, s.coeffs, w[lead:], n_s,
                             None if e_w is None else e_w - o_w)
    # zero operands: (a X^j)(b X^i) reaches down to X^{xn_floor(j) + i}, so an
    # unknown tail from X^end on taints the product from there up
    if not prod.shape[0] and (s.is_zero() or t.is_zero()):
        if (s.is_zero() and s.end is None) or (t.is_zero() and t.end is None):
            return s._zero(None)
        cand = []
        if s.is_zero():
            cand.append(xn_floor(s.ctx, s.end) + t.ord)
        if t.is_zero():
            cand.append(xn_floor(s.ctx, s.ord) + t.end)
        return s._zero(min(cand))
    return s._new(o_w, prod, None if n_out is None else o_w + n_out)
