"""Skew derivation pairs (sigma, delta) on an Algebra and their N operator tables.

sigma must be a unital ring endomorphism and delta a sigma-derivation:
delta(x y) = sigma(x) delta(y) + delta(x) y, so that X a = sigma(a) X + delta(a).
When sigma is invertible, b X = X sigma'(b) + delta'(b) with sigma' = sigma^{-1}
and delta' = -delta o sigma^{-1}: the left-hand rule of the opposite ring
A^op[X; sigma', delta'], whose context is ctx.opposite.

N_i^n of a pair are the maps collecting the X^i coefficient of X^n acting on
scalars: N_i^{n+1} = sigma N_{i-1}^n + delta N_i^n, N_0^0 = id, with
N_{-1}^n = 0 and N_{n+1}^n = 0.  In particular N_0^n = delta^n and
N_n^n = sigma^n.  A context's table gives X^n a = sum_i N_i^n(a) X^i, and
its opposite's table b X^n = sum_i X^i N'_i^n(b).
"""

from __future__ import annotations

import functools
import math
import threading
from typing import Optional

import numpy as np

from . import _gflinalg as la
from .algebra import Algebra, LinearMap
from .errors import AxiomError, MixedStructureError


def nilpotency_index(m: LinearMap) -> Optional[int]:
    """Minimal e <= dim with m^e = 0, or None if m^dim != 0."""
    spec = m.algebra.field
    cur = la.eye(m.algebra.dim)
    for e in range(1, m.algebra.dim + 1):
        cur = la.mat_mul(spec, cur, m.matrix)
        if not cur.any():
            return e
    return None


class SkewDerivation:
    """A verified (sigma, delta) pair: from verify_skew_derivation, or an opposite."""

    def __init__(self, algebra: Algebra, sigma: LinearMap, delta: LinearMap,
                 _token=None):
        if _token is not _CONSTRUCT:
            raise TypeError("use verify_skew_derivation() to build a SkewDerivation")
        self.algebra = algebra
        self.sigma = sigma
        self.delta = delta
        self.m_delta = nilpotency_index(delta)
        self.ntable = NOperatorTable(sigma, delta)

    @property
    def field(self):
        return self.algebra.field

    @functools.cached_property
    def opposite(self) -> Optional["SkewDerivation"]:
        """A^op[X; sigma^{-1}, -delta sigma^{-1}], whose left coefficients are the
        right ones here, or None if sigma is not invertible; derived on first access."""
        a, inv = self.algebra, self.sigma.inverse()
        if inv is None:
            return None
        op_a = Algebra(a.field, a.tensor.transpose(1, 0, 2).copy(), a.unit, a.labels, a.meta)
        # not re-verified: (sigma^{-1}, -delta sigma^{-1}) is a skew derivation of
        # A^op exactly when (sigma, delta) is one of A (Goodearl-Warfield 2004)
        op = SkewDerivation(op_a, LinearMap(op_a, inv.matrix),
                            LinearMap(op_a, (-(self.delta @ inv)).matrix), _token=_CONSTRUCT)
        op.opposite = self  # not a second copy of this context
        return op

    def xinv_maps(self) -> list[np.ndarray]:
        """sigma' delta'^k for k < m_delta', from the opposite's maps (not its
        table): the X^{-1} step xnegn_direct composes."""
        op = self.opposite
        if op is None or op.m_delta is None:
            raise AxiomError("right-hand maps unavailable: sigma not invertible "
                             "or delta' not nilpotent")
        spec, s, d = self.field, op.sigma.matrix, op.delta.matrix
        return [la.mat_mul(spec, s, la.mat_pow(spec, d, k)) for k in range(op.m_delta)]

    def __eq__(self, other) -> bool:
        return self is other or isinstance(other, SkewDerivation) and (
            (self.algebra, self.sigma, self.delta) == (other.algebra, other.sigma, other.delta))

    def __hash__(self) -> int:
        return hash((self.algebra, self.sigma, self.delta))

    def __repr__(self) -> str:
        return f"<skew derivation on {self.algebra!r}>"


_CONSTRUCT = object()


def verify_skew_derivation(algebra: Algebra, sigma: LinearMap,
                           delta: LinearMap) -> SkewDerivation:
    """Check the (sigma, delta) axioms on all basis pairs; raise on failure.

    sigma non-invertibility is not an error: the pair is still valid, only the
    opposite context (delta', Laurent) is unavailable.
    """
    if sigma.algebra != algebra or delta.algebra != algebra:
        raise MixedStructureError("maps defined on a different algebra")
    a = algebra
    one = a.one
    if sigma(one) != one:
        raise AxiomError(f"sigma(1) = {sigma(one)} != 1")
    # all basis pairs at once; rows of the image matrices are sigma(a_i), delta(a_i)
    r, spec = a.dim, a.field
    s_img, d_img = sigma.matrix.T, delta.matrix.T
    prods = a.tensor.reshape(r * r, r)
    sigma_lhs = la.mat_mul(spec, prods, s_img).reshape(r, r, r)
    delta_lhs = la.mat_mul(spec, prods, d_img).reshape(r, r, r)
    delta_rhs = spec.add_arrays(a.mul_rows(s_img, d_img), a.mul_rows(d_img, la.eye(r)))
    bad_sigma = np.any(sigma_lhs != a.mul_rows(s_img, s_img), axis=2)
    bad = bad_sigma | np.any(delta_lhs != delta_rhs, axis=2)
    if bad.any():
        i, j = (int(v) for v in np.argwhere(bad)[0])
        pair = f"({a.labels[i]}, {a.labels[j]})"
        if bad_sigma[i, j]:
            raise AxiomError(f"sigma not multiplicative at {pair}")
        raise AxiomError(f"delta fails the sigma-derivation rule at {pair}")
    return SkewDerivation(algebra, sigma, delta, _token=_CONSTRUCT)


# entry budget of the stacked N-table: (n + 1)^2 r^2 int16 entries (64 MiB)
MAX_TABLE_ENTRIES = 2**25


class NOperatorTable:
    """The N_i^n maps of a pair (sigma, delta) as one 2D read-only array in
    the layout the products contract with: entry [(i, a), (k, b)] = N_i^k[b, a],
    zero for i > k.

    Column block k is C_k, the (N_i^k)^T stacked over i.  coefficient_maps
    reads the first block rows of stacked(n) and xn_arrays its column block
    n, both as views; rows(n) and matrix(i, n) are views of the same storage;
    reach(n, depth) scans the first block rows once per argument.
    ensure(n) builds the missing column blocks, one per kernel call:
    C_{k+1} = shift(C_k sigma^T) + C_k delta^T, the shift moving block i to
    i + 1.  Storage grows geometrically up to the entry budget and is
    writable only inside ensure, under the lock; readers index a read-only
    view of it, published before n_max advances, so a reader that sees
    n_max >= n finds column block n built.
    """

    def __init__(self, sigma: LinearMap, delta: LinearMap):
        if sigma.algebra != delta.algebra:
            raise MixedStructureError("sigma and delta act on different algebras")
        self.algebra = sigma.algebra
        self._r = self.algebra.dim
        self._maps = np.concatenate([sigma.matrix.T, delta.matrix.T], axis=1)
        self._publish(la.eye(self._r))
        self._n_max = 0
        self._lock = threading.Lock()
        self._reach: dict[tuple[int, int], int] = {}

    def _publish(self, buf: np.ndarray) -> None:
        buf.flags.writeable = False
        self._buf = buf
        self._stack = buf.view()

    @property
    def n_max(self) -> int:
        """Largest n whose column block is built."""
        return self._n_max

    @property
    def max_n(self) -> int:
        """Largest n the entry budget admits."""
        return math.isqrt(MAX_TABLE_ENTRIES // self._r**2) - 1

    def ensure(self, n: int) -> None:
        if n <= self._n_max:
            return
        if n > self.max_n:
            raise ValueError(f"N-table up to n = {n} exceeds the limit {self.max_n} "
                             f"for an algebra of dimension {self._r}")
        with self._lock:
            top = self._n_max
            if n <= top:
                return
            r, buf = self._r, self._buf
            cap, end = buf.shape[0] // r - 1, (top + 1) * r
            if n > cap:
                cap = min(max(n, 2 * cap), self.max_n)
                buf = la.zeros(((cap + 1) * r, (cap + 1) * r))
                buf[:end, :end] = self._buf[:end, :end]
            else:
                buf.flags.writeable = True
            spec = self.algebra.field
            for m in range(top, n):
                # [C_m sigma^T, C_m delta^T] for every block i at once
                prod = la.mat_mul(spec, buf[:(m + 1) * r, m * r:(m + 1) * r], self._maps)
                col = buf[:, (m + 1) * r:(m + 2) * r]
                col[r:(m + 2) * r] = prod[:, :r]
                col[:(m + 1) * r] = spec.add_arrays(col[:(m + 1) * r], prod[:, r:])
            self._publish(buf)
            self._n_max = n

    def reach(self, n: int, depth: int) -> int:
        """1 + the largest k < depth with N_i^k != 0 for some i < n, else 0:
        the X^i coefficients of a product, i < n, read no left coefficient
        from reach(n, depth) up to depth.  Cached per argument."""
        if min(n, depth) <= 0:
            return 0
        key = (n, depth)
        if key not in self._reach:
            r = self._r
            cols = self.stacked(depth - 1)[:n * r].reshape(-1, depth, r).any(axis=(0, 2))
            self._reach[key] = int(np.flatnonzero(cols)[-1]) + 1 if cols.any() else 0
        return self._reach[key]

    def stacked(self, n: int) -> np.ndarray:
        """Read-only ((n+1) r, (n+1) r) view: entry [(i, a), (k, b)] = N_i^k[b, a]."""
        self.ensure(n)
        return self._stack[:(n + 1) * self._r, :(n + 1) * self._r]

    def rows(self, n: int) -> np.ndarray:
        """Read-only (n+1, n+1, r, r) view: entry [k, i] = N_i^k, zero for i > k."""
        r = self._r
        return self.stacked(n).reshape(n + 1, r, n + 1, r).transpose(2, 0, 3, 1)

    def matrix(self, i: int, n: int) -> np.ndarray:
        if not (0 <= i <= n):
            raise IndexError(f"N_{i}^{n} undefined: need 0 <= i <= n")
        return self.stacked(n)[i * self._r:(i + 1) * self._r, n * self._r:].T


def n_operator(ctx: SkewDerivation, i: int, n: int) -> LinearMap:
    """The map N_i^n of the context."""
    return LinearMap(ctx.algebra, ctx.ntable.matrix(i, n))
