"""Exact dense linear algebra over GF(q) on integer index arrays.

Matrices are numpy arrays of field indices (see fields.DTYPE); every routine
takes the owning FieldSpec first.  Column convention for maps (M @ x), row
convention helpers for module actions (v @ M).

Every matrix product is one exact float64 product over GF(p), in the spirit
of M4RI/M4RIE (Albrecht, Bard & Hart, ACM TOMS 37(1), 2010; Albrecht, ISSAC
2012): an element of GF(p^k) acts on the base-p digit vectors of the others
through its k x k regular-representation block, so the product of index
matrices is the product of a digit matrix with a block matrix, reduced mod p.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .fields import DTYPE, FieldSpec


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=DTYPE)


def eye(n: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=DTYPE)
    np.fill_diagonal(m, 1)
    return m


# float64 holds every integer below 2**53 exactly, so a product whose digit
# sums stay below it is exact in any summation order
_EXACT = 2**53
# float64 digit entries one pass of the product may hold (128 KiB)
_SCRATCH = 2**14


def mat_mul(spec: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(m, n) @ (n, l) over GF(q), as one exact float64 product."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    if a.shape[1] * spec.k * (spec.p - 1) ** 2 >= _EXACT:
        raise ValueError(f"inner dimension {a.shape[1]} too large for an exact product")
    if a.size < b.size:
        # the field is commutative: expand the smaller operand into blocks
        return _digit_product(spec, b.T, a.T).T
    return _digit_product(spec, a, b)


def toeplitz_mul(spec: FieldSpec, f: np.ndarray, w: np.ndarray, out_len: int) -> np.ndarray:
    """out_l = sum_i f_{l-i} W_i for l < out_len, f_j = 0 outside the rows of
    f; the W_i are stacked as w, shape (I r, n).  f of shape (rows, *batch,
    r) gives out of shape (out_len, *batch, n).  One kernel call."""
    rows, *batch, r = f.shape
    taps = w.shape[0] // r
    # zero rows past f: lags beyond f, and negative lags from the end, read them
    padded = zeros((rows + out_len + taps, *batch, r))
    padded[:rows] = f
    lag = np.subtract.outer(np.arange(out_len), np.arange(taps))
    lagged = padded[lag]
    if batch:  # the taps axis after the batch axes
        lagged = lagged.transpose(0, *range(2, f.ndim), 1, f.ndim)
    out = mat_mul(spec, lagged.reshape(-1, taps * r), w)
    return out.reshape(out_len, *batch, w.shape[1])


def _digit_product(spec: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """digits(a) @ blocks(b), reduced.  Rows of a go in chunks so the float64
    digit scratch stays near _SCRATCH entries."""
    (m, n), l, k = a.shape, b.shape[1], spec.k
    blocks = spec.digit_blocks(b)

    def reduced(rows: np.ndarray) -> np.ndarray:
        return spec.from_digits((spec.digit_rows(rows) @ blocks).reshape(rows.shape[0], l, k))

    step = max(1, _SCRATCH // max(1, n * k))
    if m <= step:
        return reduced(a)
    return np.concatenate([reduced(a[lo:lo + step]) for lo in range(0, m, step)])


def mat_vec(spec: FieldSpec, m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M @ v for a single column vector v."""
    return mat_mul(spec, m, v.reshape(-1, 1))[:, 0]


def mat_pow(spec: FieldSpec, a: np.ndarray, e: int) -> np.ndarray:
    out = eye(a.shape[0])
    for _ in range(e):
        out = mat_mul(spec, out, a)
    return out


def _eliminate(spec: FieldSpec, m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (rref, pivot column list)."""
    m = m.astype(DTYPE).copy()
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        sel = None
        for i in range(r, rows):
            if m[i, c] != 0:
                sel = i
                break
        if sel is None:
            continue
        if sel != r:
            m[[r, sel]] = m[[sel, r]]
        inv = spec.inv(int(m[r, c]))
        m[r] = spec.MUL[m[r], inv]
        for i in range(rows):
            if i != r and m[i, c] != 0:
                f = spec.neg(int(m[i, c]))
                m[i] = spec.add_arrays(m[i], spec.MUL[m[r], f])
        pivots.append(c)
        r += 1
    return m, pivots


def inv(spec: FieldSpec, m: np.ndarray) -> Optional[np.ndarray]:
    """Inverse of a square matrix, or None if singular."""
    n = m.shape[0]
    if n == 0:
        return eye(0)
    aug = np.concatenate([m, eye(n)], axis=1).astype(DTYPE)
    red, pivots = _eliminate(spec, aug)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        return None
    return red[:, n:]


def solve(spec: FieldSpec, a: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """One solution x of A @ x = b, or None."""
    rows = a.shape[0]
    aug = np.concatenate([a, b.reshape(rows, 1)], axis=1).astype(DTYPE)
    red, pivots = _eliminate(spec, aug)
    n = a.shape[1]
    if pivots and pivots[-1] == n:
        return None
    x = zeros(n)
    for i, c in enumerate(pivots):
        x[c] = red[i, n]
    return x


def nullspace(spec: FieldSpec, a: np.ndarray) -> list[np.ndarray]:
    """Basis of {x : A @ x = 0} as a list of index vectors."""
    n = a.shape[1]
    if a.shape[0] == 0:
        return [eye(n)[i] for i in range(n)]
    red, pivots = _eliminate(spec, a)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        x = zeros(n)
        x[fc] = 1
        for i, pc in enumerate(pivots):
            x[pc] = spec.neg(int(red[i, fc]))
        basis.append(x)
    return basis
