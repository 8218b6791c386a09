"""Exact dense linear algebra over GF(q) on integer index arrays.

Matrices are numpy arrays of field indices (see fields.DTYPE); every routine
takes the owning FieldSpec first.  Column convention for maps (M @ x), row
convention helpers for module actions (v @ M).

The kernel has one product, one convolution and one elimination, in the
spirit of M4RI/M4RIE (Albrecht, Bard & Hart, ACM TOMS 37(1), 2010; Albrecht,
ISSAC 2012).  The product is one exact float64 product over GF(p): an element
of GF(p^k) acts on the base-p digit vectors of the others through its k x k
regular-representation block, so the product of index matrices is the product
of a digit matrix with a block matrix, reduced mod p.  The convolution is one
product over lagged copies, and the elimination the F[X] Hermite form on
packed rows; a matrix over F has degree 0, so rref reads it at one plane.
"""

from __future__ import annotations

import functools
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


class _Lanes:
    """Packed rows over GF(p^k) with `width` columns: a row is one int whose
    lane (t width + j) k + s, w bits wide, holds base-p digit s of the X^t
    coefficient of column j.  X^t is a shift by t planes, addition is XOR for
    p = 2 and a lane-wise (SWAR) mod-p add otherwise, and a column's lanes
    under a mask give its degree by bit_length (M4RIE-style packing:
    Albrecht, Bard & Hart, ACM TOMS 37(1), 2010)."""

    def __init__(self, fs: FieldSpec, width: int) -> None:
        self.fs, self.width, self.w = fs, width, 8 if fs.p < 128 else 16
        self.dtype = np.uint8 if self.w == 8 else np.dtype("<u2")
        self.elem, self.plane = fs.k * self.w, width * fs.k * self.w  # bits
        self.digits = fs.DIGITS.astype(self.dtype)
        self.index = {int.from_bytes(d.tobytes(), "little"): i
                      for i, d in enumerate(self.digits)}
        # [c][bit b of a digit, high first][s]: bit b of each digit of c a^s
        nb = (fs.p - 1).bit_length()
        bits = fs.REG.astype(np.int64)[:, None] >> np.arange(nb - 1, -1, -1)[:, None, None]
        self.levels = ((bits & 1).astype(object) << np.arange(fs.k) * self.w).sum(-1).tolist()
        self._consts: dict = {}  # per plane count

    def consts(self, planes: int) -> tuple[int, int, int, int]:
        """Over that many planes: the low lane of every element, the bias
        2^(w-1) - p and the top bit of every lane, and bit 0 of every plane."""
        if planes not in self._consts:
            ones, w = (1 << self.plane * planes) - 1, self.w
            lanes = ones // ((1 << w) - 1)
            self._consts[planes] = (ones // ((1 << self.elem) - 1) * ((1 << w) - 1),
                                    lanes * ((1 << w - 1) - self.fs.p), lanes << w - 1,
                                    ones // ((1 << self.plane) - 1))
        return self._consts[planes]

    def add(self, a: int, b: int) -> int:
        if self.fs.p == 2:
            return a ^ b
        s = a + b  # lanes below 2p: subtract p where lane + 2^(w-1) - p carries
        _, bias, top, _ = self.consts(s.bit_length() // self.plane + 1)
        return s - (((s + bias) & top) >> self.w - 1) * self.fs.p

    def scale(self, c: int, r: int) -> int:
        """c r by double-and-add over the levels of c: digit s of each
        element of r times the bits of the digits of c a^s."""
        if c == 1:
            return r
        low = self.consts(r.bit_length() // self.plane + 1)[0]
        digit = [(r >> s * self.w) & low for s in range(self.fs.k)]
        acc = 0
        for level in self.levels[c]:
            acc = self.add(acc, acc)
            for d, v in zip(digit, level):
                if v:
                    acc = self.add(acc, d * v) if acc else d * v
        return acc

    def lead(self, r: int, bits: int) -> int:  # the element holding bit bits - 1
        return self.index[(r >> (bits - 1) // self.elem * self.elem) & ((1 << self.elem) - 1)]

    def unpack(self, rows: list[int]) -> np.ndarray:
        """One int per row -> (D, rows, width) indices, D one past the degree."""
        depth = max((-(-r.bit_length() // self.plane) for r in rows), default=0)
        buf = b"".join(r.to_bytes(depth * self.plane // 8, "little") for r in rows)
        d = np.frombuffer(buf, self.dtype).reshape(len(rows), depth, self.width, self.fs.k)
        return (d @ self.fs.POWERS).astype(DTYPE).transpose(1, 0, 2)


_lanes = functools.lru_cache(maxsize=256)(_Lanes)  # lane constants per (field, width)


def _eliminate(spec: FieldSpec, planes: np.ndarray, inverse: bool = False):
    """Hermite form of a k x n matrix G over F[X] from its (D, k, n) planes:
    (rank, [H | U], W) as planes, U G = H with U unimodular, W = (U^{-1})^T
    if inverse, else None.  The pivot is the lowest row of minimal degree in
    its column: at D = 1 the first nonzero row, and H is the rref.

    Each row of [G | I] is one int of _Lanes, packed once and unpacked once,
    so a step on H is the same step on U.  Row i -= q row pr is long division
    in the pivot column on the packed row: each term c X^t of q adds
    -c row pr (scaled copies cached per pivot) shifted by t planes.  W undoes
    each step on the right: the same terms add q row i to row pr of W, a
    swap swaps rows, and scaling a row of H by c scales that row of W by c^{-1}.
    """
    _, k, n = planes.shape
    if planes.shape[0] == 1 and k == n and np.array_equal(planes[0], eye(n)):
        one = eye(n)[None]  # already in Hermite form: nothing to pack
        return n, np.concatenate([one, one], axis=2), one if inverse else None
    aug = zeros((max(planes.shape[0], 1), k, n + k))
    aug[: planes.shape[0], :, :n] = planes
    aug[0, :, n:] = eye(k)
    lh, lw = _lanes(spec, n + k), _lanes(spec, k)
    step, digits = lh.plane, np.take(lh.digits, aug.transpose(1, 0, 2), axis=0)
    h = [int.from_bytes(r.tobytes(), "little") for r in digits]  # packed once
    w = [1 << i * lw.elem for i in range(k)] if inverse else None

    def reduce(rows: range, pr: int, mask: int) -> None:
        """Each row i -= q row pr, q by long division in the masked column."""
        bits = (h[pr] & mask).bit_length()
        deg, inv_lead, scaled = (bits - 1) // step, spec.inv(lh.lead(h[pr], bits)), {}
        for i in rows:
            while (bits := (h[i] & mask).bit_length()) and (t := (bits - 1) // step - deg) >= 0:
                c = spec.mul(lh.lead(h[i], bits), inv_lead)  # row i -= c X^t row pr
                if c not in scaled:
                    scaled[c] = lh.scale(spec.neg(c), h[pr])
                h[i] = lh.add(h[i], scaled[c] << t * step)
                if inverse:
                    w[pr] = lw.add(w[pr], lw.scale(c, w[i]) << t * lw.plane)

    pr = 0
    for col in range(n):
        if pr >= k:
            break
        depth = max(map(int.bit_length, h)) // step + 1
        mask = lh.consts(depth)[3] * (((1 << lh.elem) - 1) << col * lh.elem)
        while cands := [((b - 1) // step, i) for i in range(pr, k)
                        if (b := (h[i] & mask).bit_length())]:
            best = min(cands)[1]  # minimal degree, then the lowest index
            h[pr], h[best] = h[best], h[pr]
            if inverse:
                w[pr], w[best] = w[best], w[pr]
            reduce(range(pr + 1, k), pr, mask)
            if not any(h[i] & mask for i in range(pr + 1, k)):
                break
        bits = (h[pr] & mask).bit_length()
        if not bits:
            continue
        lead = lh.lead(h[pr], bits)  # scale the pivot to 1
        h[pr] = lh.scale(spec.inv(lead), h[pr])
        if inverse:
            w[pr] = lw.scale(lead, w[pr])
        reduce(range(pr), pr, mask)
        pr += 1
    return pr, lh.unpack(h), lw.unpack(w) if inverse else None


def rref(spec: FieldSpec, m: np.ndarray) -> tuple[np.ndarray, list[int], np.ndarray]:
    """(R, pivots, U) for M over F: R the rank x n reduced row echelon form,
    pivots its pivot columns, U invertible with U M = [R; 0]."""
    k, n = m.shape
    rank, hu, _ = _eliminate(spec, m[None])
    hu = hu.reshape(k, n + k)  # one plane (none when k = 0): no step shifts by X
    red = hu[:rank, :n]
    return red, (red != 0).argmax(axis=1).tolist() if red.size else [], hu[:, n:]


def inv(spec: FieldSpec, m: np.ndarray) -> Optional[np.ndarray]:
    """Inverse of a square matrix, or None if singular."""
    red, _, u = rref(spec, m)
    return u if red.shape[0] == m.shape[0] else None


def nullspace(spec: FieldSpec, a: np.ndarray) -> list[np.ndarray]:
    """Basis of {x : A @ x = 0} as a list of index vectors, one per free
    column of the reduced row echelon form."""
    red, pivots, _ = rref(spec, a)
    free = [c for c in range(a.shape[1]) if c not in pivots]
    basis = zeros((len(free), a.shape[1]))
    basis[range(len(free)), free] = 1
    basis[:, pivots] = spec.neg_arrays(red[:, free]).T
    return list(basis)
