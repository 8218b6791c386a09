"""Exact linear algebra over the commutative polynomial ring F[X].

Everything here works over the principal ideal domain F[X] for a finite
field F.  A PolyMatrix is one read-only (D, rows, cols) array of coefficient
planes; its Poly entries are a view, built only when read.  All rests on one
elimination with transform, hermite_form: U G = H with U unimodular and H in
row echelon form, by the field kernel's elimination: each row of [G | I] is
one Python int, base-p digits in 8- or 16-bit lanes, so a row step is a few
int operations however wide the row; on request it carries U^{-1} too.
Membership and rank read H.  Purification (the smallest direct summand
containing a row module) reads the Hermite form of G^T and its carried
inverse, so closure takes two Hermite forms, or one when G has rank n.  G
spans a summand of full rank exactly when every pivot of that form is 1; its
transform then holds a right inverse and syndrome former of G
(summand_transform).  smith_form (U G V = D, alternating Hermite forms of D
and D^T), det_poly and rank_rational are oracles off the code path; the last
two do not eliminate.

Pivoting is deterministic: among candidate pivots of minimal degree in the
current column the lowest row index wins, so repeated runs produce identical
output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _gflinalg as la
from .errors import MixedStructureError
from .fields import DTYPE, FieldSpec


# ---- dense univariate polynomials ----

def _length(e: np.ndarray) -> int:
    """One past the degree of a coefficient array (0 for zero)."""
    nz = e.nonzero()[0]
    return int(nz[-1]) + 1 if nz.shape[0] else 0


class Poly:
    """Polynomial over a finite field, dense ascending coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, fieldspec: FieldSpec, coeffs) -> None:
        arr = np.asarray([fieldspec.element(c).idx for c in coeffs], dtype=DTYPE)
        self.field = fieldspec
        self.coeffs = arr[:_length(arr)]
        self.coeffs.setflags(write=False)

    @classmethod
    def _raw(cls, fieldspec: FieldSpec, arr: np.ndarray) -> "Poly":
        p = object.__new__(cls)
        object.__setattr__(p, "field", fieldspec)
        a = np.asarray(arr, dtype=DTYPE)
        a = a[:_length(a)]
        a.setflags(write=False)
        object.__setattr__(p, "coeffs", a)
        return p

    def __setattr__(self, name, value):
        if name in self.__slots__ and hasattr(self, "coeffs"):
            raise AttributeError("Poly is immutable")
        object.__setattr__(self, name, value)

    @classmethod
    def zero(cls, fieldspec: FieldSpec) -> "Poly":
        return cls(fieldspec, [])

    @classmethod
    def one(cls, fieldspec: FieldSpec) -> "Poly":
        return cls(fieldspec, [1])

    @classmethod
    def constant(cls, fieldspec: FieldSpec, c) -> "Poly":
        return cls(fieldspec, [c])

    @classmethod
    def x_power(cls, fieldspec: FieldSpec, n: int = 1) -> "Poly":
        if n < 0:
            raise ValueError(f"exponent n = {n} is negative")
        return cls(fieldspec, [0] * n + [1])

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def is_zero(self) -> bool:
        return self.coeffs.shape[0] == 0

    def is_unit(self) -> bool:
        return self.coeffs.shape[0] == 1

    def lead(self) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return int(self.coeffs[-1])

    def coeff(self, i: int) -> int:
        return int(self.coeffs[i]) if 0 <= i <= self.degree else 0

    def _check(self, other: "Poly") -> None:
        if self.field != other.field:
            raise MixedStructureError("polynomials over different fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        fs = self.field
        L = max(self.coeffs.shape[0], other.coeffs.shape[0])
        a = np.zeros(L, dtype=DTYPE)
        a[: self.coeffs.shape[0]] = self.coeffs
        b = np.zeros(L, dtype=DTYPE)
        b[: other.coeffs.shape[0]] = other.coeffs
        return Poly._raw(fs, fs.add_arrays(a, b))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly._raw(self.field, self.field.neg_arrays(self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        fs, a, b = self.field, self.coeffs, other.coeffs
        out = np.zeros(max(a.shape[0] + b.shape[0] - 1, 0), dtype=DTYPE)
        for t, c in enumerate(a.tolist()):
            if c:
                out[t: t + b.shape[0]] = fs.add_arrays(out[t: t + b.shape[0]], fs.MUL[c, b])
        return Poly._raw(fs, out)

    def scale(self, c: int) -> "Poly":
        fs = self.field
        if c == 0:
            return Poly.zero(fs)
        return Poly._raw(fs, fs.MUL[c, self.coeffs])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.lead()))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        fs, a, b = self.field, self.coeffs, other.coeffs
        d = b.shape[0] - 1
        q = np.zeros(max(a.shape[0] - d, 0), dtype=DTYPE)
        rem = a.copy()
        inv_lead = fs.inv(int(b[-1]))
        for i in range(a.shape[0] - d - 1, -1, -1):
            c = fs.mul(int(rem[i + d]), inv_lead)
            if c:
                q[i] = c
                rem[i: i + d + 1] = fs.add_arrays(rem[i: i + d + 1], fs.MUL[fs.neg(c), b])
        return Poly._raw(fs, q), Poly._raw(fs, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def divides(self, other: "Poly") -> bool:
        if self.is_zero():
            return other.is_zero()
        return (other % self).is_zero()

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.field == other.field
                and np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs.tobytes()))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        fs = self.field
        terms = []
        for e in range(self.degree, -1, -1):
            c = int(self.coeffs[e])
            if c == 0:
                continue
            cs = fs.format_index(c)
            wrapped = f"({cs})" if ("+" in cs or "-" in cs) else cs
            if e == 0:
                terms.append(cs)
            elif e == 1:
                terms.append("X" if c == 1 else f"{wrapped}X")
            else:
                terms.append(f"X^{e}" if c == 1 else f"{wrapped}X^{e}")
        return " + ".join(terms)

    def __repr__(self) -> str:
        return f"<poly {self}>"


# ---- polynomial matrices ----

def _stack_rows(blocks, width: int) -> np.ndarray:
    """The (D, rows, width) planes of one (D_i, width) block per row, D = max D_i."""
    out = la.zeros((max((b.shape[0] for b in blocks), default=0), len(blocks), width))
    for i, b in enumerate(blocks):
        out[: b.shape[0], i] = b
    return out


class PolyMatrix:
    """Immutable matrix over F[X], stored as read-only (D, rows, cols)
    coefficient planes, D one past the degree; rows, its Poly entries, is a
    view built on first use.  width is the column count of a matrix without
    rows; otherwise the rows give it."""

    __slots__ = ("field", "shape", "_planes", "_rows")

    def __init__(self, fieldspec: FieldSpec, rows: Sequence[Sequence[Poly]],
                 width: int = 0):
        tup = tuple(tuple(e for e in row) for row in rows)
        width = len(tup[0]) if tup else width
        for row in tup:
            if len(row) != width:
                raise ValueError("ragged rows")
            for e in row:
                if not isinstance(e, Poly) or e.field != fieldspec:
                    raise MixedStructureError("entry over the wrong field")
        depth = max((e.coeffs.shape[0] for row in tup for e in row), default=0)
        planes = la.zeros((depth, len(tup), width))
        for i, row in enumerate(tup):
            for j, e in enumerate(row):
                planes[: e.coeffs.shape[0], i, j] = e.coeffs
        self._store(fieldspec, planes)._rows = tup

    def _store(self, fieldspec: FieldSpec, planes: np.ndarray) -> "PolyMatrix":
        planes = planes[: _length(planes.any(axis=(1, 2)))]
        planes.setflags(write=False)
        self.field, self.shape, self._planes, self._rows = \
            fieldspec, planes.shape[1:], planes, None
        return self

    @classmethod
    def _raw(cls, fieldspec: FieldSpec, planes: np.ndarray) -> "PolyMatrix":
        """The matrix of (D, rows, cols) planes, unchecked and not copied:
        nothing may write to planes afterwards."""
        return object.__new__(cls)._store(fieldspec, planes)

    @classmethod
    def from_coeff_lists(cls, fieldspec: FieldSpec,
                         rows: Sequence[Sequence[Sequence]]) -> "PolyMatrix":
        return cls(fieldspec, [[Poly(fieldspec, e) for e in row] for row in rows])

    @classmethod
    def identity(cls, fieldspec: FieldSpec, n: int) -> "PolyMatrix":
        return cls._raw(fieldspec, la.eye(n)[None])

    @classmethod
    def zeros(cls, fieldspec: FieldSpec, k: int, n: int) -> "PolyMatrix":
        return cls._raw(fieldspec, la.zeros((0, k, n)))

    def is_zero(self) -> bool:
        return not self._planes.shape[0]

    @property
    def rows(self) -> tuple[tuple[Poly, ...], ...]:
        if self._rows is None:
            p, fs = self._planes, self.field
            self._rows = tuple(tuple(Poly._raw(fs, p[:, i, j]) for j in range(self.shape[1]))
                               for i in range(self.shape[0]))
        return self._rows

    def planes(self) -> np.ndarray:
        """The read-only (D, rows, cols) coefficient planes, D one past the degree."""
        return self._planes

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        """One Toeplitz product over the planes: C_l = sum_i A_{l-i} B_i."""
        if self.field != other.field:
            raise MixedStructureError("matrices over different fields")
        (k, n), (n2, m) = self.shape, other.shape
        if n != n2:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        a, b = self._planes, other._planes
        if not (a.shape[0] and b.shape[0]):
            return PolyMatrix.zeros(self.field, k, m)
        return PolyMatrix._raw(self.field, la.toeplitz_mul(
            self.field, a, b.reshape(-1, m), a.shape[0] + b.shape[0] - 1))

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix._raw(self.field, self._planes.transpose(0, 2, 1))

    def stack(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.field != other.field or self.shape[1] != other.shape[1]:
            raise ValueError("cannot stack")
        return PolyMatrix._raw(self.field, _stack_rows(
            [*self._planes.transpose(1, 0, 2), *other._planes.transpose(1, 0, 2)],
            self.shape[1]))

    def take_rows(self, idx: Sequence[int]) -> "PolyMatrix":
        return PolyMatrix._raw(self.field, self._planes[:, list(idx)])

    def drop_zero_rows(self) -> "PolyMatrix":
        return PolyMatrix._raw(self.field, self._planes[:, self._planes.any(axis=(0, 2))])

    def __eq__(self, other) -> bool:
        return (isinstance(other, PolyMatrix) and self.field == other.field
                and self.shape == other.shape
                and np.array_equal(self._planes, other._planes))

    def __hash__(self) -> int:
        return hash((self.field, self.shape, self._planes.tobytes()))

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]"
                         for row in self.rows)

    def __repr__(self) -> str:
        k, n = self.shape
        return f"<polymatrix {k}x{n}>"


def _to_lists(g: PolyMatrix) -> list[list[Poly]]:
    return [list(row) for row in g.rows]


def det_poly(g: PolyMatrix) -> Poly:
    """Determinant by fraction-free (Bareiss) elimination; exact."""
    k, n = g.shape
    if k != n:
        raise ValueError("determinant of a non-square matrix")
    fs = g.field
    if k == 0:
        return Poly.one(fs)
    a = _to_lists(g)
    prev = Poly.one(fs)
    sign = 1
    for t in range(k - 1):
        if a[t][t].is_zero():
            for i in range(t + 1, k):
                if not a[i][t].is_zero():
                    a[t], a[i] = a[i], a[t]
                    sign = -sign
                    break
            else:
                return Poly.zero(fs)
        for i in range(t + 1, k):
            for j in range(t + 1, k):
                num = a[t][t] * a[i][j] - a[i][t] * a[t][j]
                a[i][j] = num // prev
            a[i][t] = Poly.zero(fs)
        prev = a[t][t]
    d = a[k - 1][k - 1]
    if sign < 0:
        d = -d
    return d


def is_unimodular(g: PolyMatrix) -> bool:
    k, n = g.shape
    return k == n and det_poly(g).is_unit()


# ---- Hermite form ----

def _hermite(fs: FieldSpec, planes: np.ndarray, inverse: bool):
    """The elimination behind hermite_form (_gflinalg._eliminate) on the
    (D, k, n) planes of G, as matrices: (rank, H, U, W), W = (U^{-1})^T if
    inverse, else None."""
    n = planes.shape[2]
    rank, hu, w = la._eliminate(fs, planes, inverse)
    return (rank, PolyMatrix._raw(fs, hu[:, :, :n]), PolyMatrix._raw(fs, hu[:, :, n:]),
            None if w is None else PolyMatrix._raw(fs, w))


def hermite_form(g: PolyMatrix) -> tuple[PolyMatrix, PolyMatrix]:
    """(H, U) with U unimodular, U G = H row echelon, monic pivots, entries
    above each pivot reduced below the pivot degree."""
    return _hermite(g.field, g.planes(), False)[1:3]


def hermite_pivots(h: PolyMatrix) -> list[tuple[int, int]]:
    """Pivot positions of an echelon matrix (first nonzero entry per row)."""
    nz = h.planes().any(axis=0)
    return [(i, int(row.argmax())) for i, row in enumerate(nz) if row.any()]


def rank(g: PolyMatrix) -> int:
    h, _ = hermite_form(g)
    return len(hermite_pivots(h))


def rank_rational(g: PolyMatrix) -> int:
    """Rank over the rational function field F(X) by fraction-free
    cross-multiplication elimination (independent of hermite_form)."""
    fs = g.field
    k, n = g.shape
    a = _to_lists(g)
    r = 0
    for col in range(n):
        piv = None
        for i in range(r, k):
            if not a[i][col].is_zero():
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, k):
            if a[i][col].is_zero():
                continue
            head, lead = a[r][col], a[i][col]
            for j in range(n):
                a[i][j] = head * a[i][j] - lead * a[r][j]
        r += 1
        if r == k:
            break
    return r


# ---- Smith form ----

@dataclass(frozen=True)
class SmithDecomposition:
    u: PolyMatrix
    d: PolyMatrix
    v: PolyMatrix

    @property
    def diagonal(self) -> list[Poly]:
        k, n = self.d.shape
        return [self.d.rows[i][i] for i in range(min(k, n))]

    @property
    def rank(self) -> int:
        return sum(1 for e in self.diagonal if not e.is_zero())

    def verify(self, g: PolyMatrix) -> bool:
        if (self.u @ g) @ self.v != self.d:
            return False
        if not is_unimodular(self.u) or not is_unimodular(self.v):
            return False
        if not _is_diagonal(self.d):
            return False
        diag = self.diagonal
        seen_zero = False
        for i, e in enumerate(diag):
            if e.is_zero():
                seen_zero = True
                continue
            if seen_zero:
                return False
            if not (e.is_unit() or int(e.coeffs[-1]) == 1):
                return False
            if i + 1 < len(diag) and not diag[i + 1].is_zero() \
                    and not e.divides(diag[i + 1]):
                return False
        return True


def _is_diagonal(d: PolyMatrix) -> bool:
    return all(e.is_zero() for i, row in enumerate(d.rows)
               for j, e in enumerate(row) if i != j)


def smith_form(g: PolyMatrix) -> SmithDecomposition:
    """U G V = D with monic, divisibility-ordered diagonal.

    Alternates the Hermite forms of D and of D^T (Kannan & Bachem, SIAM
    J. Comput. 8(4), 1979) until D is diagonal.  If then d_i does not divide
    a later d_j, column j is added to column i and the next row pass puts
    gcd(d_i, d_j) in place of d_i; a row addition would not do, because the
    next row pass reduces it away again.
    """
    fs = g.field
    k, n = g.shape
    d, u, v = g, PolyMatrix.identity(fs, k), PolyMatrix.identity(fs, n)
    while True:
        d, w = hermite_form(d)
        u = w @ u
        if not _is_diagonal(d):
            dt, w = hermite_form(d.transpose())
            d, v = dt.transpose(), v @ w.transpose()
            if not _is_diagonal(d):
                continue
        s = SmithDecomposition(u, d, v)
        diag = s.diagonal
        bad = next(((i, j) for i in range(len(diag))
                    for j in range(i + 1, len(diag))
                    if not diag[i].divides(diag[j])), None)
        if bad is None:
            return s
        i, j = bad
        e = _to_lists(PolyMatrix.identity(fs, n))
        e[j][i] = Poly.one(fs)
        e = PolyMatrix(fs, e)
        d, v = d @ e, v @ e


# ---- membership, closure, direct summands ----

class EchelonSolver:
    """Hermite data for one basis, reused across many membership queries."""

    __slots__ = ("g", "h", "u", "pivots")

    def __init__(self, g: PolyMatrix) -> None:
        self.g = g
        self.h, self.u = hermite_form(g)
        self.pivots = hermite_pivots(self.h)

    def solve(self, v: Sequence[Poly]) -> Optional[list[Poly]]:
        """Coordinates x over F[X] with x G = v, or None."""
        fs = self.g.field
        k, n = self.g.shape
        v = list(v)
        if len(v) != n:
            raise ValueError(f"vector length {len(v)} does not match width {n}")
        h, u = self.h, self.u
        y = [Poly.zero(fs)] * k
        r = v
        for (i, c) in self.pivots:
            q, rem = divmod(r[c], h.rows[i][c])
            if not rem.is_zero():
                return None
            if not q.is_zero():
                y[i] = q
                for j in range(n):
                    r[j] = r[j] - q * h.rows[i][j]
        if any(not e.is_zero() for e in r):
            return None
        return list((PolyMatrix(fs, [y], k) @ u).rows[0])


def closure(g: PolyMatrix) -> PolyMatrix:
    """Canonical basis (Hermite form, zero rows dropped) of the smallest
    F[X]-direct summand of F^n[X] containing the row module of g.

    With U G^T = H of rank rho, G = H^T (U^{-1})^T and H^T is zero beyond
    its first rho columns, so the rows of G lie in the span of the first rho
    rows of (U^{-1})^T: rows of a unimodular matrix, hence a direct summand,
    and of rank rho, hence the smallest one.  The elimination carries
    U^{-1}, checked by U U^{-1} = I; the basis is one more Hermite form,
    except at rank n: the summand is then F^n[X] itself, with basis I_n.
    """
    fs, n = g.field, g.shape[1]
    rho, _, u, uinv_t = _hermite(fs, g.planes().transpose(0, 2, 1), True)
    one = PolyMatrix.identity(fs, n)
    if u @ uinv_t.transpose() != one:
        raise AssertionError("transform from hermite_form is not unimodular")
    if rho == n:
        return one
    basis, _ = hermite_form(uinv_t.take_rows(range(rho)))
    return basis.drop_zero_rows()


def summand_transform(g: PolyMatrix) -> Optional[PolyMatrix]:
    """The unimodular U with U G^T = [I_k; 0] if the k rows of G span a
    direct summand of rank k, else None.  As G U^T = [I_k | 0], v U^T =
    [x | s] has s = 0 iff v is in the row module, and then v = x G: a right
    inverse and a syndrome former (Forney, IEEE Trans. IT 16(6), 1970)."""
    h, u = hermite_form(g.transpose())
    piv, p = hermite_pivots(h), h.planes()
    if len(piv) == g.shape[0] and all(p[0, i, c] == 1 and not p[1:, i, c].any()
                                      for i, c in piv):
        return u
    return None


def is_direct_summand(g: PolyMatrix) -> bool:
    """True iff the rows span a direct summand of F^n[X] of rank equal to
    their number (the Hermite form of G^T has one pivot per row, all 1)."""
    return summand_transform(g) is not None
