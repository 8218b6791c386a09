"""Skew polynomials over a SkewDerivation context, left coefficients.

f = sum_i f_i X^i with the commutation rule X a = sigma(a) X + delta(a),
extended coefficientwise to X f = sigma(f) X + delta(f).  The closed product
formula collects N operators:

    (sum_i g_i X^i) f = sum_i (sum_{k=i}^{n} g_k N_i^k(f)) X^i

where N_i^k acts on f coefficientwise and X^i shifts.  The left factor's
coefficients lie in a right A-module, the space (algebra.RightModuleSpec):
A itself, its regular module A.regular, for the ring and another module
for the module layer, so this one product serves both.  An independent rewriting
path (iterate X f = sigma(f) X + delta(f)) is kept as an oracle.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import _gflinalg as la
from .algebra import AlgebraElement
from .errors import MixedStructureError, PrecisionError
from .skewmap import SkewDerivation, require_series_ring


def _trim(arr: np.ndarray) -> np.ndarray:
    n = arr.shape[0]
    while n > 0 and not arr[n - 1].any():
        n -= 1
    return arr[:n]


def _lead(arr: np.ndarray) -> int:
    """The number of leading zero rows."""
    n = 0
    while n < arr.shape[0] and not np.count_nonzero(arr[n]):  # a third of .any()
        n += 1
    return n


def _min_end(*ends):
    finite = [e for e in ends if e is not None]
    return min(finite) if finite else None


def _window(ord_: int, coeffs: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The rows of coefficients stored from exponent ord_ on, read on
    exponents [lo, hi): zeros where unstored, a view where all are stored."""
    a0, a1 = max(lo, ord_), min(hi, ord_ + coeffs.shape[0])
    if (a0, a1) == (lo, hi):
        return coeffs[lo - ord_:hi - ord_]
    out = la.zeros((max(hi - lo, 0), coeffs.shape[1]))
    if a1 > a0:
        out[a0 - lo: a1 - lo] = coeffs[a0 - ord_: a1 - ord_]
    return out


def _rows_from_zero(ord_: int, coeffs: np.ndarray, hi: int, end: Optional[int],
                    what: str) -> np.ndarray:
    """The rows of the window (ord_, coeffs, end) read on exponents [0, hi);
    a window of negative order (its first nonzero row, or the end of a zero
    class, 0 if exact) is not a `what` and is refused."""
    if ord_ < 0:
        lead = _lead(coeffs)
        order = ord_ + lead if lead < coeffs.shape[0] else end or 0
        if order < 0:
            raise ValueError(f"order {order} < 0: not a {what}")
    return _window(ord_, coeffs, 0, hi)


# ---- raw-array engines (shared with the series, Laurent and module layers) ----

def coefficient_maps(space, ctx: SkewDerivation, g: np.ndarray, taps: int) -> np.ndarray:
    """W_i = sum_k (N_i^k)^T B_k for i < taps, stacked as (taps r, n): the X^i
    coefficient of g a is the row a W_i for every scalar a.  A batch g of
    shape (K, m, n) gives the maps of its m polynomials side by side, column
    (j, c) for column c of polynomial j: (taps r, m n).

    g's coefficients lie in the right A-module space, of width n.  Every
    block B_k of g comes from one product with its flat block matrix, and
    every W_i from one contraction against the stacked N-table (none for a
    constant g, whose W_0 = B_0 as N_0^0 = id).
    """
    spec, r, K = ctx.field, ctx.algebra.dim, g.shape[0]
    g = g[:, None] if g.ndim == 2 else g
    m = g.shape[1]
    # rows (k, b), columns (j, c): B_k of polynomial j
    w = la.mat_mul(spec, g.reshape(K * m, g.shape[2]), space.flat)
    w = w.reshape(K, m, r, space.n).transpose(0, 2, 1, 3).reshape(K * r, m * space.n)
    if K > 1:
        # the table's first taps block rows, a view: [(i, a), (k, b)] = N_i^k[b, a]
        w = la.mat_mul(spec, ctx.ntable.stacked(K - 1)[:taps * r], w)
    return w


def mul_arrays(space, ctx: SkewDerivation, g: np.ndarray, f: np.ndarray,
               n_g: Optional[int] = None, n_f: Optional[int] = None) -> tuple:
    """(rows, n_out): the coefficient rows of (g f), g over the right
    A-module space and f over A known on n_g and n_f coefficients (None:
    exact), and the number n_out of outputs those windows support.

    Output l sees g_k only for k < (l + 1) m_delta (N_i^k = 0 beyond), so
    the window stays structural: n_out = min(n_f, n_g // m_delta).  What is
    read is certified by the table: f[:n_out] and g[:reach], reach =
    1 + max{k < n_out m_delta : N_i^k != 0 for some i < n_out}.  Where
    sigma delta = delta sigma that is at most n_out + m_delta - 1 (n_out
    rounded up to a multiple of m_delta on m2f4-inner and f4c5-group).
    A window needs the series ring (require_series_ring).  At most three
    kernel calls whatever the degrees: the coefficient maps W_i of g, and
    out_l = sum_i f_{l-i} W_i as one Toeplitz product.
    """
    m = None if n_g is None and n_f is None else require_series_ring(ctx)
    n_out = _min_end(n_f, None if n_g is None else n_g // m)
    if n_out is not None:
        g = _trim(g[:n_out * m])
        g, f = g[:ctx.ntable.reach(n_out, g.shape[0])], f[:n_out]
    g, f = _trim(g), _trim(f)
    full = g.shape[0] + f.shape[0] - 1
    out_len = full if n_out is None else min(n_out, full)
    if g.shape[0] == 0 or f.shape[0] == 0 or out_len <= 0:
        return la.zeros((0, space.n)), n_out
    # W_i only reaches rows l >= i
    w = coefficient_maps(space, ctx, g, min(g.shape[0], out_len))
    return la.toeplitz_mul(ctx.field, f, w, out_len), n_out


def x_times_arrays(ctx: SkewDerivation, f: np.ndarray) -> np.ndarray:
    """X f = sigma(f) X + delta(f), coefficientwise, exact."""
    spec = ctx.field
    out = la.zeros((f.shape[0] + 1, ctx.algebra.dim))
    out[1:] = la.mat_mul(spec, f, ctx.sigma.matrix.T)
    out[:-1] = spec.add_arrays(out[:-1], la.mat_mul(spec, f, ctx.delta.matrix.T))
    return out


def mul_iterative_arrays(ctx: SkewDerivation, g: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Oracle product by repeated left multiplication with X."""
    spec = ctx.field
    g, f = _trim(g), _trim(f)
    if g.shape[0] == 0 or f.shape[0] == 0:
        return la.zeros((0, ctx.algebra.dim))
    out = la.zeros((g.shape[0] + f.shape[0] - 1, ctx.algebra.dim))
    cur = f
    for i in range(g.shape[0]):
        if g[i].any():
            lm = ctx.algebra.left_mult_matrix(g[i])
            out[: cur.shape[0]] = spec.add_arrays(out[: cur.shape[0]],
                                                  la.mat_mul(spec, cur, lm.T))
        if i < g.shape[0] - 1:
            cur = x_times_arrays(ctx, cur)
    return out


def xn_arrays(ctx: SkewDerivation, f: np.ndarray, n: int,
              out_limit: Optional[int] = None) -> np.ndarray:
    """X^n f = sum_k N_k^n(f) X^k on coefficient rows: one Toeplitz product
    with W_k = (N_k^n)^T, a view of column block n of the stacked table."""
    f = _trim(f)
    full = n + f.shape[0]
    out_len = full if out_limit is None else min(out_limit, full)
    if f.shape[0] == 0 or out_len <= 0:
        return la.zeros((0, ctx.algebra.dim))
    r = ctx.algebra.dim
    w = ctx.ntable.stacked(n)[:min(n + 1, out_len) * r, n * r:]
    return la.toeplitz_mul(ctx.field, f, w, out_len)


# ---- the window class and the polynomial classes ----

class CoeffRows:
    """A window (ord, coeffs, end) of coefficient rows over a context, in a
    right A-module (algebra.RightModuleSpec): the class of an element modulo
    X^end (end = None: exact).  Row j holds the X^(ord + j) coefficient;
    every exponent below ord, and every one from the last row up to end, is
    a known zero.

    The window algebra is written here once.  A subclass fixes only its
    normal form: its constructor and `_new(ord, coeffs, end)`.  The module
    is A itself, ctx.algebra.regular, unless a subclass supplies another
    one through `space`, `_structure`, `_element` and `_format`.
    """

    __slots__ = ("ctx", "ord", "coeffs", "end")

    @property
    def space(self):
        return self.ctx.algebra.regular

    def _structure(self) -> tuple:
        """The constructor arguments before the window and coefficients."""
        return (self.ctx,)

    def _element(self, row: np.ndarray):
        """What `coeff` returns for a stored row."""
        return AlgebraElement(self.ctx.algebra, row)

    def _format(self) -> str:
        """The stored rows printed as a sum of terms c X^e."""
        return format_poly_arr(self.ctx.algebra, self.coeffs, self.ord)

    def _check(self, other) -> None:
        if self._structure() != other._structure():
            raise MixedStructureError("operands from different contexts or modules")

    def _set_window(self, ord_: int, coeffs: np.ndarray, end: Optional[int]) -> None:
        n = self.space.n
        if coeffs.ndim != 2 or coeffs.shape[1] != n:
            raise ValueError(f"coefficient block must be L x {n}")
        coeffs = self.ctx.field.checked(coeffs, "coefficient")
        self.ord, self.coeffs, self.end = ord_, coeffs, end
        self.coeffs.flags.writeable = False

    @property
    def support_end(self) -> int:
        """One past the largest stored exponent."""
        return self.ord + self.coeffs.shape[0]

    def coeff(self, e: int):
        """The X^e coefficient: zero outside the stored rows, and refused
        from end on, where the class does not determine it."""
        if self.end is not None and e >= self.end:
            raise PrecisionError(f"coefficient {e} outside window (end {self.end})")
        if self.ord <= e < self.support_end:
            return self._element(self.coeffs[e - self.ord].copy())
        return self._element(la.zeros(self.coeffs.shape[1]))

    def is_zero(self) -> bool:
        return not np.count_nonzero(self.coeffs)  # a third of .any() on small blocks

    def shift(self, n: int):
        """Right multiplication by X^n: a plain shift of the window."""
        return self._new(self.ord + n, self.coeffs,
                         None if self.end is None else self.end + n)

    def _zero(self, end: Optional[int]):
        """The zero class modulo X^end, in the same class and space."""
        return self._new(0, self.coeffs[:0], end)

    def _window_arr(self, lo: int, hi: int) -> np.ndarray:
        return _window(self.ord, self.coeffs, lo, hi)

    def _span(self, other) -> tuple:
        """(lo, hi, end): the common window end, and the exponents [lo, hi)
        below it that hold a stored row of either operand."""
        self._check(other)
        end = _min_end(self.end, other.end)
        a, b = self, other
        if not a.coeffs.shape[0]:  # an operand without stored rows spans nothing
            a = b
        elif not b.coeffs.shape[0]:
            b = a
        lo, hi = min(a.ord, b.ord), max(a.support_end, b.support_end)
        if end is not None:
            hi = min(hi, end)
        return lo, max(hi, lo), end

    def __add__(self, other):
        lo, hi, end = self._span(other)
        arr = self.ctx.field.add_arrays(self._window_arr(lo, hi),
                                        other._window_arr(lo, hi))
        return self._new(lo, arr, end)

    def __neg__(self):
        return self._new(self.ord, self.ctx.field.neg_arrays(self.coeffs), self.end)

    def __sub__(self, other):
        return self + (-other)

    def agrees_with(self, other) -> bool:
        """Equality of all coefficients on the common window."""
        lo, hi, _ = self._span(other)
        return bool(np.array_equal(self._window_arr(lo, hi),
                                   other._window_arr(lo, hi)))

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self._structure() == other._structure()
                and (self.ord, self.end) == (other.ord, other.end)
                and np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self) -> int:
        return hash((*self._structure(), self.ord, self.end, self.coeffs.tobytes()))

    def __str__(self) -> str:
        body = self._format()
        return body if self.end is None else f"{body} + O(X^{self.end})"

    def __repr__(self) -> str:
        return f"<{self._tag} {self}>"


class CoeffPoly(CoeffRows):
    """f = sum_i f_i X^i with coefficient rows in a right A-module: the
    exact window, stored from exponent 0 without trailing zero rows."""

    __slots__ = ()
    _tag = "skew poly"

    def __init__(self, ctx: SkewDerivation, coeffs: np.ndarray):
        self.ctx = ctx
        # a copy: the caller keeps theirs
        self._set_window(0, _trim(np.array(coeffs)), None)

    def _new(self, ord_: int, coeffs: np.ndarray, end: Optional[int]):
        """A polynomial is exact and of order >= 0: a result known only mod
        X^end, or of negative order, is refused."""
        if end is not None:
            raise PrecisionError(f"the window [{ord_}, {end}) is not an exact polynomial")
        return type(self)(*self._structure(), _rows_from_zero(
            ord_, coeffs, ord_ + coeffs.shape[0], None, "polynomial"))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return self.coeffs.shape[0] - 1


class SkewPoly(CoeffPoly):
    """Skew polynomial over the context's algebra."""

    __slots__ = ()

    # ---- constructors ----

    @classmethod
    def from_elements(cls, ctx: SkewDerivation,
                      elems: Sequence[AlgebraElement]) -> "SkewPoly":
        for e in elems:
            if e.algebra != ctx.algebra:
                raise MixedStructureError("coefficient from a different algebra")
        if not elems:
            return cls.zero(ctx)
        return cls(ctx, np.stack([e.coords for e in elems]))

    @classmethod
    def zero(cls, ctx: SkewDerivation) -> "SkewPoly":
        return cls(ctx, la.zeros((0, ctx.algebra.dim)))

    @classmethod
    def one(cls, ctx: SkewDerivation) -> "SkewPoly":
        return cls.constant(ctx, ctx.algebra.one)

    @classmethod
    def constant(cls, ctx: SkewDerivation, a: AlgebraElement) -> "SkewPoly":
        return cls.monomial(ctx, a, 0)

    @classmethod
    def monomial(cls, ctx: SkewDerivation, a: AlgebraElement, n: int) -> "SkewPoly":
        if a.algebra != ctx.algebra:
            raise MixedStructureError("coefficient from a different algebra")
        if n < 0:
            raise ValueError(f"exponent n = {n} is negative")
        arr = la.zeros((n + 1, ctx.algebra.dim))
        arr[n] = a.coords
        return cls(ctx, arr)

    @classmethod
    def x_power(cls, ctx: SkewDerivation, n: int = 1) -> "SkewPoly":
        return cls.monomial(ctx, ctx.algebra.one, n)

    def elements(self) -> list[AlgebraElement]:
        return [self.coeff(i) for i in range(self.coeffs.shape[0])]

    def __mul__(self, other: "SkewPoly") -> "SkewPoly":
        return poly_mul(self, other) if isinstance(other, SkewPoly) else NotImplemented

    def scale_left(self, a: AlgebraElement) -> "SkewPoly":
        """a * f, coefficientwise left multiplication: the product with the
        constant a."""
        return poly_mul(SkewPoly.constant(self.ctx, a), self)


def format_poly_arr(algebra, coeffs: np.ndarray, offset: int = 0) -> str:
    terms = []
    for i in range(coeffs.shape[0]):
        row = coeffs[i]
        if not row.any():
            continue
        e = i + offset
        cs = algebra.format_coords(row)
        if e == 0:
            terms.append(f"({cs})" if " + " in cs else cs)
            continue
        xs = "X" if e == 1 else f"X^{e}"
        if np.array_equal(row, algebra.unit):
            terms.append(xs)
        elif " + " in cs:
            terms.append(f"({cs})*{xs}")
        else:
            terms.append(f"{cs}*{xs}")
    return " + ".join(terms) if terms else "0"


# ---- named operations ----

def _over_algebra(f: CoeffRows, what: str) -> None:
    """Refuse f, named by what, unless its coefficients lie in A itself."""
    if f._structure() != (f.ctx,):
        raise MixedStructureError(f"{what} is over {f.space!r}, not over the algebra")


def _poly_rows(f: CoeffRows, what: str) -> np.ndarray:
    """f's rows from X^0 on, for an f that is an exact polynomial (an exact
    window of order >= 0); any other window, named by what, is refused."""
    if f.end is not None or f.ord < 0:
        raise PrecisionError(f"{what} is not an exact polynomial: {f!r}")
    return f._window_arr(0, f.support_end) if f.ord else f.coeffs


def _check_product(g: CoeffRows, f: CoeffRows) -> None:
    """The products' shared prologue: g and f over one context, f over A."""
    if g.ctx != f.ctx:
        raise MixedStructureError("operands built over different contexts")
    _over_algebra(f, "the right factor")


def poly_mul(g: CoeffPoly, f: SkewPoly) -> CoeffPoly:
    """Product via the closed N-operator formula; g over any right A-module.
    Both factors are exact polynomials."""
    _check_product(g, f)
    rows = mul_arrays(g.space, g.ctx, _poly_rows(g, "the left factor"),
                      _poly_rows(f, "the right factor"))[0]
    return g._new(0, rows, None)


def poly_mul_iterative(g: SkewPoly, f: SkewPoly) -> SkewPoly:
    """Oracle product via repeated X-rewriting; same contract as poly_mul."""
    g._check(f)
    return SkewPoly(g.ctx, mul_iterative_arrays(g.ctx, g.coeffs, f.coeffs))


def _contract(table, coeffs: np.ndarray) -> np.ndarray:
    """c_i = sum_{j >= i} N_i^j(a_j) for the rows a_j of coeffs: one
    contraction against the table of either pair."""
    n, r = coeffs.shape
    # rows (i, x), columns (j, b): N_i^j[x, b]
    maps = table.rows(n - 1).transpose(1, 2, 0, 3).reshape(n * r, n * r)
    return la.mat_mul(table.algebra.field, maps, coeffs.reshape(n * r, 1)).reshape(n, r)


def left_from_right(ctx: SkewDerivation,
                    right_coeffs: Sequence[AlgebraElement]) -> SkewPoly:
    """Convert sum_j X^j a_j to left-coefficient form: X^j a = sum_i N_i^j(a) X^i,
    so the X^i coefficient is sum_{j >= i} N_i^j(a_j)."""
    for a in right_coeffs:
        if a.algebra != ctx.algebra:
            raise MixedStructureError("coefficient from a different algebra")
    if not right_coeffs:
        return SkewPoly.zero(ctx)
    return SkewPoly(ctx, _contract(ctx.ntable, np.stack([a.coords for a in right_coeffs])))


def right_from_left(f: SkewPoly) -> list[AlgebraElement]:
    """Right coefficients a_i with f = sum_i X^i a_i; needs sigma invertible.

    b X^j = sum_i X^i N'_i^j(b) on the opposite context, so a_i is
    sum_{j >= i} N'_i^j(f_j): the same contraction on the opposite's table.
    """
    _over_algebra(f, "the operand of right_from_left")
    rows = _poly_rows(f, "the operand of right_from_left")
    op = f.ctx.opposite
    if op is None:
        raise ValueError("right coefficients need an invertible sigma")
    return [AlgebraElement(f.ctx.algebra, v) for v in _contract(op.ntable, rows)]
