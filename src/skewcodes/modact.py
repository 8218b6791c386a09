"""Right module structures on F^n and the induced module structures on
F^n[X], F^n[[X]] and F^n((X)).

A right action of the algebra A on row vectors is a matrix R(a) per basis
element, acting as v -> v R(a) (row convention).  Tensoring with the skew
polynomial / series / Laurent ring transfers the ring-side product rules with
left multiplications replaced by the action:

    (sum m_i X^i)(sum f_j X^j) = sum_j sum_i (sum_{k >= i} m_k N_i^k(f_j)) X^{i+j}

and, Laurent-side, right multiplication by X^l is a plain coefficient shift
for every integer l (positive or negative), while the scalar action is the
Laurent product with the scalar as a constant, windowed nonnegative orders
apart, which embed into the series layer.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import _gflinalg as la
from .algebra import Algebra, AlgebraElement, AxiomReport
from .errors import MixedStructureError
from .fields import DTYPE
from .skewlaurent import CoeffLaurent, TruncLaurent, laurent_mul
from .skewmap import SkewDerivation
from .skewpoly import (CoeffPoly, SkewPoly, _min_end, _trim, coefficient_maps,
                       mul_arrays, poly_mul)
from .skewseries import (CoeffSeries, TruncSeries, require_series_ring,
                         series_mul, series_times_scalar)


# ---- the action spec ----

class RightModuleSpec:
    """F^n as a right A-module: one n x n matrix per algebra basis element,
    acting on row vectors as v -> v R(a_j).  The one coefficient space of
    every product (skewpoly.mul_arrays): A.regular, made once per algebra
    when it is verified, for the ring, series and Laurent classes, and the
    given module for VecPoly, VecSeries and VecLaurent."""

    __slots__ = ("algebra", "n", "action", "flat")

    def __init__(self, algebra: Algebra, action: np.ndarray):
        action = algebra.field.indices(action, "action")
        if action.ndim != 3 or action.shape[0] != algebra.dim \
                or action.shape[1] != action.shape[2]:
            raise ValueError(
                f"need {algebra.dim} square action matrices, got {action.shape}")
        self.algebra = algebra
        self.n = int(action.shape[1])
        self.action = action
        self.action.setflags(write=False)
        # the flat block matrix: v @ flat, reshaped (r, n), has rows v R(a_l)
        self.flat = np.ascontiguousarray(
            action.transpose(1, 0, 2).reshape(self.n, algebra.dim * self.n))

    @property
    def field(self):
        return self.algebra.field

    def action_matrix(self, a) -> np.ndarray:
        """R(a) = sum_l a_l R(a_l) for an element or coordinate vector a."""
        coords = a.coords if isinstance(a, AlgebraElement) else np.asarray(a, dtype=DTYPE)
        flat = self.action.reshape(self.algebra.dim, self.n * self.n)
        return la.mat_mul(self.field, coords.reshape(1, -1), flat).reshape(self.n, self.n)

    def act_row(self, v: np.ndarray, a) -> np.ndarray:
        return la.mat_mul(self.field, np.asarray(v, dtype=DTYPE)[None, :],
                          self.action_matrix(a))[0]

    def __eq__(self, other) -> bool:
        return self is other or isinstance(other, RightModuleSpec) and (
            self.algebra == other.algebra and self.n == other.n
            and np.array_equal(self.action, other.action))

    def __hash__(self) -> int:
        return hash((self.algebra, self.n, self.action.tobytes()))

    def __repr__(self) -> str:
        return f"<right module F^{self.n} over {self.algebra.meta.get('name', '?')}>"


def module_verify(spec: RightModuleSpec) -> AxiomReport:
    """Check R(1) = I and R(a_i a_j) = R(a_i) R(a_j) on all basis pairs."""
    a, n = spec.algebra, spec.n
    fs = a.field
    failures = []
    if not np.array_equal(spec.action_matrix(a.unit), la.eye(n)):
        failures.append("R(1) is not the identity")
    r = a.dim
    # lhs[i, j] = R(a_i a_j); block (i, j) of the stacked product is R(a_i) R(a_j)
    lhs = la.mat_mul(fs, a.tensor.reshape(r * r, r), spec.action.reshape(r, n * n))
    rhs = la.mat_mul(fs, spec.action.reshape(r * n, n), spec.flat)
    rhs = rhs.reshape(r, n, r, n).transpose(0, 2, 1, 3)
    bad = np.any((lhs.reshape(r, r, n, n) != rhs).reshape(r, r, -1), axis=2)
    for i, j in np.argwhere(bad):
        failures.append(
            f"R({a.labels[i]} {a.labels[j]}) != R({a.labels[i]}) R({a.labels[j]})")
    return AxiomReport(failures)


def check_module(spec: RightModuleSpec) -> RightModuleSpec:
    report = module_verify(spec)
    if not report.ok:
        raise MixedStructureError("; ".join(report.failures[:3]))
    return spec


def regular_module(algebra: Algebra) -> RightModuleSpec:
    """A itself as a right A-module, rows coordinate vectors: algebra.regular."""
    return algebra.regular


def restrict_module(res, parent_action: np.ndarray) -> RightModuleSpec:
    """Scalar restriction of a K-module to the prime field.

    parent_action holds one n x n matrix over K per parent basis element
    (row convention).  The restricted module has dimension n k with basis
    g^u e_i (u fastest), matching the basis layout of the restricted
    algebra; its action matrices come from the field's regular-representation
    tables (FieldSpec.restrict_stack).
    """
    parent_action = res.parent.field.indices(parent_action, "parent action")
    if parent_action.ndim != 3 or parent_action.shape[0] != res.parent.dim:
        raise ValueError("parent action has the wrong shape")
    action = res.parent.field.restrict_stack(parent_action)
    return check_module(RightModuleSpec(res.algebra, action))


def natural_module(res) -> RightModuleSpec:
    """Row space K^nn of a matrix algebra M_nn(K), restricted to the prime
    field: dimension nn * k with e_i . E_st = delta_{is} e_t."""
    parent = res.parent
    if parent.meta.get("kind") != "matrix":
        raise ValueError("natural_module needs a restricted matrix algebra")
    nn = parent.meta["n"]
    # R(E_st) has its single 1 at (s, t)
    return restrict_module(res, la.eye(nn * nn).reshape(-1, nn, nn))


# ---- coefficient containers ----

class _OverModule:
    """Coefficient rows in F^n under a right module spec, not in A."""

    __slots__ = ()

    @property
    def space(self) -> RightModuleSpec:
        return self.spec

    def _structure(self) -> tuple:
        return (self.spec, self.ctx)

    def _element(self, row: np.ndarray) -> np.ndarray:
        return row

    def _format(self) -> str:
        """Row i printed as the coefficient vector of X^(ord + i)."""
        fs = self.spec.field
        terms = []
        for e, row in enumerate(self.coeffs, self.ord):
            if not row.any():
                continue
            body = "(" + ", ".join(fs.format_index(int(c)) for c in row) + ")"
            if e == 0:
                terms.append(body)
            elif e == 1:
                terms.append(f"{body}X")
            else:
                terms.append(f"{body}X^{e}")
        return " + ".join(terms) if terms else "0"


def _module_over(spec: RightModuleSpec, ctx: SkewDerivation) -> RightModuleSpec:
    if spec.algebra != ctx.algebra:
        raise MixedStructureError("module and context algebras differ")
    return spec


class VecPoly(_OverModule, CoeffPoly):
    """Polynomial with coefficient rows in F^n."""

    __slots__ = ("spec",)
    _tag = "vecpoly"

    def __init__(self, spec: RightModuleSpec, ctx: SkewDerivation, coeffs: np.ndarray):
        self.spec = _module_over(spec, ctx)
        super().__init__(ctx, coeffs)

    @classmethod
    def from_rows(cls, spec: RightModuleSpec, ctx: SkewDerivation,
                  rows: Sequence[Sequence]) -> "VecPoly":
        fs = spec.field
        arr = np.asarray([[fs.element(c).idx for c in row] for row in rows],
                         dtype=DTYPE)
        if arr.size == 0:
            arr = arr.reshape(0, spec.n)
        return cls(spec, ctx, arr)

    @classmethod
    def zero(cls, spec: RightModuleSpec, ctx: SkewDerivation) -> "VecPoly":
        return cls(spec, ctx, la.zeros((0, spec.n)))

    @classmethod
    def unit_row(cls, spec: RightModuleSpec, ctx: SkewDerivation, i: int) -> "VecPoly":
        arr = la.zeros((1, spec.n))
        arr[0, i] = 1
        return cls(spec, ctx, arr)

    def __mul__(self, other):
        if isinstance(other, SkewPoly):
            return poly_mul(self, other)
        if isinstance(other, AlgebraElement):
            return vecpoly_times_scalar(self, other)
        return NotImplemented


class VecSeries(_OverModule, CoeffSeries):
    """Class of a vector power series modulo X^prec."""

    __slots__ = ("spec",)
    _tag = "vecseries"

    def __init__(self, spec: RightModuleSpec, ctx: SkewDerivation,
                 prec: int, coeffs: np.ndarray):
        self.spec = _module_over(spec, ctx)
        super().__init__(ctx, prec, coeffs)

    def __mul__(self, other):
        if isinstance(other, TruncSeries):
            return vecseries_times_ring(self, other)
        if isinstance(other, AlgebraElement):
            return series_times_scalar(self, other)
        return NotImplemented


class VecLaurent(_OverModule, CoeffLaurent):
    """Class of a vector Laurent series modulo X^end (end = None: exact)."""

    __slots__ = ("spec",)
    _tag = "veclaurent"
    _series = VecSeries

    def __init__(self, spec: RightModuleSpec, ctx: SkewDerivation, ord_: int,
                 coeffs: np.ndarray, end: Optional[int] = None):
        self.spec = _module_over(spec, ctx)
        super().__init__(ctx, ord_, coeffs, end)

    def __mul__(self, other):
        if isinstance(other, TruncLaurent):
            return veclaurent_times_ring(self, other)
        if isinstance(other, AlgebraElement):
            return veclaurent_times_scalar(self, other)
        return NotImplemented


# ---- products: the ring-side engines with the module as coefficient space ----

def vec_mul_arrays(spec: RightModuleSpec, ctx: SkewDerivation, v: np.ndarray,
                   f: np.ndarray) -> np.ndarray:
    """Coefficient rows of (v f) for v over F^n and f over A, both exact."""
    return mul_arrays(spec, ctx, v, f)[0]


def vecpoly_times_scalar(v: VecPoly, a: AlgebraElement) -> VecPoly:
    if a.algebra != v.ctx.algebra:
        raise MixedStructureError("scalar from a different algebra")
    return v._new(0, vec_mul_arrays(v.spec, v.ctx, v.coeffs, a.coords[None, :]), None)


def vecpoly_times_basis(v: VecPoly) -> list[VecPoly]:
    """v a_l for every basis element a_l of A, in basis order, from one set
    of coefficient maps: row l of W_i is the X^i coefficient of v a_l."""
    g = _trim(v.coeffs)
    w = coefficient_maps(v.spec, v.ctx, g, g.shape[0])
    w = w.reshape(g.shape[0], v.ctx.algebra.dim, v.spec.n)
    return [v._new(0, w[:, l], None) for l in range(v.ctx.algebra.dim)]


def vecseries_times_ring(s: VecSeries, t: TruncSeries) -> VecSeries:
    """s t on min(t.prec, s.prec // m_delta) coefficients."""
    return series_mul(s, t)


def veclaurent_times_ring(v: VecLaurent, t: TruncLaurent) -> VecLaurent:
    """v t: decompose v = v_hat X^{o_v}, move X^{o_v} across t on the ring
    side, multiply the series parts, and shift (module shifts are free)."""
    return laurent_mul(v, t)


# ---- Laurent-level products ----

def veclaurent_times_scalar(s: VecLaurent, a: AlgebraElement) -> VecLaurent:
    """s a (production path).

    A windowed s of nonnegative order embeds into the series layer.  Every
    other s is the Laurent product with the exact constant a, built
    unchecked: only negative orders need the Laurent ring.
    """
    ctx = s.ctx
    if a.algebra != ctx.algebra:
        raise MixedStructureError("scalar from a different algebra")
    require_series_ring(ctx)
    if s.ord >= 0 and s.end is not None:
        return VecLaurent.from_series(series_times_scalar(s.to_series(), a))
    return laurent_mul(s, CoeffLaurent(ctx, 0, a.coords[None, :], None))


# ---- the central F((X)) action ----

def flsx_scalar_action(s: VecLaurent, f_ord: int, f_coeffs: Sequence,
                       f_end: Optional[int] = None) -> VecLaurent:
    """s f for a Laurent series f over the central subfield F: the ordinary
    convolution sum_k (sum_{i+j=k} s_i f_j) X^k."""
    spec = s.spec
    fs = spec.field
    fc = np.asarray([fs.element(c).idx for c in f_coeffs], dtype=DTYPE)
    while fc.shape[0] and fc[-1] == 0:
        fc = fc[:-1]
    lead = 0
    while lead < fc.shape[0] and fc[lead] == 0:
        lead += 1
    f_ord += lead
    fc = fc[lead:]
    end = _min_end(None if s.end is None else s.end + f_ord,
                   None if f_end is None else s.ord + f_end)
    if fc.shape[0] == 0 or s.is_zero():
        return s._zero(end)
    lo = s.ord + f_ord
    hi = s.support_end + f_ord + fc.shape[0] - 1
    if end is not None:
        hi = min(hi, end)
    # out_k = sum_j s_{k-j} W_j with W_j = f_j I
    w = fs.MUL[la.eye(spec.n), fc[:, None, None]].reshape(-1, spec.n)
    return s._new(lo, la.toeplitz_mul(fs, s.coeffs, w, max(hi - lo, 0)), end)


def central_laurent(ctx: SkewDerivation, f_ord: int, f_coeffs: Sequence,
                    f_end: Optional[int] = None) -> TruncLaurent:
    """Embed a Laurent series over F into the ring (coefficients c * 1_A)."""
    fc = np.asarray([ctx.field.element(c).idx for c in f_coeffs], dtype=DTYPE)
    rows = ctx.field.MUL[ctx.algebra.unit, fc[:, None]]
    return TruncLaurent(ctx, f_ord, rows, f_end)
