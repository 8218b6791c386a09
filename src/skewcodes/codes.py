"""Convolutional codes cyclic for a twisted algebra action.

A convolutional code here is a finite-dimensional F((X))-subspace D of
Fn((X)) with a polynomial basis. When Fn carries a right module structure
over a finite-dimensional algebra A with skew data (sigma, delta), the codes
that are additionally right A-submodules correspond bijectively to the
F[X]-submodules C of Fn[X] that are direct summands and stable under the
A-action: D maps to C = (intersection of D with Fn[X]) and C maps back to
its F((X))-span. This module works entirely on the polynomial side C.

Stability is decided on generators. If C is an F[X]-submodule of Fn[X] and
g*a lies in C for every F[X]-generator g of C and every basis element a of
A, then C is stable under the whole twisted polynomial ring: the ring is
F-spanned by the products a X^i, multiplication by X is the coefficient
shift (so F[X]-closedness covers it), and the identity
(v X) * a = (v * sigma(a)) X + v * delta(a) pushes A-closedness through
X-multiples by induction on degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MixedStructureError
from .fields import DTYPE
from .fxlinalg import (EchelonSolver, Poly, PolyMatrix, closure,
                       hermite_pivots, is_direct_summand, rank_rational)
from .modact import (RightModuleSpec, VecPoly, vecpoly_times_basis,
                     vecpoly_times_ring)
from .skewmap import SkewDerivation


# ---- conversions between vector polynomials and F[X] rows ----

def vecpoly_to_polyrow(v: VecPoly) -> list[Poly]:
    """Columns of the coefficient stack, one F[X] polynomial per slot."""
    fs = v.spec.field
    return [Poly(fs, v.coeffs[:, j]) for j in range(v.spec.n)]


def polyrow_to_vecpoly(spec: RightModuleSpec, ctx: SkewDerivation,
                       row) -> VecPoly:
    row = list(row)
    if len(row) != spec.n:
        raise ValueError(f"row length {len(row)} does not match module "
                         f"dimension {spec.n}")
    L = max((p.degree + 1 for p in row), default=0)
    arr = np.zeros((L, spec.n), dtype=DTYPE)
    for j, p in enumerate(row):
        arr[: p.coeffs.shape[0], j] = p.coeffs
    return VecPoly(spec, ctx, arr)


def vecpolys_to_matrix(spec: RightModuleSpec, vs) -> PolyMatrix:
    return PolyMatrix(spec.field, [vecpoly_to_polyrow(v) for v in vs], spec.n)


def matrix_to_vecpolys(spec: RightModuleSpec, ctx: SkewDerivation,
                       g: PolyMatrix) -> list[VecPoly]:
    return [polyrow_to_vecpoly(spec, ctx, row) for row in g.rows]


def _check_context(spec: RightModuleSpec, ctx: SkewDerivation) -> None:
    if spec.algebra != ctx.algebra:
        raise MixedStructureError("module and skew context disagree on the "
                                  "algebra")


# ---- code objects ----

@dataclass(frozen=True)
class ConvCodeBasis:
    """Polynomial side of a convolutional code: a canonical F[X]-basis.

    g holds the unique Hermite-form basis (k rows, n columns). pure records
    the direct-summand test, stable the A-action test; the code is cyclic
    for the twisted action exactly when both hold.
    """

    g: PolyMatrix
    module: RightModuleSpec
    context: SkewDerivation
    pure: bool
    stable: bool

    @property
    def k(self) -> int:
        return self.g.shape[0]

    @property
    def n(self) -> int:
        return self.module.n

    @property
    def rate(self) -> tuple[int, int]:
        return (self.k, self.n)

    def rows(self) -> list[VecPoly]:
        return matrix_to_vecpolys(self.module, self.context, self.g)

    def solver(self) -> EchelonSolver:
        return EchelonSolver(self.g)

    def lines(self) -> list[str]:
        out = [f"rate: {self.k}/{self.n}",
               f"pure (direct summand): {'yes' if self.pure else 'no'}",
               f"stable (A-action): {'yes' if self.stable else 'no'}"]
        for row in self.g.rows:
            out.append("[" + ", ".join(str(e) for e in row) + "]")
        return out

    def __repr__(self) -> str:
        return f"<code basis {self.k}/{self.n} pure={self.pure} stable={self.stable}>"


def is_cyclic_submodule(g: PolyMatrix, module: RightModuleSpec,
                        context: SkewDerivation) -> bool:
    """True iff the row module of g is stable under the algebra action.

    Checks every row times every algebra basis element for membership;
    sufficiency is the generator lemma in the module docstring.
    """
    _check_context(module, context)
    if g.shape[0] == 0:
        return True
    solver = EchelonSolver(g)
    rows = matrix_to_vecpolys(module, context, g)
    for v in rows:
        for w in vecpoly_times_basis(v):
            if not solver.contains(vecpoly_to_polyrow(w)):
                return False
    return True


def code_from_generators(b, module: RightModuleSpec,
                         context: SkewDerivation) -> ConvCodeBasis:
    """Smallest pure F[X]-submodule containing the generators, with flags.

    The result is always pure (purification is part of the construction);
    stable is reported as found, so a False there means the input does not
    generate a cyclic code without further closing (see cyclic_closure).
    """
    _check_context(module, context)
    b = list(b)
    if not all(isinstance(v, VecPoly) for v in b):
        raise TypeError("generators must be vector polynomials")
    g = closure(vecpolys_to_matrix(module, b))
    pure = is_direct_summand(g)
    stable = is_cyclic_submodule(g, module, context)
    return ConvCodeBasis(g, module, context, pure, stable)


def cyclic_closure(b, module: RightModuleSpec,
                   context: SkewDerivation) -> ConvCodeBasis:
    """Smallest pure, A-stable F[X]-submodule containing the generators.

    Alternates adding the products row*basis-element with purification until
    the canonical basis stops changing. Two nested pure submodules of equal
    rank coincide, so the rank strictly increases on every non-fixpoint
    round and the loop ends within n+1 rounds.
    """
    _check_context(module, context)
    g = closure(vecpolys_to_matrix(module, list(b)))
    n = module.n
    for _ in range(n + 2):
        rows = matrix_to_vecpolys(module, context, g)
        products = [w for v in rows for w in vecpoly_times_basis(v)]
        stacked = g.stack(vecpolys_to_matrix(module, products))
        g2 = closure(stacked)
        if g2 == g:
            break
        if g2.shape[0] <= g.shape[0]:
            raise AssertionError("cyclic closure rank failed to increase")
        g = g2
    else:
        raise AssertionError("cyclic closure did not reach a fixpoint")
    pure = is_direct_summand(g)
    stable = is_cyclic_submodule(g, module, context)
    if not (pure and stable):
        raise AssertionError("cyclic closure produced a non-cyclic module")
    return ConvCodeBasis(g, module, context, pure, stable)


@dataclass(frozen=True)
class RoundtripReport:
    checks: tuple[tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(flag for _, flag in self.checks)

    def lines(self) -> list[str]:
        return [f"{'ok  ' if flag else 'FAIL'} {label}"
                for label, flag in self.checks]


def correspondence_roundtrip(code: ConvCodeBasis) -> RoundtripReport:
    """Check both directions of the code/submodule correspondence at the
    basis level: purification is the identity on the stored basis (the
    series span intersected back with Fn[X] returns the code), the F[X]-rank
    equals the dimension of the span over the rational function field, and
    stability still holds.
    """
    if not (code.pure and code.stable):
        raise ValueError("roundtrip requires a pure, stable code")
    g = code.g
    checks = []
    back = closure(g)
    checks.append(("span-intersect returns the same basis", back == g))
    kk = len(hermite_pivots(g))
    rr = rank_rational(g)
    checks.append((f"F[X]-rank equals rational rank ({kk})",
                   kk == g.shape[0] == rr))
    checks.append(("stability re-verified",
                   is_cyclic_submodule(g, code.module, code.context)))
    return RoundtripReport(tuple(checks))


def encode(message, code: ConvCodeBasis) -> VecPoly:
    """message (length-k F[X] coordinates) times the basis matrix."""
    msg = list(message)
    if len(msg) != code.k:
        raise ValueError(f"message length {len(msg)} does not match code "
                         f"dimension {code.k}")
    fs = code.module.field
    n = code.n
    out = [Poly.zero(fs)] * n
    for i, p in enumerate(msg):
        if not isinstance(p, Poly):
            p = Poly(fs, p)
        if p.is_zero():
            continue
        for j in range(n):
            e = code.g.rows[i][j]
            if not e.is_zero():
                out[j] = out[j] + p * e
    return polyrow_to_vecpoly(code.module, code.context, out)


def decode(word: VecPoly, code: ConvCodeBasis):
    """Coordinates of a codeword with respect to the stored basis, or None."""
    return code.solver().solve(vecpoly_to_polyrow(word))


def is_codeword(word: VecPoly, code: ConvCodeBasis) -> bool:
    return decode(word, code) is not None


def stable_under_ring_samples(code: ConvCodeBasis, elements) -> bool:
    """Membership of row*f for every stored row and every ring element f.

    The generator lemma makes this redundant for a stable code; it exists to
    let callers spot-check stability against arbitrary ring elements.
    """
    solver = code.solver()
    rows = code.rows()
    for f in elements:
        for v in rows:
            w = vecpoly_times_ring(v, f)
            if not solver.contains(vecpoly_to_polyrow(w)):
                return False
    return True
