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

The test runs on arrays: the coefficient maps of all rows of g at once give
every product g*a, and the stored syndrome former flags those outside the
code. cyclic_closure stacks just those onto g for its next purification;
the rest already lie in the code and would not change it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _gflinalg as la
from .errors import MixedStructureError
from .fxlinalg import (EchelonSolver, Poly, PolyMatrix, _stack_rows, closure,
                       hermite_pivots, rank_rational, summand_transform)
from .modact import (RightModuleSpec, VecPoly, _module_over,
                     vecpoly_times_basis)
from .skewmap import SkewDerivation
from .skewpoly import SkewPoly, coefficient_maps


# ---- conversions between vector polynomials and F[X] rows ----

def vecpoly_to_polyrow(v: VecPoly) -> list[Poly]:
    """Columns of the coefficient stack, one F[X] polynomial per slot."""
    return [Poly._raw(v.spec.field, c) for c in v.coeffs.T]


def polyrow_to_vecpoly(spec: RightModuleSpec, ctx: SkewDerivation,
                       row) -> VecPoly:
    row = list(row)
    if len(row) != spec.n:
        raise ValueError(f"row length {len(row)} does not match module "
                         f"dimension {spec.n}")
    return VecPoly(spec, ctx, _stack_rows([p.coeffs[:, None] for p in row], 1)[..., 0])


def vecpolys_to_matrix(spec: RightModuleSpec, vs) -> PolyMatrix:
    vs = list(vs)
    if any(v.spec.field != spec.field or v.spec.n != spec.n for v in vs):
        raise MixedStructureError("vector over another field or of another width")
    return PolyMatrix._raw(spec.field, _stack_rows([v.coeffs for v in vs], spec.n))


def matrix_to_vecpolys(spec: RightModuleSpec, ctx: SkewDerivation,
                       g: PolyMatrix) -> list[VecPoly]:
    planes = g.planes()
    return [VecPoly(spec, ctx, planes[:, i]) for i in range(g.shape[0])]


def _generator_matrix(b, module: RightModuleSpec,
                      context: SkewDerivation) -> PolyMatrix:
    """The generators as the rows of an F[X] matrix, each checked to be a
    vector polynomial over the given module and context."""
    _module_over(module, context)
    b = list(b)
    if not all(isinstance(v, VecPoly) for v in b):
        raise TypeError("generators must be vector polynomials")
    if any((v.spec, v.ctx) != (module, context) for v in b):
        raise MixedStructureError("generator over another module or context")
    return vecpolys_to_matrix(module, b)


# ---- code objects ----

@dataclass(frozen=True)
class ConvCodeBasis:
    """Polynomial side of a convolutional code: a canonical F[X]-basis.

    g holds the unique Hermite-form basis (k rows, n columns). pure records
    the direct-summand test, stable the A-action test; the code is cyclic
    for the twisted action exactly when both hold. ut follows from g: U^T
    for the summand transform U of g (fxlinalg.summand_transform) in (D n, n)
    planes, so v ut = [x | s] holds the coordinates and syndrome of a word
    v; it is None when g is not a direct summand of full rank.  A g over
    another field or of another width than the module, or a module over
    another algebra than the context, is refused.
    """

    g: PolyMatrix
    module: RightModuleSpec
    context: SkewDerivation
    pure: bool
    stable: bool
    ut: Optional[np.ndarray] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _module_over(self.module, self.context)
        if (self.g.field, self.g.shape[1]) != (self.module.field, self.module.n):
            raise MixedStructureError("basis over another field or of another "
                                      "width than its module")
        object.__setattr__(self, "ut", _summand_ut(self.g))

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

    def lines(self) -> list[str]:
        out = [f"rate: {self.k}/{self.n}",
               f"pure (direct summand): {'yes' if self.pure else 'no'}",
               f"stable (A-action): {'yes' if self.stable else 'no'}"]
        for row in self.g.rows:
            out.append("[" + ", ".join(str(e) for e in row) + "]")
        return out

    def __repr__(self) -> str:
        return f"<code basis {self.k}/{self.n} pure={self.pure} stable={self.stable}>"


def _summand_ut(g: PolyMatrix) -> Optional[np.ndarray]:
    """U^T of fxlinalg.summand_transform(g) in read-only (D n, n) planes."""
    u = summand_transform(g)
    if u is None:
        return None
    ut = u.transpose().planes().reshape(-1, g.shape[1])
    ut.setflags(write=False)
    return ut


def _products_outside(g: PolyMatrix, ut: np.ndarray, module: RightModuleSpec,
                      context: SkewDerivation, samples=None) -> np.ndarray:
    """The (D, m, n) planes of the products row*f outside the code, for every
    row of g and ring element f (coefficient rows over A; default the basis
    of A): m = 0 iff all of them lie in it.  Two kernel calls give the
    coefficient maps of all rows side by side; row l of W_t is the X^t
    coefficient of row*a_l, so the basis products are read off them, and
    other f take one Toeplitz product.  One more gives every syndrome.
    """
    (k, n), r = g.shape, context.algebra.dim
    if k in (0, n) or (samples is not None and not samples):
        return la.zeros((0, 0, n))
    planes, fs = g.planes(), module.field
    w = coefficient_maps(module, context, planes, planes.shape[0])
    if samples is None:
        words = w.reshape(-1, r * k, n)
    else:
        stacked = _stack_rows(samples, r)
        size = stacked.shape[0] + planes.shape[0] - 1
        words = la.toeplitz_mul(fs, stacked, w, size).reshape(size, len(samples) * k, n)
    depth = ut.shape[0] // n
    syndrome = ut.reshape(depth, n, n)[:, :, k:].reshape(depth * n, n - k)
    s = la.toeplitz_mul(fs, words, syndrome, words.shape[0] + depth - 1)
    return words[:, s.any(axis=(0, 2))]


def _syndrome_former(code: ConvCodeBasis) -> np.ndarray:
    if code.ut is None:
        raise ValueError("the code basis is not a direct summand of full rank")
    return code.ut


def _code(g: PolyMatrix, module: RightModuleSpec,
          context: SkewDerivation) -> tuple[ConvCodeBasis, np.ndarray]:
    """The code with basis g, an output of closure and so a direct summand,
    and the planes of its basis products outside it.  The stability flag is
    set before the code is returned, from the stored transform, so that g is
    brought to Hermite form only once."""
    code = ConvCodeBasis(g, module, context, True, False)
    outside = _products_outside(g, _syndrome_former(code), module, context)
    object.__setattr__(code, "stable", not outside.shape[1])
    return code, outside


def is_cyclic_submodule(g: PolyMatrix, module: RightModuleSpec,
                        context: SkewDerivation) -> bool:
    """True iff the row module of g is stable under the algebra action.

    Checks every row times every algebra basis element for membership;
    sufficiency is the generator lemma in the module docstring.
    """
    _module_over(module, context)
    solver = EchelonSolver(g)
    rows = matrix_to_vecpolys(module, context, g)
    for v in rows:
        for w in vecpoly_times_basis(v):
            if solver.solve(vecpoly_to_polyrow(w)) is None:
                return False
    return True


def code_from_generators(b, module: RightModuleSpec,
                         context: SkewDerivation) -> ConvCodeBasis:
    """Smallest pure F[X]-submodule containing the generators, with flags.

    The result is always pure (purification is part of the construction);
    stable is reported as found, so a False there means the input does not
    generate a cyclic code without further closing (see cyclic_closure).
    """
    return _code(closure(_generator_matrix(b, module, context)), module,
                 context)[0]


def cyclic_closure(b, module: RightModuleSpec,
                   context: SkewDerivation) -> ConvCodeBasis:
    """Smallest pure, A-stable F[X]-submodule containing the generators.

    Purifies, then adds the products row*basis-element that the stability
    test found outside the code and purifies again until the basis is
    stable. Two nested pure submodules of equal rank coincide, so the rank
    strictly increases on every unstable round, and rank n is stable: the
    loop ends within n+1 rounds.
    """
    g = closure(_generator_matrix(b, module, context))
    for _ in range(module.n + 1):
        code, outside = _code(g, module, context)
        if code.stable:
            return code
        g2 = closure(g.stack(PolyMatrix._raw(module.field, outside)))
        if g2.shape[0] <= g.shape[0]:
            raise AssertionError("cyclic closure rank failed to increase")
        g = g2
    raise AssertionError("cyclic closure did not reach a fixpoint")


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
                   not _products_outside(g, _syndrome_former(code), code.module,
                                         code.context).shape[1]))
    return RoundtripReport(tuple(checks))


def _transformed(word: VecPoly, code: ConvCodeBasis) -> np.ndarray:
    """The coefficient rows of word U^T = [coordinates | syndrome]."""
    if (word.spec, word.ctx) != (code.module, code.context):
        raise MixedStructureError("word over another module or context")
    v, n, ut = word.coeffs, code.n, _syndrome_former(code)
    return la.toeplitz_mul(code.module.field, v, ut,
                        v.shape[0] + ut.shape[0] // n - 1)


def encode(message, code: ConvCodeBasis) -> VecPoly:
    """message (length-k F[X] coordinates) times the basis matrix, as one
    Toeplitz product with the coefficient planes of g."""
    fs, msg = code.module.field, list(message)
    if len(msg) != code.k:
        raise ValueError(f"message length {len(msg)} does not match code "
                         f"dimension {code.k}")
    if not msg:
        return VecPoly.zero(code.module, code.context)
    row = [p if isinstance(p, Poly) else Poly(fs, p) for p in msg]
    if any(p.field != fs for p in row):
        raise MixedStructureError("entry over the wrong field")
    m = _stack_rows([p.coeffs[:, None] for p in row], 1)[..., 0]
    planes = code.g.planes()
    out = la.toeplitz_mul(fs, m, planes.reshape(-1, code.n),
                       m.shape[0] + planes.shape[0] - 1)
    return VecPoly(code.module, code.context, out)


def decode(word: VecPoly, code: ConvCodeBasis) -> Optional[list[Poly]]:
    """Coordinates of a codeword with respect to the stored basis, or None:
    the first k columns of word U^T, when its syndrome columns vanish."""
    y = _transformed(word, code)
    if y[:, code.k:].any():
        return None
    return [Poly._raw(code.module.field, y[:, j]) for j in range(code.k)]


def is_codeword(word: VecPoly, code: ConvCodeBasis) -> bool:
    return not _transformed(word, code)[:, code.k:].any()


def stable_under_ring_samples(code: ConvCodeBasis, elements) -> bool:
    """Membership of row*f for every stored row and every ring element f.

    The generator lemma makes this redundant for a stable code; it exists to
    let callers spot-check stability against arbitrary ring elements.
    """
    elements = list(elements)
    if not all(isinstance(f, SkewPoly) for f in elements):
        raise TypeError("ring samples must be skew polynomials")
    if any(f.ctx != code.context for f in elements):
        raise MixedStructureError("ring element from a different context")
    return not _products_outside(code.g, _syndrome_former(code), code.module,
                                 code.context, [f.coeffs for f in elements]).shape[1]
