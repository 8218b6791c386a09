"""Library refusals, one row each: the call, the exception it must raise and
a pattern of its message.  Each row reaches one check, so a row fails when
that check is deleted: with no refusal, or with another exception or text
from further down."""

import re
from types import SimpleNamespace

import pytest

from skewcodes import (Algebra, EchelonSolver, FieldElement, FieldSpec, LinearMap, Poly,
                       PolyMatrix, RightModuleSpec, ScalarRestriction, SkewDerivation,
                       SkewPoly, TruncLaurent, TruncSeries, VecPoly, code_from_generators,
                       det_poly, field, group_algebra_cyclic, inner_derivation,
                       left_from_right, load_preset, natural_module, ore_left,
                       polyrow_to_vecpoly, quotient_algebra_tn, quotient_algebra_yz,
                       restrict_module, right_from_left, veclaurent_times_scalar,
                       vecpolys_to_matrix, verify_skew_derivation, xn_times,
                       xnegn_direct)
from skewcodes import _gflinalg as la
from skewcodes.errors import AxiomError, MixedStructureError, RingUnavailableError


@pytest.fixture(scope="module")
def o(m2f4_inner, f4c5_group):
    """The operands: m2f4-inner (A, dim 8 over GF(2), its restriction and
    regular module), f4c5-group's algebra as a foreign one, a context whose
    sigma is not invertible, and two algebras that fail one unit law each."""
    yz = quotient_algebra_yz(field(2))
    kill = la.zeros((3, 3))
    kill[0, 0] = 1  # sigma(1) = 1, sigma(y) = sigma(z) = 0
    c3 = group_algebra_cyclic(field(3), 3)
    # a_i a_j = a_j is associative with a_0 a left unit, not a right one
    left_zero = la.zeros((2, 2, 2))
    left_zero[:, [0, 1], [0, 1]] = 1
    ctx = m2f4_inner.ctx
    return SimpleNamespace(
        ctx=ctx, a=ctx.algebra, res=m2f4_inner.restriction, spec=ctx.algebra.regular,
        other=f4c5_group.algebra, other_ctx=f4c5_group.ctx,
        one=SkewPoly.one(ctx), laurent=TruncLaurent(ctx, 0, SkewPoly.one(ctx).coeffs, None),
        singular=verify_skew_derivation(yz, LinearMap(yz, kill), LinearMap.zero(yz)),
        unit_g=Algebra(field(3), c3.tensor, [0, 1, 0], c3.labels),
        left_unit=Algebra(field(2), left_zero, [1, 0]),
        p2=Poly(field(2), [1, 1]), p3=Poly(field(3), [1, 2]))


REFUSALS = [
    # fields
    ("field-p-not-prime", lambda o: FieldSpec(4), ValueError, r"^p = 4 is not prime$"),
    ("field-k-zero", lambda o: FieldSpec(2, 0), ValueError,
     r"^extension degree k = 0 must be >= 1$"),
    ("field-p-too-large", lambda o: FieldSpec(1031), ValueError,
     r"^GF\(1031\^1\) exceeds supported table size 1024$"),
    ("field-k-too-large", lambda o: FieldSpec(2, 11), ValueError,
     r"^GF\(2\^11\) exceeds supported table size 1024$"),
    ("field-order-too-large", lambda o: FieldSpec(3, 7), ValueError,
     r"^field order 2187 exceeds supported table size 1024$"),
    ("field-no-built-in-modulus", lambda o: FieldSpec(3, 4), ValueError,
     r"^no built-in modulus for GF\(3\^4\); pass one explicitly$"),
    ("field-modulus-not-monic", lambda o: FieldSpec(2, 2, (1, 1, 0)), ValueError,
     r"^modulus must be monic of degree 2: got \(1, 1, 0\)$"),
    ("field-modulus-wrong-degree", lambda o: FieldSpec(2, 2, (1, 1)), ValueError,
     r"^modulus must be monic of degree 2: got \(1, 1\)$"),
    ("prime-field-gen", lambda o: field(3).gen, ValueError,
     r"^prime field has no extension generator$"),
    ("field-element-index-above", lambda o: FieldElement(field(3), 3), ValueError,
     r"^index 3 out of range for GF\(3\)$"),
    ("field-element-index-below", lambda o: FieldElement(field(3), -1), ValueError,
     r"^index -1 out of range for GF\(3\)$"),
    ("field-element-immutable", lambda o: setattr(field(3).one, "idx", 2), AttributeError,
     r"^FieldElement is immutable$"),
    ("field-element-mixed-fields", lambda o: field(2).one + field(3).one,
     MixedStructureError, r"^element from a different field$"),
    # algebras, maps and scalar restriction
    ("algebra-tensor-shape", lambda o: Algebra(field(2), la.zeros((2, 2, 3)), la.zeros(2)),
     ValueError, r"^structure tensor must be \(r, r, r\), got \(2, 2, 3\)$"),
    ("algebra-unit-shape", lambda o: Algebra(field(2), la.zeros((2, 2, 2)), la.zeros(3)),
     ValueError, r"^unit must have shape \(2,\)$"),
    ("algebra-label-count",
     lambda o: Algebra(field(2), la.zeros((2, 2, 2)), la.zeros(2), ["a"]),
     ValueError, r"^label count does not match dimension$"),
    ("algebra-left-unit-law", lambda o: SkewPoly.one(verify_skew_derivation(
        o.unit_g, LinearMap.identity(o.unit_g), LinearMap.zero(o.unit_g))),
     AxiomError, r"^unit \* 1 != 1$"),
    ("algebra-right-unit-law", lambda o: o.left_unit.regular, AxiomError,
     r"^e1 \* unit != e1$"),
    ("linear-map-shape", lambda o: LinearMap(o.a, la.zeros((2, 2))), ValueError,
     r"^matrix must be 8 x 8$"),
    ("linear-map-foreign-element", lambda o: LinearMap.identity(o.a)(o.other.one),
     MixedStructureError, r"^map applied to element of a different algebra$"),
    ("restriction-of-a-prime-field",
     lambda o: ScalarRestriction(group_algebra_cyclic(field(2), 3)), ValueError,
     r"^parent field is already prime$"),
    ("to-restricted-foreign", lambda o: o.res.to_restricted(o.a.one), MixedStructureError,
     r"^element is not in the parent algebra$"),
    ("to-parent-foreign", lambda o: o.res.to_parent(o.res.parent.one), MixedStructureError,
     r"^element is not in the restricted algebra$"),
    ("inner-derivation-foreign",
     lambda o: inner_derivation(o.a, LinearMap.identity(o.a), o.other.one),
     MixedStructureError, r"^mismatched algebra in inner_derivation$"),
    ("quotient-tn-of-degree-0", lambda o: quotient_algebra_tn(field(3), [1]), ValueError,
     r"^defining polynomial must have degree >= 1$"),
    # F[X] polynomials and matrices
    ("poly-immutable", lambda o: setattr(o.p3, "coeffs", o.p2.coeffs), AttributeError,
     r"^Poly is immutable$"),
    ("poly-mixed-fields", lambda o: o.p2 + o.p3, MixedStructureError,
     r"^polynomials over different fields$"),
    ("poly-lead-of-zero", lambda o: Poly.zero(field(3)).lead(), ValueError,
     r"^zero polynomial has no leading coefficient$"),
    ("poly-division-by-zero", lambda o: divmod(o.p3, Poly.zero(field(3))),
     ZeroDivisionError, r"^polynomial division by zero$"),
    ("poly-matrix-ragged", lambda o: PolyMatrix(field(3), [[o.p3, o.p3], [o.p3]]),
     ValueError, r"^ragged rows$"),
    ("poly-matrix-entry-field", lambda o: PolyMatrix(field(3), [[o.p2]]),
     MixedStructureError, r"^entry over the wrong field$"),
    ("poly-matrix-product-fields",
     lambda o: PolyMatrix(field(2), [[o.p2]]) @ PolyMatrix(field(3), [[o.p3]]),
     MixedStructureError, r"^matrices over different fields$"),
    ("poly-matrix-stack-width",
     lambda o: PolyMatrix(field(3), [[o.p3]]).stack(PolyMatrix(field(3), [[o.p3, o.p3]])),
     ValueError, r"^cannot stack$"),
    ("det-of-a-non-square-matrix", lambda o: det_poly(PolyMatrix(field(3), [[o.p3, o.p3]])),
     ValueError, r"^determinant of a non-square matrix$"),
    ("solve-vector-length",
     lambda o: EchelonSolver(PolyMatrix(field(3), [[o.p3, o.p3]])).solve([o.p3]),
     ValueError, r"^vector length 1 does not match width 2$"),
    # contexts, N-table and the skew rings
    ("skew-derivation-built-directly",
     lambda o: SkewDerivation(o.a, LinearMap.identity(o.a), LinearMap.zero(o.a)),
     TypeError, r"^use verify_skew_derivation\(\) to build a SkewDerivation$"),
    ("skew-derivation-foreign-maps", lambda o: verify_skew_derivation(
        o.a, LinearMap.identity(o.other), LinearMap.zero(o.other)),
     MixedStructureError, r"^maps defined on a different algebra$"),
    ("n-table-i-above-n", lambda o: o.ctx.ntable.matrix(3, 2), IndexError,
     r"^N_3\^2 undefined: need 0 <= i <= n$"),
    ("xn-times-negative", lambda o: xn_times(o.one, -1), ValueError,
     r"^order -1 < 0: not a polynomial$"),
    ("xn-times-negative-on-a-series", lambda o: xn_times(TruncSeries.from_poly(o.one, 4), -1),
     ValueError, r"^order -1 < 0: not a power series$"),
    ("xn-times-negative-without-laurent-ring",
     lambda o: xn_times(SkewPoly.one(o.singular), -1), RingUnavailableError,
     r"^laurent ring unavailable: sigma is not invertible$"),
    ("xnegn-direct-negative", lambda o: xnegn_direct(o.laurent, -1), ValueError,
     r"^xnegn_direct needs n >= 0$"),
    ("right-from-left-sigma-not-invertible", lambda o: right_from_left(
        SkewPoly.one(o.singular)), ValueError, r"^right coefficients need an invertible sigma$"),
    ("ore-left-k-0", lambda o: ore_left(o.one, 0), ValueError, r"^ore_left needs k >= 1$"),
    ("series-negative-precision", lambda o: TruncSeries(o.ctx, -1, la.zeros((0, 8))),
     ValueError, r"^precision must be >= 0$"),
    ("series-row-count", lambda o: TruncSeries(o.ctx, 3, la.zeros((2, 8))), ValueError,
     r"^coefficient block must be 3 x 8$"),
    ("laurent-scalar-block", lambda o: TruncLaurent(o.ctx, 0, 0, None), ValueError,
     r"^coefficient block must be L x 8$"),
    ("window-width", lambda o: SkewPoly(o.ctx, la.zeros((2, 3))), ValueError,
     r"^coefficient block must be L x 8$"),
    ("window-contexts", lambda o: o.one + SkewPoly.one(o.other_ctx), MixedStructureError,
     r"^operands from different contexts or modules$"),
    ("from-elements-foreign", lambda o: SkewPoly.from_elements(o.ctx, [o.other.one]),
     MixedStructureError, r"^coefficient from a different algebra$"),
    ("monomial-foreign", lambda o: SkewPoly.monomial(o.ctx, o.other.one, 1),
     MixedStructureError, r"^coefficient from a different algebra$"),
    ("left-from-right-foreign", lambda o: left_from_right(o.ctx, [o.other.one]),
     MixedStructureError, r"^coefficient from a different algebra$"),
    ("load-preset-unknown", lambda o: load_preset("nope"), KeyError,
     r"unknown example 'nope'; known: "),
    # modules and codes
    ("module-action-shape", lambda o: RightModuleSpec(o.a, la.zeros((2, 3, 3))), ValueError,
     r"^need 8 square action matrices, got \(2, 3, 3\)$"),
    ("restricted-module-shape", lambda o: restrict_module(o.res, la.zeros((2, 2, 2))),
     ValueError, r"^parent action has the wrong shape$"),
    ("natural-module-of-a-group-algebra",
     lambda o: natural_module(ScalarRestriction(o.other)), ValueError,
     r"^natural_module needs a restricted matrix algebra$"),
    ("scalar-from-another-algebra", lambda o: veclaurent_times_scalar(o.laurent, o.other.one),
     MixedStructureError, r"^scalar from a different algebra$"),
    ("poly-row-length", lambda o: polyrow_to_vecpoly(o.spec, o.ctx, [o.p2]), ValueError,
     r"^row length 1 does not match module dimension 8$"),
    ("vectors-of-another-width", lambda o: vecpolys_to_matrix(
        o.other.regular, [VecPoly(o.spec, o.ctx, la.eye(8)[:1])]),
     MixedStructureError, r"^vector over another field or of another width$"),
    ("generators-that-are-not-vectors",
     lambda o: code_from_generators([o.one], o.spec, o.ctx), TypeError,
     r"^generators must be vector polynomials$"),
]


@pytest.mark.parametrize("call,exc,pattern", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_library_refusals(o, call, exc, pattern):
    with pytest.raises(exc) as info:
        call(o)
    # KeyError's str() quotes its message
    message = info.value.args[0] if info.value.args else ""
    assert re.search(pattern, str(message)), message
