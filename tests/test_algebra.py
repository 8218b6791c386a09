"""Structure-constant algebras, linear maps and scalar restriction."""

import itertools
import random
import re

import numpy as np
import pytest

from skewcodes import (Algebra, LinearMap, ScalarRestriction, SkewPoly, field,
                       group_algebra_cyclic, inner_derivation, matrix_algebra,
                       quotient_algebra_tn, quotient_algebra_yz, regular_module,
                       verify_algebra, verify_skew_derivation)
from skewcodes.algebra import AlgebraElement
from skewcodes.errors import AxiomError, MixedStructureError
from skewcodes.fields import DTYPE
from skewcodes.modact import RightModuleSpec, restrict_module
from conftest import rand_coords, rand_element


def test_matrix_algebra_unit_rule():
    a = matrix_algebra(field(2, 2), 2)
    # E_st E_uv = [t = u] E_sv, exhaustively
    for s, t, u, v in itertools.product(range(2), repeat=4):
        lhs = a.basis_element(s * 2 + t) * a.basis_element(u * 2 + v)
        want = a.basis_element(s * 2 + v) if t == u else a.zero
        assert lhs == want
    assert a.one == a.basis_element(0) + a.basis_element(3)


def test_group_algebra_is_commutative_and_cyclic():
    a = group_algebra_cyclic(field(2, 2), 5)
    g = a.basis_element(1)
    power = a.one
    for i in range(5):
        assert power == a.basis_element(i)
        power = power * g
    assert power == a.one  # g^5 = 1
    rng = random.Random(5)
    for _ in range(25):
        x, y = rand_element(rng, a), rand_element(rng, a)
        assert x * y == y * x


def test_quotient_yz_relations():
    a = quotient_algebra_yz(field(2))
    one, y, z = a.basis()
    assert y * y == a.zero and z * z == a.zero
    assert y * z == a.zero and z * y == a.zero
    assert one * y == y and z * one == z


def test_quotient_tn_reduction():
    fs = field(2, 2)
    a = quotient_algebra_tn(fs, [fs.neg(1), 0, 0, 0, 0, 1])  # t^5 - 1
    t = a.basis_element(1)
    p = a.one
    for _ in range(5):
        p = p * t
    assert p == a.one
    with pytest.raises(ValueError):
        quotient_algebra_tn(fs, [1, 1, 2])  # not monic


@pytest.mark.parametrize("make", [
    lambda: matrix_algebra(field(2, 2), 2),
    lambda: group_algebra_cyclic(field(2, 2), 5),
    lambda: quotient_algebra_yz(field(3)),
])
def test_random_associativity(make):
    a = make()
    rng = random.Random(7)
    for _ in range(50):
        x, y, z = (rand_element(rng, a) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z


def test_verify_algebra_catches_broken_tensor():
    good = matrix_algebra(field(2), 2)
    tensor = good.tensor.copy()
    tensor[1, 2, 0] ^= 1  # corrupt E12 * E21
    bad = Algebra(good.field, tensor, good.unit, good.labels)
    report = verify_algebra(bad)
    assert not report.ok
    assert report.failures


def test_raw_algebra_is_verified_at_its_first_ring_use():
    """Algebra(...) checks nothing; the first ring element over it builds its
    regular module, which runs verify_algebra and refuses a broken tensor
    with its first failure, again on every later use."""
    good = matrix_algebra(field(2), 2)
    tensor = good.tensor.copy()
    tensor[1, 2, 0] ^= 1  # corrupt E12 * E21
    bad = Algebra(good.field, tensor, good.unit, good.labels)
    ctx = verify_skew_derivation(bad, LinearMap.identity(bad), LinearMap.zero(bad))
    for _ in range(2):
        with pytest.raises(AxiomError, match=re.escape(verify_algebra(bad).failures[0])):
            SkewPoly.x_power(ctx, 1) * SkewPoly.one(ctx)
    with pytest.raises(AxiomError):
        regular_module(bad)
    raw = Algebra(good.field, good.tensor, good.unit, good.labels)
    assert raw.regular is regular_module(raw) and raw.regular == good.regular


RESTRICTION_FIELDS = [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)]


def restriction_cases():
    """M2 and C3 over GF(4), GF(8), GF(9), GF(25) and GF(27), restricted."""
    for p, k in RESTRICTION_FIELDS:
        for parent in (matrix_algebra(field(p, k), 2), group_algebra_cyclic(field(p, k), 3)):
            yield parent, ScalarRestriction(parent)


def test_scalar_restriction_round_trip():
    rng = random.Random(11)
    for parent, res in restriction_cases():
        K = parent.field
        assert res.algebra.dim == parent.dim * K.k
        assert res.algebra.field.q == K.p
        assert res.to_restricted(parent.one) == res.algebra.one
        for _ in range(10):
            x, y = rand_element(rng, parent), rand_element(rng, parent)
            rx, ry = res.to_restricted(x), res.to_restricted(y)
            assert res.to_parent(rx) == x, parent
            assert res.to_restricted(x * y) == rx * ry, parent
            assert res.to_restricted(x + y) == rx + ry, parent
            assert res.to_restricted(x - y) == rx - ry, parent


def test_restriction_frobenius_is_algebra_map():
    rng = random.Random(12)
    for parent, res in restriction_cases():
        K, a = parent.field, res.algebra
        frob = res.frobenius()
        assert frob(a.one) == a.one
        basis = a.basis()
        for x in basis:
            for y in basis:
                assert frob(x * y) == frob(x) * frob(y), parent
        x = rand_element(rng, parent)
        fx = parent.from_coords(K.FROB[x.coords])
        assert frob(res.to_restricted(x)) == res.to_restricted(fx), parent
        power = LinearMap.identity(a)
        for t in range(1, K.k + 1):
            power = frob.compose(power)
            assert power == res.frobenius(t), (parent, t)
            # Frobenius has order k
            assert power.is_identity() == (t == K.k), (parent, t)


def test_linear_map_images_and_inverse():
    a = quotient_algebra_yz(field(5))
    one, y, z = a.basis()
    m = LinearMap.from_images(a, [one, y + z, z])
    assert m(y) == y + z
    assert m(z) == z
    inv = m.inverse()
    assert inv is not None
    assert m.compose(inv).is_identity()
    sing = LinearMap.from_images(a, [one, y, y])
    assert sing.inverse() is None


@pytest.mark.parametrize("fs", [field(3), field(5), field(3, 2)], ids=["F3", "F5", "F9"])
def test_signed_maps_in_odd_characteristic(fs):
    """LinearMap subtraction entry by entry in field arithmetic, and the inner
    derivation x -> m x - sigma(x) m element by element: in characteristic 2
    a dropped minus sign would pass unseen."""
    rng = random.Random(14)
    a = matrix_algebra(fs, 2)
    for _ in range(10):
        f, g, sigma = (LinearMap(a, rand_coords(rng, fs.q, (a.dim, a.dim)))
                       for _ in range(3))
        want = [[(fs.element(int(x)) - fs.element(int(y))).idx for x, y in zip(*rows)]
                for rows in zip(f.matrix, g.matrix)]
        assert np.array_equal((f - g).matrix, want)
        m = rand_element(rng, a)
        delta = inner_derivation(a, sigma, m)
        for x in a.basis() + [rand_element(rng, a)]:
            assert delta(x) == m * x - sigma(x) * m


def test_inner_derivation_satisfies_twisted_leibniz():
    f4 = field(2, 2)
    parent = matrix_algebra(f4, 2)
    res = ScalarRestriction(parent)
    a = res.algebra
    sigma = res.frobenius()
    rng = random.Random(13)
    for _ in range(10):
        m = rand_element(rng, a)
        delta = inner_derivation(a, sigma, m)
        ctx = verify_skew_derivation(a, sigma, delta)  # raises on failure
        assert ctx.delta is delta


def test_mixed_algebra_operations_reject():
    """Both algebras have dimension 4 over GF(2), so their maps' matrices
    alone would combine."""
    a, b = matrix_algebra(field(2), 2), group_algebra_cyclic(field(2), 4)
    with pytest.raises(MixedStructureError):
        a.one * b.one
    f, g = LinearMap.identity(a), LinearMap.identity(b)
    for combine in (f.__add__, f.__sub__, f.compose):
        with pytest.raises(MixedStructureError):
            combine(g)


def test_raw_index_arrays_outside_the_field_are_refused():
    """An entry outside [0, q) names itself instead of acting as another
    element (-1 as a + 1 over GF(4)), failing a true axiom with a false
    witness, or ending in a numpy IndexError."""
    f4 = field(2, 2)
    c1 = group_algebra_cyclic(f4, 1)
    m2 = matrix_algebra(f4, 2)
    cases = [
        (lambda: LinearMap(c1, [[-1]]), r"map matrix entry \[0, 0\] = -1 "),
        (lambda: LinearMap(m2, np.diag([1, 1, 7, 1])), r"entry \[2, 2\] = 7 "),
        (lambda: LinearMap(c1, np.array([[65537]])), r"= 65537 "),
        (lambda: LinearMap(c1, [[0.5]]), r"= 0.5 "),
        (lambda: RightModuleSpec(c1, [[[-3]]]), r"action entry \[0, 0, 0\] = -3 "),
        (lambda: Algebra(field(3), np.array([[[-2]]]), np.array([1])),
         r"structure tensor entry \[0, 0, 0\] = -2 is not an index of GF\(3\)"),
        (lambda: Algebra(field(3), np.array([[[1]]]), np.array([3])), r"unit entry"),
        (lambda: group_algebra_cyclic(f4, 5).from_coords([7, 0, 0, 0, 0]),
         r"coordinate entry \[0\] = 7 "),
        (lambda: restrict_module(ScalarRestriction(c1), [[[-1]]]),
         r"parent action entry \[0, 0, 0\] = -1 is not an index of GF\(2\^2\)"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError, match=message):
            build()
    # in range, the same constructors accept
    assert LinearMap(c1, [[3]]).matrix[0, 0] == 3
    assert RightModuleSpec(c1, [[[1]]]).n == 1
    assert Algebra(field(3), np.array([[[1]]]), np.array([1])).dim == 1
    assert group_algebra_cyclic(f4, 5).from_coords([3, 0, 0, 0, 1]).coords[0] == 3
    assert restrict_module(ScalarRestriction(c1), [[[1]]]).n == 2


def test_images_from_another_algebra_are_refused():
    """The images' algebra must be the map's, not just of the same dimension."""
    f4 = field(2, 2)
    c4, m2 = group_algebra_cyclic(f4, 4), matrix_algebra(f4, 2)
    with pytest.raises(MixedStructureError, match="different algebra"):
        LinearMap.from_images(c4, m2.basis())
    assert LinearMap.from_images(c4, c4.basis()).is_identity()


def test_algebra_element_refuses_coordinates_it_cannot_hold():
    """AlgebraElement(algebra, coords) stored any coordinates: over GF(4)
    65537 wrapped to 1, 1.5 became 1, a length-2 vector was taken on a
    5-dimensional algebra, and products then failed in numpy or gave a wrong
    element.  It now runs the coefficient blocks' checks."""
    f4 = field(2, 2)
    a5 = group_algebra_cyclic(f4, 5)
    cases = [
        (np.array([7, 0, 0, 0, 65537]), r"coordinate entry \[0\] = 7 "),
        (np.array([0, 0, 0, 0, 65537]), r"coordinate entry \[4\] = 65537 "),
        (np.array([1.5, 0, 0, 0, 0]), r"coordinate entry \[0\] = 1.5 "),
        (np.array([0, 0, 0, 9, 0], dtype=DTYPE), r"coordinate entry \[3\] = 9 "),
        (np.array([0, -1, 0, 0, 0], dtype=DTYPE), r"coordinate entry \[1\] = -1 "),
        (np.array([1, 0], dtype=DTYPE), r"expected 5 coordinates, got \(2,\)"),
        (np.zeros((1, 5), dtype=DTYPE), r"expected 5 coordinates, got \(1, 5\)"),
    ]
    for coords, message in cases:
        for build in (lambda: AlgebraElement(a5, coords), lambda: a5.from_coords(coords)):
            with pytest.raises(ValueError, match=message):
                build()
    # in range, the caller's array is copied, not frozen
    coords = np.array([3, 0, 0, 0, 1], dtype=DTYPE)
    x = AlgebraElement(a5, coords)
    assert coords.flags.writeable and not x.coords.flags.writeable
    assert str(x) == str(a5.from_coords([3, 0, 0, 0, 1])) == "(a+1) + g^4"


def test_element_negation_and_field_scalars_in_gf9():
    """Over GF(9), where -1 != 1: -x is the additive inverse and differs
    from x, and x * c, c * x and x.scale(c) agree for a field scalar c
    given as an element or, on the left, as its index."""
    fs = field(3, 2)
    a = group_algebra_cyclic(fs, 3)
    x = a.element([1, fs.gen.idx, 0])
    assert x + (-x) == a.zero and -x != x
    assert -x == x.scale(fs.neg(1)) == fs.neg(1) * x
    c = fs.gen
    assert x * c == c.idx * x == x.scale(c) == x.scale(c.idx) != x
    assert x.scale(c) * a.basis_element(1) == (x * a.basis_element(1)).scale(c)
    assert x.scale(0) == a.zero


def test_algebra_element_takes_its_own_elements_only():
    fs = field(3, 2)
    a, other = group_algebra_cyclic(fs, 3), matrix_algebra(fs, 2)
    x = a.element([1, fs.gen.idx, 2])
    assert a.element(x) is x
    with pytest.raises(MixedStructureError):
        a.element(other.one)


def test_linear_map_is_zero_in_gf9():
    a = group_algebra_cyclic(field(3, 2), 3)
    ident = LinearMap.identity(a)
    assert LinearMap.zero(a).is_zero() and (ident - ident).is_zero()
    assert not ident.is_zero() and not (ident + ident).is_zero()
