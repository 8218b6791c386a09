"""Twisted polynomial ring: commutation rule, products, conversions."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewcodes import (LinearMap, Poly, SkewPoly, field, group_algebra_cyclic,
                       left_from_right, poly_mul, verify_skew_derivation,
                       poly_mul_iterative, right_from_left, xn_times)
from skewcodes.errors import MixedStructureError
from skewcodes.fields import DTYPE
from skewcodes import _gflinalg as la
from skewcodes.modact import (RightModuleSpec, VecLaurent, VecPoly, VecSeries,
                              regular_module)
from skewcodes.skewlaurent import TruncLaurent, laurent_ring_exists
from skewcodes.skewseries import TruncSeries
from skewcodes.skewpoly import coefficient_maps, xn_arrays
from conftest import rand_coords, rand_element


def rand_poly(rng, ctx, maxdeg):
    L = rng.randrange(0, maxdeg + 2)
    return SkewPoly(ctx, rand_coords(rng, ctx.field.q, (L, ctx.algebra.dim)))


def test_commutation_rule_on_basis(all_bundles):
    """X a = sigma(a) X + delta(a) for every algebra basis element."""
    for b in all_bundles:
        ctx = b.ctx
        x = SkewPoly.x_power(ctx)
        for a in ctx.algebra.basis():
            lhs = x * SkewPoly.constant(ctx, a)
            rhs = SkewPoly.monomial(ctx, ctx.sigma(a), 1) \
                + SkewPoly.constant(ctx, ctx.delta(a))
            assert lhs == rhs, b.name


def test_associativity_random_triples(all_bundles):
    rng = random.Random(17)
    for b in all_bundles:
        ctx = b.ctx
        for _ in range(60):
            f, g, h = (rand_poly(rng, ctx, 4) for _ in range(3))
            assert (f * g) * h == f * (g * h), b.name


def test_distributivity_and_degree(all_bundles):
    rng = random.Random(19)
    for b in all_bundles:
        ctx = b.ctx
        for _ in range(40):
            f, g, h = (rand_poly(rng, ctx, 4) for _ in range(3))
            assert f * (g + h) == f * g + f * h
            assert (f + g) * h == f * h + g * h
            p = f * g
            if not (f.is_zero() or g.is_zero()):
                assert p.degree <= f.degree + g.degree


def test_product_matches_iterated_left_shift_oracle(all_bundles):
    """The closed-form product against repeated X-multiplication."""
    rng = random.Random(23)
    for b in all_bundles:
        ctx = b.ctx
        for _ in range(50):
            f, g = rand_poly(rng, ctx, 5), rand_poly(rng, ctx, 5)
            assert poly_mul(g, f) == poly_mul_iterative(g, f), b.name


def test_xn_times_is_iterated_x(all_bundles, odd_fyz_bundles, odd_laurent_bundles):
    rng = random.Random(29)
    for b in all_bundles + odd_fyz_bundles + odd_laurent_bundles:
        ctx = b.ctx
        x = SkewPoly.x_power(ctx)
        for _ in range(25):
            f = rand_poly(rng, ctx, 4)
            cur = f
            for n in range(5):
                assert xn_times(f, n) == cur, (b.name, n)
                cur = x * cur


def test_unit_and_zero_behave(all_bundles):
    rng = random.Random(31)
    for b in all_bundles:
        ctx = b.ctx
        one = SkewPoly.one(ctx)
        zero = SkewPoly.zero(ctx)
        for _ in range(10):
            f = rand_poly(rng, ctx, 4)
            assert one * f == f and f * one == f
            assert (zero * f).is_zero() and (f * zero).is_zero()
            assert f - f == zero


@pytest.fixture(scope="module")
def invertible_sigma_bundles(laurent_bundles, odd_laurent_bundles, m2f4_diag,
                             fyz_quotient, odd_fyz_bundles):
    """Contexts with sigma invertible: Laurent rings, and contexts whose
    delta' is not nilpotent, so the right-hand table has no band."""
    return laurent_bundles + odd_laurent_bundles + [m2f4_diag, fyz_quotient] \
        + odd_fyz_bundles


def test_left_right_coefficient_round_trip(invertible_sigma_bundles):
    """Sum a_i X^i versus sum X^i b_i, converted both ways, exact."""
    rng = random.Random(37)
    for b in invertible_sigma_bundles:
        ctx = b.ctx
        for _ in range(100):
            f = rand_poly(rng, ctx, 5)
            rights = right_from_left(f)
            assert left_from_right(ctx, rights) == f
            elems = [rand_element(rng, ctx.algebra)
                     for _ in range(rng.randrange(0, 6))]
            g = left_from_right(ctx, elems)
            back = right_from_left(g)
            assert back[: len(elems)] == elems or all(
                x == y for x, y in zip(back, elems))


def test_right_coefficients_reconstruct_by_explicit_sum(invertible_sigma_bundles):
    rng = random.Random(41)
    for b in invertible_sigma_bundles:
        ctx = b.ctx
        for _ in range(25):
            f = rand_poly(rng, ctx, 4)
            rights = right_from_left(f)
            total = SkewPoly.zero(ctx)
            for i, a in enumerate(rights):
                total = total + xn_times(SkewPoly.constant(ctx, a), i)
            assert total == f, b.name


def test_coefficient_conversions_are_one_contraction(monkeypatch, laurent_bundles,
                                                     fyz_quotient):
    """Once the tables are built, each conversion is one kernel call, whatever
    the degree."""
    calls = []
    real = la.mat_mul

    def counted(*args):
        calls.append(args[1].shape)
        return real(*args)

    rng = random.Random(59)
    for b in laurent_bundles + [fyz_quotient]:
        ctx = b.ctx
        ctx.ntable.ensure(8)
        ctx.opposite.ntable.ensure(8)
        monkeypatch.setattr(la, "mat_mul", counted)
        for deg in range(9):
            coeffs = rand_coords(rng, ctx.field.q, (deg + 1, ctx.algebra.dim))
            coeffs[deg, 0] = 1  # degree exactly deg
            f = SkewPoly(ctx, coeffs)
            calls.clear()
            rights = right_from_left(f)
            assert len(calls) == 1, (b.name, deg, calls)
            calls.clear()
            assert left_from_right(ctx, rights) == f
            assert len(calls) == 1, (b.name, deg, calls)
        monkeypatch.setattr(la, "mat_mul", real)


def test_scale_left_matches_constant_product(series_bundles, odd_fyz_bundles,
                                             odd_laurent_bundles):
    rng = random.Random(43)
    for b in series_bundles + odd_fyz_bundles + odd_laurent_bundles:
        ctx = b.ctx
        for _ in range(10):
            f = rand_poly(rng, ctx, 4)
            a = rand_element(rng, ctx.algebra)
            want = poly_mul_iterative(SkewPoly.constant(ctx, a), f)
            assert f.scale_left(a) == want, b.name


def test_coefficient_maps_of_a_batch_sit_side_by_side(all_bundles, module_a):
    """A (K, m, n) batch gives the maps of its m polynomials as m column
    blocks, each equal to that polynomial's own maps, on the regular
    coefficient space and on a module."""
    rng = random.Random(19)
    spaces = [(b.ctx.algebra.regular, b.ctx) for b in all_bundles]
    spaces.append((module_a, all_bundles[0].ctx))
    for space, ctx in spaces:
        for K, m in [(1, 1), (1, 3), (3, 1), (2, 4), (4, 2)]:
            g = np.stack([rand_coords(rng, ctx.field.q, (K, space.n))
                          for _ in range(m)], axis=1)
            taps = rng.randrange(1, K + 1)
            each = [coefficient_maps(space, ctx, g[:, j], taps) for j in range(m)]
            assert np.array_equal(coefficient_maps(space, ctx, g, taps),
                                  np.concatenate(each, axis=1))


def test_products_read_the_n_table_in_place(monkeypatch, f4c5_group, m2f4_inner):
    """coefficient_maps and xn_arrays hand the kernel a read-only view of the
    N-table's storage, not a per-call copy of it."""
    seen = []

    def record(real):
        def kernel(spec, a, b, *rest):
            seen.extend([a, b])
            return real(spec, a, b, *rest)
        return kernel

    monkeypatch.setattr(la, "mat_mul", record(la.mat_mul))
    monkeypatch.setattr(la, "toeplitz_mul", record(la.toeplitz_mul))
    rng = random.Random(53)
    for b in (f4c5_group, m2f4_inner):
        ctx = b.ctx
        for call in (lambda g: coefficient_maps(ctx.algebra.regular, ctx, g, 3),
                     lambda g: xn_arrays(ctx, g, 6)):
            ctx.ntable.ensure(8)
            seen.clear()
            call(rand_coords(rng, ctx.field.q, (5, ctx.algebra.dim)))
            table = [op for op in seen if np.shares_memory(op, ctx.ntable.rows(8))]
            assert table and not any(op.flags.writeable for op in table), b.name


def test_ring_objects_of_one_context_share_one_coefficient_space(all_bundles):
    """Polynomials of one context, products included, read one coefficient
    space, the regular module of A, not a new one per access; every class
    takes a RightModuleSpec as its space; the opposite context has its own."""
    for b in all_bundles:
        ctx = b.ctx
        f, x = SkewPoly.one(ctx), SkewPoly.x_power(ctx, 2)
        assert f.space is x.space is (x * f).space is ctx.algebra.regular, b.name
        assert f.space.algebra is ctx.algebra, b.name
        assert ctx.algebra.regular is regular_module(ctx.algebra), b.name
        if ctx.m_delta is None:
            continue
        s = TruncSeries.from_poly(x, 4)
        objs = [f, s]
        if laurent_ring_exists(ctx).laurent:
            objs.append(TruncLaurent.from_series(s))
        mod = regular_module(ctx.algebra)
        vp = VecPoly.unit_row(mod, ctx, 0)
        vs = VecSeries.from_poly(vp, 4)
        objs += [vp, vs, VecLaurent.from_series(vs)]
        for obj in objs:
            assert isinstance(obj.space, RightModuleSpec), (b.name, type(obj))
        if ctx.opposite is not None:
            assert SkewPoly.one(ctx.opposite).space is not ctx.algebra.regular, b.name


def test_mixed_context_product_rejects(m2f4_inner, f4c5_group):
    f = SkewPoly.one(m2f4_inner.ctx)
    g = SkewPoly.one(f4c5_group.ctx)
    with pytest.raises(MixedStructureError):
        f * g


@given(st.integers(0, 3), st.integers(0, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_monomial_products_expand_by_n_operators(da, db, data):
    """(a X^i)(b X^j) = sum_t a N_t^i(b) X^{t+j} against the table."""
    from skewcodes import load_preset
    b = load_preset("f4c5-group")
    ctx = b.ctx
    A = ctx.algebra
    q = A.field.q
    ac = data.draw(st.lists(st.integers(0, q - 1), min_size=A.dim, max_size=A.dim))
    bc = data.draw(st.lists(st.integers(0, q - 1), min_size=A.dim, max_size=A.dim))
    a = A.from_coords(np.array(ac, dtype=DTYPE))
    bb = A.from_coords(np.array(bc, dtype=DTYPE))
    lhs = SkewPoly.monomial(ctx, a, da) * SkewPoly.monomial(ctx, bb, db)
    ctx.ntable.ensure(da)
    rhs = SkewPoly.zero(ctx)
    from skewcodes import n_operator
    for t in range(da + 1):
        rhs = rhs + SkewPoly.monomial(ctx, a * n_operator(ctx, t, da)(bb), t + db)
    assert lhs == rhs


def test_negative_exponents_are_refused(m2f4_inner):
    """X^n for n < 0 is not a polynomial: Poly.x_power gave 1, and the
    SkewPoly constructors ended in numpy errors."""
    ctx = m2f4_inner.ctx
    for build in (lambda n: Poly.x_power(ctx.field, n),
                  lambda n: SkewPoly.monomial(ctx, ctx.algebra.one, n),
                  lambda n: SkewPoly.x_power(ctx, n)):
        for n in (-1, -3):
            with pytest.raises(ValueError, match=f"exponent n = {n} is negative"):
                build(n)
        assert build(0).coeffs.shape[0] == 1


def test_elements_lists_every_coefficient_in_gf9():
    """SkewPoly.elements() gives the coefficients f_0 .. f_deg, zeros in
    between included, and nothing for the zero polynomial."""
    fs = field(3, 2)
    a = group_algebra_cyclic(fs, 3)
    ctx = verify_skew_derivation(a, LinearMap.identity(a), LinearMap.zero(a))
    x, y = a.element([1, fs.gen.idx, 0]), -a.basis_element(2)
    f = SkewPoly.from_elements(ctx, [x, a.zero, y])
    assert f.elements() == [x, a.zero, y]
    assert (-f).elements() == [-x, a.zero, -y] != f.elements()
    assert SkewPoly.zero(ctx).elements() == []
