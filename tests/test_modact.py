"""Right module actions on vectors of polynomials, series, Laurent series."""

import itertools
import random
import re

import numpy as np
import pytest

from skewcodes import (ScalarRestriction, SkewPoly, TruncLaurent, TruncSeries,
                       field, laurent_ring_exists, left_from_right, load_preset,
                       matrix_algebra, ore_left, poly_mul,
                       poly_mul_iterative, right_from_left, xn_times)
from skewcodes import _gflinalg as la
from skewcodes import skewpoly
from skewcodes.errors import MixedStructureError, PrecisionError, RingUnavailableError
from skewcodes.fields import DTYPE
from skewcodes.skewlaurent import laurent_mul, xinv_times
from skewcodes.skewseries import series_mul
from skewcodes.modact import (RightModuleSpec, VecLaurent, VecPoly, VecSeries,
                              central_laurent, check_module,
                              flsx_scalar_action, module_verify,
                              natural_module, regular_module,
                              veclaurent_times_ring, veclaurent_times_scalar,
                              vecpoly_times_basis, vecpoly_times_scalar,
                              vecseries_times_ring)
from conftest import rand_coords, rand_element
from oracles import reach_direct, veclaurent_times_scalar_direct


def rand_vecpoly(rng, spec, ctx, maxdeg):
    L = rng.randrange(1, maxdeg + 2)
    return VecPoly(spec, ctx, rand_coords(rng, spec.field.q, (L, spec.n)))


def rand_vecseries(rng, spec, ctx, prec):
    return VecSeries(spec, ctx, prec,
                     rand_coords(rng, spec.field.q, (prec, spec.n)))


def rand_veclaurent(rng, spec, ctx, ord_, length):
    arr = rand_coords(rng, spec.field.q, (length, spec.n))
    arr[0, 0] = 1
    return VecLaurent(spec, ctx, ord_, arr, ord_ + length)


def rand_poly(rng, ctx, maxdeg):
    L = rng.randrange(1, maxdeg + 2)
    return SkewPoly(ctx, rand_coords(rng, ctx.field.q,
                                     (L, ctx.algebra.dim)))


def test_module_verify_accepts_the_shipped_modules(all_bundles, module_a):
    for b in all_bundles:
        assert module_verify(regular_module(b.algebra)).ok, b.name
    assert module_verify(module_a).ok
    assert module_a.n == 4


def test_trivial_action_valid_only_where_basis_products_stay_basis(
        f4c5_group, m2f4_inner):
    """All-identity action: lawful for a group basis, not for matrix units."""
    ag = f4c5_group.algebra
    eye = np.broadcast_to(np.eye(ag.dim, dtype=DTYPE),
                          (ag.dim, ag.dim, ag.dim)).copy()
    assert module_verify(check_module(RightModuleSpec(ag, eye))).ok
    am = m2f4_inner.algebra
    eyem = np.broadcast_to(np.eye(am.dim, dtype=DTYPE),
                           (am.dim, am.dim, am.dim)).copy()
    rep = module_verify(RightModuleSpec(am, eyem))
    assert not rep.ok
    assert any("R(1)" in f for f in rep.failures)
    with pytest.raises(MixedStructureError):
        check_module(RightModuleSpec(am, eyem))


def rand_laurent_class(rng, ctx, width):
    """Rows for a random Laurent class: ord, coefficients and end, with zero
    classes (no rows) and exact elements (end None) among them."""
    ord_ = rng.randrange(-3, 3)
    rows = rand_coords(rng, ctx.field.q, (rng.choice([0, 1, 3, 5]), width))
    end = None if rng.random() < 0.2 else ord_ + rows.shape[0] + rng.randrange(3)
    return ord_, rows, end


def same_window(x, y):
    if hasattr(x, "prec"):
        return x.prec == y.prec and np.array_equal(x.coeffs, y.coeffs)
    return ((x.ord, x.end) == (y.ord, y.end)
            and np.array_equal(x.coeffs, y.coeffs))


def test_regular_module_reproduces_ring_products(all_bundles, series_bundles,
                                                 odd_fyz_bundles, laurent_bundles):
    """Acting on the regular module is multiplication in the algebra/ring:
    the same coefficients on the same windows, in every characteristic the
    presets reach."""
    rng = random.Random(51)
    for b in all_bundles + odd_fyz_bundles:
        spec = regular_module(b.algebra)
        for _ in range(10):
            u = rand_element(rng, b.algebra)
            a = rand_element(rng, b.algebra)
            assert np.array_equal(spec.act_row(u.coords, a),
                                  (u * a).coords), b.name
        ctx = b.ctx
        for _ in range(10):
            f = rand_poly(rng, ctx, 3)
            g = rand_poly(rng, ctx, 3)
            v = VecPoly(spec, ctx, f.coeffs)
            prod = poly_mul(v, g)
            want = (f * g).coeffs
            lead = np.zeros((0, spec.n), dtype=DTYPE) if want.shape[0] == 0 \
                else want
            assert np.array_equal(prod.coeffs[:lead.shape[0]], lead), b.name
            assert not prod.coeffs[lead.shape[0]:].any(), b.name
    for b in series_bundles + odd_fyz_bundles:
        spec = regular_module(b.algebra)
        ctx = b.ctx
        N = 3 * ctx.m_delta
        for _ in range(4):
            s = TruncSeries(ctx, N, rand_coords(rng, ctx.field.q, (N, spec.n)))
            t = TruncSeries(ctx, 3, rand_coords(rng, ctx.field.q, (3, spec.n)))
            v = VecSeries(spec, ctx, N, s.coeffs)
            assert same_window(vecseries_times_ring(v, t), series_mul(s, t)), b.name
            a = rand_element(rng, b.algebra)
            assert same_window(veclaurent_times_scalar(v, a),
                               veclaurent_times_scalar(s, a)), b.name
    for b in laurent_bundles:
        spec = regular_module(b.algebra)
        ctx = b.ctx
        for _ in range(8):
            ord_, rows, end = rand_laurent_class(rng, ctx, spec.n)
            s = TruncLaurent(ctx, ord_, rows, end)
            t = TruncLaurent(ctx, *rand_laurent_class(rng, ctx, spec.n))
            v = VecLaurent(spec, ctx, ord_, rows, end)
            assert same_window(veclaurent_times_ring(v, t), laurent_mul(s, t)), b.name


def completion(rng, x, tail):
    """A Laurent polynomial in the class of x: its coefficients below x.end,
    then `tail` random coefficients from X^end on."""
    if x.end is None:
        return x
    width = x.coeffs.shape[1]
    rows = np.zeros((x.end - x.ord + tail, width), dtype=DTYPE)
    rows[:x.coeffs.shape[0]] = x.coeffs
    rows[x.end - x.ord:] = rand_coords(rng, x.ctx.field.q, (tail, width))
    if isinstance(x, VecLaurent):
        return VecLaurent(x.spec, x.ctx, x.ord, rows, None)
    return TruncLaurent(x.ctx, x.ord, rows, None)


def rand_central_class(rng, q):
    """A Laurent class over the prime field as (ord, coefficient list, end)."""
    ord_ = rng.randrange(-2, 3)
    coeffs = [rng.randrange(q) for _ in range(rng.choice([0, 1, 3]))]
    end = None if rng.random() < 0.2 else ord_ + len(coeffs) + rng.randrange(3)
    return ord_, coeffs, end


def central_completion(rng, q, f, tail):
    ord_, coeffs, end = f
    if end is None:
        return f
    pad = [0] * (end - ord_ - len(coeffs))
    return ord_, coeffs + pad + [rng.randrange(q) for _ in range(tail)], None


def test_windows_hold_for_every_completion(laurent_bundles, odd_laurent_bundles,
                                           module_a, series_bundles, odd_fyz_bundles):
    """Whatever the unknown tails hold, the exact products of two completions
    agree with the windowed product on its whole claimed window."""
    rng = random.Random(63)
    pairs = [(b, module_a if b.name == "m2f4-inner" else regular_module(b.algebra))
             for b in laurent_bundles]
    pairs += [(b, spec) for b in odd_laurent_bundles
              for spec in (natural_module(b.restriction), regular_module(b.algebra))]
    for b, spec in pairs:
        ctx = b.ctx
        q, r = ctx.field.q, ctx.algebra.dim
        cases = [(rand_laurent_class(rng, ctx, spec.n),
                  rand_laurent_class(rng, ctx, r)) for _ in range(12)]
        # zero classes on either side, with windows ending below and above 0
        cases += [((0, rand_coords(rng, q, (0, spec.n)), e),
                   (1, rand_coords(rng, q, (2, r)), 4)) for e in (-2, 0, 3)]
        cases += [((-1, rand_coords(rng, q, (3, spec.n)), 2),
                   (0, rand_coords(rng, q, (0, r)), e)) for e in (-1, 2)]
        for (vo, vrows, ve), t_window in cases:
            v = VecLaurent(spec, ctx, vo, vrows, ve)
            s = TruncLaurent(ctx, vo, rand_coords(rng, q, (vrows.shape[0], r)), ve)
            t = TruncLaurent(ctx, *t_window)
            a = rand_element(rng, b.algebra)
            f = rand_central_class(rng, q)
            n = rng.randrange(5)
            windowed = (laurent_mul(s, t), veclaurent_times_ring(v, t),
                        veclaurent_times_scalar(v, a), xinv_times(s),
                        flsx_scalar_action(v, *f), xn_times(s, n))
            for _ in range(2):
                cs, cv, ct = (completion(rng, x, 4) for x in (s, v, t))
                cf = central_completion(rng, q, f, 4)
                exact = (laurent_mul(cs, ct), veclaurent_times_ring(cv, ct),
                         veclaurent_times_scalar(cv, a), xinv_times(cs),
                         flsx_scalar_action(cv, *cf), xn_times(cs, n))
                for w, e in zip(windowed, exact):
                    assert e.end is None and e.agrees_with(w), (b.name, w, e)
        # X^n on windows of order -2, 0 and 2, windowed and exact
        for ord_, end, n in itertools.product((-2, 0, 2), (3, None), (1, 2, 4)):
            s = TruncLaurent(ctx, ord_, rand_coords(rng, q, (3, r)),
                             None if end is None else ord_ + end)
            w = xn_times(s, n)
            assert type(w) is TruncLaurent and w.end == s.end, (b.name, w)
            for _ in range(2):
                e = xn_times(completion(rng, s, 4), n)
                assert e.end is None and e.agrees_with(w), (b.name, w, e)
        # exact right operands: the window end rests on the left one alone
        for _ in range(20):
            vo, L = rng.randrange(-3, 3), rng.randrange(1, 6)
            ve = vo + L + rng.randrange(3)
            v = VecLaurent(spec, ctx, vo, rand_coords(rng, q, (L, spec.n)), ve)
            s = TruncLaurent(ctx, vo, rand_coords(rng, q, (L, r)), ve)
            t = TruncLaurent(ctx, rng.randrange(-2, 3),
                             rand_coords(rng, q, (rng.randrange(1, 4), r)), None)
            windowed = (laurent_mul(s, t), veclaurent_times_ring(v, t))
            for _ in range(3):
                exact = (laurent_mul(completion(rng, s, 4), t),
                         veclaurent_times_ring(completion(rng, v, 4), t))
                for w, e in zip(windowed, exact):
                    assert e.agrees_with(w), (b.name, w, e)
    for b in series_bundles + odd_fyz_bundles:
        ctx = b.ctx
        q, r, m = ctx.field.q, ctx.algebra.dim, ctx.m_delta
        spec = regular_module(b.algebra)
        for _ in range(4):
            v = VecSeries(spec, ctx, 3 * m, rand_coords(rng, q, (3 * m, spec.n)))
            t = TruncSeries(ctx, 3, rand_coords(rng, q, (3, r)))
            a = rand_element(rng, b.algebra)
            w, wa = vecseries_times_ring(v, t), veclaurent_times_scalar(v, a)
            assert type(wa) is VecSeries, b.name
            for _ in range(2):
                cv = VecPoly(spec, ctx, np.concatenate(
                    [v.coeffs, rand_coords(rng, q, (2 * m, spec.n))]))
                ct = SkewPoly(ctx, np.concatenate(
                    [t.coeffs, rand_coords(rng, q, (2, r))]))
                assert VecSeries.from_poly(poly_mul(cv, ct), w.prec) == w, b.name
                assert VecSeries.from_poly(vecpoly_times_scalar(cv, a), wa.prec) == wa
        # ring side: series_mul, the scalar action and X^n, zero operands
        # included, and right factors with leading zero rows against left
        # windows short enough to bind (s.prec // m_delta < t.prec)
        cases = [(rand_coords(rng, q, (3 * m, r)), rand_coords(rng, q, (3, r)))
                 for _ in range(3)]
        cases += [(np.zeros((3 * m, r), dtype=DTYPE), rand_coords(rng, q, (3, r))),
                  (rand_coords(rng, q, (3 * m, r)), np.zeros((3, r), dtype=DTYPE))]
        for lead in (1, 2, 1, 2):
            t_rows = rand_coords(rng, q, (4, r))
            t_rows[:lead] = 0
            t_rows[lead, rng.randrange(r)] = rng.randrange(1, q)
            cases.append((rand_coords(rng, q, (rng.randrange(m, 3 * m), r)), t_rows))
        cases += [(np.zeros((5 * m, r), dtype=DTYPE), rand_coords(rng, q, (2, r))),
                  (cases[-1][0], np.zeros((4, r), dtype=DTYPE))]
        for s_rows, t_rows in cases:
            s = TruncSeries(ctx, s_rows.shape[0], s_rows)
            t = TruncSeries(ctx, t_rows.shape[0], t_rows)
            a = rand_element(rng, b.algebra)
            n = rng.randrange(1, 5)
            w, wa, wx = series_mul(s, t), veclaurent_times_scalar(s, a), xn_times(s, n)
            assert type(w) is type(wa) is type(wx) is TruncSeries, b.name
            assert wx.prec == s.prec, b.name
            # never below the dense rule, and t's leading zeros are read as such
            assert w.prec >= skewpoly.mul_arrays(ctx.algebra.regular, ctx, s_rows, t_rows,
                                                 s.prec, t.prec)[1], b.name
            if not (s.is_zero() or t.is_zero()):
                lead = int(np.flatnonzero(t_rows.any(axis=1))[0])
                assert w.prec == min(t.prec, lead + s.prec // m), (b.name, lead)
            for _ in range(2):
                cs = SkewPoly(ctx, np.concatenate(
                    [s_rows, rand_coords(rng, q, (rng.randrange(1, 2 * m + 1), r))]))
                ct = SkewPoly(ctx, np.concatenate(
                    [t_rows, rand_coords(rng, q, (rng.randrange(1, 3), r))]))
                exact = poly_mul_iterative(cs, ct)
                assert TruncSeries.from_poly(exact, w.prec) == w, b.name
                exact = poly_mul_iterative(cs, SkewPoly.constant(ctx, a))
                assert TruncSeries.from_poly(exact, wa.prec) == wa, b.name
                exact = poly_mul_iterative(SkewPoly.x_power(ctx, n), cs)
                assert TruncSeries.from_poly(exact, wx.prec) == wx, b.name


def test_natural_module_is_row_action_by_parent_matrices(m2f4_inner,
                                                         module_a):
    """Row convention: e_2 E_21 = e_1 and e_1 E_21 = 0."""
    res = m2f4_inner.restriction
    E21 = res.to_restricted(res.parent.basis_element(2))
    e1 = np.zeros(4, dtype=DTYPE)
    e1[0] = 1
    e2 = np.zeros(4, dtype=DTYPE)
    e2[2] = 1
    assert np.array_equal(module_a.act_row(e2, E21), e1)
    assert not module_a.act_row(e1, E21).any()
    # M2(GF(9)) over GF(3): the digits of v P are the restricted v times P
    res = ScalarRestriction(matrix_algebra(field(3, 2), 2))
    K, nat = res.parent.field, natural_module(res)
    assert module_verify(nat).ok and nat.n == 4
    rng = random.Random(64)
    for _ in range(20):
        v, pm = rand_coords(rng, K.q, (1, 2)), rand_coords(rng, K.q, (2, 2))
        vp = la.mat_mul(K, v, pm)
        digits = [np.array([c for x in row for c in K.element(int(x)).coeffs])
                  for row in (v[0], vp[0])]
        rp = res.to_restricted(res.parent.from_coords(pm.reshape(-1)))
        assert np.array_equal(nat.act_row(digits[0], rp), digits[1])


def test_vecpoly_scalar_action_is_associative(all_bundles):
    rng = random.Random(52)
    for b in all_bundles:
        spec = regular_module(b.algebra)
        for _ in range(15):
            v = rand_vecpoly(rng, spec, b.ctx, 3)
            a = rand_element(rng, b.algebra)
            c = rand_element(rng, b.algebra)
            lhs = vecpoly_times_scalar(vecpoly_times_scalar(v, a), c)
            rhs = vecpoly_times_scalar(v, a * c)
            assert lhs == rhs, b.name
        v = rand_vecpoly(rng, spec, b.ctx, 3)
        assert vecpoly_times_basis(v) == [vecpoly_times_scalar(v, e)
                                          for e in b.algebra.basis()], b.name
        zero = VecPoly.zero(spec, b.ctx)
        assert vecpoly_times_basis(zero) == [zero] * b.algebra.dim, b.name


def test_vecpoly_ring_action_is_associative(all_bundles):
    rng = random.Random(53)
    for b in all_bundles:
        spec = regular_module(b.algebra)
        ctx = b.ctx
        for _ in range(15):
            v = rand_vecpoly(rng, spec, ctx, 3)
            f = rand_poly(rng, ctx, 3)
            g = rand_poly(rng, ctx, 3)
            lhs = poly_mul(poly_mul(v, f), g)
            rhs = poly_mul(v, f * g)
            assert lhs == rhs, b.name


def test_x_acts_as_shift_on_vecpoly(all_bundles):
    rng = random.Random(54)
    for b in all_bundles:
        spec = regular_module(b.algebra)
        v = rand_vecpoly(rng, spec, b.ctx, 3)
        moved = poly_mul(v, SkewPoly.x_power(b.ctx))
        assert moved == v.shift(1), b.name


def test_vecseries_scalar_matches_constant_series(series_bundles):
    rng = random.Random(55)
    for b in series_bundles:
        spec = regular_module(b.algebra)
        ctx = b.ctx
        for _ in range(10):
            s = rand_vecseries(rng, spec, ctx, 12)
            a = rand_element(rng, b.algebra)
            direct = veclaurent_times_scalar(s, a)
            assert direct.prec == 12 // ctx.m_delta
            const = TruncSeries.from_elements(ctx, [a], direct.prec)
            composed = vecseries_times_ring(s, const)
            assert direct == composed, b.name


def test_vecseries_ring_action_is_associative(series_bundles):
    rng = random.Random(56)
    for b in series_bundles:
        spec = regular_module(b.algebra)
        ctx = b.ctx
        m = ctx.m_delta
        N = 3
        for _ in range(10):
            s = rand_vecseries(rng, spec, ctx, N * m * m)
            f = TruncSeries(ctx, N * m,
                            rand_coords(rng, ctx.field.q,
                                        (N * m, ctx.algebra.dim)))
            g = TruncSeries(ctx, N,
                            rand_coords(rng, ctx.field.q,
                                        (N, ctx.algebra.dim)))
            lhs = vecseries_times_ring(vecseries_times_ring(s, f), g)
            from skewcodes.skewseries import series_mul
            rhs = vecseries_times_ring(s, series_mul(f, g))
            assert lhs.agrees_with(rhs), b.name
            assert min(lhs.prec, rhs.prec) == N


def test_veclaurent_scalar_direct_equals_composed(laurent_bundles,
                                                  odd_laurent_bundles):
    """Closed chain expansion vs iterated X^{-1}: values and windows."""
    rng = random.Random(57)
    for b in laurent_bundles + odd_laurent_bundles:
        spec = regular_module(b.algebra)
        ctx = b.ctx
        for _ in range(15):
            s = rand_veclaurent(rng, spec, ctx, rng.randrange(-3, 2), 10)
            a = rand_element(rng, b.algebra)
            composed = veclaurent_times_scalar(s, a)
            direct = veclaurent_times_scalar_direct(s, a)
            assert composed.ord == direct.ord, b.name
            assert composed.end == direct.end, b.name
            assert np.array_equal(composed.coeffs, direct.coeffs), b.name


def test_veclaurent_scalar_window_anchors(m2f4_inner):
    """Window accounting stays put: two pinned cases."""
    rng = random.Random(58)
    spec = regular_module(m2f4_inner.algebra)
    ctx = m2f4_inner.ctx
    a = m2f4_inner.algebra.basis_element(3)
    s = rand_veclaurent(rng, spec, ctx, 0, 8)
    assert veclaurent_times_scalar(s, a).end == 4
    t = rand_veclaurent(rng, spec, ctx, -2, 10)
    assert veclaurent_times_scalar(t, a).end == 3


def test_veclaurent_ring_action_is_associative(laurent_bundles):
    from skewcodes.skewlaurent import laurent_mul
    sizes = {"m2f4-inner": (20, 8), "f4c5-group": (36, 3)}
    rng = random.Random(59)
    for b in laurent_bundles:
        L, reps = sizes[b.name]
        spec = regular_module(b.algebra)
        ctx = b.ctx
        for _ in range(reps):
            s = rand_veclaurent(rng, spec, ctx, -1, L)
            f = TruncLaurent(ctx, 0,
                             rand_coords(rng, ctx.field.q,
                                         (L, ctx.algebra.dim)), L)
            g = TruncLaurent(ctx, 0,
                             rand_coords(rng, ctx.field.q,
                                         (L, ctx.algebra.dim)), L)
            lhs = veclaurent_times_ring(veclaurent_times_ring(s, f), g)
            rhs = veclaurent_times_ring(s, laurent_mul(f, g))
            assert lhs.agrees_with(rhs), b.name


def test_central_series_acts_by_plain_convolution(laurent_bundles):
    """F((X)) scalars: flsx convolution agrees with the generic ring path
    and keeps the wider window."""
    rng = random.Random(60)
    for b in laurent_bundles:
        spec = regular_module(b.algebra)
        ctx = b.ctx
        for _ in range(10):
            s = rand_veclaurent(rng, spec, ctx, -2, 10)
            coeffs = [rng.randrange(ctx.field.q) for _ in range(4)]
            coeffs[0] = 1
            f_ord = rng.randrange(-2, 2)
            by_conv = flsx_scalar_action(s, f_ord, coeffs, None)
            assert by_conv.end == s.end + f_ord
            emb = central_laurent(ctx, f_ord, coeffs, None)
            by_ring = veclaurent_times_ring(s, emb)
            assert by_conv.end >= by_ring.end
            assert by_conv.agrees_with(by_ring), b.name


def test_central_constants_commute_and_embedding_is_commutative(
        laurent_bundles):
    """Constants c 1_A commute with everything; the embedded copy of
    F((X)) is a commutative subring (X itself does not commute with A)."""
    from skewcodes.skewlaurent import laurent_mul
    rng = random.Random(61)
    for b in laurent_bundles:
        ctx = b.ctx
        one = central_laurent(ctx, 0, [1], None)
        arr = rand_coords(rng, ctx.field.q, (10, ctx.algebra.dim))
        arr[0, 0] = 1
        t = TruncLaurent(ctx, -2, arr, 8)
        assert laurent_mul(one, t).agrees_with(laurent_mul(t, one)), b.name
        c = central_laurent(ctx, -1, [1, 0, 1, 1], None)
        d = central_laurent(ctx, 2, [1, 1], None)
        cd = laurent_mul(c, d)
        assert cd == laurent_mul(d, c), b.name
        assert cd == central_laurent(ctx, 1, [1, 1, 1, 0, 1], None), b.name


def test_scalar_after_ring_equals_ring_after_scalar(laurent_bundles):
    """(s f) a agrees with s (f a)."""
    from skewcodes.skewlaurent import laurent_mul
    rng = random.Random(62)
    for b in laurent_bundles:
        spec = regular_module(b.algebra)
        ctx = b.ctx
        for _ in range(8):
            s = rand_veclaurent(rng, spec, ctx, 0, 16)
            arr = rand_coords(rng, ctx.field.q, (16, ctx.algebra.dim))
            arr[0, 0] = 1
            f = TruncLaurent(ctx, 0, arr, 16)
            a = rand_element(rng, b.algebra)
            const = TruncLaurent.from_elements(ctx, 0, [a], None)
            lhs = veclaurent_times_scalar(veclaurent_times_ring(s, f), a)
            rhs = veclaurent_times_ring(s, laurent_mul(f, const))
            assert lhs.agrees_with(rhs), b.name


def test_mixed_structures_rejected(m2f4_inner, f4c5_group):
    spec_m = regular_module(m2f4_inner.algebra)
    v = VecPoly.unit_row(spec_m, m2f4_inner.ctx, 0)
    with pytest.raises(MixedStructureError):
        vecpoly_times_scalar(v, f4c5_group.algebra.one)
    g = SkewPoly.one(f4c5_group.ctx)
    with pytest.raises(MixedStructureError):
        poly_mul(v, g)


def test_exact_scalar_action_of_nonnegative_order_needs_no_laurent_ring(fyz_quotient):
    """On a series-only context an exact vector of nonnegative order times a
    scalar is the polynomial product; negative orders need the Laurent ring."""
    ctx = fyz_quotient.ctx
    spec = regular_module(ctx.algebra)
    rng = random.Random(61)
    for ord_ in range(3):
        rows = rand_coords(rng, ctx.field.q, (3, spec.n))
        rows[0, 0] = 1
        a = rand_element(rng, ctx.algebra)
        got = veclaurent_times_scalar(VecLaurent(spec, ctx, ord_, rows, None), a)
        want = vecpoly_times_scalar(VecPoly(spec, ctx, rows).shift(ord_), a)
        assert got == VecLaurent(spec, ctx, 0, want.coeffs)
    with pytest.raises(RingUnavailableError):
        veclaurent_times_scalar(VecLaurent(spec, ctx, -1, rows, None), a)


def test_scalar_actions_keep_the_class_of_a_ring_window(laurent_bundles,
                                                        odd_laurent_bundles):
    """veclaurent_times_scalar on a TruncLaurent t, windowed and exact, of
    order -2, 0 and 2, is a TruncLaurent with the window and coefficients of
    the product on t's module twin over A.regular."""
    rng = random.Random(83)
    for b in laurent_bundles + odd_laurent_bundles:
        ctx = b.ctx
        for ord_ in (-2, 0, 2):
            for end in (ord_ + 5, None):
                rows = rand_coords(rng, ctx.field.q, (4, ctx.algebra.dim))
                rows[0, 0] = 1
                t = TruncLaurent(ctx, ord_, rows, end)
                a = rand_element(rng, ctx.algebra)
                got = veclaurent_times_scalar(t, a)
                want = veclaurent_times_scalar(
                    VecLaurent(ctx.algebra.regular, ctx, t.ord, t.coeffs, t.end), a)
                assert type(got) is TruncLaurent, (b.name, ord_, end)
                assert (got.ord, got.end) == (want.ord, want.end), (b.name, ord_, end)
                assert np.array_equal(got.coeffs, want.coeffs), (b.name, ord_, end)


def test_module_windows_take_the_ring_constructors_arguments(f4c5_group, m2f4_inner):
    """VecPoly, VecSeries and VecLaurent take (spec, ctx) and then their
    ring-layer class's arguments, by position or by name; end defaults to
    None (exact) as on CoeffLaurent, and a spec over another algebra is
    refused."""
    ctx = f4c5_group.ctx
    spec = regular_module(ctx.algebra)
    rows = la.eye(spec.n)[:3]
    assert VecPoly(spec, ctx, coeffs=rows) == VecPoly(spec, ctx, rows)
    assert VecSeries(spec, ctx, prec=3, coeffs=rows) == VecSeries(spec, ctx, 3, rows)
    assert VecLaurent(spec, ctx, -1, rows, end=4) == VecLaurent(spec, ctx, -1, rows, 4)
    assert VecLaurent(spec, ctx, -1, rows).end is None
    with pytest.raises(MixedStructureError):
        VecPoly(natural_module(m2f4_inner.restriction), ctx, rows)


def test_vecpoly_times_scalar_on_a_ring_polynomial(all_bundles):
    """vecpoly_times_scalar(f, a) on a SkewPoly f is the product f a."""
    rng = random.Random(89)
    for b in all_bundles:
        ctx = b.ctx
        for _ in range(5):
            f = rand_poly(rng, ctx, 3)
            a = rand_element(rng, ctx.algebra)
            assert vecpoly_times_scalar(f, a) == poly_mul(f, SkewPoly.constant(ctx, a)), b.name


def _module_operands(b, spec):
    """A vector poly, series and Laurent series of b's context over spec, and
    ring ones of the same windows."""
    ctx = b.ctx
    rows = la.zeros((2, spec.n))
    rows[:, 0] = 1
    v = VecPoly(spec, ctx, rows)
    p = SkewPoly.x_power(ctx, 1)
    return {"v": v, "vs": VecSeries.from_poly(v, 6),
            "lv": VecLaurent(spec, ctx, 0, v.coeffs), "p": p,
            "s": TruncSeries.from_poly(p, 6), "l": TruncLaurent(ctx, 0, p.coeffs, None)}


NEEDS_THE_ALGEBRA = {
    "poly_mul": lambda o: poly_mul(o["v"], o["v"]),
    "series_mul": lambda o: series_mul(o["s"], o["vs"]),
    "laurent_mul": lambda o: laurent_mul(o["lv"], o["lv"]),
    "xn_times": lambda o: xn_times(o["v"], 2),
    "xn_times_on_a_series": lambda o: xn_times(o["vs"], 2),
    "xnegn_times": lambda o: xn_times(o["lv"], -2),
    "xinv_times": lambda o: xinv_times(o["lv"]),
    "right_from_left": lambda o: right_from_left(o["v"]),
    "ore_left": lambda o: ore_left(o["v"]),
}


@pytest.mark.parametrize("name", sorted(NEEDS_THE_ALGEBRA))
def test_module_operand_where_the_algebra_is_needed_is_refused(m2f4_inner, module_a, name):
    """The right factor of a product and the operand of X^n, X^{-n}, the
    coefficient conversions and the Ore witness lie over A: module rows gave
    a wrong result of the ring's type, or a numpy shape error."""
    with pytest.raises(MixedStructureError, match="right module F\\^4.*not over the algebra"):
        NEEDS_THE_ALGEBRA[name](_module_operands(m2f4_inner, module_a))


def _exactness_grid(b):
    """P = 1 + E21 X, S = P + O(X^4), L = X + E21 X^2 + O(X^5) and the exact
    Laurent X^2 + E21 X^3 of order 2, on m2f4-inner."""
    ctx, a = b.ctx, b.algebra
    e21 = a.basis_element(4)
    p = SkewPoly.from_elements(ctx, [a.one, e21])
    return {"P": p, "S": TruncSeries.from_poly(p, 4),
            "L": TruncLaurent.from_elements(ctx, 1, [a.one, e21], 5),
            "E2": TruncLaurent(ctx, 2, p.coeffs, None)}


EXACT_ONLY = {"poly_mul": 2, "laurent_mul": 2, "vecpoly_times_scalar": 1,
              "right_from_left": 1, "ore_left": 1}


@pytest.mark.parametrize("name", sorted(EXACT_ONLY))
def test_exact_only_operations_refuse_windows(m2f4_inner, name):
    """Over the grid {P, S, L, E2} (both operands of a product), every cell
    is right against the rewriting product of its operands' stored rows, or
    refused with a PrecisionError naming the window; a cell with a windowed
    operand is never exact.  poly_mul(S, P) died with a TypeError and the
    others read a window as an exact polynomial."""
    ctx = m2f4_inner.ctx
    e21 = m2f4_inner.algebra.basis_element(4)
    grid = _exactness_grid(m2f4_inner)
    for cell in itertools.product(grid, repeat=EXACT_ONLY[name]):
        xs = [grid[k] for k in cell]
        windowed = any(x.end is not None for x in xs)
        # the rows stored from X^0: the completion with a zero tail
        polys = [SkewPoly(ctx, x._window_arr(0, x.support_end)) for x in xs]
        try:
            got = {"poly_mul": poly_mul, "laurent_mul": laurent_mul,
                   "vecpoly_times_scalar": lambda x: vecpoly_times_scalar(x, e21),
                   "right_from_left": right_from_left, "ore_left": ore_left}[name](*xs)
        except PrecisionError as e:
            assert windowed and re.search(r"O\(X\^\d+\)|\[\d+, \d+\)", str(e)), (cell, e)
            continue
        if name == "right_from_left":
            assert not windowed and left_from_right(ctx, got) == polys[0], cell
        elif name == "ore_left":
            xn = SkewPoly.x_power(ctx, got.n)
            assert not windowed and poly_mul_iterative(xn, polys[0]) == got.g.shift(got.k)
        else:
            right = polys[1] if len(polys) == 2 else SkewPoly.constant(ctx, e21)
            assert got.agrees_with(poly_mul_iterative(polys[0], right)), cell
            assert (got.end is not None) == windowed, (cell, got)


def test_ring_classes_do_not_multiply_other_operands(m2f4_inner, module_a):
    """SkewPoly * v gave a SkewPoly and SkewPoly * 3 an AttributeError; the
    ring classes now leave operands they do not multiply to Python.  So does
    an algebra element: f * a and a * f for a ring window f raised a
    ValueError from the field coercion."""
    o = _module_operands(m2f4_inner, module_a)
    o["a"] = m2f4_inner.algebra.basis_element(4)
    for left, right in (("p", "v"), ("s", "vs"), ("l", "lv"), ("p", 3), ("s", 3),
                        ("l", 3), ("p", "s"), ("l", "p"), ("p", "a"), ("a", "p"),
                        ("s", "a"), ("a", "s"), ("l", "a"), ("a", "l")):
        with pytest.raises(TypeError, match="unsupported operand"):
            o[left] * o.get(right, right)
    assert o["p"] * o["p"] == SkewPoly.x_power(m2f4_inner.ctx, 2)


MODULE_PRODUCTS = [("v", "p", poly_mul), ("v", "a", vecpoly_times_scalar),
                   ("vs", "s", vecseries_times_ring), ("vs", "a", veclaurent_times_scalar),
                   ("lv", "l", veclaurent_times_ring), ("lv", "a", veclaurent_times_scalar)]


@pytest.mark.parametrize("left,right,named", MODULE_PRODUCTS,
                         ids=[f"{left}*{right}" for left, right, _ in MODULE_PRODUCTS])
def test_module_operators_are_the_named_products(m2f4_inner, module_a, left, right, named):
    """v * f is the named product for each module class and each right factor
    it takes, a ring element of its own window kind or a scalar; any other
    factor, here an int, is left to Python."""
    o = _module_operands(m2f4_inner, module_a)
    o["a"] = rand_element(random.Random(29), m2f4_inner.ctx.algebra)
    got = o[left] * o[right]
    assert type(got) is type(o[left]) and got == named(o[left], o[right])
    with pytest.raises(TypeError, match="unsupported operand"):
        o[left] * 3


WINDOW_KINDS = ["SkewPoly", "TruncSeries", "TruncLaurent", "VecPoly", "VecSeries",
                "VecLaurent"]


def _window(kind, ctx, spec, ord_, rows, end):
    """The kind's element on the window (ord_, rows, end), where its normal
    form holds one: polynomials take rows from exponent 0 and are exact, and
    series take the window [0, len(rows))."""
    return {"SkewPoly": lambda: SkewPoly(ctx, rows),
            "TruncSeries": lambda: TruncSeries(ctx, rows.shape[0], rows),
            "TruncLaurent": lambda: TruncLaurent(ctx, ord_, rows, end),
            "VecPoly": lambda: VecPoly(spec, ctx, rows),
            "VecSeries": lambda: VecSeries(spec, ctx, rows.shape[0], rows),
            "VecLaurent": lambda: VecLaurent(spec, ctx, ord_, rows, end)}[kind]()


def _coords(c) -> np.ndarray:
    """A coefficient as its coordinate row: ring classes return elements."""
    return getattr(c, "coords", c)


# (kind, order): each ring and module window class, the Laurent ones on
# both sides of X^0
TABLE_WINDOWS = [(kind, ord_) for kind in WINDOW_KINDS
                 for ord_ in ((-1, 1) if kind.endswith("Laurent") else (0,))]
TABLE_OPS = {"poly_mul": poly_mul, "series_mul": series_mul, "laurent_mul": laurent_mul,
             "xn_times(-1)": lambda f: xn_times(f, -1), "xn_times(2)": lambda f: xn_times(f, 2)}
# every refusal a cell may give, with the text that names its cause
TABLE_REFUSALS = {
    PrecisionError: r"is not an exact polynomial",
    RingUnavailableError: r"^(series ring unavailable: delta is not nilpotent"
                          r"|laurent ring unavailable: .+)$",
    MixedStructureError: r"^the (right factor|operand of xn_times) is over "
                         r"<right module F\^\d+ over .+>, not over the algebra$",
    ValueError: r"^order -\d+ < 0: not a (polynomial|power series)$",
}


def _exact_rows(x) -> np.ndarray:
    """x's stored rows from X^0 on: its completion with a zero tail."""
    return x._window_arr(0, x.support_end)


@pytest.mark.parametrize("name", ["m2f4-inner", "m2f4-diag", "fyz-quotient"])
def test_windowed_operations_give_a_result_or_a_named_refusal(name):
    """{poly_mul, series_mul, laurent_mul, X^-1, X^2} over every ring and
    module window class, on a context with both rings, one with neither and
    one with series only: each cell is a result that agrees with the exact
    product of zero-tail completions, or a refusal naming its cause.  On
    m2f4-diag a windowed module product died with a TypeError (m_delta =
    None), and series_mul on a polynomial with an AttributeError."""
    b = load_preset(name)
    ctx = b.ctx
    spec, r = ctx.algebra.regular, ctx.algebra.dim
    rows = la.zeros((2, r))
    rows[:, 0] = 1
    operands = {}
    for kind, ord_ in TABLE_WINDOWS:
        try:
            operands[kind, ord_] = _window(kind, ctx, spec, ord_, rows, ord_ + 4)
        except RingUnavailableError:  # the class needs a ring ctx lacks
            assert kind.startswith("Trunc") and not laurent_ring_exists(ctx).laurent
    seen = set()
    for op, call in TABLE_OPS.items():
        arity = 1 if op.startswith("xn") else 2
        for cell in itertools.product(operands, repeat=arity):
            xs = [operands[k] for k in cell]
            try:
                got = call(*xs)
            except tuple(TABLE_REFUSALS) as e:
                assert re.search(TABLE_REFUSALS[type(e)], str(e)), (op, cell, e)
                seen.add(type(e).__name__)
                continue
            seen.add("result")
            if any(x.ord < 0 for x in xs) or op == "xn_times(-1)":
                continue  # the exact products below are polynomial ones
            if arity == 1:
                want = poly_mul_iterative(SkewPoly.x_power(ctx, 2),
                                          SkewPoly(ctx, _exact_rows(xs[0])))
            else:
                left = (VecPoly(spec, ctx, _exact_rows(xs[0])) if cell[0][0].startswith("Vec")
                        else SkewPoly(ctx, _exact_rows(xs[0])))
                want = poly_mul(left, SkewPoly(ctx, _exact_rows(xs[1])))
            assert got.agrees_with(want), (op, cell, got, want)
    assert {"result", "MixedStructureError", "PrecisionError"} <= seen, seen
    assert ("RingUnavailableError" in seen) == (not laurent_ring_exists(ctx).laurent), seen
    if name == "m2f4-diag":
        # a window meets m_delta only through the series verdict, while an
        # exact scalar action of order >= 0 needs no series ring
        with pytest.raises(RingUnavailableError, match="^series ring unavailable"):
            laurent_mul(VecLaurent(spec, ctx, 1, rows, 5), SkewPoly(ctx, rows))
        with pytest.raises(RingUnavailableError, match="^series ring unavailable"):
            series_mul(VecSeries(spec, ctx, 2, rows), SkewPoly(ctx, rows))
        a = ctx.algebra.basis_element(1)
        got = veclaurent_times_scalar(VecLaurent(spec, ctx, 1, rows), a)
        assert got == VecLaurent(spec, ctx, 0, vecpoly_times_scalar(
            VecPoly(spec, ctx, rows).shift(1), a).coeffs)


@pytest.mark.parametrize("kind", WINDOW_KINDS)
def test_raw_coefficients_outside_the_field_are_refused(m2f4_inner, f4c5_group, kind):
    """Over GF(2) a stored 3 multiplied as 1 but compared unequal to it and a
    stored -1 reached products; over GF(4) a 4 ended in a numpy IndexError."""
    for b, bad in ((m2f4_inner, 3), (m2f4_inner, -1), (f4c5_group, 4)):
        ctx = b.ctx
        spec = regular_module(ctx.algebra)
        arr = la.zeros((2, ctx.algebra.dim))
        arr[0, 0] = 1
        assert _window(kind, ctx, spec, 0, arr, 2).coeffs[0, 0] == 1
        arr[1, 2] = bad
        with pytest.raises(ValueError, match=re.escape(
                f"coefficient entry [1, 2] = {bad} is not an index of {ctx.field!r} in")):
            _window(kind, ctx, spec, 0, arr, 2)


@pytest.mark.parametrize("kind", WINDOW_KINDS)
def test_window_algebra_identities_in_odd_characteristic(odd_fyz_bundles,
                                                         odd_laurent_bundles, kind):
    """a - a = 0 on a's window, (a - b) + b agrees with a, coeff is additive,
    and a shift moves every coefficient, over GF(3) and GF(5): in
    characteristic 2, a - b computed as a + b passed every other test."""
    rng = random.Random(83)
    bundles = odd_laurent_bundles + ([] if kind == "TruncLaurent" else odd_fyz_bundles)
    for b in bundles:
        ctx = b.ctx
        spec = regular_module(ctx.algebra)
        for _ in range(8):
            a, c = (_window(kind, ctx, spec, rng.randrange(-3, 3),
                            rand_coords(rng, ctx.field.q, (rng.randrange(1, 6), spec.n)),
                            rng.choice([None, rng.randrange(7, 10)])) for _ in range(2))
            d = a - a
            assert d.is_zero() and d.end == a.end, b.name
            assert ((a - c) + c).agrees_with(a), b.name
            s = a + c
            hi = s.end if s.end is not None else max(a.support_end, c.support_end) + 1
            for e in range(min(a.ord, c.ord) - 1, hi):
                want = ctx.field.add_arrays(_coords(a.coeff(e)), _coords(c.coeff(e)))
                assert np.array_equal(_coords(s.coeff(e)), want), (b.name, e)
            k = rng.randrange(4)
            moved = a.shift(k)
            for e in range(a.ord - 1, a.support_end):
                assert np.array_equal(_coords(moved.coeff(e + k)), _coords(a.coeff(e)))
            if kind.endswith("Laurent"):
                assert moved.shift(-k) == a == a.shift(-k).shift(k), b.name
            else:
                # down to its order (the first nonzero row, or the end of a
                # zero class) a shift stays in the class; one more names it
                noun = "polynomial" if kind.endswith("Poly") else "power series"
                nz = np.flatnonzero(moved.coeffs.any(axis=1))
                order = int(nz[0]) if nz.size else moved.end
                if order is not None:  # the exact zero polynomial has none
                    assert moved.shift(-order).shift(order) == moved, b.name
                    with pytest.raises(ValueError, match=f"^order -1 < 0: not a {noun}$"):
                        moved.shift(-order - 1)


@pytest.mark.parametrize("kind", WINDOW_KINDS)
def test_reads_below_zero_give_zero_and_reads_from_the_end_raise(m2f4_inner, kind):
    """Below its order a class is known exactly, so a read below 0 of a
    window of order 0 gives 0 (a series refused it); a read at or past the
    end raises, and an exact polynomial reads 0 past its degree."""
    ctx = m2f4_inner.ctx
    spec = regular_module(ctx.algebra)
    rows = rand_coords(random.Random(89), ctx.field.q, (3, spec.n))
    rows[0, 0] = rows[2, 0] = 1
    x = _window(kind, ctx, spec, 0, rows, 3)
    zero = la.zeros(spec.n)
    for e in (-1, -4):
        assert np.array_equal(_coords(x.coeff(e)), zero)
    assert np.array_equal(_coords(x.coeff(2)), rows[2])
    if x.end is None:
        assert np.array_equal(_coords(x.coeff(3)), zero)
    else:
        for e in (3, 5):
            with pytest.raises(PrecisionError,
                               match=re.escape(f"coefficient {e} outside window (end 3)")):
                x.coeff(e)


@pytest.mark.parametrize("kind", ["SkewPoly", "TruncSeries", "TruncLaurent", "VecPoly"])
def test_wide_or_fractional_coefficients_are_refused(m2f4_inner, kind):
    """Input wider than int16 is checked before the cast: an int64 65537 or
    -65535 wrapped to 1 and a float 1.5 truncated to 1, without an error."""
    ctx = m2f4_inner.ctx
    spec = regular_module(ctx.algebra)
    build = {"SkewPoly": lambda a: SkewPoly(ctx, a),
             "TruncSeries": lambda a: TruncSeries(ctx, 2, a),
             "TruncLaurent": lambda a: TruncLaurent(ctx, 0, a, 2),
             "VecPoly": lambda a: VecPoly(spec, ctx, a)}[kind]
    for bad in (np.int64(65537), np.float64(1.5), np.int64(-65535)):
        arr = np.zeros((2, ctx.algebra.dim), dtype=bad.dtype)
        arr[0, 0] = 1
        assert build(arr).coeffs[0, 0] == 1
        arr[1, 2] = bad
        with pytest.raises(ValueError, match=re.escape(
                f"coefficient entry [1, 2] = {bad.item()!r} is not an index of")):
            build(arr)


def test_products_read_only_the_left_rows_that_reach_the_output(monkeypatch, m2f4_inner,
                                                                module_a, f4c5_group,
                                                                module_b):
    """A product with n_out outputs hands coefficient_maps at most reach(n_out)
    left rows, exact left factors included (those were read to the end):
    1 + the last k < n_out m_delta with N_i^k != 0 for some i < n_out, which
    on these commuting contexts is n_out rounded up to a multiple of m_delta
    (m_delta = 2 on m2f4-inner, 4 on f4c5-group), not n_out m_delta."""
    rng = random.Random(62)
    real, seen = skewpoly.coefficient_maps, []

    def spy(space, ctx_, g, taps):
        seen.append(g.shape[0])
        return real(space, ctx_, g, taps)

    monkeypatch.setattr(skewpoly, "coefficient_maps", spy)
    for b, module in ((m2f4_inner, module_a), (f4c5_group, module_b)):
        ctx = b.ctx
        m, r, n = ctx.m_delta, ctx.algebra.dim, module.n

        def rows(length, width):
            arr = rand_coords(rng, ctx.field.q, (length, width))
            arr[0, 0] = arr[-1, 0] = 1
            return arr

        # s supports 10 outputs, t and t_l 2
        p = 10 * m + 1
        s, t = TruncSeries(ctx, p, rows(p, r)), TruncSeries(ctx, 2, rows(2, r))
        t_l = TruncLaurent(ctx, 0, rows(2, r), 2)
        a = rand_element(rng, ctx.algebra)
        cases = [
            (lambda: series_mul(s, t), 2),
            (lambda: veclaurent_times_scalar(s, a), 10),
            (lambda: laurent_mul(TruncLaurent(ctx, 0, rows(20, r), None), t_l), 2),
            (lambda: laurent_mul(TruncLaurent(ctx, 0, rows(p, r), p),
                                 TruncLaurent(ctx, 0, rows(30, r), None)), 10),
            (lambda: vecseries_times_ring(VecSeries(module, ctx, p, rows(p, n)), t), 2),
            (lambda: veclaurent_times_ring(VecLaurent(module, ctx, 0, rows(20, n), None),
                                           t_l), 2),
        ]
        for i, (product, n_out) in enumerate(cases):
            seen.clear()
            out = product()
            assert (out.prec if hasattr(out, "prec") else out.end) == n_out, (b.name, i)
            reach = reach_direct(ctx, n_out, n_out * m)
            assert reach == -(-n_out // m) * m < n_out * m, (b.name, n_out, reach)
            assert seen and max(seen) <= reach, (b.name, i, seen)


@pytest.mark.parametrize("kind", ["SkewPoly", "TruncSeries", "TruncLaurent", "VecPoly"])
def test_constructors_copy_the_callers_array(f4c5_group, kind):
    """Writing to the array a polynomial, series or Laurent series was built
    from leaves it unchanged: SkewPoly and VecPoly kept a view of it."""
    ctx = f4c5_group.ctx
    spec = regular_module(ctx.algebra)
    build = {"SkewPoly": lambda a: SkewPoly(ctx, a),
             "TruncSeries": lambda a: TruncSeries(ctx, 2, a),
             "TruncLaurent": lambda a: TruncLaurent(ctx, 0, a, 2),
             "VecPoly": lambda a: VecPoly(spec, ctx, a)}[kind]
    arr = la.zeros((2, ctx.algebra.dim))
    arr[1, 0] = 1
    f, twin = build(arr), build(arr.copy())
    text, key = str(f), hash(f)
    arr[0, 1], arr[1, 2] = 3, 7
    assert (str(f), hash(f)) == (text, key) and f == twin, str(f)
