"""Truncated skew power series: windows, products, Ore witnesses."""

import random

import numpy as np
import pytest

from skewcodes import (SkewPoly, TruncSeries, VecSeries, poly_mul_iterative,
                       regular_module, xn_times)
from skewcodes import _gflinalg as la
from skewcodes.errors import (MixedStructureError, PrecisionError,
                              RingUnavailableError)
from skewcodes.modact import veclaurent_times_scalar
from skewcodes.skewpoly import x_times_arrays
from skewcodes.skewseries import (_chain_system, kernel_left_x, ore_left,
                                  q_bound, require_series_ring, series_mul,
                                  solve_right_permutable)
from conftest import rand_coords, rand_element
from test_gflinalg import dense_solve


def rand_series(rng, ctx, prec):
    return TruncSeries(ctx, prec,
                       rand_coords(rng, ctx.field.q, (prec, ctx.algebra.dim)))


def test_series_ring_availability(series_bundles, m2f4_diag):
    for b in series_bundles:
        require_series_ring(b.ctx)
        assert b.ctx.m_delta is not None
    with pytest.raises(RingUnavailableError, match="nilpotent"):
        require_series_ring(m2f4_diag.ctx)
    with pytest.raises(RingUnavailableError):
        TruncSeries.from_elements(m2f4_diag.ctx, [m2f4_diag.algebra.one], 3)
    with pytest.raises(RingUnavailableError):
        kernel_left_x(m2f4_diag.ctx, 2)


def test_kernel_left_x_refuses_a_negative_support(series_bundles):
    for b in series_bundles:
        with pytest.raises(ValueError, match="kernel_left_x needs n >= 0"):
            kernel_left_x(b.ctx, -1)
        assert kernel_left_x(b.ctx, 0) == []


def test_q_bound_is_linear_in_window(series_bundles):
    for b in series_bundles:
        m = b.ctx.m_delta
        for n in range(6):
            assert q_bound(b.ctx, n) == (n + 1) * m - 1, b.name


def test_q_independence_of_left_truncation(series_bundles):
    """Extending the left operand past q_bound never changes the product."""
    rng = random.Random(31)
    N = 8
    for b in series_bundles:
        ctx = b.ctx
        q = q_bound(ctx, N)
        for _ in range(25):
            s_long = rand_series(rng, ctx, q + 5)
            s_short = s_long.truncate(q)
            t_long = rand_series(rng, ctx, N + 5)
            t_short = t_long.truncate(N)
            p1 = series_mul(s_short, t_short)
            p2 = series_mul(s_long, t_long).truncate(N)
            assert p1.prec == N == p2.prec
            assert np.array_equal(p1.coeffs, p2.coeffs), b.name


def test_truncated_associativity(series_bundles):
    """(st)u = s(tu) on the window both association orders reach."""
    rng = random.Random(32)
    N = 4
    for b in series_bundles:
        ctx = b.ctx
        m = ctx.m_delta
        for _ in range(20):
            s = rand_series(rng, ctx, N * m * m)
            t = rand_series(rng, ctx, N * m)
            u = rand_series(rng, ctx, N)
            left = (s * t) * u
            right = s * (t * u)
            assert left.prec == N == right.prec, b.name
            assert left == right, b.name


def test_mul_window_accounting(m2f4_inner):
    ctx = m2f4_inner.ctx
    rng = random.Random(33)
    s = rand_series(rng, ctx, 12)
    t = rand_series(rng, ctx, 9)
    assert series_mul(s, t).prec == min(9, 12 // ctx.m_delta)
    with pytest.raises(PrecisionError):
        s.truncate(13)
    with pytest.raises(ValueError):
        s.coeff(12)


def test_mixed_context_product_rejected(m2f4_inner, f4c5_group):
    s = TruncSeries.from_elements(m2f4_inner.ctx, [m2f4_inner.algebra.one], 4)
    t = TruncSeries.from_elements(f4c5_group.ctx, [f4c5_group.algebra.one], 4)
    with pytest.raises(MixedStructureError):
        series_mul(s, t)


def test_scalar_product_matches_constant_series(series_bundles, odd_fyz_bundles,
                                                odd_laurent_bundles):
    """s a is the exact product of s and the constant a on the window the
    q bound allows, s.prec // m_delta coefficients, whatever the tail of s
    past its precision holds (iterative oracle on a longer s)."""
    rng = random.Random(34)
    for b in series_bundles + odd_fyz_bundles + odd_laurent_bundles:
        ctx = b.ctx
        q, r, m = ctx.field.q, ctx.algebra.dim, ctx.m_delta
        for _ in range(12):
            prec = rng.randrange(0, 13)
            longer = rand_coords(rng, q, (prec + 4, r))
            a = rand_element(rng, ctx.algebra)
            got = veclaurent_times_scalar(TruncSeries(ctx, prec, longer[:prec]), a)
            exact = poly_mul_iterative(SkewPoly(ctx, longer), SkewPoly.constant(ctx, a))
            n = prec // m
            assert got.prec == n, b.name
            assert got.agrees_with(TruncSeries.from_poly(exact, n)), b.name


def test_x_times_matches_polynomial_layer(series_bundles):
    """Left multiplication by X agrees with the polynomial commutation rule."""
    rng = random.Random(35)
    for b in series_bundles:
        ctx = b.ctx
        for n in range(4):
            L = rng.randrange(1, 5)
            f = SkewPoly(ctx, rand_coords(rng, ctx.field.q,
                                          (L, ctx.algebra.dim)))
            prec = L + n + 2
            s = TruncSeries.from_poly(f, prec)
            via_series = xn_times(s, n)
            via_poly = TruncSeries.from_poly(xn_times(f, n), prec)
            assert via_series.agrees_with(via_poly), b.name


def test_xn_times_equals_iterated(series_bundles):
    """X^n s off the N-table equals n steps X s = sigma(s) X + delta(s),
    each read off sigma and delta directly; the window is kept."""
    rng = random.Random(36)
    for b in series_bundles:
        s = rand_series(rng, b.ctx, 10)
        step = s
        for n in range(4):
            direct = xn_times(s, n)
            assert direct.prec == step.prec
            assert np.array_equal(direct.coeffs, step.coeffs), b.name
            step = TruncSeries(b.ctx, 10, x_times_arrays(b.ctx, step.coeffs)[:10])


def test_shift_is_right_x_power(series_bundles):
    """shift(n) appends n zero coefficients below: s X^n."""
    rng = random.Random(37)
    for b in series_bundles:
        s = rand_series(rng, b.ctx, 6)
        sh = s.shift(3)
        assert sh.prec == 9
        assert not np.any(sh.coeffs[:3])
        assert np.array_equal(sh.coeffs[3:], s.coeffs)


def ore_holds(w, f):
    """The witness's own verify, and g X^k = X^n f by the rewriting product."""
    xn = SkewPoly.x_power(f.ctx, w.n)
    return w.verify(f) and w.g.shift(w.k) == poly_mul_iterative(xn, f)


def test_ore_left_witness_verifies(series_bundles, odd_fyz_bundles,
                                   odd_laurent_bundles):
    """X^n f = g X^k with n minimal for the constant-term chain, checked
    against the rewriting product as well as the witness's own verify."""
    rng = random.Random(38)
    for b in series_bundles + odd_fyz_bundles + odd_laurent_bundles:
        ctx = b.ctx
        for _ in range(40):
            L = rng.randrange(1, 6)
            f = SkewPoly(ctx, rand_coords(rng, ctx.field.q,
                                          (L, ctx.algebra.dim)))
            w = ore_left(f)
            assert w.k == 1
            assert ore_holds(w, f), b.name
            chain = f.coeff(0)
            for _ in range(w.n):
                prev = chain
                chain = ctx.delta(chain)
            assert chain.is_zero()
            if w.n > 0:
                assert not prev.is_zero()
        f = SkewPoly(ctx, rand_coords(rng, ctx.field.q,
                                      (3, ctx.algebra.dim)))
        w2 = ore_left(f, k=2)
        assert w2.k == 2 and ore_holds(w2, f), b.name


def test_ore_left_refused_when_chain_never_vanishes(m2f4_diag):
    """delta fixes diag(0,a), so no power of X clears that constant term."""
    a = m2f4_diag.algebra
    eigen = a.basis_element(7)
    assert m2f4_diag.ctx.delta(eigen) == eigen
    f = SkewPoly.constant(m2f4_diag.ctx, eigen)
    with pytest.raises(RingUnavailableError, match="chain"):
        ore_left(f)
    ok = SkewPoly.constant(m2f4_diag.ctx, a.basis_element(0))
    w = ore_left(ok)
    assert w.n == 1 and w.verify(ok)


def test_right_permutability_witness(series_bundles):
    """f X^m = X s is solvable, and the witness checks coefficientwise."""
    rng = random.Random(39)
    for b in series_bundles:
        ctx = b.ctx
        for _ in range(15):
            f = rand_series(rng, ctx, 8)
            w = solve_right_permutable(f, 6)
            assert w is not None, b.name
            lhs = f.shift(w.m)
            rhs = xn_times(w.s, 1)
            n = min(lhs.prec, rhs.prec)
            assert n > 0
            assert lhs.agrees_with(rhs), b.name


def test_right_permutability_eliminates_once(series_bundles, monkeypatch):
    """One elimination of the chain system serves every candidate m, and
    the witness is the dense solution with free variables 0.  f = 1 has no
    witness at m = 0 and one at m = 1 on each of these contexts."""
    calls = []
    eliminate = la._eliminate
    monkeypatch.setattr(la, "_eliminate", lambda *a: calls.append(1) or eliminate(*a))
    for b in series_bundles:
        ctx, r = b.ctx, b.ctx.algebra.dim
        one = TruncSeries.from_elements(ctx, [ctx.algebra.one], 5)
        for n_max, m in [(0, None), (3, 1), (8, 1)]:
            calls.clear()
            w = solve_right_permutable(one, n_max)
            assert len(calls) == 1, (b.name, n_max)
            assert (None if w is None else w.m) == m, (b.name, n_max)
        shifted = la.zeros((5, r))
        shifted[1] = ctx.algebra.unit
        x = dense_solve(ctx.field, _chain_system(ctx, 5, 5), shifted.reshape(-1))
        assert np.array_equal(w.s.coeffs, x.reshape(5, r)), b.name


def test_x_has_no_left_kernel_on_series(series_bundles):
    for b in series_bundles:
        for n in range(1, 5):
            assert kernel_left_x(b.ctx, n) == [], b.name


def test_construction_leaves_the_callers_array_alone(m2f4_inner):
    """Series own a copy: the caller's array stays writable, and writing to
    it does not change the series."""
    ctx = m2f4_inner.ctx
    spec = regular_module(m2f4_inner.algebra)
    for make in (lambda arr: TruncSeries(ctx, 3, arr),
                 lambda arr: VecSeries(spec, ctx, 3, arr)):
        arr = rand_coords(random.Random(33), ctx.field.q, (3, ctx.algebra.dim))
        s = make(arr)
        assert arr.flags.writeable and not s.coeffs.flags.writeable
        arr[0, 0] ^= 1
        assert s.coeffs[0, 0] != arr[0, 0]


def test_series_product_kernel_calls_do_not_grow_with_precision(series_bundles,
                                                                 monkeypatch):
    """The batched product makes a fixed number of field-kernel calls, so
    de-batching shows as a count that grows with N on any machine."""
    rng = random.Random(91)
    real = la.mat_mul
    calls = []

    def counting(spec, a, b):
        calls.append(a.shape)
        return real(spec, a, b)

    for b in series_bundles:
        ctx = b.ctx
        ctx.ntable.ensure(32 * ctx.m_delta)  # table growth is not a product call
        counts = []
        for n in (8, 32):
            s = rand_series(rng, ctx, n * ctx.m_delta)
            t = rand_series(rng, ctx, n)
            calls.clear()
            with monkeypatch.context() as mp:
                mp.setattr(la, "mat_mul", counting)
                series_mul(s, t)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0, (b.name, counts)
