"""Truncated skew Laurent series: availability, shuttles, windows."""

import hashlib
import os
import random

import numpy as np
import pytest

from skewcodes import _gflinalg as la
from skewcodes import (SkewPoly, TruncLaurent, TruncSeries, VecLaurent, VecSeries,
                       load_preset, natural_module, regular_module,
                       right_from_left, veclaurent_times_ring,
                       veclaurent_times_scalar, xn_times)
from skewcodes.errors import (MixedStructureError, PrecisionError,
                              RingUnavailableError)
from skewcodes.fields import DTYPE
from skewcodes.skewlaurent import (laurent_mul, laurent_ring_exists,
                                   require_laurent_ring, xinv_times, xnegn_direct)
from conftest import m2_inner_over, rand_coords, rand_element


def rand_laurent(rng, ctx, ord_, length):
    arr = rand_coords(rng, ctx.field.q, (length, ctx.algebra.dim))
    arr[0, 0] = 1
    arr[-1, -1] = 1
    return TruncLaurent(ctx, ord_, arr, ord_ + length)


def test_availability_verdicts(all_bundles):
    expected = {
        "m2f4-inner": (True, True),
        "f4c5-group": (True, True),
        "m2f4-diag": (False, False),
        "fyz-quotient": (True, False),
    }
    for b in all_bundles:
        av = laurent_ring_exists(b.ctx)
        assert (av.series, av.laurent) == expected[b.name], b.name
        lines = av.lines()
        assert lines[0] == "polynomials: yes"
        if not av.series:
            assert av.series_witness and av.series_witness in lines[1]
        if not av.laurent:
            assert av.laurent_witness and av.laurent_witness in lines[2]


def test_failure_witnesses_name_a_culprit(m2f4_diag, fyz_quotient):
    av = laurent_ring_exists(m2f4_diag.ctx)
    assert "!= 0" in av.series_witness
    av2 = laurent_ring_exists(fyz_quotient.ctx)
    assert av2.series and not av2.laurent
    assert "delta'" in av2.laurent_witness


def test_construction_refused_without_laurent_ring(fyz_quotient, m2f4_diag):
    for b in (fyz_quotient, m2f4_diag):
        with pytest.raises(RingUnavailableError):
            TruncLaurent.from_elements(b.ctx, 0, [b.algebra.one], 2)
        with pytest.raises(RingUnavailableError):
            require_laurent_ring(b.ctx)


def test_shuttle_identities(laurent_bundles, odd_laurent_bundles):
    """X(X^{-1}s) = s and X^{-1}(Xs) = s on the surviving window; in odd
    characteristic this checks the sign of delta' = -delta sigma^{-1}."""
    rng = random.Random(41)
    for b in laurent_bundles + odd_laurent_bundles:
        ctx = b.ctx
        mp = ctx.opposite.m_delta
        X = TruncLaurent.from_elements(ctx, 1, [ctx.algebra.one], None)
        for _ in range(30):
            s = rand_laurent(rng, ctx, rng.randrange(-3, 3), 8)
            down_up = laurent_mul(X, xinv_times(s))
            assert down_up.end == s.end - mp
            assert down_up.end > s.ord, "window must survive the round trip"
            assert down_up.agrees_with(s), b.name
            up_down = xinv_times(laurent_mul(X, s))
            assert up_down.end == s.end - mp
            assert up_down.agrees_with(s), b.name


def test_xinv_window_drop(laurent_bundles):
    rng = random.Random(42)
    for b in laurent_bundles:
        ctx = b.ctx
        mp = ctx.opposite.m_delta
        s = rand_laurent(rng, ctx, -2, 8)
        t = xinv_times(s)
        assert t.end == s.end - mp
        assert t.ord >= s.ord - mp
        exact = TruncLaurent.from_elements(ctx, 0, [ctx.algebra.one], None)
        assert xinv_times(exact).end is None


def test_xnegn_direct_equals_iterated(laurent_bundles, odd_laurent_bundles):
    """The closed multinomial expansion, the one product on the opposite's
    table and n chained X^{-1} steps agree, windows too; in odd
    characteristic the sign of delta' = -delta sigma^{-1} shows."""
    rng = random.Random(43)
    for b in laurent_bundles + odd_laurent_bundles:
        ctx = b.ctx
        for _ in range(15):
            s = rand_laurent(rng, ctx, rng.randrange(-2, 3), 10)
            for n in range(6):
                d = xnegn_direct(s, n)
                chained = s
                for _ in range(n):
                    chained = xinv_times(chained)
                for got in (xn_times(s, -n), chained):
                    assert (got.ord, got.end) == (d.ord, d.end), (b.name, n)
                    assert np.array_equal(got.coeffs, d.coeffs), (b.name, n)


def test_xnegn_is_one_product_on_a_warm_table(laurent_bundles, odd_laurent_bundles,
                                              monkeypatch):
    """Once the opposite's table holds its column blocks, X^{-n} is the same
    two kernel calls for every n: one Toeplitz product, one sigma' product."""
    calls = []
    real = la.mat_mul

    def counted(*args):
        calls.append(args[1].shape)
        return real(*args)

    rng = random.Random(61)
    for b in laurent_bundles + odd_laurent_bundles:
        ctx = b.ctx
        s = rand_laurent(rng, ctx, rng.randrange(-2, 3), 10)
        ctx.opposite.ntable.ensure(4 * ctx.opposite.m_delta - 1)
        monkeypatch.setattr(la, "mat_mul", counted)
        counts = []
        for n in range(1, 5):
            calls.clear()
            xn_times(s, -n)
            counts.append(len(calls))
        monkeypatch.setattr(la, "mat_mul", real)
        assert counts == [2] * 4, (b.name, counts)


def test_xn_times_is_the_product_with_x_power(laurent_bundles, odd_laurent_bundles):
    """xn_times(f, n) is laurent_mul(X^n, f) for n = -4..4 on every nonzero
    Laurent window, windowed or exact, of order -3..3; on a zero class it
    drops f's end by n m' below zero and keeps it above, where laurent_mul's
    zero rule exceeds it by floor(n / m_delta)."""
    rng = random.Random(28)
    for b in laurent_bundles + odd_laurent_bundles:
        ctx = b.ctx
        q, r, mp = ctx.field.q, ctx.algebra.dim, ctx.opposite.m_delta
        for _ in range(150):
            ord_, length, n = rng.randrange(-3, 4), rng.randrange(7), rng.randrange(-4, 5)
            end = None if rng.random() < 0.5 else ord_ + length + rng.randrange(3)
            f = TruncLaurent(ctx, ord_, rand_coords(rng, q, (length, r)), end)
            got = xn_times(f, n)
            want = laurent_mul(TruncLaurent.from_elements(ctx, n, [ctx.algebra.one], None), f)
            if f.is_zero():
                drop = n * mp if n < 0 else 0
                gain = n * mp if n < 0 else n // ctx.m_delta
                assert got.is_zero() and got.end == (None if f.end is None
                                                     else f.end + drop), (b.name, f, n)
                assert want.is_zero() and want.end == (None if f.end is None
                                                       else f.end + gain), (b.name, f, n)
            else:
                assert got == want, (b.name, f, n)


def test_xn_times_round_trip_on_exact_windows(laurent_bundles, odd_laurent_bundles):
    """X^{-n} X^n f = f for exact f: on Laurent polynomials of order -3..3
    for n = -4..4, and on polynomials for n = 1..4, which come back in their
    own class.  X^{-k} of a polynomial is its Laurent value where that has
    order >= 0, and is refused naming that value's order below."""
    rng = random.Random(29)
    for b in laurent_bundles + odd_laurent_bundles:
        ctx = b.ctx
        q, r = ctx.field.q, ctx.algebra.dim
        for _ in range(40):
            n = rng.randrange(-4, 5)
            f = TruncLaurent(ctx, rng.randrange(-3, 4),
                             rand_coords(rng, q, (rng.randrange(1, 6), r)), None)
            assert xn_times(xn_times(f, n), -n) == f, (b.name, f, n)
            p = SkewPoly(ctx, rand_coords(rng, q, (rng.randrange(1, 5), r)))
            k = rng.randrange(1, 5)
            assert xn_times(xn_times(p, k), -k) == p, (b.name, p, k)
            lp = xn_times(TruncLaurent(ctx, 0, p.coeffs, None), -k)
            if lp.ord < 0:
                with pytest.raises(ValueError, match=f"^order {lp.ord} < 0: not a polynomial$"):
                    xn_times(p, -k)
            else:
                assert xn_times(p, -k) == SkewPoly(ctx, lp._window_arr(0, lp.support_end))
def test_associativity_on_wide_windows(laurent_bundles):
    sizes = {"m2f4-inner": (24, (-3, -2, -1), 10),
             "f4c5-group": (40, (-1, 0, 1), 4)}
    rng = random.Random(44)
    for b in laurent_bundles:
        L, ords, reps = sizes[b.name]
        ctx = b.ctx
        nontrivial = 0
        for _ in range(reps):
            s = rand_laurent(rng, ctx, ords[0], L)
            t = rand_laurent(rng, ctx, ords[1], L)
            u = rand_laurent(rng, ctx, ords[2], L)
            left = laurent_mul(laurent_mul(s, t), u)
            right = laurent_mul(s, laurent_mul(t, u))
            lo = min(left.ord, right.ord)
            hi = min(left.end, right.end)
            if hi - lo > 0:
                nontrivial += 1
            assert left.agrees_with(right), b.name
        assert nontrivial >= reps // 2, "too many empty common windows"


def test_delta_zero_specializes_to_twisted_rule(f4c5_sigma_only):
    """With delta = 0, s a = sum s_i sigma^i(a) X^i coefficientwise."""
    ctx = f4c5_sigma_only
    rng = random.Random(45)
    for _ in range(20):
        s = rand_laurent(rng, ctx, -4, 8)
        a = rand_element(rng, ctx.algebra)
        const = TruncLaurent.from_elements(ctx, 0, [a], None)
        prod = laurent_mul(s, const)
        for off in range(s.coeffs.shape[0]):
            e = s.ord + off
            twist = a
            if e >= 0:
                for _ in range(e):
                    twist = ctx.sigma(twist)
            else:
                for _ in range(-e):
                    twist = ctx.opposite.sigma(twist)
            want = s.coeff(e) * twist
            assert prod.coeff(e) == want, e


def test_zero_class_normalization(m2f4_inner):
    ctx = m2f4_inner.ctx
    dim = ctx.algebra.dim
    z = TruncLaurent(ctx, -3, np.zeros((4, dim), dtype=np.int16), 5)
    assert z.ord == 5 and z.end == 5 and z.is_zero
    exact0 = TruncLaurent.exact_zero(ctx)
    assert exact0.is_zero and exact0.end is None
    assert z.agrees_with(exact0)


def test_exactness_sentinel(m2f4_inner):
    """A finite end is a window, printed with its O(X^end); end=None means
    exact."""
    ctx = m2f4_inner.ctx
    one = [ctx.algebra.one]
    windowed = TruncLaurent.from_elements(ctx, -1, one, 0)
    assert windowed.end == 0
    assert "O(X^" in str(windowed)
    exact = TruncLaurent.from_elements(ctx, -1, one, None)
    assert exact.end is None
    assert "O(X^" not in str(exact)
    X = TruncLaurent.from_elements(ctx, 1, [ctx.algebra.one], None)
    prod = laurent_mul(exact, X)
    assert prod.end is None
    assert prod == TruncLaurent.from_elements(ctx, 0, one, None)


def test_shift_moves_window(m2f4_inner):
    rng = random.Random(46)
    s = rand_laurent(rng, m2f4_inner.ctx, -2, 6)
    t = s.shift(3)
    assert (t.ord, t.end) == (s.ord + 3, s.end + 3)
    assert np.array_equal(t.coeffs, s.coeffs)
    assert t.shift(-3) == s


def test_mixed_context_rejected(m2f4_inner, f4c5_group):
    s = TruncLaurent.from_elements(m2f4_inner.ctx, 0,
                                   [m2f4_inner.algebra.one], 3)
    t = TruncLaurent.from_elements(f4c5_group.ctx, 0,
                                   [f4c5_group.algebra.one], 3)
    with pytest.raises(MixedStructureError):
        laurent_mul(s, t)


def test_window_end_before_support_rejected(m2f4_inner):
    ctx = m2f4_inner.ctx
    arr = np.zeros((3, ctx.algebra.dim), dtype=np.int16)
    arr[2, 0] = 1
    with pytest.raises(ValueError):
        TruncLaurent(ctx, 0, arr, 2)


def test_reading_past_the_window_raises_precision_error(m2f4_inner):
    """Ring and module classes refuse the same reads with the same error."""
    ctx = m2f4_inner.ctx
    spec = regular_module(m2f4_inner.algebra)
    arr = rand_coords(random.Random(47), ctx.field.q, (3, ctx.algebra.dim))
    for x, series in ((TruncLaurent(ctx, 0, arr, 3), TruncSeries),
                      (VecLaurent(spec, ctx, 0, arr, 3), VecSeries)):
        x.coeff(2)
        with pytest.raises(PrecisionError):
            x.coeff(3)
        assert series.from_laurent(x).prec == 3
        with pytest.raises(PrecisionError):
            series.from_laurent(x).coeff(3)


def test_zero_class_below_zero_is_not_a_power_series(m2f4_inner):
    ctx = m2f4_inner.ctx
    spec = regular_module(m2f4_inner.algebra)
    empty = np.zeros((0, ctx.algebra.dim), dtype=DTYPE)
    for x, series in ((TruncLaurent(ctx, 0, empty, -2), TruncSeries),
                      (VecLaurent(spec, ctx, 0, empty, -2), VecSeries)):
        assert x.is_zero() and x.end == -2
        with pytest.raises(ValueError, match="not a power series"):
            series.from_laurent(x)


# ---- golden digest of the Laurent windows ----

LAURENT_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                              "laurent.txt")


def _rand_operand(rng, new, width, q):
    """A zero, exact or windowed operand of order -4..4 built by new(ord, rows, end)."""
    kind = rng.choice(("zero-exact", "zero-window", "exact", "window", "window"))
    ord_ = rng.randrange(-4, 5)
    if kind == "zero-exact":
        return new(0, np.zeros((0, width), dtype=DTYPE), None)
    if kind == "zero-window":
        return new(0, np.zeros((0, width), dtype=DTYPE), ord_)
    rows = rand_coords(rng, q, (rng.randrange(1, 5), width))
    rows[0, rng.randrange(width)] = rng.randrange(1, q)
    end = None if kind == "exact" else ord_ + rows.shape[0] + rng.randrange(3)
    return new(ord_, rows, end)


def _laurent_line(name, op, t, x):
    if isinstance(x, list):  # right coefficients of a polynomial
        rows = np.stack([a.coords for a in x]) if x else np.zeros((0, 0), dtype=DTYPE)
        window = "ord=0 end=-"
    else:
        rows = x.coeffs
        window = f"ord={x.ord} end={'-' if x.end is None else x.end}"
    digest = hashlib.sha256(f"{rows.shape}".encode() + rows.tobytes()).hexdigest()[:16]
    return f"{name} {op:<23} {t:2d} {window} {digest}"


def laurent_golden_lines(reps: int = 32):
    """Seeded Laurent products, module actions, X^{-n} steps and right
    coefficients on three Laurent contexts, one (ord, end, digest) line each,
    with zero, exact and windowed operands of order -4..4."""
    out = []
    for name in ("m2f4-inner", "f4c5-group", "m2f9-inner"):
        b = m2_inner_over(3) if name == "m2f9-inner" else load_preset(name)
        ctx = b.ctx
        q, r = ctx.field.q, ctx.algebra.dim
        spec = (regular_module(ctx.algebra) if b.restriction is None
                else natural_module(b.restriction))
        rng = random.Random(f"laurent-golden-{name}")

        def ring():
            return _rand_operand(rng, lambda o, c, e: TruncLaurent(ctx, o, c, e), r, q)

        def vec():
            return _rand_operand(rng, lambda o, c, e: VecLaurent(spec, ctx, o, c, e),
                                 spec.n, q)

        for t in range(reps):
            scalar = ctx.algebra.from_coords(rand_coords(rng, q, r))
            poly = SkewPoly(ctx, rand_coords(rng, q, (rng.randrange(1, 8), r)))
            results = [
                ("laurent_mul", laurent_mul(ring(), ring())),
                ("veclaurent_times_ring", veclaurent_times_ring(vec(), ring())),
                ("veclaurent_times_scalar", veclaurent_times_scalar(vec(), scalar)),
                ("xinv_times", xinv_times(ring())),
                ("xnegn_times", xn_times(ring(), -rng.randrange(4))),
                ("right_from_left", right_from_left(poly)),
            ]
            out += [_laurent_line(name, op, t, x) for op, x in results]
    return out


def test_laurent_outputs_match_golden():
    """Regenerate with `PYTHONPATH=src python tests/test_skewlaurent.py >
    tests/golden/laurent.txt`, only when the Laurent outputs are meant to
    change."""
    with open(LAURENT_GOLDEN) as fh:
        expected = fh.read().splitlines()
    got = laurent_golden_lines()
    diff = [f"{a}  !=  {b}" for a, b in zip(got, expected) if a != b]
    assert len(got) == len(expected) and not diff, diff[:5]


if __name__ == "__main__":
    print("\n".join(laurent_golden_lines()))
