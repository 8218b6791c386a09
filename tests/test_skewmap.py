"""(sigma, delta) verification, the mirror derivation and the N-operators."""

import random
import re
import sys
import threading

import numpy as np
import pytest

from skewcodes import (LinearMap, SkewPoly, field, group_algebra_cyclic,
                       inner_derivation, load_preset, matrix_algebra, module_verify,
                       n_operator, natural_module, nilpotency_index, poly_mul,
                       poly_mul_iterative, quotient_algebra_yz, regular_module,
                       right_from_left, verify_algebra, verify_skew_derivation)
from skewcodes import _gflinalg as la
from skewcodes import algebra, modact, skewmap
from skewcodes.errors import AxiomError, MixedStructureError
from skewcodes.fields import DTYPE, FieldSpec
from skewcodes.presets import PRESETS
from skewcodes.skewmap import NOperatorTable
from conftest import rand_coords
from oracles import reach_direct


def test_presets_build_and_report_nilpotency(all_bundles):
    want = {
        "m2f4-inner": (2, 2),
        "f4c5-group": (4, 4),
        "m2f4-diag": (None, None),
        "fyz-quotient": (2, None),
    }
    for b in all_bundles:
        md, mdp = want[b.name]
        assert b.ctx.m_delta == md, b.name
        assert b.ctx.opposite.m_delta == mdp, b.name


def test_delta_prime_is_minus_delta_sigma_inverse(all_bundles):
    """The opposite's maps are sigma' = sigma^{-1} and delta' = -delta
    sigma^{-1}; they act on A^op, so they are moved onto A by matrix."""
    for b in all_bundles:
        ctx, sigma_inv = b.ctx, b.ctx.sigma.inverse()
        sigma_p = LinearMap(ctx.algebra, ctx.opposite.sigma.matrix)
        delta_p = LinearMap(ctx.algebra, ctx.opposite.delta.matrix)
        assert sigma_p == sigma_inv, b.name
        assert delta_p == -(ctx.delta @ sigma_inv), b.name
        # and delta = -delta' sigma, the mirrored identity
        assert (-(delta_p @ ctx.sigma)) == ctx.delta


def test_fyz_delta_prime_fixes_y(fyz_quotient):
    """A is commutative here, so A^op == A and y is an element of both."""
    ctx = fyz_quotient.ctx
    one, y, z = ctx.algebra.basis()
    assert ctx.opposite.algebra == ctx.algebra
    assert ctx.opposite.delta(y) == y
    assert nilpotency_index(ctx.opposite.delta) is None


def test_equality_is_structural():
    """Equality of fields, algebras, maps, contexts and modules checks
    identity first but stays structural: separately built equal objects
    compare equal with equal hashes, and a context differing only in delta
    does not."""
    a, b = load_preset("m2f4-inner"), load_preset("m2f4-inner")
    pairs = [(FieldSpec(2, 2), field(2, 2)), (a.ctx.algebra, b.ctx.algebra),
             (a.ctx.sigma, b.ctx.sigma), (a.ctx.delta, b.ctx.delta), (a.ctx, b.ctx),
             (natural_module(a.restriction), natural_module(b.restriction))]
    for x, y in pairs:
        assert x is not y and x == y and hash(x) == hash(y), type(x)
    alg = a.ctx.algebra
    plain = verify_skew_derivation(alg, a.ctx.sigma, LinearMap.zero(alg))
    assert plain != a.ctx and plain.sigma == a.ctx.sigma and plain.algebra is alg


def test_rejects_non_multiplicative_sigma():
    a = quotient_algebra_yz(field(2))
    one, y, z = a.basis()
    bad = LinearMap.from_images(a, [one, one + y, z])  # sigma(y) has a unit part
    with pytest.raises(AxiomError):
        verify_skew_derivation(a, bad, LinearMap.zero(a))


def test_rejects_broken_derivation():
    a = matrix_algebra(field(2), 2)
    # delta = transpose is additive but fails the twisted Leibniz rule
    images = [a.basis_element([0, 2, 1, 3][i]) for i in range(4)]
    bad = LinearMap.from_images(a, images)
    with pytest.raises(AxiomError):
        verify_skew_derivation(a, LinearMap.identity(a), bad)


def test_n_operator_recursion(all_bundles):
    for b in all_bundles:
        ctx = b.ctx
        spec = ctx.field
        table = ctx.ntable
        table.ensure(6)
        for n in range(6):
            for i in range(n + 2):
                lhs = table.matrix(i, n + 1)
                prev_lo = table.matrix(i - 1, n) if 1 <= i <= n + 1 else None
                prev_hi = table.matrix(i, n) if i <= n else None
                acc = la.zeros((ctx.algebra.dim, ctx.algebra.dim))
                if prev_lo is not None:
                    acc = spec.add_arrays(acc, la.mat_mul(spec, ctx.sigma.matrix, prev_lo))
                if prev_hi is not None:
                    acc = spec.add_arrays(acc, la.mat_mul(spec, ctx.delta.matrix, prev_hi))
                assert np.array_equal(lhs, acc), (b.name, i, n)


def test_n_operator_boundary_cases(all_bundles):
    for b in all_bundles:
        ctx = b.ctx
        spec = ctx.field
        table = ctx.ntable
        table.ensure(5)
        sig_pow = la.eye(ctx.algebra.dim)
        del_pow = la.eye(ctx.algebra.dim)
        for n in range(6):
            assert np.array_equal(table.matrix(n, n), sig_pow), b.name
            assert np.array_equal(table.matrix(0, n), del_pow), b.name
            sig_pow = la.mat_mul(spec, ctx.sigma.matrix, sig_pow)
            del_pow = la.mat_mul(spec, ctx.delta.matrix, del_pow)


def test_n_operator_vanishing_band(series_bundles):
    """N_i^j = 0 once j >= (i+1) m, the pigeonhole bound behind truncation."""
    for b in series_bundles:
        ctx = b.ctx
        m = ctx.m_delta
        table = ctx.ntable
        hi = 3 * m + 2
        table.ensure(hi)
        for i in range(3):
            for j in range((i + 1) * m, hi + 1):
                assert not table.matrix(i, j).any(), (b.name, i, j)


def test_reach_is_the_last_column_block_an_output_reads(monkeypatch, all_bundles,
                                                        odd_laurent_bundles, odd_fyz_bundles):
    """reach(N, depth) = 1 + max{k < depth : N_i^k != 0 for some i < N}, or 0,
    against n_operator one matrix at a time, at depth N m_delta and below
    (m2f4-diag has no m_delta: depths up to 2N there), reach(0, d) = 0
    included; asked again, it answers without reading the table."""
    seen = {}
    for b in [*all_bundles, *odd_laurent_bundles, *odd_fyz_bundles]:
        ctx = b.ctx
        m = ctx.m_delta or 2
        for n in (0, 1, 2, 3, 8):
            for depth in {n * m, n * m - 1, n}:
                want = reach_direct(ctx, n, depth)
                assert ctx.ntable.reach(n, depth) == want, (b.name, n, depth)
                seen[ctx.ntable, n, depth] = want

    def unread(self, n):
        raise AssertionError("reach read the table for a cached argument")

    monkeypatch.setattr(NOperatorTable, "stacked", unread)
    for (table, n, depth), want in seen.items():
        assert table.reach(n, depth) == want, (n, depth)


def test_n_operator_helper_matches_table(m2f4_inner):
    ctx = m2f4_inner.ctx
    ctx.ntable.ensure(4)
    for n in range(5):
        for i in range(n + 1):
            assert n_operator(ctx, i, n).matrix is not None
            assert np.array_equal(n_operator(ctx, i, n).matrix,
                                  ctx.ntable.matrix(i, n))


def test_sigma_must_fix_unit():
    a = quotient_algebra_yz(field(2))
    one, y, z = a.basis()
    bad = LinearMap.from_images(a, [one + y, y, z])
    with pytest.raises(AxiomError):
        verify_skew_derivation(a, bad, LinearMap.zero(a))


def test_non_invertible_sigma_is_allowed_without_mirror():
    a = quotient_algebra_yz(field(2))
    one, y, z = a.basis()
    sigma = LinearMap.from_images(a, [one, a.zero, a.zero])  # kills the radical
    ctx = verify_skew_derivation(a, sigma, LinearMap.zero(a))
    assert ctx.opposite is None
    with pytest.raises(AxiomError):
        ctx.xinv_maps()


def _recurrence_entries(sigma, delta, n_max):
    """N_i^n of the pair entry by entry from the recurrence, with
    lookup-table products."""
    from test_gflinalg import table_mat_mul
    spec, r = sigma.algebra.field, sigma.algebra.dim
    zero = la.zeros((r, r))
    rows = [[la.eye(r)]]
    for n in range(n_max):
        prev = rows[-1]
        rows.append([spec.add_arrays(
            table_mat_mul(spec, sigma.matrix, prev[i - 1] if i else zero),
            table_mat_mul(spec, delta.matrix, prev[i] if i <= n else zero))
            for i in range(n + 2)])
    return rows


def _assert_table_matches(table, want, n, name):
    stack = table.rows(n)
    for k in range(n + 1):
        for i in range(n + 1):
            expect = want[k][i] if i <= k else la.zeros(stack.shape[2:])
            assert np.array_equal(stack[k, i], expect), (name, k, i)


def test_stacked_table_built_in_steps_matches_recurrence(series_bundles, odd_fyz_bundles,
                                                         odd_laurent_bundles):
    """Steps that grow the storage to capacity 3, double it twice, extend it
    in place and grow it to fit, in characteristic 2, 3 and 5."""
    for b in series_bundles + odd_fyz_bundles + odd_laurent_bundles[1:]:
        table = NOperatorTable(b.ctx.sigma, b.ctx.delta)
        want = _recurrence_entries(b.ctx.sigma, b.ctx.delta, 64)
        for n in (3, 5, 10, 11, 64):
            table.ensure(n)
            assert table.n_max == n
            _assert_table_matches(table, want, n, b.name)


def test_right_hand_table_matches_recurrence(all_bundles, odd_fyz_bundles,
                                             odd_laurent_bundles):
    """ctx.opposite.ntable is the table of (sigma^{-1}, -delta sigma^{-1}),
    in characteristic 2, 3 and 5, and there is no opposite exactly when
    sigma is not invertible."""
    for b in all_bundles + odd_fyz_bundles + odd_laurent_bundles:
        ctx, sigma_inv = b.ctx, b.ctx.sigma.inverse()
        want = _recurrence_entries(sigma_inv, -(ctx.delta @ sigma_inv), 12)
        _assert_table_matches(ctx.opposite.ntable, want, 12, b.name)
    a = quotient_algebra_yz(field(2))
    sigma = LinearMap.from_images(a, [a.one, a.zero, a.zero])
    assert verify_skew_derivation(a, sigma, LinearMap.zero(a)).opposite is None


def _as_opposite(f):
    """phi(f): the right coefficients of f read as left coefficients over the
    opposite context (the same coordinates, in A^op)."""
    op = f.ctx.opposite
    return SkewPoly.from_elements(op, [op.algebra.from_coords(c.coords)
                                       for c in right_from_left(f)])


def test_opposite_context_is_the_opposite_ring(all_bundles, odd_laurent_bundles,
                                               odd_fyz_bundles):
    """R^op = A^op[X; sigma^{-1}, -delta sigma^{-1}]: phi(f g) = phi(g) phi(f).
    A^op is A's structure tensor with its first two axes swapped (so A^op !=
    A on the matrix contexts), and the opposite of the opposite is the
    context itself.  In odd characteristic the sign of delta' shows."""
    rng = random.Random(71)
    for b in all_bundles + odd_laurent_bundles + odd_fyz_bundles:
        ctx, op = b.ctx, b.ctx.opposite
        a, a_op = ctx.algebra, op.algebra
        assert op.opposite is ctx, b.name
        assert np.array_equal(a_op.tensor, a.tensor.transpose(1, 0, 2)), b.name
        assert (a_op.field, a_op.labels, a_op.meta) == (a.field, a.labels, a.meta)
        assert np.array_equal(a_op.unit, a.unit)
        assert (a_op != a) == b.name.startswith("m2f"), b.name  # M2 is not commutative
        for _ in range(20):
            f, g = (SkewPoly(ctx, rand_coords(rng, ctx.field.q, (rng.randrange(1, 5), a.dim)))
                    for _ in range(2))
            assert _as_opposite(poly_mul(f, g)) == poly_mul(_as_opposite(g),
                                                             _as_opposite(f)), b.name


def test_opposite_is_built_on_first_access_only(monkeypatch):
    """Building a context inverts nothing; the first ctx.opposite inverts
    sigma once and a second access reuses it."""
    real = LinearMap.inverse

    def refuse(m):
        raise AssertionError("sigma inverted while building a context")

    monkeypatch.setattr(LinearMap, "inverse", refuse)
    bundles = [load_preset(name) for name in PRESETS]
    calls = []
    monkeypatch.setattr(LinearMap, "inverse", lambda m: calls.append(m) or real(m))
    for b in bundles:
        calls.clear()
        op = b.ctx.opposite
        assert op is not None and calls == [b.ctx.sigma], b.name
        calls.clear()
        assert b.ctx.opposite is op and calls == [], b.name


def _assert_derived_algebra(a, name):
    """a passes the algebra check it skipped, and its regular module passes
    the module check and equals the one that check builds."""
    assert verify_algebra(a).ok, name
    assert module_verify(a.regular).ok, name
    fresh = algebra.Algebra(a.field, a.tensor, a.unit, a.labels, a.meta)
    assert a.regular == fresh.regular, name


def test_derived_structures_pass_the_checks_they_skip(all_bundles, odd_laurent_bundles,
                                                     odd_fyz_bundles):
    """A.regular is built without check_module, and ctx.opposite without
    verify_skew_derivation; A^op and a scalar restriction take their
    regular modules from their source's check.  The checks, run here as
    oracles, accept them all."""
    for b in all_bundles + odd_laurent_bundles + odd_fyz_bundles:
        ctx = b.ctx
        assert module_verify(ctx.algebra.regular).ok, b.name
        op = ctx.opposite
        if op is not None:
            _assert_derived_algebra(op.algebra, b.name)
            assert verify_skew_derivation(op.algebra, op.sigma, op.delta) == op, b.name
        if b.restriction is not None:
            _assert_derived_algebra(b.restriction.algebra, b.name)


def test_derived_algebras_are_not_reverified(monkeypatch):
    """The first ring element over ctx.opposite, and restricting a verified
    parent, run no algebra check: A^op and the restriction take their
    regular modules from A's and the parent's."""
    a = matrix_algebra(field(3, 2), 2)
    ctx = verify_skew_derivation(a, LinearMap.identity(a), LinearMap.zero(a))
    calls = []
    real = algebra.verify_algebra
    monkeypatch.setattr(algebra, "verify_algebra",
                        lambda x: calls.append(x) or real(x))
    assert SkewPoly.one(ctx.opposite).space is ctx.opposite.algebra.regular
    res = algebra.ScalarRestriction(a)
    assert SkewPoly.one(verify_skew_derivation(
        res.algebra, res.frobenius(), LinearMap.zero(res.algebra))).degree == 0
    assert calls == []


def test_raw_broken_algebra_is_refused_by_its_derived_algebras():
    """A raw non-associative algebra is refused at its first ctx.opposite,
    and as the parent of a scalar restriction, with its first failure."""
    good = matrix_algebra(field(2, 2), 2)
    tensor = good.tensor.copy()
    tensor[1, 2, 0] ^= 1  # corrupt E12 * E21
    bad = algebra.Algebra(good.field, tensor, good.unit, good.labels, good.meta)
    msg = re.escape(verify_algebra(bad).failures[0])
    ctx = verify_skew_derivation(bad, LinearMap.identity(bad), LinearMap.zero(bad))
    with pytest.raises(AxiomError, match=msg):
        ctx.opposite
    with pytest.raises(AxiomError, match=msg):
        algebra.ScalarRestriction(bad)


def test_each_algebra_is_verified_once(monkeypatch):
    """Building an algebra, a context on it, its first product,
    regular_module(A) and ctx.opposite run verify_algebra once and no other
    check: the regular module comes out of that run, and the opposite
    context is derived from this one."""
    calls = []
    for module, name in [(algebra, "verify_algebra"), (modact, "module_verify"),
                         (skewmap, "verify_skew_derivation")]:
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, name=name, real=real: calls.append(name) or real(*args))
    a = group_algebra_cyclic(field(2, 2), 5)
    sigma = LinearMap.from_images(a, [a.basis_element(2 * i % 5) for i in range(5)])
    ctx = verify_skew_derivation(a, sigma, inner_derivation(a, sigma, a.basis_element(1)))
    f = SkewPoly.x_power(ctx, 1) * SkewPoly.constant(ctx, a.basis_element(1))
    spaces = [f.space, regular_module(a)]
    assert ctx.opposite is not None
    assert calls == ["verify_algebra"]
    assert spaces[0] is spaces[1] is a.regular


def test_table_refuses_maps_on_different_algebras(m2f4_inner, f4c5_group):
    with pytest.raises(MixedStructureError):
        NOperatorTable(m2f4_inner.ctx.sigma, f4c5_group.ctx.delta)


def test_table_memory_is_read_only(f4c5_group):
    """Callers get read-only views: writing through one cannot change later
    products."""
    ctx = f4c5_group.ctx
    m = ctx.ntable.matrix(1, 2)
    with pytest.raises(ValueError):
        m ^= 1
    with pytest.raises(ValueError):
        ctx.ntable.rows(4)[2, 1, 0, 0] = 1
    assert not n_operator(ctx, 1, 2).matrix.flags.writeable
    ctx.ntable.ensure(ctx.ntable.n_max + 3)  # growth keeps the memo read-only
    with pytest.raises(ValueError):
        ctx.ntable.matrix(1, 2)[0, 0] = 1
    rng = np.random.default_rng(7)
    for _ in range(5):
        g = SkewPoly(ctx, rng.integers(0, 4, (4, 5)).astype(DTYPE))
        f = SkewPoly(ctx, rng.integers(0, 4, (3, 5)).astype(DTYPE))
        assert poly_mul(g, f) == poly_mul_iterative(g, f)


def test_table_refuses_sizes_over_its_budget(m2f4_inner):
    table = NOperatorTable(m2f4_inner.ctx.sigma, m2f4_inner.ctx.delta)
    with pytest.raises(ValueError, match="exceeds the limit"):
        table.ensure(table.max_n + 1)
    assert table.n_max == 0


def test_concurrent_ensure_and_matrix_agree_with_one_thread(f4c5_group):
    """Threads race to extend fresh tables row by row while reading the
    newest entries; every read must equal the table built on one thread."""
    ctx = f4c5_group.ctx
    ref = NOperatorTable(ctx.sigma, ctx.delta)
    ref.ensure(40)
    errors = []

    def worker(table, seed):
        rng = np.random.default_rng(seed)
        try:
            for n in range(41):
                i = int(rng.integers(0, n + 1))
                if not np.array_equal(table.matrix(n, n), ref.matrix(n, n)) \
                        or not np.array_equal(table.matrix(i, n), ref.matrix(i, n)):
                    errors.append((n, i))
        except Exception as e:  # surfaced by the assertion below
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(25):
            table = NOperatorTable(ctx.sigma, ctx.delta)
            threads = [threading.Thread(target=worker, args=(table, 4 * round_ + s))
                       for s in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert table.n_max == 40 and np.array_equal(table.rows(40), ref.rows(40))
    finally:
        sys.setswitchinterval(old)
    assert errors == []
