"""Cyclic convolutional codes and the ideal-code correspondence."""

import dataclasses
import functools
import hashlib
import os
import random

import numpy as np
import pytest

from skewcodes import load_preset, natural_module
from skewcodes.algebra import (LinearMap, group_algebra_cyclic,
                               quotient_algebra_tn)
from skewcodes.codes import (ConvCodeBasis, code_from_generators,
                             correspondence_roundtrip, cyclic_closure, decode,
                             encode, is_codeword, is_cyclic_submodule,
                             matrix_to_vecpolys, polyrow_to_vecpoly,
                             stable_under_ring_samples, vecpoly_to_polyrow,
                             vecpolys_to_matrix)
from skewcodes.errors import MixedStructureError
from skewcodes.fields import DTYPE, field
from skewcodes import _gflinalg as la, codes, fxlinalg, modact
from skewcodes.fxlinalg import EchelonSolver, Poly, PolyMatrix, closure
from skewcodes.modact import (RightModuleSpec, VecPoly, check_module,
                              regular_module, vecpoly_times_basis,
                              vecpoly_times_scalar)
from skewcodes.skewmap import verify_skew_derivation
from skewcodes.presets import fyz_quotient as fyz_quotient_over
from skewcodes.skewpoly import SkewPoly
from skewcodes.skewseries import TruncSeries
from conftest import m2_inner_over, rand_coords, rand_element


def rand_vecpoly(rng, spec, ctx, maxdeg):
    L = rng.randrange(1, maxdeg + 2)
    return VecPoly(spec, ctx, rand_coords(rng, spec.field.q, (L, spec.n)))


def rand_ring_elem(rng, ctx, maxdeg):
    L = rng.randrange(0, maxdeg + 1) + 1
    return SkewPoly(ctx, rand_coords(rng, ctx.field.q,
                                     (L, ctx.algebra.dim)))


def test_trivial_action_makes_every_submodule_cyclic(f4c5_group):
    rng = random.Random(81)
    A5 = f4c5_group.ctx.algebra
    triv = check_module(RightModuleSpec(
        A5, np.broadcast_to(np.eye(3, dtype=DTYPE), (A5.dim, 3, 3)).copy()))
    for _ in range(10):
        g = vecpolys_to_matrix(triv, [rand_vecpoly(rng, triv, f4c5_group.ctx, 2)
                                      for _ in range(rng.randrange(1, 3))])
        assert is_cyclic_submodule(g, triv, f4c5_group.ctx)


def test_classical_cyclic_block_code_as_degenerate_case():
    """sigma = id, delta = 0 over F4[t]/(t^5 - 1): the ideal (t - 1)."""
    f4 = field(2, 2)
    tn = quotient_algebra_tn(f4, [f4.neg(1), 0, 0, 0, 0, 1])
    ctx = verify_skew_derivation(tn, LinearMap.identity(tn),
                                 LinearMap.zero(tn))
    mod = regular_module(tn)
    gen = tn.basis_element(1) - tn.one
    rows = [VecPoly.from_rows(mod, ctx,
                              (gen * tn.basis_element(i)).coords[None, :])
            for i in range(4)]
    code = code_from_generators(rows, mod, ctx)
    assert code.pure and code.stable and code.rate == (4, 5)
    from_one = cyclic_closure([rows[0]], mod, ctx)
    assert from_one.g == code.g, "one generator must recover the whole ideal"
    assert correspondence_roundtrip(from_one).ok


def test_matrix_unit_row_is_not_cyclic(m2f4_inner):
    spec = regular_module(m2f4_inner.algebra)
    e1 = VecPoly.unit_row(spec, m2f4_inner.ctx, 0)
    g = vecpolys_to_matrix(spec, [e1])
    assert not is_cyclic_submodule(g, spec, m2f4_inner.ctx)
    code = code_from_generators([e1], spec, m2f4_inner.ctx)
    assert not code.stable
    with pytest.raises(ValueError):
        correspondence_roundtrip(code)


def test_cyclic_closure_in_both_acceptance_modules(
        m2f4_inner, f4c5_group, module_a, module_b, odd_fyz_bundles):
    rng = random.Random(82)
    configs = [("natural", module_a, m2f4_inner.ctx, None),
               ("regular", module_b, f4c5_group.ctx, None)]
    for b in odd_fyz_bundles:  # odd characteristic; scaling by y, z shrinks codes
        configs.append((f"fyz{b.ctx.field.p}", regular_module(b.ctx.algebra),
                        b.ctx, b.ctx.algebra.basis()))
    ranks = {}
    for name, spec, ctx, scalars in configs:
        seen = set()
        for trial in range(10):
            gens = [rand_vecpoly(rng, spec, ctx, 2)
                    for _ in range(rng.randrange(1, 3))]
            if scalars:
                gens = [vecpoly_times_scalar(v, scalars[trial % len(scalars)])
                        for v in gens]
            code = cyclic_closure(gens, spec, ctx)
            assert code.pure and code.stable
            assert 0 <= code.k <= code.n
            rep = correspondence_roundtrip(code)
            assert rep.ok, "\n".join(rep.lines())
            samples = [rand_ring_elem(rng, ctx, 3) for _ in range(20)]
            assert stable_under_ring_samples(code, samples)
            for v in gens:
                assert EchelonSolver(code.g).solve(vecpoly_to_polyrow(v)) is not None
            seen.add(code.k)
        ranks[name] = seen
    assert ranks["natural"] == {4}, \
        "the natural module is simple, so nonzero codes are full rate"
    assert any(k < 5 for k in ranks["regular"]), \
        "the regular module admits proper codes"
    for name in ("fyz3", "fyz5"):
        assert any(0 < k < 3 for k in ranks[name]), \
            f"{name}: generators in the radical give proper codes"


def test_code_path_never_calls_smith_form(monkeypatch, m2f4_inner, f4c5_group,
                                         module_a, module_b, odd_fyz_bundles):
    """smith_form is an oracle only: codes and purification run without it."""
    def refuse(g):
        raise AssertionError("smith_form called on the code path")
    monkeypatch.setattr(fxlinalg, "smith_form", refuse)
    rng = random.Random(86)
    fyz3 = odd_fyz_bundles[0]
    for spec, ctx in [(module_a, m2f4_inner.ctx), (module_b, f4c5_group.ctx),
                      (regular_module(fyz3.ctx.algebra), fyz3.ctx)]:
        gens = [rand_vecpoly(rng, spec, ctx, 2) for _ in range(2)]
        code = cyclic_closure(gens, spec, ctx)
        assert code.pure and code.stable and code.k > 0
        assert correspondence_roundtrip(code).ok
        assert code_from_generators(gens, spec, ctx).pure
        assert closure(code.g) == code.g
        fs = spec.field
        msg = [Poly(fs, [rng.randrange(fs.q), 1]) for _ in range(code.k)]
        assert decode(encode(msg, code), code) == msg


def _agrees_with_solver(rng, code, samples):
    """decode, is_codeword and stable_under_ring_samples give the verdicts
    and coordinates of an EchelonSolver of code.g on the zero word, one
    member and, for a proper code, one non-member; returns the stability
    verdict."""
    spec, ctx, fs = code.module, code.context, code.module.field
    solver = EchelonSolver(code.g)
    x = [Poly(fs, [rng.randrange(fs.q) for _ in range(rng.randrange(4))])
         for _ in range(code.k)]
    member = polyrow_to_vecpoly(spec, ctx, (PolyMatrix(fs, [x], code.k) @ code.g).rows[0])
    assert encode(x, code) == member
    words = [VecPoly.zero(spec, ctx), member]
    if code.k < code.n:
        for _ in range(50):
            w = rand_vecpoly(rng, spec, ctx, 3)
            if solver.solve(vecpoly_to_polyrow(w)) is None:
                words.append(w)
                break
        else:
            raise AssertionError("no non-member drawn for a proper code")
    for w in words:
        expected = solver.solve(vecpoly_to_polyrow(w))
        assert decode(w, code) == expected
        assert is_codeword(w, code) == (expected is not None)
    assert decode(member, code) == x
    stable = all(solver.solve(vecpoly_to_polyrow(v * f)) is not None
                 for f in samples for v in code.rows())
    assert stable_under_ring_samples(code, samples) == stable
    return stable


def test_syndrome_former_agrees_with_echelon_solver(
        m2f4_inner, f4c5_group, module_a, module_b, odd_fyz_bundles):
    # the criterion-6 codes: the same draws as test_criterion_6_code_correspondence
    rng = random.Random(601)
    verdicts = []
    for spec, ctx in [(module_a, m2f4_inner.ctx), (module_b, f4c5_group.ctx)]:
        for _ in range(12):
            gens = [VecPoly(spec, ctx, rand_coords(rng, spec.field.q,
                                                   (rng.randrange(1, 4), spec.n)))
                    for _ in range(rng.randrange(1, 3))]
            code = cyclic_closure(gens, spec, ctx)
            samples = [rand_ring_elem(rng, ctx, 3) for _ in range(200)]
            check = random.Random(len(verdicts))
            assert _agrees_with_solver(check, code, samples[:3])
            verdicts.append(_agrees_with_solver(
                check, code_from_generators(gens, spec, ctx), samples[:3]))
    # odd characteristic: generators scaled by 1, y and z
    for b in odd_fyz_bundles:
        spec, ctx = regular_module(b.ctx.algebra), b.ctx
        for scalar in b.ctx.algebra.basis():
            for _ in range(2):
                gens = [vecpoly_times_scalar(rand_vecpoly(rng, spec, ctx, 2), scalar)
                        for _ in range(rng.randrange(1, 3))]
                samples = [rand_ring_elem(rng, ctx, 2) for _ in range(3)]
                assert _agrees_with_solver(rng, cyclic_closure(gens, spec, ctx), samples)
                verdicts.append(_agrees_with_solver(
                    rng, code_from_generators(gens, spec, ctx), samples))
    assert not all(verdicts), "some generated code must be unstable"
    # k = 0 (no rows), k = n (no syndrome columns) and the zero word
    zero = code_from_generators([], module_a, m2f4_inner.ctx)
    full = cyclic_closure([VecPoly.unit_row(module_b, f4c5_group.ctx, 0)],
                          module_b, f4c5_group.ctx)
    assert (zero.k, full.k) == (0, full.n)
    for code in (zero, full):
        assert _agrees_with_solver(rng, code, [rand_ring_elem(rng, code.context, 2)])


def test_code_path_never_calls_echelon_solver(monkeypatch, m2f4_inner, f4c5_group,
                                              module_a, module_b, odd_fyz_bundles):
    """Codes read membership, coordinates and stability off their stored
    transform: the EchelonSolver serves row modules that are not summands."""
    def refuse(self, v):
        raise AssertionError("EchelonSolver.solve called on the code path")
    monkeypatch.setattr(EchelonSolver, "solve", refuse)
    rng = random.Random(87)
    fyz3 = odd_fyz_bundles[0]
    for spec, ctx in [(module_a, m2f4_inner.ctx), (module_b, f4c5_group.ctx),
                      (regular_module(fyz3.ctx.algebra), fyz3.ctx)]:
        gens = [rand_vecpoly(rng, spec, ctx, 2) for _ in range(2)]
        code = cyclic_closure(gens, spec, ctx)
        assert code.pure and code.stable and code.k > 0
        assert correspondence_roundtrip(code).ok
        assert code_from_generators(gens, spec, ctx).pure
        fs = spec.field
        msg = [Poly(fs, [rng.randrange(fs.q), 1]) for _ in range(code.k)]
        word = encode(msg, code)
        assert decode(word, code) == msg and is_codeword(word, code)
        assert stable_under_ring_samples(code, [rand_ring_elem(rng, ctx, 3)
                                                for _ in range(4)])


def test_code_path_creates_no_poly(monkeypatch, m2f4_inner, f4c5_group,
                                   module_a, module_b, odd_fyz_bundles):
    """F[X] matrices on the code path stay coefficient planes: building a
    code makes no Poly, so a per-entry conversion cannot come back unseen."""
    rng = random.Random(88)
    fyz3 = odd_fyz_bundles[0]
    a5, ayz = module_b.algebra, fyz3.ctx.algebra
    sets = []
    for spec, ctx, nonunit in [(module_a, m2f4_inner.ctx, None),
                               (module_b, f4c5_group.ctx, a5.element([1] * 5)),
                               (regular_module(ayz), fyz3.ctx, ayz.basis_element(1))]:
        gens = [rand_vecpoly(rng, spec, ctx, 2) for _ in range(2)]
        sets.append((gens, spec, ctx))
        if nonunit is not None:  # scaled by a non-unit: a proper code
            sets.append(([vecpoly_times_scalar(v, nonunit) for v in gens], spec, ctx))
    made = []
    raw, init = Poly._raw.__func__, Poly.__init__
    monkeypatch.setattr(Poly, "_raw", classmethod(
        lambda cls, *a: made.append("_raw") or raw(cls, *a)))
    monkeypatch.setattr(Poly, "__init__",
                        lambda self, *a: made.append("__init__") or init(self, *a))
    rates = set()
    for gens, spec, ctx in sets:
        code = cyclic_closure(gens, spec, ctx)
        assert code.pure and code.stable
        assert code_from_generators(gens, spec, ctx).pure
        rates.add(0 < code.k < code.n)
    assert made == [] and rates == {False, True}


def test_code_path_skips_predetermined_work(monkeypatch, m2f4_inner, module_a):
    """Work already known is not done: the closure of a rank-n matrix runs
    one elimination, the identity is never packed, and cyclic_closure reads
    its products off the stability test instead of vecpoly_times_basis."""
    eliminations, packed = [], []
    hermite, lanes = fxlinalg._hermite, la._lanes
    monkeypatch.setattr(fxlinalg, "_hermite",
                        lambda *a: eliminations.append(1) or hermite(*a))
    monkeypatch.setattr(la, "_lanes", lambda *a: packed.append(1) or lanes(*a))
    refuse = lambda v: pytest.fail("vecpoly_times_basis on the code path")
    monkeypatch.setattr(codes, "vecpoly_times_basis", refuse)
    monkeypatch.setattr(modact, "vecpoly_times_basis", refuse)
    rng = random.Random(90)
    for name, spec, ctx, scalars in code_configs():
        fs, n = spec.field, spec.n
        one = PolyMatrix.identity(fs, n)
        eliminations.clear()
        packed.clear()
        assert fxlinalg.summand_transform(one) == one and closure(one) == one
        assert packed == [] and len(eliminations) == 2, name
        for _ in range(6):
            gens = rand_generators(rng, spec, ctx, scalars)
            g = vecpolys_to_matrix(spec, gens)
            eliminations.clear()
            c = closure(g)
            assert len(eliminations) == (1 if c.shape[0] == n else 2), name
            full = g.stack(one)  # rank n: one elimination, then I_n
            eliminations.clear()
            assert closure(full) == one and len(eliminations) == 1, name
    # k = 0 and k = n through the code constructors, and rounds that grow
    rounds = []
    for gens in ([], [VecPoly.zero(module_a, m2f4_inner.ctx)],
                 [rand_vecpoly(rng, module_a, m2f4_inner.ctx, 3)]):
        plain = code_from_generators(gens, module_a, m2f4_inner.ctx)
        packed.clear()
        code = cyclic_closure(gens, module_a, m2f4_inner.ctx)
        assert code.k in (0, code.n) and correspondence_roundtrip(code).ok
        rounds.append(plain.k != code.k)
        if code.k == code.n:  # I_n and its transform are already known
            assert packed and code.g == PolyMatrix.identity(module_a.field, 4)
            packed.clear()
            assert correspondence_roundtrip(code).ok and packed == []
    assert rounds == [False, False, True]


def test_cyclic_closure_agrees_with_naive_fixpoint():
    """cyclic_closure against the fixpoint it shortcuts: purify the rows
    and every vecpoly_times_basis product until is_cyclic_submodule (an
    EchelonSolver membership test) holds.  Same g, ut and stability flag,
    and code_from_generators flags stability as is_cyclic_submodule does."""
    rng = random.Random(91)
    sets = [(name, spec, ctx, rand_generators(rng, spec, ctx, scalars))
            for name, spec, ctx, scalars in code_configs() for _ in range(8)]
    # a Piret-style generator e a + f b X over f4c5 (e = 1, f a degree-2
    # idempotent): a stable code of rate 3/5 and degree 2
    _, spec, ctx, _ = code_configs()[2]
    sets.append(("f4c5-piret", spec, ctx,
                 [VecPoly.from_rows(spec, ctx, [[3, 1, 1, 2, 3], [0, 3, 2, 2, 3]])]))
    positive = 0
    for name, spec, ctx, gens in sets:
        g = closure(vecpolys_to_matrix(spec, gens))
        plain_stable = is_cyclic_submodule(g, spec, ctx)
        for _ in range(spec.n + 1):
            if is_cyclic_submodule(g, spec, ctx):
                break
            products = [w for v in matrix_to_vecpolys(spec, ctx, g)
                        for w in vecpoly_times_basis(v)]
            g = closure(g.stack(vecpolys_to_matrix(spec, products)))
        else:
            raise AssertionError("the naive fixpoint did not settle")
        oracle = ConvCodeBasis(g, spec, ctx, True, True)
        code = cyclic_closure(gens, spec, ctx)
        assert (code.g, code.stable) == (oracle.g, True), name
        assert (code.ut is None) == (oracle.ut is None), name
        assert code.ut is None or np.array_equal(code.ut, oracle.ut), name
        assert code_from_generators(gens, spec, ctx).stable == plain_stable, name
        positive += 0 < code.k < code.n and code.g.planes().shape[0] > 1
        if name == "f4c5-piret":
            assert (code.k, code.g.planes().shape[0]) == (3, 3)
    assert positive, "some proper code of positive degree must occur"


def test_decode_refuses_a_word_over_another_module(m2f4_inner, module_a,
                                                   f4c5_sigma_only, module_b):
    """decode and is_codeword, like encode, refuse a word over another
    module or context, even one of the same width."""
    code = cyclic_closure([VecPoly.unit_row(module_a, m2f4_inner.ctx, 0)],
                          module_a, m2f4_inner.ctx)
    assert code.rate == (4, 4)
    m2f9 = m2_inner_over(3)
    spec3 = natural_module(m2f9.restriction)
    assert spec3.n == 4
    words = [VecPoly.from_rows(spec3, m2f9.ctx, [[2, 2, 1, 0]]),
             VecPoly.unit_row(module_b, f4c5_sigma_only, 0)]
    for word in words:
        for read in (decode, is_codeword):
            with pytest.raises(MixedStructureError):
                read(word, code)


def test_code_basis_derives_its_transform_from_g(m2f4_inner, module_a):
    """ut follows from g: a basis built by hand gets the same transform, and
    one that is not a direct summand of full rank gets none, so the read
    side refuses it."""
    ctx, fs = m2f4_inner.ctx, module_a.field
    code = cyclic_closure([rand_vecpoly(random.Random(88), module_a, ctx, 2)],
                          module_a, ctx)
    again = ConvCodeBasis(code.g, module_a, ctx, code.pure, code.stable)
    assert again == code and np.array_equal(again.ut, code.ut)
    assert not again.ut.flags.writeable
    g = PolyMatrix(fs, [[Poly(fs, [0, 1])] + [Poly.zero(fs)] * 3])
    loose = ConvCodeBasis(g, module_a, ctx, False, False)
    assert loose.ut is None
    word = polyrow_to_vecpoly(module_a, ctx, g.rows[0])
    for read in (decode, is_codeword):
        with pytest.raises(ValueError):
            read(word, loose)
    with pytest.raises(ValueError):
        stable_under_ring_samples(loose, [SkewPoly.one(ctx)])


def test_code_basis_refuses_a_basis_its_module_cannot_hold(m2f4_inner, module_a,
                                                          f4c5_group, module_b):
    """A basis of another width than its module made is_codeword die in a
    numpy reshape, and one over another field was taken as it was; a module
    over another algebra than the context is refused as the generators' is.
    A consistent basis still passes dataclasses.replace."""
    ctx = f4c5_group.ctx
    fs = module_b.field
    wide = PolyMatrix(fs, [[Poly.one(fs)] + [Poly.zero(fs)] * 2])
    f2 = field(2)
    other = PolyMatrix(f2, [[Poly.one(f2)] + [Poly.zero(f2)] * (module_b.n - 1)])
    for g, module, message in [(wide, module_b, "another width"),
                               (other, module_b, "another field"),
                               (other, module_a, "module and context algebras")]:
        with pytest.raises(MixedStructureError, match=message):
            ConvCodeBasis(g, module, ctx, True, True)
    code = cyclic_closure([VecPoly.unit_row(module_b, ctx, 0)], module_b, ctx)
    loose = dataclasses.replace(code, pure=False)
    assert (loose.pure, loose.g, loose.ut is not None) == (False, code.g, True)
    with pytest.raises(MixedStructureError, match="module and context algebras"):
        dataclasses.replace(code, context=m2f4_inner.ctx)


def test_all_ones_row_gives_rate_one_fifth(f4c5_group, module_b):
    ctx = f4c5_group.ctx
    ones = VecPoly.from_rows(module_b, ctx,
                             np.ones((1, 5), dtype=DTYPE))
    code = cyclic_closure([ones], module_b, ctx)
    assert code.rate == (1, 5)
    assert code.pure and code.stable


def test_encode_decode_roundtrip(f4c5_group, module_b):
    rng = random.Random(83)
    ctx = f4c5_group.ctx
    code = cyclic_closure([rand_vecpoly(rng, module_b, ctx, 1)],
                          module_b, ctx)
    fs = module_b.field
    for _ in range(30):
        msg = [Poly(fs, [rng.randrange(fs.q)
                         for _ in range(rng.randrange(1, 4))])
               for _ in range(code.k)]
        w = encode(msg, code)
        assert is_codeword(w, code)
        back = decode(w, code)
        assert back is not None
        assert encode(back, code) == w
    with pytest.raises(ValueError):
        encode([Poly.one(fs)] * (code.k + 1), code)


def test_encode_refuses_a_message_over_another_field(f4c5_group, module_b):
    """A message entry over another field is refused, wherever it sits; a
    coefficient list is read over the code's field."""
    ctx, fs = f4c5_group.ctx, module_b.field
    code = cyclic_closure([rand_vecpoly(random.Random(89), module_b, ctx, 1)],
                          module_b, ctx)
    assert code.k >= 2
    for other in (field(2), field(3), field(2, 3)):
        for pos in range(code.k):
            msg = [Poly.one(fs)] * code.k
            msg[pos] = Poly.one(other)
            with pytest.raises(MixedStructureError):
                encode(msg, code)
    lists = [[1, 2], [0, 3]] + [[1]] * (code.k - 2)
    assert encode(lists, code) == encode([Poly(fs, c) for c in lists], code)


def test_decode_rejects_noncodeword(m2f4_inner, module_a):
    rng = random.Random(84)
    ctx = m2f4_inner.ctx
    spec = module_a
    zero = code_from_generators([], spec, ctx)
    v = rand_vecpoly(rng, spec, ctx, 2)
    while v.is_zero():
        v = rand_vecpoly(rng, spec, ctx, 2)
    assert decode(v, zero) is None
    assert not is_codeword(v, zero)


def test_zero_code(m2f4_inner, module_a):
    ctx = m2f4_inner.ctx
    z = code_from_generators([], module_a, ctx)
    assert z.k == 0 and z.pure and z.stable
    assert vecpolys_to_matrix(module_a, []).shape == z.g.shape == (0, 4)
    zz = cyclic_closure([VecPoly.zero(module_a, ctx)], module_a, ctx)
    assert zz.k == 0 and zz.g == z.g
    assert correspondence_roundtrip(zz).lines() == [
        "ok   span-intersect returns the same basis",
        "ok   F[X]-rank equals rational rank (0)",
        "ok   stability re-verified"]
    assert encode([], z).is_zero()


def test_code_lines_report(f4c5_group, module_b):
    ctx = f4c5_group.ctx
    ones = VecPoly.from_rows(module_b, ctx, np.ones((1, 5), dtype=DTYPE))
    code = cyclic_closure([ones], module_b, ctx)
    lines = code.lines()
    assert lines[0] == "rate: 1/5"
    assert lines[1] == "pure (direct summand): yes"
    assert lines[2] == "stable (A-action): yes"
    assert len(lines) == 3 + code.k


def test_stability_agrees_with_sigma_only_oracle(f4c5_group):
    """With delta = 0 the action twists coefficientwise by sigma powers."""
    rng = random.Random(85)
    A5 = f4c5_group.ctx.algebra
    sig = f4c5_group.ctx.sigma
    ctx = verify_skew_derivation(A5, sig, LinearMap.zero(A5))
    spec = regular_module(A5)

    def sigma_only_action(v, a):
        twisted = a
        rows = []
        for i in range(v.coeffs.shape[0]):
            rows.append(spec.act_row(v.coeffs[i], twisted))
            twisted = sig(twisted)
        arr = np.array(rows, dtype=DTYPE) if rows \
            else np.zeros((0, spec.n), dtype=DTYPE)
        return VecPoly(spec, v.ctx, arr)

    def oracle_cyclic(g):
        for v in matrix_to_vecpolys(spec, ctx, g):
            for a in A5.basis():
                w = sigma_only_action(v, a)
                if EchelonSolver(g).solve(vecpoly_to_polyrow(w)) is None:
                    return False
        return True

    ones = VecPoly.from_rows(spec, ctx, np.ones((1, 5), dtype=DTYPE))
    stable = 0
    for trial in range(25):
        gens = [ones] if trial == 0 else [rand_vecpoly(rng, spec, ctx, 2)]
        g = closure(vecpolys_to_matrix(spec, gens))
        lhs = is_cyclic_submodule(g, spec, ctx)
        assert lhs == oracle_cyclic(g)
        stable += lhs
    assert 0 < stable, "the all-ones line is stable"
    for _ in range(25):
        v = rand_vecpoly(rng, spec, ctx, 3)
        a = rand_element(rng, A5)
        assert vecpoly_times_scalar(v, a) == sigma_only_action(v, a)


def test_mixed_context_rejected(m2f4_inner, f4c5_group, f4c5_sigma_only,
                                module_a, module_b):
    v = VecPoly.unit_row(module_a, m2f4_inner.ctx, 0)
    with pytest.raises(MixedStructureError):
        code_from_generators([v], module_b, f4c5_group.ctx)
    # same algebra and width, but another module or context than the one given
    A5, n = f4c5_group.ctx.algebra, module_b.n
    triv = check_module(RightModuleSpec(
        A5, np.broadcast_to(np.eye(n, dtype=DTYPE), (A5.dim, n, n)).copy()))
    u = VecPoly.unit_row(module_b, f4c5_group.ctx, 0)
    for build, gen in ((code_from_generators,
                        VecPoly.unit_row(triv, f4c5_group.ctx, 0)),
                       (cyclic_closure,
                        VecPoly.unit_row(module_b, f4c5_sigma_only, 0))):
        for gens in ([gen], [u, gen]):
            with pytest.raises(MixedStructureError):
                build(gens, module_b, f4c5_group.ctx)
    code = code_from_generators([v], module_a, m2f4_inner.ctx)
    with pytest.raises(MixedStructureError):
        stable_under_ring_samples(code, [SkewPoly.one(f4c5_group.ctx)])


def test_ring_samples_must_be_skew_polynomials(f4c5_group, module_b):
    """A series was read as the polynomial of its stored window, and a vector
    polynomial over the regular module as a ring element; both are refused,
    as is an algebra element, which has no context."""
    ctx = f4c5_group.ctx
    code = cyclic_closure([VecPoly.unit_row(module_b, ctx, 0)], module_b, ctx)
    x = SkewPoly.x_power(ctx, 1)
    assert stable_under_ring_samples(code, [x])
    for sample in (TruncSeries.from_poly(x, 3), VecPoly.unit_row(module_b, ctx, 1),
                   ctx.algebra.one):
        with pytest.raises(TypeError, match="ring samples must be skew polynomials"):
            stable_under_ring_samples(code, [x, sample])


# ---- seeded generator sets over the code modules ----

@functools.lru_cache(maxsize=None)
def code_configs():
    """(name, module, context, scalars) for the modules the code tests draw
    on: the natural modules of m2f4-inner and its GF(3) analogue, the
    regular f4c5 module scaled by e0 = sum g^i and by 1 + e0, and the
    regular fyz modules over GF(3) and GF(5) scaled by the nilpotents."""
    m2f4, f4c5 = load_preset("m2f4-inner"), load_preset("f4c5-group")
    m2f9 = m2_inner_over(3)
    a5 = f4c5.ctx.algebra
    out = [("m2f4", natural_module(m2f4.restriction), m2f4.ctx, ()),
           ("m2f9", natural_module(m2f9.restriction), m2f9.ctx, ()),
           ("f4c5e0", regular_module(a5), f4c5.ctx, (a5.element([1] * 5),)),
           ("f4c5e1", regular_module(a5), f4c5.ctx, (a5.element([0, 1, 1, 1, 1]),))]
    for p in (3, 5):
        fyz = fyz_quotient_over(p).ctx
        ayz = fyz.algebra
        out.append((f"fyz{p}", regular_module(ayz), fyz,
                    (ayz.basis_element(1), ayz.basis_element(2),
                     ayz.element([0, 1, 1]))))
    return tuple(out)


def rand_generators(rng, spec, ctx, scalars, maxdeg=3):
    """One to three generators of degree <= maxdeg, each times a scalar
    drawn from scalars when there are any."""
    gens = [rand_vecpoly(rng, spec, ctx, maxdeg) for _ in range(rng.randrange(1, 4))]
    if scalars:
        gens = [vecpoly_times_scalar(v, rng.choice(scalars)) for v in gens]
    return gens


# ---- golden digest of the code constructions ----

CODES_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                            "codes.txt")


def _code_digest(code):
    """The g planes (shape and bytes), ut bytes and the two flags."""
    p, ut = code.g.planes(), code.ut
    g = hashlib.sha256(f"{p.shape}".encode() + p.tobytes()).hexdigest()[:16]
    u = "-" if ut is None else \
        hashlib.sha256(f"{ut.shape}".encode() + ut.tobytes()).hexdigest()[:16]
    return (f"k={code.k} D={p.shape[0]} G={g} UT={u} "
            f"pure={int(code.pure)} stable={int(code.stable)}")


def codes_golden_lines():
    """One line per seeded generator set, 30 on each module of code_configs:
    the cyclic closure, its correspondence round-trip report and the plain
    purification (code_from_generators).  All are canonical, so every
    correct implementation prints the same lines."""
    out = []
    for name, spec, ctx, scalars in code_configs():
        rng = random.Random(f"codes-golden-{name}")
        for t in range(30):
            gens = rand_generators(rng, spec, ctx, scalars)
            code = cyclic_closure(gens, spec, ctx)
            report = " / ".join(correspondence_roundtrip(code).lines())
            out.append(f"{name} {t:2d} cyclic {_code_digest(code)} | {report}")
            out.append(f"{name} {t:2d} plain  "
                       f"{_code_digest(code_from_generators(gens, spec, ctx))}")
    return out


def test_code_outputs_match_golden():
    """Regenerate with `PYTHONPATH=src python tests/test_codes.py >
    tests/golden/codes.txt`, only when the canonical outputs are meant to
    change."""
    with open(CODES_GOLDEN) as fh:
        expected = fh.read().splitlines()
    got = codes_golden_lines()
    diff = [f"{a}  !=  {b}" for a, b in zip(got, expected) if a != b]
    assert len(got) == len(expected) and not diff, diff[:5]


if __name__ == "__main__":
    print("\n".join(codes_golden_lines()))
