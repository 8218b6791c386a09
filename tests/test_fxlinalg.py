"""Commutative F[X] layer: Hermite, Smith, membership, closure."""

import hashlib
import itertools
import os
import random

import numpy as np
import pytest

from skewcodes.fields import FieldSpec, field
from skewcodes.fxlinalg import (EchelonSolver, Poly, PolyMatrix, _hermite, closure,
                                det_poly, hermite_form, hermite_pivots,
                                is_direct_summand, is_unimodular, rank,
                                rank_rational, smith_form)

F2 = field(2)
F4 = field(2, 2)
F3 = field(3)
F5 = field(5)
F9 = field(3, 2)


def spans(g, h):
    """Every row of h lies in the row module of g."""
    solver = EchelonSolver(g)
    return all(solver.solve(row) is not None for row in h.rows)


def rand_poly(rng, fs, maxdeg):
    d = rng.randrange(-1, maxdeg + 1)
    if d < 0:
        return Poly.zero(fs)
    c = [rng.randrange(fs.q) for _ in range(d)] + [rng.randrange(1, fs.q)]
    return Poly(fs, c)


def rand_matrix(rng, fs, k, n, maxdeg):
    return PolyMatrix(fs, [[rand_poly(rng, fs, maxdeg) for _ in range(n)]
                           for _ in range(k)], n)


def combine(fs, xs, g):
    """Row vector xs (length k) times the k x n matrix g."""
    n = g.shape[1]
    v = [Poly.zero(fs)] * n
    for i, x in enumerate(xs):
        for j in range(n):
            v[j] = v[j] + x * g.rows[i][j]
    return v


@pytest.mark.parametrize("fs", [F2, F4, F3, F5, F9], ids=["F2", "F4", "F3", "F5", "F9"])
def test_poly_arithmetic(fs):
    """Ring laws and division with remainder, by non-unit and unit divisors;
    odd characteristic shows a dropped minus sign."""
    rng = random.Random(71)
    for _ in range(150):
        a, b = rand_poly(rng, fs, 5), rand_poly(rng, fs, 5)
        c = rand_poly(rng, fs, 4)
        assert (a + b) - b == a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        for d in (b, Poly.constant(fs, rng.randrange(1, fs.q))):
            if not d.is_zero():
                q, r = divmod(a, d)
                assert q * d + r == a
                assert r.is_zero() or r.degree < d.degree
        if not a.is_zero():
            assert a.monic().lead() == 1


def schoolbook(a, b):
    """The product entry by entry, sum_t a[i][t] b[t][j] in Poly arithmetic:
    an oracle independent of the kernel product behind @."""
    n, zero = a.shape[1], Poly.zero(a.field)
    return PolyMatrix(a.field, [[sum((row[t] * b.rows[t][j] for t in range(n)), zero)
                                 for j in range(b.shape[1])] for row in a.rows],
                      b.shape[1])


@pytest.mark.parametrize("fs", [F2, F3, F4, F5, F9],
                         ids=["F2", "F3", "F4", "F5", "F9"])
def test_matmul_matches_schoolbook(fs):
    rng = random.Random(80)
    for _ in range(40):
        k, n, m = (rng.randrange(0, 5) for _ in range(3))
        a, b = rand_matrix(rng, fs, k, n, 3), rand_matrix(rng, fs, n, m, 3)
        c = a @ b
        assert c.shape == (k, m) and c == schoolbook(a, b)
    a = rand_matrix(rng, fs, 3, 2, 2)
    assert a @ PolyMatrix.zeros(fs, 2, 4) == PolyMatrix.zeros(fs, 3, 4)
    assert (PolyMatrix.zeros(fs, 0, 3) @ rand_matrix(rng, fs, 3, 2, 2)).shape == (0, 2)
    assert (rand_matrix(rng, fs, 2, 0, 1) @ PolyMatrix(fs, [], 3)
            == PolyMatrix.zeros(fs, 2, 3))
    for left, right in ((3, 3), (1, 2)):
        with pytest.raises(ValueError, match="shape mismatch"):
            a @ rand_matrix(rng, fs, left, right, 1)


def assert_hermite_form(h):
    """Pivot columns move right, pivots are monic with zeros below and
    entries above of lower degree, and the zero rows come last."""
    piv = hermite_pivots(h)
    assert [i for i, _ in piv] == list(range(len(piv)))
    cols = [c for (_, c) in piv]
    assert cols == sorted(set(cols)), "pivot columns must move right"
    for (i, c) in piv:
        assert h.rows[i][c].lead() == 1, "pivots are monic"
        assert all(h.rows[i2][c].is_zero() for i2 in range(i + 1, h.shape[0]))
        assert all(h.rows[i2][c].degree < h.rows[i][c].degree for i2 in range(i))
    return piv


@pytest.mark.parametrize("fs", [F2, F4, F5], ids=["F2", "F4", "F5"])
def test_hermite_invariants(fs):
    rng = random.Random(72)
    for _ in range(25):
        k = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        g = rand_matrix(rng, fs, k, n, 3)
        h, u = hermite_form(g)
        assert u @ g == h
        assert is_unimodular(u)
        assert_hermite_form(h)
        assert hermite_form(g) == (h, u), "hermite must be deterministic"
        assert spans(g, h.drop_zero_rows()) and spans(h.drop_zero_rows(), g)


@pytest.mark.parametrize("fs", [field(2, 3), field(5, 2), field(2, 6), field(1021)],
                         ids=["F8", "F25", "F64", "F1021"])
def test_hermite_invariants_over_more_fields(fs):
    """Over fields the golden file skips (GF(1021) takes 16-bit lanes):
    U G = H, U W^T = I for the carried W = (U^{-1})^T, H is a Hermite form
    and its pivots count the rational rank.  The inputs include no rows, no
    columns, zero rows, and transforms deeper than G."""
    rng = random.Random(f"more-fields-{fs!r}")
    # three or four rows over fewer columns often need a deeper transform
    shapes = [(0, 3), (3, 0), (0, 0)] + [(rng.randrange(1, 5), rng.randrange(1, 5))
                                         for _ in range(6)] + [(4, 2), (4, 3), (3, 3)] * 3
    deeper = 0
    for t, (k, n) in enumerate(shapes):
        g = rand_matrix(rng, fs, k, n, 2)
        if t % 3 == 0 and k > 1:  # a zero row in the middle
            g = PolyMatrix(fs, [*g.rows[:1], [Poly.zero(fs)] * n, *g.rows[2:]], n)
        rho, h, u, w = _hermite(fs, g.planes(), True)
        assert u @ g == h and u @ w.transpose() == PolyMatrix.identity(fs, k)
        assert rho == len(assert_hermite_form(h)) == rank_rational(g)
        deeper += u.planes().shape[0] > max(g.planes().shape[0], 1)
    assert deeper, "some transform must grow past the input depth"


def test_elimination_makes_no_array_row_steps(monkeypatch):
    """hermite_form and closure run on packed rows: with the field's array
    addition and the array long division disabled they still give U G = H
    and a direct summand.  So a second, array-based row path cannot come
    back unseen."""
    cases = []
    for fs in (F2, F4, F3):
        rng = random.Random(f"packed-{fs!r}")
        cases += [rand_matrix(rng, fs, rng.randrange(1, 5), rng.randrange(1, 5), 3)
                  for _ in range(6)]

    def refuse(*args):
        raise AssertionError("array row step in the elimination")

    monkeypatch.setattr(FieldSpec, "add_arrays", refuse)
    monkeypatch.setattr(Poly, "__divmod__", refuse)
    out = [(g, hermite_form(g), closure(g)) for g in cases]
    monkeypatch.undo()
    for g, (h, u), c in out:
        assert u @ g == h and is_unimodular(u)
        assert_hermite_form(h)
        assert c.shape[0] == rank_rational(g) and (c.shape[0] == 0 or is_direct_summand(c))


@pytest.mark.parametrize("fs", [F2, F4, F5], ids=["F2", "F4", "F5"])
def test_smith_invariants(fs):
    rng = random.Random(73)
    for _ in range(25):
        k = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        g = rand_matrix(rng, fs, k, n, 3)
        s = smith_form(g)
        assert s.verify(g)
        assert s.rank == rank(g) == rank_rational(g)


@pytest.mark.parametrize("fs", [F2, F4, F5], ids=["F2", "F4", "F5"])
def test_membership_generate_then_solve(fs):
    rng = random.Random(74)
    for _ in range(30):
        k = rng.randrange(1, 4)
        n = rng.randrange(k, 5)
        g = rand_matrix(rng, fs, k, n, 2)
        xs = [rand_poly(rng, fs, 2) for _ in range(k)]
        v = combine(fs, xs, g)
        sol = EchelonSolver(g).solve(v)
        assert sol is not None, "generated vector rejected"
        assert combine(fs, sol, g) == v, "solution must reproduce the vector"


@pytest.mark.parametrize("fs", [F2, F4], ids=["F2", "F4"])
def test_membership_vs_brute_force(fs):
    """Reachable-set enumeration over small coordinates agrees both ways."""
    rng = random.Random(75)
    B = 2
    g = PolyMatrix.from_coeff_lists(fs, [[[1, 1], [0, 1], [1]],
                                         [[0], [1], [1, 0, 1]]])
    small = [Poly(fs, list(t))
             for t in itertools.product(range(fs.q), repeat=B + 1)]
    reachable = set()
    for xs in itertools.product(small, repeat=2):
        v = combine(fs, xs, g)
        reachable.add(tuple(p.coeffs.tobytes() for p in v))
    solver = EchelonSolver(g)

    def check(v):
        sol = solver.solve(v)
        brute = tuple(p.coeffs.tobytes() for p in v) in reachable
        if sol is not None:
            assert combine(fs, sol, g) == v
            if all(p.degree <= B for p in sol):
                assert brute, "small solution missing from enumeration"
        if brute:
            assert sol is not None, "enumerated member rejected by solver"
        return sol is not None

    members = rejected = 0
    for _ in range(80):
        xs = [rng.choice(small), rng.choice(small)]
        assert check(combine(fs, xs, g)), "constructed member rejected"
        members += 1
        noisy = combine(fs, xs, g)
        j = rng.randrange(3)
        noisy[j] = noisy[j] + Poly.x_power(fs, rng.randrange(B + 3))
        check(noisy)
        v = [rand_poly(rng, fs, B + 2) for _ in range(3)]
        if not check(v):
            rejected += 1
    assert members == 80 and rejected > 40, "need both verdicts exercised"


def test_membership_edge_cases():
    zero_rows = PolyMatrix.from_coeff_lists(F2, [[[0], [0]], [[0], [0]]])
    z = [Poly.zero(F2), Poly.zero(F2)]
    solver = EchelonSolver(zero_rows)
    assert solver.solve(z) == z
    assert solver.solve([Poly.one(F2), z[1]]) is None


@pytest.mark.parametrize("fs", [F2, F4, F5], ids=["F2", "F4", "F5"])
def test_closure_properties(fs):
    rng = random.Random(76)
    for _ in range(20):
        k = rng.randrange(1, 4)
        n = rng.randrange(k, 5)
        g = rand_matrix(rng, fs, k, n, 2)
        c = closure(g)
        assert spans(c, g), "extensive"
        assert c.shape[0] == 0 or is_direct_summand(c), "summand"
        assert closure(c) == c, "idempotent"
        assert c.shape[0] == rank_rational(g), "rank"
        h, _ = hermite_form(c)
        assert h.drop_zero_rows() == c, "canonical form"


def test_closure_saturates_x_times_free_module():
    gx = PolyMatrix.from_coeff_lists(F2, [[[0, 1], [0]], [[0], [0, 1]]])
    assert not is_direct_summand(gx)
    assert closure(gx) == PolyMatrix.identity(F2, 2)
    assert is_direct_summand(PolyMatrix.identity(F2, 2))


@pytest.mark.parametrize("fs", [F2, F4, F5], ids=["F2", "F4", "F5"])
def test_det_multiplicative(fs):
    rng = random.Random(77)
    for _ in range(15):
        k = rng.randrange(1, 4)
        a = rand_matrix(rng, fs, k, k, 2)
        b = rand_matrix(rng, fs, k, k, 2)
        assert det_poly(a @ b) == det_poly(a) * det_poly(b)


def smith_purification(g):
    """The purification read off a verified Smith form: the first rank rows
    of V^{-1}, in Hermite form."""
    s = smith_form(g)
    assert s.verify(g)
    hv, vinv = hermite_form(s.v)
    assert hv == PolyMatrix.identity(g.field, s.v.shape[0])
    h, _ = hermite_form(vinv.take_rows(range(s.rank)))
    return s, h.drop_zero_rows()


@pytest.mark.parametrize("fs", [F2, F4, F3, F5, F9],
                         ids=["F2", "F4", "F3", "F5", "F9"])
def test_closure_and_summand_agree_with_smith(fs):
    rng = random.Random(79)
    impure = 0
    for trial in range(24):
        k = rng.randrange(1, 4)
        n = rng.randrange(k, 5)
        g = rand_matrix(rng, fs, k, n, 2)
        if trial % 2:  # a row times X + c
            i = rng.randrange(k)
            lin = Poly(fs, [rng.randrange(fs.q), 1])
            g = PolyMatrix(fs, [[lin * e for e in row] if r == i else row
                                for r, row in enumerate(g.rows)])
        s, ref = smith_purification(g)
        assert closure(g) == ref
        unit_factors = s.rank == k and all(e.is_unit() for e in s.diagonal[:k])
        assert is_direct_summand(g) == unit_factors
        impure += not unit_factors and s.rank == k
    assert impure > 0, "some inputs must be full rank but impure"


def test_smith_fixed_cases():
    # the passes reach diag(X, X + 1); adding row 2 to row 1 to fix the
    # divisibility would be reduced away by the next row pass, for ever
    g = PolyMatrix.from_coeff_lists(F2, [[[0, 1], [0, 1, 1], [0]],
                                         [[0], [1, 1], [1, 1]]])
    s = smith_form(g)
    assert s.verify(g)
    assert s.diagonal == [Poly.one(F2), Poly(F2, [0, 1, 1])]
    zero = PolyMatrix.zeros(F5, 2, 3)
    s = smith_form(zero)
    assert s.verify(zero) and s.d == zero and s.rank == 0
    assert closure(zero).shape == (0, 3) and not is_direct_summand(zero)
    empty = PolyMatrix(F2, [[], []])  # k x 0
    s = smith_form(empty)
    assert (s.u.shape, s.d.shape, s.v.shape) == ((2, 2), (2, 0), (0, 0))
    assert s.verify(empty) and s.rank == 0
    assert closure(empty).shape == (0, 0) and not is_direct_summand(empty)


def test_matrices_without_rows_keep_their_width():
    assert PolyMatrix.zeros(F2, 0, 3).shape == (0, 3)
    assert PolyMatrix(F2, [[], []]).transpose().shape == (0, 2)
    rows = PolyMatrix.identity(F2, 2)
    assert PolyMatrix(F2, []).shape == (0, 0)
    assert PolyMatrix(F2, [], 2).stack(rows) == rows
    assert rows.take_rows([]).shape == (0, 2)
    assert PolyMatrix.zeros(F2, 3, 2).drop_zero_rows().shape == (0, 2)
    assert PolyMatrix(F2, [], 2) != PolyMatrix(F2, [], 3)
    eye = PolyMatrix.identity(F2, 3)
    for k in (0, 2):  # no rows, and rows without coefficients (depth 0)
        z = PolyMatrix.zeros(F2, k, 3)
        assert z.planes().shape == (0, k, 3)
        assert z.stack(z).shape == (2 * k, 3)
        assert z.stack(eye).take_rows(range(k, k + 3)) == eye
        assert z.take_rows([]).shape == (0, 3) and z.take_rows([0] * k).shape == (k, 3)
        assert z.drop_zero_rows().shape == (0, 3) and z.transpose().shape == (3, k)
        assert z.transpose().transpose() == z and z.rows == ((Poly.zero(F2),) * 3,) * k


@pytest.mark.parametrize("fs", [F2, F4, F5], ids=["F2", "F4", "F5"])
def test_dense_store_is_the_entries(fs):
    """The (D, rows, cols) planes hold exactly the Poly entries: D is one past
    the degree, extra zero planes and a transposed layout give an equal
    matrix with an equal hash, the planes are read-only and rows round-trip."""
    rng = random.Random(81)
    for _ in range(30):
        k, n = rng.randrange(0, 4), rng.randrange(0, 4)
        g = rand_matrix(rng, fs, k, n, 3)
        p = g.planes()
        assert p.shape == (max((e.degree + 1 for r in g.rows for e in r), default=0), k, n)
        with pytest.raises(ValueError, match="read-only"):
            p[...] = 0
        padded = np.concatenate([p, np.zeros((2, k, n), dtype=p.dtype)])
        columns = np.ascontiguousarray(p.transpose(0, 2, 1))
        for h in (PolyMatrix._raw(fs, padded), PolyMatrix._raw(fs, columns).transpose()):
            assert h == g and hash(h) == hash(g) and h.planes().shape == p.shape
            assert h.rows == g.rows
        assert PolyMatrix(fs, g.rows, n) == g
        assert [[e.coeffs.tolist() for e in r] for r in g.rows] == \
            [[p[: e.degree + 1, i, j].tolist() for j, e in enumerate(r)]
             for i, r in enumerate(g.rows)]


# ---- golden digest of the canonical F[X] outputs ----

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "fxlinalg.txt")
GOLDEN_FIELDS = [F2, F3, F4, F5, field(7), F9]


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def golden_lines():
    """One line per seeded matrix, 50 over each field, shapes up to 4 x 4
    and degree <= 3: hashes of the printed Hermite form, closure basis and
    Smith diagonal, the summand verdict and the rank (the pivots of H, as
    rank reads them).  All are canonical, so every correct implementation
    prints the same lines."""
    out = []
    for fs in GOLDEN_FIELDS:
        rng = random.Random(f"fxlinalg-golden-{fs!r}")
        for t in range(50):
            k, n = rng.randrange(1, 5), rng.randrange(1, 5)
            g = rand_matrix(rng, fs, k, n, 3)
            h, _ = hermite_form(g)
            diag = ", ".join(str(e) for e in smith_form(g).diagonal)
            out.append(f"{fs!r} {t:2d} {k}x{n} H={_digest(str(h))} "
                       f"C={_digest(str(closure(g)))} "
                       f"summand={int(is_direct_summand(g))} "
                       f"rank={len(hermite_pivots(h))} "
                       f"D={_digest(diag)}")
    return out


def test_canonical_outputs_match_golden():
    """Regenerate with `PYTHONPATH=src python tests/test_fxlinalg.py >
    tests/golden/fxlinalg.txt`, only when the canonical forms are meant to
    change."""
    with open(GOLDEN) as fh:
        expected = fh.read().splitlines()
    got = golden_lines()
    diff = [f"{a}  !=  {b}" for a, b in zip(got, expected) if a != b]
    assert len(got) == len(expected) and not diff, diff[:5]


if __name__ == "__main__":
    print("\n".join(golden_lines()))
