"""The field kernel: one exact digit product against the lookup-table oracle."""

import numpy as np
import pytest

from skewcodes import field
from skewcodes import _gflinalg as la
from skewcodes.fields import DTYPE

from test_fields import SMALL

FIELDS = SMALL + [field(7), field(2, 4), field(5, 2), field(3, 3), field(1021)]


def table_mat_mul(fs, a, b):
    """Oracle: gather every product from the multiplication table and fold
    the sums with the addition table."""
    prod = fs.MUL[a[:, :, None], b[None, :, :]]
    acc = np.zeros((a.shape[0], b.shape[1]), dtype=DTYPE)
    for t in range(a.shape[1]):
        acc = fs.ADD[acc, prod[:, t]]
    return acc


def table_sum(fs, a, axis):
    a = np.moveaxis(a, axis, 0)
    acc = np.zeros(a.shape[1:], dtype=DTYPE)
    for t in range(a.shape[0]):
        acc = fs.ADD[acc, a[t]]
    return acc


@pytest.mark.parametrize("fs", FIELDS, ids=repr)
def test_kernel_matches_lookup_tables(fs):
    rng = np.random.default_rng(fs.q)
    shapes = [(0, 4, 3), (3, 0, 5), (2, 5, 0), (0, 0, 0), (1, 1, 1), (1, 8, 8),
              (8, 8, 8), (8, 8, 1), (10, 10, 10), (40, 3, 7), (3, 70, 2)]
    shapes += [tuple(int(v) for v in rng.integers(0, 13, 3)) for _ in range(12)]
    for m, n, l in shapes:
        a = rng.integers(0, fs.q, (m, n)).astype(DTYPE)
        b = rng.integers(0, fs.q, (n, l)).astype(DTYPE)
        got = la.mat_mul(fs, a, b)
        assert got.dtype == DTYPE and got.shape == (m, l), (m, n, l)
        assert np.array_equal(got, table_mat_mul(fs, a, b)), (m, n, l)


@pytest.mark.parametrize("fs", FIELDS, ids=repr)
def test_kernel_rows_in_chunks_match(fs):
    """Operands large enough that the kernel works through row chunks."""
    rng = np.random.default_rng(fs.q + 1)
    a = rng.integers(0, fs.q, (160, 300)).astype(DTYPE)
    b = rng.integers(0, fs.q, (300, 3)).astype(DTYPE)
    assert np.array_equal(la.mat_mul(fs, a, b), table_mat_mul(fs, a, b))
    assert np.array_equal(la.mat_mul(fs, b.T, a.T), table_mat_mul(fs, b.T, a.T))


@pytest.mark.parametrize("fs", FIELDS, ids=repr)
def test_long_sums_of_the_largest_element_do_not_overflow(fs):
    n = 4096
    a = np.full((2, n), fs.q - 1, dtype=DTYPE)
    b = np.full((n, 3), fs.q - 1, dtype=DTYPE)
    want = table_mat_mul(fs, a, b)
    assert np.array_equal(la.mat_mul(fs, a, b), want)
    assert np.array_equal(fs.sum_axis(fs.MUL[a[0], b[:, 0]][None, :], 1), want[0, :1])


@pytest.mark.parametrize("fs", FIELDS, ids=repr)
def test_sum_axis_matches_lookup_tables(fs):
    rng = np.random.default_rng(fs.q + 2)
    a = rng.integers(0, fs.q, (4, 7, 5)).astype(DTYPE)
    for axis in (0, 1, 2, -1):
        assert np.array_equal(fs.sum_axis(a, axis), table_sum(fs, a, axis)), axis
    assert np.array_equal(fs.sum_axis(a[:, :0], 1), np.zeros((4, 5), dtype=DTYPE))


def test_shape_mismatch_is_rejected():
    fs = field(3)
    with pytest.raises(ValueError):
        la.mat_mul(fs, la.zeros((2, 3)), la.zeros((4, 2)))


# ---- the elimination: the packed Hermite form at one plane ----

def dense_rref(fs, m):
    """Oracle: the dense row loop the packed elimination replaced.  Reduced
    row echelon form of m and its pivot columns; the pivot row is the first
    nonzero one at or below the current row."""
    m = m.astype(DTYPE).copy()
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        sel = next((i for i in range(r, rows) if m[i, c] != 0), None)
        if sel is None:
            continue
        m[[r, sel]] = m[[sel, r]]
        m[r] = fs.MUL[m[r], fs.inv(int(m[r, c]))]
        for i in range(rows):
            if i != r and m[i, c] != 0:
                m[i] = fs.add_arrays(m[i], fs.MUL[m[r], fs.neg(int(m[i, c]))])
        pivots.append(c)
        r += 1
    return m, pivots


def dense_solve(fs, a, b):
    """Oracle: one solution x of a @ x = b, free variables 0, or None."""
    n = a.shape[1]
    red, pivots = dense_rref(fs, np.concatenate([a, b.reshape(-1, 1)], axis=1))
    if pivots and pivots[-1] == n:
        return None
    x = np.zeros(n, dtype=DTYPE)
    x[pivots] = red[: len(pivots), n]
    return x


def elimination_cases(fs, rng):
    """Random matrices of every shape class: empty, zero rows and columns,
    rank-deficient (a product through a narrow inner dimension), square."""
    shapes = [(0, 0), (0, 4), (3, 0), (1, 1), (4, 4), (5, 3), (3, 6), (8, 8)]
    cases = [la.zeros((3, 4)), la.eye(5)]
    cases += [rng.integers(0, fs.q, s).astype(DTYPE) for s in shapes]
    for m, n, inner in [(6, 6, 3), (5, 7, 2), (7, 4, 1)]:
        cases.append(table_mat_mul(fs, rng.integers(0, fs.q, (m, inner)).astype(DTYPE),
                                   rng.integers(0, fs.q, (inner, n)).astype(DTYPE)))
    for a in cases[2:6]:  # a zero row and a zero column
        if a.size:
            a = a.copy()
            a[rng.integers(a.shape[0])] = 0
            a[:, rng.integers(a.shape[1])] = 0
            cases.append(a)
    return cases


@pytest.mark.parametrize("fs", FIELDS, ids=repr)
def test_rref_matches_the_dense_row_loop(fs):
    rng = np.random.default_rng(fs.q + 3)
    for a in elimination_cases(fs, rng):
        red, pivots, u = la.rref(fs, a)
        want, want_pivots = dense_rref(fs, a)
        rank = len(want_pivots)
        assert pivots == want_pivots, a
        assert np.array_equal(red, want[:rank]) and not want[rank:].any(), a
        assert u.shape == (a.shape[0],) * 2
        ua = table_mat_mul(fs, u, a)
        assert np.array_equal(ua[:rank], red) and not ua[rank:].any(), a
        assert dense_rref(fs, u)[1] == list(range(a.shape[0]))  # U is invertible


@pytest.mark.parametrize("fs", FIELDS, ids=repr)
def test_inverse_and_nullspace_match_the_dense_row_loop(fs):
    rng = np.random.default_rng(fs.q + 4)
    for a in elimination_cases(fs, rng):
        rows, n = a.shape
        if rows == n:
            want, pivots = dense_rref(fs, np.concatenate([a, la.eye(n)], axis=1))
            full = pivots[:n] == list(range(n))
            got = la.inv(fs, a)
            assert (got is None) == (not full), a
            if full:
                assert np.array_equal(got, want[:, n:]), a
                assert np.array_equal(table_mat_mul(fs, a, got), la.eye(n))
        red, pivots = dense_rref(fs, a)
        free = [c for c in range(n) if c not in pivots]
        basis = la.nullspace(fs, a)
        assert len(basis) == len(free), a
        for fc, x in zip(free, basis):
            want = np.zeros(n, dtype=DTYPE)
            want[fc] = 1
            want[pivots] = fs.NEG[red[: len(pivots), fc]]
            assert np.array_equal(x, want), a
            assert not table_mat_mul(fs, a, x[:, None]).any()
