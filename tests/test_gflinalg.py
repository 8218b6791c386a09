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
