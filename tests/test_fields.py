"""Finite field layer: table-backed arithmetic and the array fast paths."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewcodes import field
from skewcodes.errors import MixedStructureError
from skewcodes.fields import DTYPE

SMALL = [field(2), field(3), field(5), field(2, 2), field(3, 2), field(2, 3)]


@pytest.mark.parametrize("fs", SMALL, ids=lambda f: f"GF({f.q})")
def test_ring_axioms_exhaustive(fs):
    q = fs.q
    for a, b in itertools.product(range(q), repeat=2):
        assert fs.add(a, b) == fs.add(b, a)
        assert fs.mul(a, b) == fs.mul(b, a)
        assert fs.sub(a, b) == fs.add(a, fs.neg(b))
    for a, b, c in itertools.product(range(q), repeat=3):
        assert fs.add(fs.add(a, b), c) == fs.add(a, fs.add(b, c))
        assert fs.mul(fs.mul(a, b), c) == fs.mul(a, fs.mul(b, c))
        assert fs.mul(a, fs.add(b, c)) == fs.add(fs.mul(a, b), fs.mul(a, c))


@pytest.mark.parametrize("fs", SMALL, ids=lambda f: f"GF({f.q})")
def test_units_and_inverses(fs):
    for a in range(fs.q):
        assert fs.add(a, 0) == a
        assert fs.mul(a, 1) == a
        assert fs.add(a, fs.neg(a)) == 0
        if a:
            assert fs.mul(a, fs.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        fs.inv(0)


@pytest.mark.parametrize("fs", SMALL, ids=lambda f: f"GF({f.q})")
def test_frobenius_is_automorphism(fs):
    for a, b in itertools.product(range(fs.q), repeat=2):
        assert fs.frob(fs.add(a, b)) == fs.add(fs.frob(a), fs.frob(b))
        assert fs.frob(fs.mul(a, b)) == fs.mul(fs.frob(a), fs.frob(b))
    # x -> x^p fixes exactly the prime field, and p^k-th power is identity
    for a in range(fs.q):
        cur = a
        for _ in range(fs.k):
            cur = fs.frob(cur)
        assert cur == a
    fixed = [a for a in range(fs.q) if fs.frob(a) == a]
    assert len(fixed) == fs.p


@pytest.mark.parametrize("fs", SMALL, ids=lambda f: f"GF({f.q})")
def test_pow_matches_repeated_multiplication(fs):
    for a in range(fs.q):
        acc = 1
        for e in range(1, 2 * fs.q):
            acc = fs.mul(acc, a)
            assert fs.pow_(a, e) == acc
        if a:
            assert fs.pow_(a, fs.q - 1) == 1


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_array_ops_match_scalar_ops(data):
    fs = data.draw(st.sampled_from(SMALL))
    n = data.draw(st.integers(min_value=1, max_value=20))
    a = np.array(data.draw(st.lists(st.integers(0, fs.q - 1),
                                    min_size=n, max_size=n)), dtype=DTYPE)
    b = np.array(data.draw(st.lists(st.integers(0, fs.q - 1),
                                    min_size=n, max_size=n)), dtype=DTYPE)
    add = fs.add_arrays(a, b)
    mul = fs.mul_arrays(a, b)
    neg = fs.neg_arrays(a)
    for i in range(n):
        assert add[i] == fs.add(int(a[i]), int(b[i]))
        assert mul[i] == fs.mul(int(a[i]), int(b[i]))
        assert neg[i] == fs.neg(int(a[i]))
    assert fs.sum_axis(a[None, :], 1)[0] == _fold_add(fs, a)


def _fold_add(fs, arr):
    acc = 0
    for v in arr:
        acc = fs.add(acc, int(v))
    return acc


def test_element_wrappers_round_trip():
    fs = field(2, 2)
    for idx in range(4):
        e = fs.element(idx)
        assert e.idx == idx
        assert fs.from_coeffs(e.coeffs).idx == idx
    a, b = fs.element(2), fs.element(3)
    assert (a + b).idx == fs.add(2, 3)
    assert (a * b).idx == fs.mul(2, 3)
    assert (a / b) * b == a
    assert (-a) + a == fs.element(0)
    assert a ** 3 == a * a * a
    assert a.frobenius() * a == a ** 3  # norm of a in GF(4)


def test_mixed_field_operations_reject():
    a = field(2).element(1)
    b = field(3).element(1)
    with pytest.raises(MixedStructureError):
        a + b


def test_same_parameters_same_spec():
    assert field(2, 2) == field(2, 2)
    assert field(2) != field(3)


def test_char2_addition_is_xor():
    fs = field(2, 3)
    for a, b in itertools.product(range(8), repeat=2):
        assert fs.add(a, b) == a ^ b


def test_custom_modulus_rejected_if_reducible():
    with pytest.raises(ValueError):
        field(2, 2, modulus=(1, 0, 1))  # x^2 + 1 = (x+1)^2 over GF(2)


def test_only_fields_knows_the_digit_layout():
    """Outside fields.py, field elements are digitised through the public
    tables (DIGITS, REG, from_digits, restrict_stack, gen): no module
    reaches for the private coefficient helpers or builds the generator
    power a^j as the index p**j."""
    import re
    from pathlib import Path

    import skewcodes
    pattern = re.compile(r"_idx_to_coeffs|_coeffs_to_idx|\.p\s*\*\*|pow_\(\s*\w+\.p\s*,")
    offenders = [f"{path.name}:{n}: {line.strip()}"
                 for path in sorted(Path(skewcodes.__file__).parent.glob("*.py"))
                 if path.name != "fields.py"
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if pattern.search(line)]
    assert not offenders, offenders
