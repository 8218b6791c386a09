"""Finite field layer: table-backed arithmetic and the array fast paths."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewcodes import (Poly, VecPoly, field, group_algebra_cyclic, matrix_algebra,
                       regular_module)
from skewcodes.errors import MixedStructureError
from skewcodes.fields import _DEFAULT_MODULI, DTYPE, FieldSpec

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
    mul = fs.MUL[a, b]
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
        assert fs.element(e.coeffs).idx == idx
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
    # coefficients of an F[X] polynomial and of an algebra element go
    # through the same field check, FieldElement or not
    with pytest.raises(MixedStructureError):
        Poly(field(2), [field(3).element(2), 1])
    with pytest.raises(MixedStructureError):
        group_algebra_cyclic(field(2), 3).element([field(2, 2).element(3), 0, 1])


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


def _digits(idx, p, k):
    return [idx // p**i % p for i in range(k)]


def _schoolbook_mul_mod(u, v, modulus, p):
    """Digit lists u * v reduced modulo the monic modulus over Z/p."""
    k = len(modulus) - 1
    out = [0] * (2 * k - 1)
    for i, j in itertools.product(range(k), repeat=2):
        out[i + j] = (out[i + j] + u[i] * v[j]) % p
    for d in range(2 * k - 2, k - 1, -1):
        c, out[d] = out[d], 0
        for t in range(k):
            out[d - k + t] = (out[d - k + t] - c * modulus[t]) % p
    return out[:k]


def _has_monic_factor(modulus, p):
    """Schoolbook division by every monic polynomial of degree 1 .. k // 2."""
    k = len(modulus) - 1
    for d in range(1, k // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            div, rem = list(low) + [1], list(modulus)
            for top in range(k, d - 1, -1):
                c = rem[top]
                for t in range(d + 1):
                    rem[top - d + t] = (rem[top - d + t] - c * div[t]) % p
            if not any(rem):
                return True
    return False


def _oracle_cases():
    cases = [(p, k, m) for (p, k), m in _DEFAULT_MODULI.items()]
    for p, degrees in [(2, (2, 3)), (3, (2, 3)), (5, (2,)), (7, (2,))]:
        cases += [(p, k, low + (1,)) for k in degrees
                  for low in itertools.product(range(p), repeat=k)]
    return cases


def test_tables_match_schoolbook_arithmetic():
    """Independent oracle for the companion-matrix construction: a modulus
    is refused exactly when schoolbook division finds a monic factor, and
    an accepted one gives the schoolbook product mod the modulus in MUL."""
    refused = 0
    for p, k, m in _oracle_cases():
        if _has_monic_factor(m, p):
            refused += 1
            with pytest.raises(ValueError, match="reducible"):
                FieldSpec(p, k, m)
            continue
        fs = FieldSpec(p, k, m)
        digits = [_digits(i, p, k) for i in range(fs.q)]
        expected = [[sum(c * p**i for i, c in
                         enumerate(_schoolbook_mul_mod(u, v, m, p)))
                     for v in digits] for u in digits]
        assert fs.MUL.tolist() == expected, (p, k, m)
    # Gauss's count of monic irreducibles: 1 + 2 + 3 + 8 + 10 + 21 of the 122
    # listed moduli; the built-in ones are all irreducible
    assert refused == 122 - 45


def test_huge_field_sizes_are_refused_before_any_work(run_python):
    """p = 2^61 - 1 is prime, so trial division would run to sqrt(p), and
    3^(10^8) has 158 million bits: both are refused at once."""
    r = run_python("from skewcodes import field\n"
                   "for args in [(2**61 - 1,), (3, 10**8)]:\n"
                   "    try:\n"
                   "        field(*args)\n"
                   "    except ValueError as e:\n"
                   "        print(e)\n"
                   "    else:\n"
                   "        raise SystemExit(f'{args} accepted')\n")
    assert r.returncode == 0, r.stderr
    assert r.stdout.count("exceeds supported table size 1024") == 2, r.stdout


@pytest.mark.parametrize("name", ["ADD", "NEG", "MUL", "INV", "FROB",
                                  "DIGITS", "REG", "POWERS"])
def test_shared_tables_are_read_only(name):
    """field() hands one cached FieldSpec to every caller, so a write into
    its tables would corrupt every later product over that field."""
    table = getattr(field(2, 2), name)
    corner = (0,) * table.ndim
    with pytest.raises(ValueError):
        table[corner] = table[corner]


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


@pytest.mark.parametrize("p,k,modulus", [
    (2, 2, (1.7, True, 1)), (2, 2, (1, True, 1)), (2, 2, (1, 1, 1.0)),
    (2, 2, ("1", "1", "1")), (3, 1, ("2", 1))])
def test_modulus_entries_that_are_not_integers_are_refused(p, k, modulus):
    """No entry is coerced: a float, bool or string would otherwise be
    truncated or parsed into some other field."""
    with pytest.raises(ValueError, match="must be integers"):
        FieldSpec(p, k, modulus)


def test_numpy_integer_modulus_is_accepted():
    assert FieldSpec(2, 2, tuple(np.array([1, 1, 1]))) == field(2, 2)


@pytest.mark.parametrize("value", [2.5, 1.0, "1", True, [1.0, 0], ["1"], (False, 1)])
def test_field_values_that_are_not_integers_are_refused(value):
    """A float, string or bool, as a value or as a digit, is refused: it would
    otherwise be truncated or parsed into some field element."""
    with pytest.raises(ValueError, match="must be integers"):
        field(3, 2).element(value)


def test_coefficients_that_are_not_integers_are_refused():
    with pytest.raises(ValueError, match="must be integers"):
        Poly(field(3), [2.5, 1])
    with pytest.raises(ValueError, match="must be integers"):
        matrix_algebra(field(3), 2).element([0.5, 1, 2, "1"])
    with pytest.raises(ValueError, match="must be integers"):
        field(3).element(True)


def test_digit_lists_longer_than_k_are_refused(f4c5_group):
    """A digit past the k-th is refused, not dropped: over GF(4), [1, 1, 1]
    was a + 1 and [0, 0, 1] was 0."""
    f4 = field(2, 2)
    spec = regular_module(f4c5_group.algebra)
    for digits in ([1, 1, 1], [0, 0, 1]):
        for build in (lambda: f4.element(digits), lambda: Poly(f4, [1, digits]),
                      lambda: group_algebra_cyclic(f4, 2).element([digits, 0]),
                      lambda: VecPoly.from_rows(spec, f4c5_group.ctx, [[0, digits, 0, 0, 0]])):
            with pytest.raises(ValueError, match=rf"digit list \[{digits[0]}, .* k = 2"):
                build()
    assert f4.element([1, 1]).idx == 3 and field(3).element([4]).idx == 1


def test_integer_values_still_reduce():
    """numpy integers pass, and an int reduces mod p in a prime field."""
    assert field(3).element(5).idx == 2
    assert field(3).element(np.int64(-1)).idx == 2
    assert field(2, 2).element(np.int16(3)).idx == 3
    assert field(3, 2).element([np.int8(2), 4]).idx == 2 + 3 * 1


def test_element_inverse_and_negative_powers_in_gf9():
    """In GF(9), -1 != 1: g^-1 is g.inverse(), and g^-k the inverse of g^k."""
    fs = field(3, 2)
    g = fs.gen
    assert g * g.inverse() == fs.one and g.inverse() != g
    assert g ** -1 == g.inverse()
    assert g ** -2 == (g * g).inverse() and g ** -2 * g ** 2 == fs.one
    assert -fs.one != fs.one
    with pytest.raises(ZeroDivisionError):
        fs.zero.inverse()


def test_poly_coeff_scale_by_zero_and_monic_zero_in_gf9():
    fs = field(3, 2)
    p = Poly(fs, [1, fs.gen.idx, 0, fs.neg(1)])
    assert [p.coeff(i) for i in (-1, 0, 1, 2, 3, 4)] == [0, 1, fs.gen.idx, 0, fs.neg(1), 0]
    assert p.scale(0) == Poly.zero(fs) and p.scale(0).is_zero()
    assert p.monic().lead() == 1 and p.monic() == p.scale(fs.neg(1))
    z = Poly.zero(fs).monic()
    assert z.is_zero() and z == Poly.zero(fs)
