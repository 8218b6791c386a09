"""Exact arithmetic in GF(p^k) via integer indices and lookup tables.

An element with coefficient vector (c_0, ..., c_{k-1}) against the power
basis 1, a, ..., a^{k-1} of F_p[a]/(modulus) is stored as the integer index
sum(c_i * p**i).  A FieldSpec owns the full q x q multiplication table plus
addition, negation, inversion and Frobenius tables, so scalar and
elementwise numpy arithmetic are table lookups.  Sums and matrix products go
through base-p digits instead (digit and regular-representation tables, see
_gflinalg.mat_mul): digit sums reduced mod p.  Everything is exact.

The tables come from the companion matrix C of the modulus (x -> x * a on
digit rows; Lidl & Niederreiter, Finite Fields, 1997): y acts as
sum_t y_t C^t, one digit product over all pairs gives MUL, and a modulus is
refused as reducible exactly when MUL has zero divisors (a finite integral
domain is a field).  Fields need p prime and p^k <= 1024.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

import numpy as np

from .errors import MixedStructureError

# dtype for all index arrays; tables are capped well below the int16 range
DTYPE = np.int16

# table construction is quadratic in q, keep it at desk scale
_MAX_ORDER = 1024

# one irreducible modulus per built-in (p, k), coefficients low to high
_DEFAULT_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (5, 2): (2, 0, 1),
    (7, 2): (1, 0, 1),
}


def _is_integer(c) -> bool:
    """An int or numpy integer: a float, string or bool would be cut or parsed."""
    return isinstance(c, (int, np.integer)) and not isinstance(c, bool)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FieldSpec:
    """GF(p^k) with index-level tables.  Construct via field()."""

    def __init__(self, p: int, k: int = 1, modulus: Optional[Sequence[int]] = None):
        # bound p and k before the primality test and before forming p**k,
        # whose costs grow with them: for p >= 2, k >= 11 gives p**k > 1024
        if p > _MAX_ORDER or (p > 1 and k >= _MAX_ORDER.bit_length()):
            raise ValueError(f"GF({p}^{k}) exceeds supported table size {_MAX_ORDER}")
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if k < 1:
            raise ValueError(f"extension degree k = {k} must be >= 1")
        q = p**k
        if q > _MAX_ORDER:
            raise ValueError(f"field order {q} exceeds supported table size {_MAX_ORDER}")
        if modulus is None:
            if k == 1:
                modulus = (0, 1)
            elif (p, k) in _DEFAULT_MODULI:
                modulus = _DEFAULT_MODULI[(p, k)]
            else:
                raise ValueError(f"no built-in modulus for GF({p}^{k}); pass one explicitly")
        if not all(map(_is_integer, modulus)):
            raise ValueError(f"modulus entries must be integers: got {modulus!r}")
        modulus = tuple(int(c) % p for c in modulus[:-1]) + (int(modulus[-1]),)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {k}: got {modulus}")
        self.p = p
        self.k = k
        self.q = q
        self.modulus = modulus
        self._build_tables()

    # ---- table construction ----

    def _idx_to_coeffs(self, idx: int) -> list[int]:
        return [(idx // self.p**i) % self.p for i in range(self.k)]

    def _build_tables(self) -> None:
        p, k, q = self.p, self.k, self.q
        powers = p ** np.arange(k, dtype=np.int64)
        coeffs = np.arange(q)[:, None] // powers % p
        self.ADD = (((coeffs[:, None, :] + coeffs[None, :, :]) % p) @ powers).astype(DTYPE)
        self.NEG = (((-coeffs) % p) @ powers).astype(DTYPE)
        self.DIGITS = coeffs.astype(np.float64)
        self.POWERS = powers.astype(np.float64)
        # On digit rows x -> x * a is the companion matrix C of the modulus
        # (digits(x * a) = digits(x) @ C), so the regular representation
        # REG[y] = sum_t y_t C^t has in row s the digits of a^s * y, and
        # digits(x * y) = digits(x) @ REG[y] over GF(p).  Float64 so one BLAS
        # product gives the unreduced digits of every product x * y exactly.
        comp = np.eye(k, k, 1)
        comp[-1] = np.negative(self.modulus[:k]) % p
        comp_powers = [np.eye(k)]
        for _ in range(k - 1):
            comp_powers.append(np.fmod(comp_powers[-1] @ comp, p))
        self.REG = np.fmod(np.tensordot(self.DIGITS, comp_powers, axes=1), p)
        prod = self.DIGITS @ self.REG.transpose(1, 0, 2).reshape(k, q * k)
        self.MUL = self.from_digits(prod.reshape(q, q, k))
        # a finite commutative ring is a field exactly when it has no zero
        # divisors, and F_p[a]/(modulus) has one exactly when it is reducible
        if not self.MUL[1:, 1:].all():
            raise ValueError(f"modulus {self.modulus} is reducible over GF({p})")
        self.INV = np.argmax(self.MUL == 1, axis=1).astype(DTYPE)  # INV[0] = 0
        self.FROB = idx = np.arange(q)
        for _ in range(p - 1):  # x -> x^p
            self.FROB = self.MUL[self.FROB, idx]
        # one FieldSpec is shared by every caller of field(): no one may write
        for table in (self.ADD, self.NEG, self.MUL, self.INV, self.FROB,
                      self.DIGITS, self.REG, self.POWERS):
            table.flags.writeable = False

    # ---- scalar index ops ----

    def add(self, i: int, j: int) -> int:
        return int(self.ADD[i, j])

    def sub(self, i: int, j: int) -> int:
        return int(self.ADD[i, self.NEG[j]])

    def neg(self, i: int) -> int:
        return int(self.NEG[i])

    def mul(self, i: int, j: int) -> int:
        return int(self.MUL[i, j])

    def inv(self, i: int) -> int:
        if i == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return int(self.INV[i])

    def pow_(self, i: int, e: int) -> int:
        if e < 0:
            i, e = self.inv(i), -e
        out = 1
        while e:  # square and multiply
            if e & 1:
                out = self.MUL[out, i]
            i, e = self.MUL[i, i], e >> 1
        return int(out)

    def frob(self, i: int, t: int = 1) -> int:
        out = i
        for _ in range(t % self.k if self.k > 1 else 1):
            out = int(self.FROB[out])
        return out

    # ---- bulk index-array ops ----

    def add_arrays(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.p == 2:
            return np.bitwise_xor(a, b)
        return self.ADD[a, b]

    def neg_arrays(self, a: np.ndarray) -> np.ndarray:
        if self.p == 2:
            return a.copy()
        return self.NEG[a]

    def sum_axis(self, a: np.ndarray, axis: int) -> np.ndarray:
        """Field sum along one axis: digit sums reduced mod p."""
        return self.from_digits(np.take(self.DIGITS, a, axis=0).sum(axis=axis % a.ndim))

    # ---- the digit representation behind sums and matrix products ----
    # (np.take gathers table rows about ten times faster than fancy indexing)

    def digit_rows(self, a: np.ndarray) -> np.ndarray:
        """(m, n) indices -> (m, n k) base-p digits, float64."""
        if self.k == 1:  # a prime-field index is its own digit
            return a.astype(np.float64)
        return np.take(self.DIGITS, a, axis=0).reshape(a.shape[0], a.shape[1] * self.k)

    def digit_blocks(self, b: np.ndarray) -> np.ndarray:
        """(n, l) indices -> (n k, l k) float64 regular-representation blocks:
        row (j, s) holds the digits of a^s * b[j, c] in columns (c, t), so
        digit_rows(x) @ digit_blocks(b) holds the unreduced digits of x @ b."""
        if self.k == 1:  # and its own 1 x 1 block
            return b.astype(np.float64)
        (n, l), k = b.shape, self.k
        return np.take(self.REG, b, axis=0).transpose(0, 2, 1, 3).reshape(n * k, l * k)

    def restrict_stack(self, mats: np.ndarray) -> np.ndarray:
        """Restriction of scalars to GF(p): (J, n, l) K-matrices M_j ->
        (J k, n k, l k) GF(p) matrices, matrix j k + w = digit_blocks(a^w M_j).
        Over the bases a^s e_i (s fastest) that is the matrix of
        x -> x (a^w M_j), so a stack of action matrices indexed by a basis
        b_j restricts to the action of the basis a^w b_j (w fastest)."""
        (J, n, l), k = mats.shape, self.k
        scaled = self.MUL[self.POWERS.astype(np.intp)][:, mats]  # [w, j] = a^w M_j
        blocks = np.take(self.REG, scaled, axis=0)  # [w, j, i, c, s, t]
        return blocks.transpose(1, 0, 2, 4, 3, 5).reshape(J * k, n * k, l * k).astype(DTYPE)

    def from_digits(self, digits: np.ndarray) -> np.ndarray:
        """Indices from unreduced base-p digit sums on the last axis (exact
        nonnegative integers held as float64)."""
        if self.k == 1:
            return np.fmod(digits[..., 0], self.p).astype(DTYPE)
        return (np.fmod(digits, self.p) @ self.POWERS).astype(DTYPE)

    # ---- element helpers ----

    def element(self, value) -> "FieldElement":
        """Coerce an index, int, digit list or FieldElement; an int reduces
        mod p in a prime field, and a float, string or bool, or a digit list
        longer than k, is refused."""
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise MixedStructureError("element from a different field")
            return value
        digits = isinstance(value, (list, tuple))
        if not all(map(_is_integer, value if digits else [value])):
            raise ValueError(f"field values and digits must be integers: got {value!r}")
        if digits:
            if len(value) > self.k:
                raise ValueError(f"digit list {value!r} is longer than k = {self.k}")
            return FieldElement(self, sum(int(c) % self.p * self.p**i
                                          for i, c in enumerate(value)))
        return FieldElement(self, int(value) % self.p if self.k == 1 else int(value))

    def indices(self, values, what: str) -> np.ndarray:
        """values as an index array, refusing with the first entry not in [0, q)."""
        raw = np.asarray(values)
        arr = raw.astype(DTYPE)
        bad = (arr != raw) | (arr < 0) | (arr >= self.q)
        if bad.any():
            at = np.argwhere(bad)[0].tolist()
            raise ValueError(f"{what} entry {at} = {raw[tuple(at)].item()!r} is not an "
                             f"index of {self!r} in [0, {self.q})")
        return arr

    def checked(self, values: np.ndarray, what: str) -> np.ndarray:
        """values as an index array, refused as by `indices`; an index array
        is range-checked through a uint16 view and returned uncopied."""
        if values.dtype != DTYPE:  # checked against its cast: nothing wraps
            return self.indices(values, what)
        if values.size and values.view(np.uint16).max() >= self.q:
            self.indices(values, what)  # names the first bad entry
        return values

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    @property
    def gen(self) -> "FieldElement":
        if self.k == 1:
            raise ValueError("prime field has no extension generator")
        return FieldElement(self, self.p)

    def format_index(self, idx: int) -> str:
        coeffs = self._idx_to_coeffs(idx)
        if self.k == 1:
            return str(coeffs[0])
        terms = []
        for i in range(self.k - 1, -1, -1):
            c = coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "a" if i == 1 else f"a^{i}"
                terms.append(var if c == 1 else f"{c}*{var}")
        return "+".join(terms) if terms else "0"

    # ---- identity ----

    def __eq__(self, other) -> bool:
        return self is other or isinstance(other, FieldSpec) and (
            (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus))

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"


@functools.lru_cache(maxsize=None)
def field(p: int, k: int = 1, modulus: Optional[tuple[int, ...]] = None) -> FieldSpec:
    """Cached FieldSpec constructor; tables are built once per field."""
    return FieldSpec(p, k, modulus)


def _foreign(value) -> bool:
    """Whether value is of a library type other than FieldElement: the field
    and algebra element operators leave it to Python, so that its own type
    takes the operation or Python refuses it with a TypeError."""
    return type(value).__module__.startswith(__package__ + ".") \
        and not isinstance(value, FieldElement)


class FieldElement:
    """Immutable element of a FieldSpec, stored as its index."""

    __slots__ = ("spec", "idx")

    def __init__(self, spec: FieldSpec, idx: int):
        if not 0 <= idx < spec.q:
            raise ValueError(f"index {idx} out of range for {spec!r}")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "idx", int(idx))

    def __setattr__(self, *a):
        raise AttributeError("FieldElement is immutable")

    def __add__(self, other):
        if _foreign(other):
            return NotImplemented
        return FieldElement(self.spec, self.spec.add(self.idx, self.spec.element(other).idx))

    __radd__ = __add__

    def __sub__(self, other):
        if _foreign(other):
            return NotImplemented
        return FieldElement(self.spec, self.spec.sub(self.idx, self.spec.element(other).idx))

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg(self.idx))

    def __mul__(self, other):
        if _foreign(other):
            return NotImplemented
        return FieldElement(self.spec, self.spec.mul(self.idx, self.spec.element(other).idx))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if _foreign(other):
            return NotImplemented
        inv = self.spec.inv(self.spec.element(other).idx)
        return FieldElement(self.spec, self.spec.mul(self.idx, inv))

    def __pow__(self, e: int):
        return FieldElement(self.spec, self.spec.pow_(self.idx, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.inv(self.idx))

    def frobenius(self, t: int = 1) -> "FieldElement":
        return FieldElement(self.spec, self.spec.frob(self.idx, t))

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(self.spec._idx_to_coeffs(self.idx))

    def is_zero(self) -> bool:
        return self.idx == 0

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.spec.k == 1 and self.idx == other % self.spec.p
        return (isinstance(other, FieldElement)
                and self.spec == other.spec and self.idx == other.idx)

    def __hash__(self) -> int:
        return hash((self.spec, self.idx))

    def __str__(self) -> str:
        return self.spec.format_index(self.idx)

    def __repr__(self) -> str:
        return f"<{self} in {self.spec!r}>"
