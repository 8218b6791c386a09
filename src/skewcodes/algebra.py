"""Finite-dimensional associative unital algebras over a FieldSpec.

An Algebra is a basis a_0..a_{r-1}, a structure tensor c with
a_i a_j = sum_l c[i, j, l] a_l, and a unit vector.  Elements are coordinate
rows (numpy index arrays); linear maps are r x r index matrices in column
convention (column j = image of a_j).
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

import numpy as np

from . import _gflinalg as la
from .errors import AxiomError, MixedStructureError
from .fields import DTYPE, FieldSpec, field
from .fxlinalg import Poly


class Algebra:
    def __init__(self, fieldspec: FieldSpec, tensor: np.ndarray, unit: np.ndarray,
                 labels: Optional[Sequence[str]] = None, meta: Optional[dict] = None):
        tensor = fieldspec.indices(tensor, "structure tensor")
        unit = fieldspec.indices(unit, "unit")
        r = tensor.shape[0]
        if tensor.shape != (r, r, r):
            raise ValueError(f"structure tensor must be (r, r, r), got {tensor.shape}")
        if unit.shape != (r,):
            raise ValueError(f"unit must have shape ({r},)")
        self.field = fieldspec
        self.dim = r
        self.tensor = tensor
        self.unit = unit
        self.labels = list(labels) if labels is not None else [f"e{i}" for i in range(r)]
        if len(self.labels) != r:
            raise ValueError("label count does not match dimension")
        self.meta = dict(meta or {})
        self._hash = hash((self.field, r, self.tensor.tobytes(), self.unit.tobytes()))

    @functools.cached_property
    def regular(self):
        """A as a right module over itself, R(a_j): a_i -> a_i a_j, made once A
        passes verify_algebra (AxiomError if not), whose associativity test
        is the module law R(a_i a_j) = R(a_i) R(a_j)."""
        from .modact import RightModuleSpec  # modact imports this module
        rep = verify_algebra(self)
        if not rep.ok:
            raise AxiomError(rep.failures[0])
        return RightModuleSpec(self, np.ascontiguousarray(self.tensor.transpose(1, 0, 2)))

    # ---- raw coordinate ops ----

    def mul_rows(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Every product x_i y_j of coordinate rows, shape (len(x), len(y), r)."""
        r = self.dim
        # [i, (v, l)]: coordinate l of x_i a_v
        left = la.mat_mul(self.field, x, self.tensor.reshape(r, r * r))
        left = left.reshape(-1, r, r).transpose(0, 2, 1).reshape(-1, r)
        prod = la.mat_mul(self.field, left, np.ascontiguousarray(y.T))
        return prod.reshape(x.shape[0], r, y.shape[0]).transpose(0, 2, 1)

    def left_mult_matrix(self, x: np.ndarray) -> np.ndarray:
        """Matrix of y -> x * y in column convention."""
        r = self.dim
        rows = la.mat_mul(self.field, x[None, :], self.tensor.reshape(r, r * r))
        return rows.reshape(r, r).T.copy()

    # ---- element constructors ----

    def element(self, coords) -> "AlgebraElement":
        if isinstance(coords, AlgebraElement):
            if coords.algebra != self:
                raise MixedStructureError("element from a different algebra")
            return coords
        return AlgebraElement(self, np.asarray([self.field.element(c).idx for c in coords],
                                               dtype=DTYPE))

    def from_coords(self, arr: np.ndarray) -> "AlgebraElement":
        return AlgebraElement(self, arr)

    @property
    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, la.zeros(self.dim))

    @property
    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, self.unit.copy())

    def basis(self) -> list["AlgebraElement"]:
        return [AlgebraElement(self, la.eye(self.dim)[i]) for i in range(self.dim)]

    def basis_element(self, i: int) -> "AlgebraElement":
        return AlgebraElement(self, la.eye(self.dim)[i])

    def format_coords(self, coords: np.ndarray) -> str:
        terms = []
        for i in range(self.dim):
            c = int(coords[i])
            if c == 0:
                continue
            cs = self.field.format_index(c)
            label = self.labels[i]
            if label == "1":
                terms.append(cs if "+" not in cs else f"({cs})")
            elif c == 1:
                terms.append(label)
            elif "+" in cs:
                terms.append(f"({cs})*{label}")
            else:
                terms.append(f"{cs}*{label}")
        return " + ".join(terms) if terms else "0"

    def __eq__(self, other) -> bool:
        return self is other or isinstance(other, Algebra) and (
            self.field == other.field and self.dim == other.dim
            and np.array_equal(self.tensor, other.tensor)
            and np.array_equal(self.unit, other.unit))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        name = self.meta.get("name", f"algebra dim {self.dim}")
        return f"<{name} over {self.field!r}>"


class AlgebraElement:
    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: Algebra, coords: np.ndarray):
        coords = np.asarray(coords)
        if coords.shape != (algebra.dim,):
            raise ValueError(f"expected {algebra.dim} coordinates, got {coords.shape}")
        self.algebra = algebra
        # a copy: the caller keeps theirs
        self.coords = algebra.field.checked(coords, "coordinate").astype(DTYPE)
        self.coords.flags.writeable = False

    def _check(self, other: "AlgebraElement") -> None:
        if self.algebra != other.algebra:
            raise MixedStructureError("elements of different algebras")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.algebra,
                              self.algebra.field.add_arrays(self.coords, other.coords))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        f = self.algebra.field
        return AlgebraElement(self.algebra,
                              f.add_arrays(self.coords, f.neg_arrays(other.coords)))

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, self.algebra.field.neg_arrays(self.coords))

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check(other)
            return AlgebraElement(self.algebra, self.algebra.mul_rows(
                self.coords[None, :], other.coords[None, :])[0, 0])
        return self.scale(other)

    __rmul__ = __mul__  # reached only for a field scalar, which is central

    def scale(self, c) -> "AlgebraElement":
        c = self.algebra.field.element(c)
        return AlgebraElement(self.algebra, self.algebra.field.MUL[self.coords, c.idx])

    def is_zero(self) -> bool:
        return bool(np.all(self.coords == 0))

    def __eq__(self, other) -> bool:
        return (isinstance(other, AlgebraElement) and self.algebra == other.algebra
                and np.array_equal(self.coords, other.coords))

    def __hash__(self) -> int:
        return hash((self.algebra, self.coords.tobytes()))

    def __str__(self) -> str:
        return self.algebra.format_coords(self.coords)

    def __repr__(self) -> str:
        return f"<{self} in {self.algebra!r}>"


class LinearMap:
    """F-linear endomorphism of an Algebra; column j = image of basis a_j."""

    __slots__ = ("algebra", "matrix")

    def __init__(self, algebra: Algebra, matrix: np.ndarray):
        matrix = algebra.field.indices(matrix, "map matrix")
        if matrix.shape != (algebra.dim, algebra.dim):
            raise ValueError(f"matrix must be {algebra.dim} x {algebra.dim}")
        self.algebra = algebra
        self.matrix = matrix
        self.matrix.flags.writeable = False

    @classmethod
    def from_images(cls, algebra: Algebra, images: Sequence[AlgebraElement]) -> "LinearMap":
        if any(im.algebra != algebra for im in images):
            raise MixedStructureError("image in a different algebra")
        cols = np.stack([im.coords for im in images], axis=1)
        return cls(algebra, cols)

    @classmethod
    def identity(cls, algebra: Algebra) -> "LinearMap":
        return cls(algebra, la.eye(algebra.dim))

    @classmethod
    def zero(cls, algebra: Algebra) -> "LinearMap":
        return cls(algebra, la.zeros((algebra.dim, algebra.dim)))

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        if x.algebra != self.algebra:
            raise MixedStructureError("map applied to element of a different algebra")
        return AlgebraElement(self.algebra,
                              la.mat_vec(self.algebra.field, self.matrix, x.coords))

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other."""
        if other.algebra != self.algebra:
            raise MixedStructureError("maps on different algebras")
        return LinearMap(self.algebra,
                         la.mat_mul(self.algebra.field, self.matrix, other.matrix))

    __matmul__ = compose

    def __add__(self, other: "LinearMap") -> "LinearMap":
        if other.algebra != self.algebra:
            raise MixedStructureError("maps on different algebras")
        return LinearMap(self.algebra,
                         self.algebra.field.add_arrays(self.matrix, other.matrix))

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        return self + (-other)

    def __neg__(self) -> "LinearMap":
        return LinearMap(self.algebra, self.algebra.field.neg_arrays(self.matrix))

    def is_zero(self) -> bool:
        return not self.matrix.any()

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.matrix, la.eye(self.algebra.dim)))

    def inverse(self) -> Optional["LinearMap"]:
        m = la.inv(self.algebra.field, self.matrix)
        return None if m is None else LinearMap(self.algebra, m)

    def __eq__(self, other) -> bool:
        return self is other or isinstance(other, LinearMap) and (
            self.algebra == other.algebra and np.array_equal(self.matrix, other.matrix))

    def __hash__(self) -> int:
        return hash((self.algebra, self.matrix.tobytes()))

    def __repr__(self) -> str:
        return f"<linear map on {self.algebra!r}>"


# ---- verification ----

class AxiomReport:
    """The failed axioms of an algebra or module, by name; ok when none."""

    def __init__(self, failures: list[str]):
        self.failures = failures
        self.ok = not failures

    def __bool__(self) -> bool:
        return self.ok


def verify_algebra(a: Algebra) -> AxiomReport:
    """Check associativity on all basis triples and two-sided unit laws."""
    failures: list[str] = []
    spec, r, c = a.field, a.dim, a.tensor
    flat = c.reshape(r * r, r)
    # lhs[i, j, u] = (a_i a_j) a_u and rhs[i, j, u] = a_i (a_j a_u), as coordinate rows
    lhs = la.mat_mul(spec, flat, flat.reshape(r, r * r)).reshape(r, r, r, r)
    rhs = la.mat_mul(spec, flat, c.transpose(1, 0, 2).reshape(r, r * r))
    rhs = rhs.reshape(r, r, r, r).transpose(2, 0, 1, 3)
    if not np.array_equal(lhs, rhs):
        bad = np.argwhere(np.any(lhs != rhs, axis=-1))[0]
        i, j, l = (int(v) for v in bad)
        failures.append(
            f"associativity fails at ({a.labels[i]}, {a.labels[j]}, {a.labels[l]})")
    eye, unit = la.eye(r), a.unit[None, :]
    left_bad = np.any(a.mul_rows(unit, eye)[0] != eye, axis=1)
    right_bad = np.any(a.mul_rows(eye, unit)[:, 0] != eye, axis=1)
    if (left_bad | right_bad).any():
        j = int(np.argmax(left_bad | right_bad))
        if left_bad[j]:
            failures.append(f"unit * {a.labels[j]} != {a.labels[j]}")
        else:
            failures.append(f"{a.labels[j]} * unit != {a.labels[j]}")
    return AxiomReport(failures)


def check_algebra(a: Algebra) -> Algebra:
    a.regular  # runs verify_algebra, once per algebra
    return a


# ---- constructors ----

def matrix_algebra(fieldspec: FieldSpec, n: int) -> Algebra:
    """Full matrix algebra M_n over the field, basis E_{st} row-major."""
    r = n * n
    tensor = la.zeros((r, r, r))
    for s in range(n):
        for t in range(n):
            for u in range(n):
                for v in range(n):
                    if t == u:
                        tensor[s * n + t, u * n + v, s * n + v] = 1
    unit = la.zeros(r)
    for s in range(n):
        unit[s * n + s] = 1
    labels = [f"E{s + 1}{t + 1}" for s in range(n) for t in range(n)]
    return check_algebra(Algebra(fieldspec, tensor, unit, labels,
                                 meta={"kind": "matrix", "n": n,
                                       "name": f"M{n}({fieldspec!r})"}))


def group_algebra_cyclic(fieldspec: FieldSpec, n: int) -> Algebra:
    """Group algebra of the cyclic group of order n, basis 1, g, ..., g^{n-1}."""
    tensor = la.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            tensor[i, j, (i + j) % n] = 1
    unit = la.zeros(n)
    unit[0] = 1
    labels = ["1"] + ["g" if i == 1 else f"g^{i}" for i in range(1, n)]
    return check_algebra(Algebra(fieldspec, tensor, unit, labels,
                                 meta={"kind": "group_cyclic", "n": n,
                                       "name": f"C{n} group algebra"}))


def quotient_algebra_yz(fieldspec: FieldSpec) -> Algebra:
    """F[Y, Z] / (Y^2, Z^2, YZ): basis 1, y, z with all products of y, z zero."""
    tensor = la.zeros((3, 3, 3))
    for j in range(3):
        tensor[0, j, j] = 1
        tensor[j, 0, j] = 1
    unit = la.zeros(3)
    unit[0] = 1
    return check_algebra(Algebra(fieldspec, tensor, unit, ["1", "y", "z"],
                                 meta={"kind": "quotient_yz",
                                       "name": "F[Y,Z]/(Y^2,Z^2,YZ)"}))


def quotient_algebra_tn(fieldspec: FieldSpec, poly: Sequence) -> Algebra:
    """F[t] / (f) for a monic f of degree n >= 1, basis 1, t, ..., t^{n-1}."""
    coeffs = [fieldspec.element(c) for c in poly]
    if not coeffs or coeffs[-1] != fieldspec.one:
        raise ValueError("defining polynomial must be monic")
    n = len(coeffs) - 1
    if n < 1:
        raise ValueError("defining polynomial must have degree >= 1")
    # row d of red holds t^d mod f
    f = Poly(fieldspec, coeffs)
    red = la.zeros((2 * n - 1, n))
    for d in range(2 * n - 1):
        rem = (Poly.x_power(fieldspec, d) % f).coeffs
        red[d, :rem.shape[0]] = rem
    tensor = red[np.add.outer(np.arange(n), np.arange(n))]
    unit = la.zeros(n)
    unit[0] = 1
    labels = ["1"] + ["t" if i == 1 else f"t^{i}" for i in range(1, n)]
    return check_algebra(Algebra(fieldspec, tensor, unit, labels,
                                 meta={"kind": "quotient_tn", "n": n,
                                       "poly": tuple(c.idx for c in coeffs),
                                       "name": f"F[t]/(deg {n})"}))


# ---- restriction of scalars ----

class ScalarRestriction:
    """View of an algebra over GF(p^k) as an algebra over GF(p).

    Restricted basis is b_{(i, j)} = g^j a_i in blocks of k per parent basis
    element, where g is the parent field generator; coordinates are the
    field's digit layout (FieldSpec.DIGITS) of the parent coordinates.
    """

    def __init__(self, parent: Algebra):
        from .modact import RightModuleSpec  # modact imports this module
        K = parent.field
        if K.k == 1:
            raise ValueError("parent field is already prime")
        # b_u b_{(i,j)} = b_u (g^j a_i): the restricted right regular action
        right = K.restrict_stack(parent.tensor.transpose(1, 0, 2))
        tensor = np.ascontiguousarray(right.transpose(1, 0, 2))
        unit = K.DIGITS[parent.unit].reshape(-1)
        labels = []
        for lbl in parent.labels:
            for j in range(K.k):
                gs = "a" if j == 1 else f"a^{j}"
                labels.append(lbl if j == 0 else gs if lbl == "1" else f"{gs}*{lbl}")
        meta = dict(parent.meta)
        meta.update({"kind": "restricted", "parent_kind": parent.meta.get("kind"),
                     "name": f"restriction of {parent.meta.get('name', 'algebra')}"})
        self.parent = parent
        self.algebra = Algebra(field(K.p, 1), tensor, unit, labels, meta=meta)
        check_algebra(parent)  # then its restriction is an algebra: not re-verified
        self.algebra.regular = RightModuleSpec(self.algebra, right)

    def to_restricted(self, x: AlgebraElement) -> AlgebraElement:
        if x.algebra != self.parent:
            raise MixedStructureError("element is not in the parent algebra")
        return AlgebraElement(self.algebra, self.parent.field.DIGITS[x.coords].reshape(-1))

    def to_parent(self, x: AlgebraElement) -> AlgebraElement:
        if x.algebra != self.algebra:
            raise MixedStructureError("element is not in the restricted algebra")
        K = self.parent.field
        return AlgebraElement(self.parent, K.from_digits(x.coords.reshape(-1, K.k)))

    def frobenius(self, t: int = 1) -> LinearMap:
        """Componentwise field Frobenius x -> x^(p^t) on the K-coordinates.

        Only GF(p)-linear, hence a LinearMap on the restricted algebra.
        """
        K = self.parent.field
        powers = K.from_digits(np.eye(K.k))  # the indices of g^0 .. g^{k-1}
        block = K.DIGITS[[K.frob(int(g), t) for g in powers]].T
        return LinearMap(self.algebra, np.kron(np.eye(self.parent.dim), block))


# ---- derivations ----

def inner_derivation(algebra: Algebra, sigma: LinearMap, m: AlgebraElement) -> LinearMap:
    """The sigma-twisted inner derivation x -> m x - sigma(x) m."""
    if m.algebra != algebra or sigma.algebra != algebra:
        raise MixedStructureError("mismatched algebra in inner_derivation")
    spec, x = algebra.field, m.coords[None, :]
    # row j is the image of a_j: m a_j - sigma(a_j) m, sigma(a_j) row j of sigma^T
    rows = spec.add_arrays(algebra.mul_rows(x, la.eye(algebra.dim))[0],
                           spec.neg_arrays(algebra.mul_rows(sigma.matrix.T, x)[:, 0]))
    return LinearMap(algebra, rows.T)
