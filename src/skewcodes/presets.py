"""Named example contexts used by the CLI and the test suite.

Each builder returns an ExampleBundle holding a verified skew-derivation
context plus whatever handles the construction produced (parent algebra,
scalar restriction, distinguished elements).  bundle.checks() re-runs the
worked identities that motivate the example and reports them line by line;
every line must come out True on a correct build.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import _gflinalg as la
from .algebra import (AlgebraElement, LinearMap, ScalarRestriction,
                      group_algebra_cyclic, inner_derivation, matrix_algebra,
                      quotient_algebra_yz)
from .fields import field
from .skewlaurent import laurent_ring_exists
from .skewmap import SkewDerivation, verify_skew_derivation


class ExampleBundle:
    """A named context together with its worked-identity checklist."""

    def __init__(self, name: str, ctx: SkewDerivation,
                 checks: Callable[["ExampleBundle"], list[tuple[str, bool]]],
                 restriction: Optional[ScalarRestriction] = None):
        self.name = name
        self.ctx = ctx
        self.algebra = ctx.algebra
        self.restriction = restriction
        self._checks = checks

    def checks(self) -> list[tuple[str, bool]]:
        return self._checks(self)


def _m2f4_restricted():
    """F4 and M2(F4) restricted to F2."""
    f4 = field(2, 2)
    return f4, ScalarRestriction(matrix_algebra(f4, 2))


def _parent_matrix(res: ScalarRestriction, entries) -> AlgebraElement:
    """Entries are F4 indices [[x0, x1], [x2, x3]]; returns a restricted element."""
    return res.to_restricted(res.parent.element([x for row in entries for x in row]))


def _m2f4_delta_formula(f4, entries) -> list[list[int]]:
    """The closed form for the E12-inner derivation on M2(F4)."""
    x0, x1, x2, x3 = entries[0][0], entries[0][1], entries[1][0], entries[1][1]
    return [[x2, f4.add(f4.frob(x0), x3)], [0, f4.frob(x2)]]


def m2f4_inner() -> ExampleBundle:
    """M2(F4) restricted to F2, sigma = componentwise Frobenius, delta inner
    by the nilpotent matrix with a single 1 in the upper right corner."""
    f4, res = _m2f4_restricted()
    a = res.algebra
    sigma = res.frobenius()
    m_el = _parent_matrix(res, [[0, 1], [0, 0]])
    delta = inner_derivation(a, sigma, m_el)
    ctx = verify_skew_derivation(a, sigma, delta)

    def checks(b: ExampleBundle) -> list[tuple[str, bool]]:
        out = []
        units = {"E11": [[1, 0], [0, 0]], "E12": [[0, 1], [0, 0]],
                 "E21": [[0, 0], [1, 0]], "E22": [[0, 0], [0, 1]]}
        for lbl, entries in units.items():
            got = b.ctx.delta(_parent_matrix(res, entries))
            want = _parent_matrix(res, _m2f4_delta_formula(f4, entries))
            out.append((f"delta({lbl}) matches the closed form", got == want))
        d2 = la.mat_mul(a.field, ctx.delta.matrix, ctx.delta.matrix)
        out.append(("delta^2 = 0 as a matrix identity", not d2.any()))
        out.append(("sigma(M) = M for the inner element",
                    b.ctx.sigma(m_el) == m_el))
        avail = laurent_ring_exists(b.ctx)
        out.append(("series ring exists with m_delta = 2",
                    avail.series and b.ctx.m_delta == 2))
        out.append(("laurent ring exists with m_delta' = 2",
                    avail.laurent and avail.m_delta_prime == 2))
        return out

    return ExampleBundle("m2f4-inner", ctx, checks, restriction=res)


def f4c5_group() -> ExampleBundle:
    """Group algebra F4 C5, sigma the squaring automorphism of the group,
    delta the inner sigma-derivation induced by 1."""
    f4 = field(2, 2)
    a = group_algebra_cyclic(f4, 5)
    sigma = LinearMap.from_images(a, [a.basis_element(2 * i % 5) for i in range(5)])
    delta = inner_derivation(a, sigma, a.one)
    ctx = verify_skew_derivation(a, sigma, delta)

    def checks(b: ExampleBundle) -> list[tuple[str, bool]]:
        g = a.basis_element(1)

        def pow_sum(*exps):
            acc = a.zero
            for e in exps:
                acc = acc + a.basis_element(e % 5)
            return acc

        chain = [
            ("delta(g) = g + g^2", b.ctx.delta(g) == pow_sum(1, 2)),
            ("delta^2(g) = g + g^4",
             b.ctx.delta(b.ctx.delta(g)) == pow_sum(1, 4)),
            ("delta^3(g) = g + g^2 + g^3 + g^4",
             b.ctx.delta(b.ctx.delta(b.ctx.delta(g))) == pow_sum(1, 2, 3, 4)),
            ("delta^4(g) = 0",
             b.ctx.delta(b.ctx.delta(b.ctx.delta(b.ctx.delta(g)))).is_zero()),
        ]
        avail = laurent_ring_exists(b.ctx)
        chain.append(("delta nilpotent with m_delta = 4", b.ctx.m_delta == 4))
        chain.append(("delta' nilpotent", b.ctx.opposite.m_delta is not None))
        chain.append(("laurent ring exists", avail.laurent))
        return chain

    return ExampleBundle("f4c5-group", ctx, checks)


def m2f4_diag() -> ExampleBundle:
    """Same M2(F4) setting but delta inner by the diagonal matrix diag(0, a):
    neither delta nor delta' is nilpotent."""
    f4, res = _m2f4_restricted()
    a = res.algebra
    sigma = res.frobenius()
    m_el = _parent_matrix(res, [[0, 0], [0, f4.gen.idx]])
    delta = inner_derivation(a, sigma, m_el)
    ctx = verify_skew_derivation(a, sigma, delta)

    def checks(b: ExampleBundle) -> list[tuple[str, bool]]:
        out = [("delta(M) = M for M = diag(0, a)",
                b.ctx.delta(m_el) == m_el)]
        op = b.ctx.opposite  # sigma is invertible; delta' acts on A^op
        m_op = op.algebra.from_coords(m_el.coords)
        out.append(("delta'(M) = M for M = diag(0, a)", op.delta(m_op) == m_op))
        avail = laurent_ring_exists(b.ctx)
        out.append(("series ring refused (delta not nilpotent)",
                    not avail.series and b.ctx.m_delta is None))
        out.append(("laurent ring refused", not avail.laurent))
        return out

    return ExampleBundle("m2f4-diag", ctx, checks, restriction=res)


def fyz_quotient(p: int = 2) -> ExampleBundle:
    """F[Y,Z]/(Y^2, Z^2, YZ) with sigma(y) = y + z, sigma(z) = z, delta(z) = y:
    delta is nilpotent but delta' is not."""
    f = field(p)
    a = quotient_algebra_yz(f)
    one, y, z = a.basis()
    sigma = LinearMap.from_images(a, [one, y + z, z])
    delta = LinearMap.from_images(a, [a.zero, a.zero, y])
    ctx = verify_skew_derivation(a, sigma, delta)

    def checks(b: ExampleBundle) -> list[tuple[str, bool]]:
        sg, dl = b.ctx.sigma, b.ctx.delta
        out = [
            ("sigma(y)delta(y) + delta(y)y = delta(y^2) = 0",
             (sg(y) * dl(y) + dl(y) * y).is_zero() and dl(y * y).is_zero()),
            ("sigma(z)delta(z) + delta(z)z = delta(z^2) = 0",
             (sg(z) * dl(z) + dl(z) * z).is_zero() and dl(z * z).is_zero()),
            ("sigma(y)delta(z) + delta(y)z = delta(yz) = 0",
             (sg(y) * dl(z) + dl(y) * z).is_zero() and dl(y * z).is_zero()),
            ("sigma(z)delta(y) + delta(z)y = delta(zy) = 0",
             (sg(z) * dl(y) + dl(z) * y).is_zero() and dl(z * y).is_zero()),
        ]
        d2 = la.mat_mul(a.field, dl.matrix, dl.matrix)
        out.append(("delta^2 = 0", not d2.any()))
        op = b.ctx.opposite  # A is commutative, so A^op == A
        out.append(("delta'(y) = y", op is not None and op.delta(y) == y))
        avail = laurent_ring_exists(b.ctx)
        out.append(("series ring exists with m_delta = 2",
                    avail.series and b.ctx.m_delta == 2))
        out.append(("laurent ring refused (delta' not nilpotent)",
                    not avail.laurent))
        return out

    return ExampleBundle("fyz-quotient", ctx, checks)


PRESETS: dict[str, Callable[[], ExampleBundle]] = {
    "m2f4-inner": m2f4_inner,
    "f4c5-group": f4c5_group,
    "m2f4-diag": m2f4_diag,
    "fyz-quotient": fyz_quotient,
}


def load_preset(name: str) -> ExampleBundle:
    try:
        builder = PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown example {name!r}; known: {known}") from None
    return builder()
