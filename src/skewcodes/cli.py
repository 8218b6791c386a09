"""Command-line surface.

One self-describing workspace file (JSON) per invocation names the field,
the algebra, the twisting maps (sigma, delta), an optional module, and any
named element payloads; subcommands then operate on that context. Exit
status: 0 all checks passed, 1 a mathematical check failed or a requested
ring does not exist, 2 malformed input. All output is deterministic.

Workspace schema (JSON object; sections marked * are optional):

  field      {"p": int, "k": int*, "modulus": [int, ...]*}
             (p prime, p^k <= 1024, a monic irreducible modulus where no
             built-in one exists; other fields exit 2)
  algebra    {"kind": "matrix"|"group_cyclic"|"quotient_yz"|"quotient_tn",
              "n": int (matrix/group sizes), "poly": [fe, ...] (quotient_tn),
              "restrict_scalars": bool*}
  sigma      {"kind": "identity"|"frobenius"|"group_power"|"matrix",
              "t": int* (frobenius), "power": int (group_power),
              "matrix": [[fe, ...], ...] (column convention)}
  delta      {"kind": "zero"|"inner"|"matrix",
              "element": elem (inner), "matrix": [[fe, ...], ...]}
  module*    {"kind": "regular"|"natural"|"trivial", "n": int (trivial)}
  prec*      int (default 8)
  elements*, polynomials*, series*, laurent*, vectors*, messages*
             {name: payload, ...}
  generators* [name, ...]  (default generators for the code subcommands)

Field elements (fe) are an index int or a list of base-p digits. Algebra
elements (elem) are a list of dim field elements, or for a scalar-restricted
matrix algebra {"parent_matrix": [[fe, fe], [fe, fe]]}. Ring polynomials are
lists of elems (ascending powers). Series payloads are {"coeffs": [elem,
...], "prec": int*}; Laurent payloads {"ord": int, "coeffs": [elem, ...],
"end": int|null}. Vectors are coefficient stacks [[fe * n], ...] (row i is
the X^i coefficient); messages are lists of F[X] polynomials [[fe, ...],
...].
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

import numpy as np

from . import _gflinalg as la
from .algebra import (Algebra, AlgebraElement, LinearMap, ScalarRestriction,
                      group_algebra_cyclic, inner_derivation, matrix_algebra,
                      quotient_algebra_tn, quotient_algebra_yz)
from .codes import (code_from_generators, correspondence_roundtrip,
                    cyclic_closure, decode, encode)
from .errors import (AxiomError, MixedStructureError, PrecisionError,
                     RingUnavailableError)
from .fields import DTYPE, FieldSpec, field
from .fxlinalg import Poly
from .modact import (RightModuleSpec, VecPoly, check_module, natural_module,
                     regular_module)
from .presets import PRESETS, load_preset
from .skewlaurent import TruncLaurent, laurent_mul, laurent_ring_exists
from .skewmap import MAX_TABLE_ENTRIES, verify_skew_derivation
from .skewpoly import SkewPoly
from .skewseries import TruncSeries, ore_left, series_mul

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2

# largest algebra dimension, after scalar restriction, whose r^4-entry
# associativity check fits the N-table entry budget
MAX_ALGEBRA_DIM = math.isqrt(math.isqrt(MAX_TABLE_ENTRIES))


class InputError(ValueError):
    """Workspace file or payload is malformed."""


# ---- workspace parsing ----

class Workspace:
    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise InputError("workspace must be a JSON object")
        self.raw = raw
        self.fs = self._build_field(_get(raw, "field", dict))
        self.restriction: Optional[ScalarRestriction] = None
        self.algebra = self._build_algebra(_get(raw, "algebra", dict))
        sigma = self._build_sigma(_get(raw, "sigma", dict))
        delta = self._build_delta(_get(raw, "delta", dict), sigma)
        self.ctx = verify_skew_derivation(self.algebra, sigma, delta)
        # sizes that drive the N-table are refused before it is built
        self.max_n = self.ctx.ntable.max_n
        self.max_prec = (self.max_n + 1) // (self.ctx.m_delta or 1)
        # X^{-n} reads the opposite context's table up to column block n m' - 1
        self.avail = laurent_ring_exists(self.ctx)
        self.min_ord = -((self.max_n + 1) // (self.avail.m_delta_prime or 1))
        self.prec = raw.get("prec", 8)
        if type(self.prec) is not int or self.prec < 1:
            raise InputError("prec must be a positive integer")
        self.check_prec(self.prec)
        self._module: Optional[RightModuleSpec] = None

    # -- structure builders --

    def _build_field(self, spec: dict) -> FieldSpec:
        p = _get(spec, "p", int)
        k = spec.get("k", 1)
        modulus = spec.get("modulus")
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise InputError("field k must be a positive integer")
        if modulus is not None and not (isinstance(modulus, list)
                                        and all(type(c) is int for c in modulus)):
            raise InputError("field modulus must be a list of integers")
        try:
            return field(p, k, tuple(modulus) if modulus else None)
        except (ValueError, TypeError) as e:
            raise InputError(f"bad field: {e}") from e

    def _build_algebra(self, spec: dict) -> Algebra:
        kind = _get(spec, "kind", str)
        restrict = spec.get("restrict_scalars", False)
        if type(restrict) is not bool:
            raise InputError("restrict_scalars must be true or false")
        if restrict and self.fs.k == 1:
            raise InputError("restrict_scalars needs a non-prime field")

        def check_dim(dim: int) -> None:  # sizes are refused before building
            dim *= self.fs.k if restrict else 1
            if dim > MAX_ALGEBRA_DIM:
                raise InputError(f"algebra dimension {dim} exceeds the limit "
                                 f"{MAX_ALGEBRA_DIM}")

        if kind in ("matrix", "group_cyclic"):
            n = _get(spec, "n", int)
            if n < 1:
                raise InputError(f"{kind} algebra size n must be positive")
            check_dim(n * n if kind == "matrix" else n)
            build = matrix_algebra if kind == "matrix" else group_algebra_cyclic
            a = build(self.fs, n)
        elif kind == "quotient_yz":
            check_dim(3)
            a = quotient_algebra_yz(self.fs)
        elif kind == "quotient_tn":
            poly = [self._field_elem(self.fs, c) for c in _get(spec, "poly", list)]
            if len(poly) < 2 or poly[-1] != 1:
                raise InputError("quotient_tn poly must be monic of degree >= 1")
            check_dim(len(poly) - 1)
            a = quotient_algebra_tn(self.fs, poly)
        else:
            raise InputError(f"unknown algebra kind {kind!r}")
        if restrict:
            self.restriction = ScalarRestriction(a)
            a = self.restriction.algebra
        return a

    def _build_sigma(self, spec: dict) -> LinearMap:
        kind = _get(spec, "kind", str)
        if kind == "identity":
            return LinearMap.identity(self.algebra)
        if kind == "frobenius":
            if self.restriction is None:
                raise InputError("frobenius sigma needs restrict_scalars")
            t = spec.get("t", 1)
            if type(t) is not int or t < 1:
                raise InputError("frobenius power t must be a positive integer")
            return self.restriction.frobenius(t)
        if kind == "group_power":
            a = self.algebra
            if a.meta.get("kind") != "group_cyclic":
                raise InputError("group_power sigma needs a group_cyclic algebra")
            n, u = a.meta["n"], _get(spec, "power", int)
            return LinearMap.from_images(a, [a.basis_element(u * i % n) for i in range(n)])
        if kind == "matrix":
            return LinearMap(self.algebra, self._map_matrix(spec))
        raise InputError(f"unknown sigma kind {kind!r}")

    def _build_delta(self, spec: dict, sigma: LinearMap) -> LinearMap:
        kind = _get(spec, "kind", str)
        if kind == "zero":
            return LinearMap.zero(self.algebra)
        if kind == "inner":
            m = self.algebra_elem(_get(spec, "element", object))
            return inner_derivation(self.algebra, sigma, m)
        if kind == "matrix":
            return LinearMap(self.algebra, self._map_matrix(spec))
        raise InputError(f"unknown delta kind {kind!r}")

    def _map_matrix(self, spec: dict) -> np.ndarray:
        dim = self.algebra.dim
        return self._field_rows(self.fs, _get(spec, "matrix", list), dim, dim,
                                f"map matrix must be {dim}x{dim}")

    @property
    def module(self) -> RightModuleSpec:
        if self._module is None:
            spec = self.raw.get("module", {"kind": "regular"})
            kind = _get(spec, "kind", str)
            if kind == "regular":
                self._module = regular_module(self.algebra)
            elif kind == "natural":
                if self.restriction is None or \
                        self.restriction.parent.meta.get("kind") != "matrix":
                    raise InputError("natural module needs a scalar-restricted "
                                     "matrix algebra")
                self._module = natural_module(self.restriction)
            elif kind == "trivial":
                n = _get(spec, "n", int)
                if not 1 <= n <= MAX_ALGEBRA_DIM:
                    raise InputError(f"trivial module size n must lie in "
                                     f"[1, {MAX_ALGEBRA_DIM}]")
                act = np.broadcast_to(np.eye(n, dtype=DTYPE),
                                      (self.algebra.dim, n, n)).copy()
                self._module = check_module(RightModuleSpec(self.algebra, act))
            else:
                raise InputError(f"unknown module kind {kind!r}")
        return self._module

    def check_prec(self, prec: int) -> None:
        if prec > self.max_prec:
            raise InputError(f"precision {prec} exceeds the limit {self.max_prec} "
                             f"for this context")

    # -- element parsing --

    def _field_elem(self, fs: FieldSpec, spec) -> int:
        if isinstance(spec, bool) or not isinstance(spec, (int, list)):
            raise InputError(f"bad field element {spec!r}")
        try:
            if isinstance(spec, int):
                if not 0 <= spec < fs.q:
                    raise ValueError(f"index {spec} outside [0, {fs.q})")
                return spec
            if len(spec) > fs.k or not all(
                    type(c) is int and 0 <= c < fs.p for c in spec):
                raise ValueError(f"need at most {fs.k} digits in [0, {fs.p})")
            return fs.element(spec).idx
        except (ValueError, TypeError) as e:
            raise InputError(f"bad field element {spec!r}: {e}") from e

    def _field_rows(self, fs: FieldSpec, spec, n_rows: Optional[int], width: int,
                    message: str) -> np.ndarray:
        """spec, a list of n_rows (None: any number of) lists of width field
        elements, as an index array; refused with message if not so shaped."""
        if not isinstance(spec, list) or n_rows not in (None, len(spec)) or any(
                not isinstance(r, list) or len(r) != width for r in spec):
            raise InputError(message)
        arr = la.zeros((len(spec), width))
        for i, row in enumerate(spec):
            for j, e in enumerate(row):
                arr[i, j] = self._field_elem(fs, e)
        return arr

    def algebra_elem(self, spec) -> AlgebraElement:
        a = self.algebra
        if isinstance(spec, dict):
            pm = spec.get("parent_matrix")
            if pm is None:
                raise InputError("element object needs a parent_matrix key")
            if self.restriction is None or \
                    self.restriction.parent.meta.get("kind") != "matrix":
                raise InputError("parent_matrix needs a scalar-restricted "
                                 "matrix algebra")
            parent = self.restriction.parent
            nn = parent.meta["n"]
            coords = self._field_rows(parent.field, pm, nn, nn,
                                      f"parent_matrix must be {nn}x{nn}")
            return self.restriction.to_restricted(parent.from_coords(coords.reshape(-1)))
        return a.from_coords(self._field_rows(a.field, [spec], 1, a.dim,
                                              f"element must list {a.dim} coordinates")[0])

    def ring_poly(self, spec) -> SkewPoly:
        if not isinstance(spec, list):
            raise InputError("ring polynomial must be a list of elements")
        return SkewPoly.from_elements(self.ctx,
                                      [self.algebra_elem(e) for e in spec])

    def series(self, spec, prec: Optional[int]) -> TruncSeries:
        coeffs = [self.algebra_elem(e) for e in _get(spec, "coeffs", list)]
        n = prec if prec is not None else spec.get("prec", max(len(coeffs), self.prec))
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise InputError("series prec must be a nonnegative integer")
        self.check_prec(n)
        return TruncSeries.from_elements(self.ctx, coeffs, n)

    def laurent(self, spec) -> TruncLaurent:
        coeffs = [self.algebra_elem(e) for e in _get(spec, "coeffs", list)]
        ord_ = _get(spec, "ord", int) if "ord" in spec else 0
        end = ord_ + len(coeffs)
        if "end" in spec:
            end = None if spec["end"] is None else _get(spec, "end", int)
        if not self.min_ord <= ord_ <= self.max_n or (
                end is not None and end - ord_ > self.max_n + 1):
            raise InputError(f"laurent window [{ord_}, {end}) exceeds the limits: ord in "
                             f"[{self.min_ord}, {self.max_n}], length <= {self.max_n + 1}")
        try:
            return TruncLaurent.from_elements(self.ctx, ord_, coeffs, end)
        except RingUnavailableError:
            raise
        except ValueError as e:
            raise InputError(f"bad laurent payload: {e}") from e

    def vecpoly(self, spec) -> VecPoly:
        mod = self.module
        return VecPoly(mod, self.ctx, self._field_rows(
            mod.field, spec, None, mod.n, f"vector must be a list of rows of width {mod.n}"))

    def message(self, spec) -> list[Poly]:
        if not isinstance(spec, list):
            raise InputError("message must be a list of F[X] polynomials")
        fs = self.module.field
        out = []
        for p in spec:
            if not isinstance(p, list):
                raise InputError("each message entry must be a coefficient list")
            out.append(Poly(fs, [self._field_elem(fs, c) for c in p]))
        return out

    def payload(self, section: str, ref: str):
        """Resolve a named or inline payload from a CLI argument."""
        if ref.lstrip().startswith(("[", "{")):
            try:
                return json.loads(ref)
            except json.JSONDecodeError as e:
                raise InputError(f"bad inline payload: {e}") from e
        table = self.raw.get(section, {})
        if not isinstance(table, dict) or ref not in table:
            raise InputError(f"no entry {ref!r} in workspace section "
                             f"{section!r}")
        return table[ref]


def _get(d, key: str, typ):
    if not isinstance(d, dict) or key not in d:
        raise InputError(f"missing key {key!r}")
    v = d[key]
    if typ is object:
        return v
    if typ is int and isinstance(v, bool) or not isinstance(v, typ):
        raise InputError(f"key {key!r} has the wrong type")
    return v


def load_workspace(path: str) -> Workspace:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from e
    return Workspace(raw)


# ---- subcommands ----

def cmd_verify(args) -> int:
    ws = load_workspace(args.workspace)
    a = ws.algebra
    print(f"field: GF({ws.fs.q})")
    print(f"algebra: {a.meta.get('name', 'custom')}, dim {a.dim} "
          f"over GF({a.field.q}): axioms ok")
    print("sigma: endomorphism ok"
          + (" (invertible)" if ws.ctx.opposite is not None
             else " (not invertible)"))
    print("delta: sigma-derivation ok")
    md, mdp = ws.avail.m_delta, ws.avail.m_delta_prime
    print(f"m_delta: {md if md is not None else 'none'}")
    print(f"m_delta_prime: {mdp if mdp is not None else 'none'}")
    for line in ws.avail.lines():
        print(line)
    return EXIT_OK


def cmd_mul(args) -> int:
    ws = load_workspace(args.workspace)
    prec = args.prec
    if args.ring == "poly":
        lhs = ws.ring_poly(ws.payload("polynomials", args.lhs))
        rhs = ws.ring_poly(ws.payload("polynomials", args.rhs))
        print(lhs * rhs)
    elif args.ring == "series":
        lhs = ws.series(ws.payload("series", args.lhs), prec)
        rhs = ws.series(ws.payload("series", args.rhs), prec)
        print(series_mul(lhs, rhs))
    else:
        lhs = ws.laurent(ws.payload("laurent", args.lhs))
        rhs = ws.laurent(ws.payload("laurent", args.rhs))
        print(laurent_mul(lhs, rhs))
    return EXIT_OK


def cmd_nop(args) -> int:
    ws = load_workspace(args.workspace)
    i, n = args.i, args.n
    if not 0 <= i <= n:
        raise InputError(f"need 0 <= i <= n, got i={i}, n={n}")
    if n > ws.max_n:
        raise InputError(f"n = {n} exceeds the N-table limit {ws.max_n} for this context")
    ws.ctx.ntable.ensure(n)
    mat = ws.ctx.ntable.matrix(i, n)
    a = ws.algebra
    print(f"N_{i}^{n} on basis elements:")
    for j, lbl in enumerate(a.labels):
        print(f"  {lbl} -> {a.format_coords(mat[:, j])}")
    return EXIT_OK


def cmd_ore(args) -> int:
    ws = load_workspace(args.workspace)
    # each step's n is at most dim A, so X^(k dim A) bounds the witness
    limit = ws.max_n // ws.algebra.dim
    if not 1 <= args.k <= limit:
        raise InputError(f"need 1 <= k <= {limit} (N-table limit {ws.max_n}"
                         f" over dim A = {ws.algebra.dim}), got k = {args.k}")
    f = ws.ring_poly(ws.payload("polynomials", args.f))
    w = ore_left(f, args.k)
    print(f"f = {f}")
    print(f"X^{w.n} f = g X^{w.k} with")
    print(f"g = {w.g}")
    ok = w.verify(f)
    print(f"verified: {'yes' if ok else 'NO'}")
    return EXIT_OK if ok else EXIT_MATH


def _generators(ws: Workspace, args) -> list[VecPoly]:
    refs = args.generators
    if not refs:
        refs = ws.raw.get("generators", [])
        if not isinstance(refs, list) or not refs:
            raise InputError("no generators: pass -g or add a 'generators' "
                             "list to the workspace")
        if not all(isinstance(r, str) for r in refs):
            raise InputError("each workspace generator must be a vector name "
                             "or an inline JSON string")
    return [ws.vecpoly(ws.payload("vectors", r)) for r in refs]


def cmd_code(args) -> int:
    ws = load_workspace(args.workspace)
    gens = _generators(ws, args)
    build = code_from_generators if args.action == "check" else cyclic_closure
    code = build(gens, ws.module, ws.ctx)
    if args.action == "encode":
        if args.message is None:
            raise InputError("encode needs -m MESSAGE")
        msg = ws.message(ws.payload("messages", args.message))
        if len(msg) != code.k:
            raise InputError(f"message length {len(msg)} does not match code "
                             f"dimension {code.k}")
        word = encode(msg, code)
        print(f"rate: {code.k}/{code.n}")
        print(f"codeword: {word}")
        back = decode(word, code)
        ok = back is not None and [str(p) for p in back] == [str(p) for p in msg]
        print(f"decode returns the message: {'yes' if ok else 'NO'}")
        return EXIT_OK if ok else EXIT_MATH
    for line in code.lines():
        print(line)
    if args.action == "check":
        return EXIT_OK if code.pure and code.stable else EXIT_MATH
    if args.action == "roundtrip":
        rep = correspondence_roundtrip(code)
        for line in rep.lines():
            print(line)
        return EXIT_OK if rep.ok else EXIT_MATH
    return EXIT_OK


def cmd_example(args) -> int:
    bundle = load_preset(args.name)
    print(f"example: {bundle.name}")
    failed = 0
    for label, ok in bundle.checks():
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
        failed += not ok
    for line in laurent_ring_exists(bundle.ctx).lines():
        print(line)
    return EXIT_OK if failed == 0 else EXIT_MATH


# ---- dispatch ----

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="skewcodes",
        description="Exact arithmetic in twisted polynomial, series and "
                    "Laurent rings over finite-dimensional algebras, with "
                    "the associated convolutional code checks.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify the workspace structures and "
                                      "report which rings exist")
    p.add_argument("-w", "--workspace", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("mul", help="multiply two named or inline payloads")
    p.add_argument("-w", "--workspace", required=True)
    p.add_argument("-r", "--ring", choices=["poly", "series", "laurent"],
                   default="poly")
    p.add_argument("--prec", type=int, default=None,
                   help="override the series precision")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("nop", help="print the coefficient operator N_i^n")
    p.add_argument("-w", "--workspace", required=True)
    p.add_argument("-i", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=cmd_nop)

    p = sub.add_parser("ore", help="print and verify a left Ore witness "
                                   "X^n f = g X^k")
    p.add_argument("-w", "--workspace", required=True)
    p.add_argument("-f", required=True, help="polynomial payload")
    p.add_argument("-k", type=int, default=1)
    p.set_defaults(func=cmd_ore)

    p = sub.add_parser("code", help="convolutional code checks")
    p.add_argument("action", choices=["check", "closure", "roundtrip",
                                      "encode"])
    p.add_argument("-w", "--workspace", required=True)
    p.add_argument("-g", "--generators", action="append", default=[],
                   help="vector payload name or inline JSON (repeatable)")
    p.add_argument("-m", "--message", default=None,
                   help="message payload for encode")
    p.set_defaults(func=cmd_code)

    p = sub.add_parser("example", help="re-run a named worked example")
    p.add_argument("name", choices=sorted(PRESETS))
    p.set_defaults(func=cmd_example)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, PrecisionError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (AxiomError, RingUnavailableError, MixedStructureError) as e:
        print(f"check failed: {e}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
