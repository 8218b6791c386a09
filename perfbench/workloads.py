"""The four benchmark workloads.

Each workload has a ``setup`` (context construction, code construction and
cache warm-up, the part a user pays once per process) and ``plan_block``,
which turns the seeded generator into one block of operations.  An operation
is ``(kind, run, check)``: ``run`` is the timed call into the package,
``check`` verifies its result against an independent path and runs outside
the timed region.

Blocks are stratified: every block holds the same number of operations of
each kind on each context, and the seed decides only the operand values and
the order inside the block.  The small/large mix, the member share and the
share of generator sets built to give proper codes are therefore the same
on every seed, and a run's figures move with the code, not with the draw.

The package is reached only through module attributes looked up at call
time (``sc.series_mul``), so the tracer's wrappers see every timed call.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import subprocess
import sys

import numpy as np

import skewcodes as sc
from skewcodes import presets as sc_presets
from skewcodes.fields import DTYPE

SMALL_N = 8          # series precision of the common products
LARGE_N = 32         # series precision of the minority of large products
POLY_MAX_DEG = 5
LAURENT_LEN = 8
LAURENT_ORDS = range(-3, 4)
TAIL = 4             # unknown-tail coefficients appended for the q_bound check


def _rand(rng, q: int, shape) -> np.ndarray:
    return rng.integers(0, q, size=shape, dtype=DTYPE)


def _head(arr: np.ndarray, n: int) -> np.ndarray:
    """First n coefficient rows, zero-padded."""
    out = np.zeros((n, arr.shape[1]), dtype=DTYPE)
    k = min(n, arr.shape[0])
    out[:k] = arr[:k]
    return out


def _iterative(ctx, g: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Oracle product g f by repeated X-rewriting, as coefficient rows."""
    return sc.poly_mul_iterative(sc.SkewPoly(ctx, g), sc.SkewPoly(ctx, f)).coeffs


def _exact_laurent_product(ctx, s_ord, s_coeffs, t_ord, t_coeffs):
    """s t for exact operands, built only from the oracle paths.

    With s = s_hat X^{o_s}: s t = s_hat w, where w = X^{o_s} t comes from
    iterated X-rewriting (o_s >= 0) or the closed X^{-n} expansion
    (o_s < 0), and s_hat w_hat is an iterative polynomial product.
    """
    if s_ord >= 0:
        w_ord = t_ord
        w_coeffs = _iterative(ctx, sc.SkewPoly.x_power(ctx, s_ord).coeffs, t_coeffs)
    else:
        w = sc.xnegn_direct(sc.TruncLaurent(ctx, t_ord, t_coeffs, None), -s_ord)
        w_ord, w_coeffs = w.ord, w.coeffs
    return w_ord, _iterative(ctx, s_coeffs, w_coeffs)


def perturb(result):
    """A deliberately wrong copy of a result, for the benchmark self-test."""
    if isinstance(result, bool):
        return not result
    if isinstance(result, list):
        return result[:-1] if result else [None]
    if isinstance(result, subprocess.CompletedProcess):
        return subprocess.CompletedProcess(result.args, 1, result.stdout, result.stderr)
    if isinstance(result, sc.ConvCodeBasis):
        return dataclasses.replace(result, pure=False)
    if isinstance(result, sc.RoundtripReport):
        return sc.RoundtripReport(result.checks + (("injected fault", False),))
    bad = copy.copy(result)
    coeffs = np.array(result.coeffs)
    if coeffs.size:
        coeffs[0, 0] ^= 1
    else:
        coeffs = np.ones((1, coeffs.shape[1]), dtype=DTYPE)
    object.__setattr__(bad, "coeffs", coeffs)
    return bad


# ---- ring-series ----

class RingSeries:
    """Products in the ring, series, Laurent and module layers."""

    name = "ring-series"
    setup_reps = 9
    trace_blocks = 6  # two full rotations of the large products over contexts
    summary = ("contexts m2f4-inner (dim 8/GF(2)), f4c5-group (dim 5/GF(4)), "
               "fyz_quotient(5) (dim 3/GF(5), series only); 15 ops per block: "
               "2 poly_mul deg<=5, 1 laurent_mul, 1 xinv_times and 1 "
               "veclaurent_times_ring (ord -3..3, length 8), 6 series_mul N=8 "
               "and 2 vecseries_times_ring N=8 (regular modules), 2 series_mul "
               "N=32 rotating over the 3 contexts (13.3% large)")

    def setup(self, rng):
        a = sc.load_preset("m2f4-inner")
        b = sc.load_preset("f4c5-group")
        c = sc_presets.fyz_quotient(5)
        ctxs = {"A": a.ctx, "B": b.ctx, "C": c.ctx}
        mods = {"A": sc.regular_module(a.algebra), "B": sc.regular_module(b.algebra)}
        for ctx in ctxs.values():
            # a large series product reads N_i^k up to k = LARGE_N * m_delta - 1
            ctx.ntable.ensure(LARGE_N * ctx.m_delta)
        for key in mods:
            ctxs[key].xinv_maps()
        return {"ctx": ctxs, "mod": mods}

    def plan_block(self, st, rng, i):
        # 5 sub-millisecond ops, 8 small series ops, 2 large: the median
        # lands inside the small-series group, the tail among the large
        ab, ba = "AB"[i % 2], "BA"[i % 2]
        ops = [self._poly(st, rng, k) for k in "AB"]
        ops += [self._laurent(st, rng, ab), self._xinv(st, rng, ba),
                self._veclaurent(st, rng, ba)]
        ops += [self._series(st, rng, k, SMALL_N) for k in "ABCABC"]
        ops += [self._vecseries(st, rng, k) for k in "AB"]
        ops += [self._series(st, rng, "ABC"[(2 * i + j) % 3], LARGE_N) for j in range(2)]
        return [ops[j] for j in rng.permutation(len(ops))]

    @staticmethod
    def _dims(ctx):
        return ctx.field.q, ctx.algebra.dim

    def _poly(self, st, rng, key):
        ctx = st["ctx"][key]
        q, r = self._dims(ctx)
        g = sc.SkewPoly(ctx, _rand(rng, q, (int(rng.integers(1, POLY_MAX_DEG + 2)), r)))
        f = sc.SkewPoly(ctx, _rand(rng, q, (int(rng.integers(1, POLY_MAX_DEG + 2)), r)))

        def check(res):
            return res == sc.poly_mul_iterative(g, f)
        return "poly_mul", lambda: sc.poly_mul(g, f), check

    def _series_operands(self, ctx, rng, n):
        q, r = self._dims(ctx)
        m = ctx.m_delta
        s_long = _rand(rng, q, (n * m + TAIL, r))
        t_long = _rand(rng, q, (n + TAIL, r))
        return s_long, t_long, s_long[: n * m], t_long[:n]

    def _series_check(self, ctx, s_long, t_long, n):
        # q_bound identity: coefficients [0, n) of the exact product of the
        # longer operands (arbitrary tails) equal the truncated product
        want = _head(_iterative(ctx, s_long, t_long), n)
        return lambda res: res.prec == n and np.array_equal(res.coeffs, want)

    def _series(self, st, rng, key, n):
        ctx = st["ctx"][key]
        s_long, t_long, s, t = self._series_operands(ctx, rng, n)
        s = sc.TruncSeries(ctx, s.shape[0], s)
        t = sc.TruncSeries(ctx, n, t)
        kind = "series_mul_large" if n == LARGE_N else "series_mul"
        return kind, lambda: sc.series_mul(s, t), self._series_check(ctx, s_long, t_long, n)

    def _vecseries(self, st, rng, key):
        # the regular module is the ring acting on itself, so the oracle is
        # the iterative ring product
        ctx, spec = st["ctx"][key], st["mod"][key]
        s_long, t_long, s, t = self._series_operands(ctx, rng, SMALL_N)
        v = sc.VecSeries(spec, ctx, s.shape[0], s)
        t = sc.TruncSeries(ctx, SMALL_N, t)
        return ("vecseries_times_ring", lambda: sc.vecseries_times_ring(v, t),
                self._series_check(ctx, s_long, t_long, SMALL_N))

    def _laurent_operand(self, ctx, rng):
        q, r = self._dims(ctx)
        o = int(rng.choice(LAURENT_ORDS))
        arr = _rand(rng, q, (LAURENT_LEN, r))
        arr[0, 0] = 1
        return o, arr

    def _laurent_pair(self, st, rng, key):
        ctx = st["ctx"][key]
        (so, sa), (to, ta) = self._laurent_operand(ctx, rng), self._laurent_operand(ctx, rng)
        exact = _exact_laurent_product(ctx, so, sa, to, ta)
        return ctx, (so, sa), (to, ta), exact

    def _laurent(self, st, rng, key):
        ctx, (so, sa), (to, ta), (eo, ec) = self._laurent_pair(st, rng, key)
        s = sc.TruncLaurent(ctx, so, sa, so + LAURENT_LEN)
        t = sc.TruncLaurent(ctx, to, ta, to + LAURENT_LEN)
        exact = sc.TruncLaurent(ctx, eo, ec, None)

        def check(res):
            # a window claim holds for every tail, zero tails included
            return res.end is not None and res.agrees_with(exact)
        return "laurent_mul", lambda: sc.laurent_mul(s, t), check

    def _veclaurent(self, st, rng, key):
        ctx, (so, sa), (to, ta), (eo, ec) = self._laurent_pair(st, rng, key)
        spec = st["mod"][key]
        v = sc.VecLaurent(spec, ctx, so, sa, so + LAURENT_LEN)
        t = sc.TruncLaurent(ctx, to, ta, to + LAURENT_LEN)
        exact = sc.VecLaurent(spec, ctx, eo, ec, None)

        def check(res):
            return res.end is not None and res.agrees_with(exact)
        return "veclaurent_times_ring", lambda: sc.veclaurent_times_ring(v, t), check

    def _xinv(self, st, rng, key):
        ctx = st["ctx"][key]
        o, arr = self._laurent_operand(ctx, rng)
        s = sc.TruncLaurent(ctx, o, arr, o + LAURENT_LEN)
        want = sc.xnegn_direct(s, 1)

        def check(res):
            return (res.ord == want.ord and res.end == want.end
                    and np.array_equal(res.coeffs, want.coeffs))
        return "xinv_times", lambda: sc.xinv_times(s), check


# ---- codes ----

def _code_modules():
    """natural(m2f4-inner), regular(f4c5-group), regular(fyz_quotient(3)),
    each with the non-unit scalars used to make proper codes.

    The natural module of M2(F4) is simple, so every nonzero code on it is
    full rank; it gets no non-unit scalars.
    """
    a = sc.load_preset("m2f4-inner")
    b = sc.load_preset("f4c5-group")
    c = sc_presets.fyz_quotient(3)
    fb, fc = b.algebra, c.algebra
    return {
        "natural": (sc.natural_module(a.restriction), a.ctx, []),
        # the augmentation idempotent e0 = sum g^i and 1 + e0
        "f4c5": (sc.regular_module(fb), b.ctx,
                 [fb.element([1, 1, 1, 1, 1]), fb.element([0, 1, 1, 1, 1])]),
        # the nilpotents y, z, y + z
        "fyz3": (sc.regular_module(fc), c.ctx,
                 [fc.element([0, 1, 0]), fc.element([0, 0, 1]), fc.element([0, 1, 1])]),
    }


def _generators(mod, rng, scaled: bool, rows: int):
    """Two seeded generators with `rows` coefficient rows; scaled sets
    multiply each generator by a non-unit scalar, which confines the closure
    to a proper submodule.  Fixed sizes keep the cost of a set steady across
    seeds."""
    spec, ctx, nonunits = mod
    gens = []
    while len(gens) < 2:
        v = sc.VecPoly(spec, ctx, _rand(rng, spec.field.q, (rows, spec.n)))
        if scaled:
            v = sc.vecpoly_times_scalar(v, nonunits[int(rng.integers(len(nonunits)))])
        if not v.is_zero():
            gens.append(v)
    return gens


def _in_span(code, words) -> bool:
    """Rank oracle: a pure code contains exactly the polynomial words of its
    F(X)-span, so w is a codeword iff stacking it keeps the rational rank."""
    m = sc.vecpolys_to_matrix(code.module, words)
    return sc.rank_rational(code.g.stack(m)) == code.k


class CodeBuild:
    """Cyclic closure, purification and the correspondence round trip."""

    name = "code-build"
    setup_reps = 9
    trace_blocks = 6
    summary = ("modules natural(m2f4-inner), regular(f4c5-group), "
               "regular(fyz_quotient(3)); per block and module 2 seeded "
               "generator sets (2 generators of degree 2), on the regular "
               "modules one of them scaled by a non-unit (designed proper "
               "share 2 of 6 sets), each run through cyclic_closure, "
               "correspondence_roundtrip and code_from_generators")

    def __init__(self):
        self.codes_built = 0
        self.proper = 0

    def setup(self, rng):
        return _code_modules()

    def plan_block(self, mods, rng, i):
        sets = []
        for mod in mods.values():
            sets.append((mod, _generators(mod, rng, False, rows=3)))
            sets.append((mod, _generators(mod, rng, bool(mod[2]), rows=3)))
        ops = []
        for j in rng.permutation(len(sets)):
            ops += self._ops(*sets[j])
        return ops

    def _ops(self, mod, gens):
        spec, ctx, _ = mod
        built = {}

        def closure():
            built["code"] = sc.cyclic_closure(gens, spec, ctx)
            return built["code"]

        def check_closure(code):
            self.codes_built += 1
            self.proper += code.k < code.n
            return code.pure and code.stable and code.k <= code.n and _in_span(code, gens)

        def check_plain(code):
            full = built.get("code")
            if full is None or not code.pure or not _in_span(code, gens):
                return False
            # purification is contained in the cyclic closure, and equals it
            # exactly when it is already stable
            return (code.k <= full.k and _in_span(full, code.rows())
                    and code.stable == (code.g == full.g))

        return [("cyclic_closure", closure, check_closure),
                ("correspondence_roundtrip",
                 lambda: sc.correspondence_roundtrip(built["code"]), lambda r: r.ok),
                ("code_from_generators",
                 lambda: sc.code_from_generators(gens, spec, ctx), check_plain)]


class CodeQuery:
    """Membership, encode/decode and ring-sample queries on built codes."""

    name = "code-query"
    setup_reps = 5
    trace_blocks = 10
    codes_per_kind = 4
    summary = ("codes built in setup from 2 generators of degree 3: 4 "
               "natural(m2f4-inner) full-rank, 4 regular(f4c5-group) x e0, "
               "4 x (1+e0), 4 regular(fyz_quotient(3)) x nilpotents; per block "
               "and code one encode->decode round trip, on proper codes one "
               "member and one non-member is_codeword (member share 50%), and "
               "2 stable_under_ring_samples with 4 ring samples of degree 3")

    def __init__(self):
        self.codes_built = 0
        self.proper = 0

    def setup(self, rng):
        mods = _code_modules()
        f4c5_e0 = (*mods["f4c5"][:2], mods["f4c5"][2][:1])
        f4c5_e1 = (*mods["f4c5"][:2], mods["f4c5"][2][1:])
        kinds = [(mods["natural"], False), (f4c5_e0, True), (f4c5_e1, True),
                 (mods["fyz3"], True)]
        codes = []
        for mod, scaled in kinds:
            for _ in range(self.codes_per_kind):
                gens = _generators(mod, rng, scaled, rows=4)
                codes.append(sc.cyclic_closure(gens, mod[0], mod[1]))
        self.codes_built = len(codes)
        self.proper = sum(c.k < c.n for c in codes)
        return codes

    def plan_block(self, codes, rng, i):
        ops = []
        for code in codes:
            ops.append(self._roundtrip(code, rng))
            if code.k < code.n:
                ops.append(self._member(code, rng))
                ops.append(self._nonmember(code, rng))
        for j in range(2):
            ops.append(self._samples(codes[(2 * i + j) % len(codes)], rng))
        return [ops[j] for j in rng.permutation(len(ops))]

    @staticmethod
    def _message(code, rng, max_deg=5):
        fs = code.module.field
        msg = []
        for _ in range(code.k):
            size = int(rng.integers(1, max_deg + 2))
            msg.append(sc.Poly(fs, [int(c) for c in rng.integers(0, fs.q, size)]))
        return msg

    def _roundtrip(self, code, rng):
        msg = self._message(code, rng)

        def run():
            return sc.decode(sc.encode(msg, code), code)

        def check(back):
            return back is not None and len(back) == len(msg) and \
                all(a == b for a, b in zip(back, msg))
        return "encode_decode", run, check

    def _member(self, code, rng):
        while True:
            word = sc.encode(self._message(code, rng), code)
            if not word.is_zero():
                break
        # an encoded word outside the span is a wrong encode: the op fails
        member = _in_span(code, [word])
        return ("is_codeword", lambda: sc.is_codeword(word, code),
                lambda r: member and r is True)

    def _nonmember(self, code, rng):
        spec, ctx = code.module, code.context
        while True:
            word = sc.VecPoly(spec, ctx, _rand(rng, spec.field.q, (6, spec.n)))
            if not word.is_zero() and not _in_span(code, [word]):
                break
        return "is_codeword", lambda: sc.is_codeword(word, code), lambda r: r is False

    def _samples(self, code, rng):
        ctx = code.context
        q, r = ctx.field.q, ctx.algebra.dim
        samples = [sc.SkewPoly(ctx, _rand(rng, q, (4, r))) for _ in range(4)]
        return ("stable_under_ring_samples",
                lambda: sc.stable_under_ring_samples(code, samples), lambda r: r is True)


# ---- cli-cold ----

def cli_surface(root: str):
    """The criterion-7 command surface with the lines each run must print.

    The expected lines are facts of the mathematics, not captured output:
    X E21 = sigma(E21) X + delta(E21) = (E11 + E22) + E21 X for the
    E12-inner derivation, X^{-1} X = 1 = E11 + E22, and so on.
    """
    w = os.path.join(root, "workspaces")
    verify = ["axioms ok", "sigma: endomorphism ok", "delta: sigma-derivation ok"]
    code = ["pure (direct summand): yes", "stable (A-action): yes"]
    return [
        (["verify", "-w", f"{w}/m2f4_e12.json"], verify + ["laurent: yes (m_delta' = 2)"]),
        (["verify", "-w", f"{w}/f4c5.json"], verify + ["laurent: yes (m_delta' = 4)"]),
        (["verify", "-w", f"{w}/m2f4_diag.json"], verify + ["series: no"]),
        (["verify", "-w", f"{w}/fyz_quotient.json"], verify + ["series: yes (m_delta = 2)"]),
        (["mul", "-w", f"{w}/m2f4_e12.json", "-r", "poly", "x", "e21"],
         ["(E11 + E22) + E21*X"]),
        (["mul", "-w", f"{w}/m2f4_e12.json", "-r", "laurent", "xinv", "x"], ["(E11 + E22)"]),
        (["nop", "-w", f"{w}/f4c5.json", "-i", "2", "-n", "4"], ["N_2^4 on basis elements:"]),
        (["ore", "-w", f"{w}/f4c5.json", "-f", "f1"], ["verified: yes"]),
        (["code", "closure", "-w", f"{w}/m2f4_e12.json"], code + ["rate: 4/4"]),
        (["code", "roundtrip", "-w", f"{w}/f4c5.json"],
         code + ["ok   span-intersect returns the same basis", "ok   stability re-verified"]),
        (["code", "encode", "-w", f"{w}/f4c5.json", "-m", "m0"],
         ["decode returns the message: yes"]),
        (["example", "m2f4-inner"], ["example: m2f4-inner"]),
        (["example", "f4c5-group"], ["example: f4c5-group"]),
        (["example", "m2f4-diag"], ["example: m2f4-diag"]),
        (["example", "fyz-quotient"], ["example: fyz-quotient"]),
    ]


class CliCold:
    """Each command of the CLI surface in a fresh interpreter."""

    name = "cli-cold"
    setup_reps = 9
    trace_blocks = 1
    summary = ("the 15-command criterion-7 CLI surface on workspaces/*.json, "
               "one fresh `python -m skewcodes.cli` process per operation, "
               "whole rounds in a seeded order")

    def __init__(self, root: str, launcher=None):
        self.root = root
        self.launcher = launcher  # command index -> argv prefix run in place
        # of `python -m skewcodes.cli` (the traced run's child wrapper)
        self.first_stdout = {}

    def setup(self, rng):
        # what every invocation pays before its command runs
        subprocess.run([sys.executable, "-c", "import skewcodes.cli"],
                       cwd=self.root, check=True, timeout=120)
        return cli_surface(self.root)

    def plan_block(self, surface, rng, i):
        return [self._op(j, *surface[j]) for j in rng.permutation(len(surface))]

    def _op(self, j, argv, expected):
        def run():
            prefix = (self.launcher(j) if self.launcher
                      else [sys.executable, "-m", "skewcodes.cli"])
            return subprocess.run(prefix + argv, capture_output=True, text=True,
                                  cwd=self.root, timeout=120)

        def check(proc):
            out = proc.stdout
            first = self.first_stdout.setdefault(j, out)
            lines = out.splitlines()
            return (proc.returncode == 0 and "FAIL" not in out and out == first
                    and all(any(e in line for line in lines) for e in expected))
        return f"cli_{argv[0]}", run, check
