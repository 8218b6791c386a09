"""Acceptance gate: one criterion per test, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
the -v test status doubles as the machine-readable report.
"""

import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from skewcodes import (SkewPoly, TruncLaurent, TruncSeries, field,
                       left_from_right, load_preset, natural_module,
                       poly_mul, regular_module, right_from_left, xn_times)
from skewcodes.cli import main as cli_main
from skewcodes.codes import (code_from_generators, correspondence_roundtrip,
                             cyclic_closure, stable_under_ring_samples)
from skewcodes.fields import DTYPE
from skewcodes.fxlinalg import (EchelonSolver, Poly, PolyMatrix, closure,
                                hermite_form, is_direct_summand, rank_rational,
                                smith_form)
from skewcodes.modact import VecPoly
from skewcodes.skewlaurent import (laurent_mul, xinv_times, xnegn_direct,
                                   xnegn_times)
from skewcodes.skewseries import ore_left, q_bound, series_mul
from skewcodes.algebra import LinearMap
from skewcodes.skewmap import verify_skew_derivation
from conftest import rand_coords, rand_element

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
W = os.path.join(HERE, "workspaces")


class _Verdict:
    def __init__(self, num, label):
        self.num = num
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, et, ev, tb):
        state = "PASS" if et is None else "FAIL"
        print(f"criterion {self.num} ({self.label}): {state}")
        return False


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli_main(argv)
        except SystemExit as stop:
            rc = stop.code if isinstance(stop.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def rand_poly(rng, ctx, maxdeg):
    L = rng.randrange(1, maxdeg + 2)
    return SkewPoly(ctx, rand_coords(rng, ctx.field.q,
                                     (L, ctx.algebra.dim)))


def rand_series(rng, ctx, prec):
    return TruncSeries(ctx, prec,
                       rand_coords(rng, ctx.field.q,
                                   (prec, ctx.algebra.dim)))


def rand_laurent(rng, ctx, ord_, length):
    arr = rand_coords(rng, ctx.field.q, (length, ctx.algebra.dim))
    arr[0, 0] = 1
    return TruncLaurent(ctx, ord_, arr, ord_ + length)


def rand_fxpoly(rng, fs, maxdeg):
    d = rng.randrange(-1, maxdeg + 1)
    if d < 0:
        return Poly.zero(fs)
    return Poly(fs, [rng.randrange(fs.q) for _ in range(d)]
                + [rng.randrange(1, fs.q)])


def test_criterion_1_preset_example_regression():
    with _Verdict(1, "preset-example regression"):
        for name in ("m2f4-inner", "f4c5-group", "m2f4-diag",
                     "fyz-quotient"):
            t0 = time.monotonic()
            bundle = load_preset(name)
            results = bundle.checks()
            elapsed = time.monotonic() - t0
            assert elapsed < 1.0, f"{name} took {elapsed:.2f}s"
            for label, ok in results:
                assert ok, f"{name}: {label}"
        rc, out, _ = run_cli(["verify", "-w",
                              os.path.join(W, "m2f4_diag.json")])
        assert rc == 0 and "series: no" in out and "laurent: no" in out
        rc, out, _ = run_cli(["verify", "-w",
                              os.path.join(W, "fyz_quotient.json")])
        assert rc == 0 and "series: yes" in out and "laurent: no" in out


def test_criterion_2_skew_polynomial_algebra():
    with _Verdict(2, "skew-polynomial algebra"):
        rng = random.Random(201)
        bundles = [load_preset("m2f4-inner"), load_preset("f4c5-group")]
        triples = 0
        for b in bundles:
            ctx = b.ctx
            for _ in range(260):
                f = rand_poly(rng, ctx, 5)
                g = rand_poly(rng, ctx, 5)
                h = rand_poly(rng, ctx, 5)
                assert (f * g) * h == f * (g * h)
                triples += 1
        assert triples >= 500
        mismatches = 0
        for b in bundles:
            ctx = b.ctx
            x = SkewPoly.x_power(ctx)
            for _ in range(50):
                f = rand_poly(rng, ctx, 5)
                step = f
                for n in range(6):
                    if xn_times(f, n) != step:
                        mismatches += 1
                    step = poly_mul(x, step)
        assert mismatches == 0
        done = 0
        for b in bundles:
            ctx = b.ctx
            for _ in range(100):
                f = rand_poly(rng, ctx, 5)
                back = left_from_right(ctx, right_from_left(f))
                assert back == f
                done += 1
        assert done == 200


def test_criterion_3_truncated_series():
    t_start = time.monotonic()
    with _Verdict(3, "truncated series"):
        rng = random.Random(301)
        bundles = [load_preset("m2f4-inner"), load_preset("f4c5-group")]
        N = 8
        pairs = 0
        for b in bundles:
            ctx = b.ctx
            q = q_bound(ctx, N)
            for _ in range(50):
                s = rand_series(rng, ctx, q + 5)
                t = rand_series(rng, ctx, N + 5)
                p_short = series_mul(s.truncate(q), t.truncate(N))
                p_long = series_mul(s, t).truncate(N)
                assert np.array_equal(p_short.coeffs, p_long.coeffs)
                pairs += 1
        assert pairs == 100
        triples = 0
        for b in bundles:
            ctx = b.ctx
            m = ctx.m_delta
            for _ in range(100):
                s = rand_series(rng, ctx, N * m * m)
                t = rand_series(rng, ctx, N * m)
                u = rand_series(rng, ctx, N)
                left = series_mul(series_mul(s, t), u)
                right = series_mul(s, series_mul(t, u))
                assert left.prec == N == right.prec and left == right
                triples += 1
        assert triples == 200
        witnesses = 0
        for b in bundles:
            ctx = b.ctx
            for _ in range(100):
                f = rand_poly(rng, ctx, 5)
                assert ore_left(f).verify(f)
                witnesses += 1
        assert witnesses == 200
    assert time.monotonic() - t_start < 30.0


def test_criterion_4_laurent_layer():
    with _Verdict(4, "laurent layer"):
        rng = random.Random(401)
        bundles = [load_preset("m2f4-inner"), load_preset("f4c5-group")]
        shuttles = 0
        for b in bundles:
            ctx = b.ctx
            X = TruncLaurent.from_elements(ctx, 1, [ctx.algebra.one], None)
            for _ in range(100):
                s = rand_laurent(rng, ctx, rng.randrange(-3, 3), 8)
                assert laurent_mul(X, xinv_times(s)).agrees_with(s)
                assert xinv_times(laurent_mul(X, s)).agrees_with(s)
                shuttles += 1
        assert shuttles == 200
        mismatches = cases = 0
        for b in bundles:
            ctx = b.ctx
            for _ in range(50):
                s = rand_laurent(rng, ctx, rng.randrange(-2, 3), 10)
                n = rng.randrange(0, 4)
                d = xnegn_direct(s, n)
                it = xnegn_times(s, n)
                if not (d.ord == it.ord and d.end == it.end
                        and np.array_equal(d.coeffs, it.coeffs)):
                    mismatches += 1
                cases += 1
        assert cases == 100 and mismatches == 0
        grp = load_preset("f4c5-group")
        ctx0 = verify_skew_derivation(grp.algebra, grp.ctx.sigma,
                                      LinearMap.zero(grp.algebra))
        for _ in range(30):
            s = rand_laurent(rng, ctx0, -4, 8)
            a = rand_element(rng, ctx0.algebra)
            const = TruncLaurent.from_elements(ctx0, 0, [a], None)
            prod = laurent_mul(s, const)
            for off in range(s.coeffs.shape[0]):
                e = s.ord + off
                twist = a
                for _ in range(abs(e)):
                    twist = ctx0.sigma(twist) if e >= 0 \
                        else ctx0.opposite.sigma(twist)
                assert prod.coeff(e) == s.coeff(e) * twist


def test_criterion_5_fx_linear_algebra():
    with _Verdict(5, "F[X] linear algebra"):
        rng = random.Random(501)
        fields = [field(2), field(2, 2), field(5)]
        done = 0
        for i in range(100):
            fs = fields[i % 3]
            k = rng.randrange(1, 5)
            n = rng.randrange(1, 7)
            g = PolyMatrix(fs, [[rand_fxpoly(rng, fs, 3) for _ in range(n)]
                                for _ in range(k)])
            s = smith_form(g)
            assert s.verify(g), "UGV = D, unimodularity, divisibility"
            done += 1
        assert done == 100
        for i in range(40):
            fs = fields[i % 3]
            k = rng.randrange(1, 4)
            n = rng.randrange(k, 6)
            g = PolyMatrix(fs, [[rand_fxpoly(rng, fs, 2) for _ in range(n)]
                                for _ in range(k)])
            c = closure(g)
            assert closure(c) == c, "idempotent"
            solver = EchelonSolver(c)
            assert all(solver.solve(row) is not None for row in g.rows), "extensive"
            assert c.shape[0] == 0 or is_direct_summand(c)
        for fs in (field(2), field(2, 2)):
            B = 2
            g = PolyMatrix.from_coeff_lists(fs, [[[1, 1], [0, 1], [1]],
                                                 [[0], [1], [1, 0, 1]]])
            small = [Poly(fs, list(t))
                     for t in itertools.product(range(fs.q), repeat=B + 1)]
            reachable = set()
            for xs in itertools.product(small, repeat=2):
                v = [Poly.zero(fs)] * 3
                for i, x in enumerate(xs):
                    for j in range(3):
                        v[j] = v[j] + x * g.rows[i][j]
                reachable.add(tuple(p.coeffs.tobytes() for p in v))
            for _ in range(60):
                xs = [rng.choice(small), rng.choice(small)]
                v = [Poly.zero(fs)] * 3
                for i, x in enumerate(xs):
                    for j in range(3):
                        v[j] = v[j] + x * g.rows[i][j]
                sol = EchelonSolver(g).solve(v)
                assert sol is not None, "enumerated member rejected"
                w = [rand_fxpoly(rng, fs, B + 2) for _ in range(3)]
                sol_w = EchelonSolver(g).solve(w)
                brute = tuple(p.coeffs.tobytes() for p in w) in reachable
                if sol_w is not None and all(p.degree <= B for p in sol_w):
                    assert brute
                if brute:
                    assert sol_w is not None


def test_criterion_6_code_correspondence():
    t_start = time.monotonic()
    with _Verdict(6, "code correspondence"):
        rng = random.Random(601)
        ex_a = load_preset("m2f4-inner")
        ex_b = load_preset("f4c5-group")
        configs = [(natural_module(ex_a.restriction), ex_a.ctx),
                   (regular_module(ex_b.algebra), ex_b.ctx)]
        closures = 0
        for spec, ctx in configs:
            for _ in range(12):
                gens = [VecPoly(spec, ctx,
                                rand_coords(rng, spec.field.q,
                                            (rng.randrange(1, 4), spec.n)))
                        for _ in range(rng.randrange(1, 3))]
                code = cyclic_closure(gens, spec, ctx)
                assert code.pure and code.stable
                assert correspondence_roundtrip(code).ok
                samples = [rand_poly(rng, ctx, 3) for _ in range(200)]
                assert stable_under_ring_samples(code, samples)
                assert code.k == rank_rational(code.g), \
                    "F[X] rank equals rational rank"
                closures += 1
        assert closures >= 20
    assert time.monotonic() - t_start < 60.0


# The criterion-7 CLI surface, with workspace paths relative to the repo root.
SURFACE = [
    ["verify", "-w", "workspaces/m2f4_e12.json"],
    ["verify", "-w", "workspaces/f4c5.json"],
    ["verify", "-w", "workspaces/m2f4_diag.json"],
    ["verify", "-w", "workspaces/fyz_quotient.json"],
    ["mul", "-w", "workspaces/m2f4_e12.json", "-r", "poly", "x", "e21"],
    ["mul", "-w", "workspaces/m2f4_e12.json", "-r", "laurent", "xinv", "x"],
    ["nop", "-w", "workspaces/f4c5.json", "-i", "2", "-n", "4"],
    ["ore", "-w", "workspaces/f4c5.json", "-f", "f1"],
    ["code", "closure", "-w", "workspaces/m2f4_e12.json"],
    ["code", "roundtrip", "-w", "workspaces/f4c5.json"],
    ["code", "encode", "-w", "workspaces/f4c5.json", "-m", "m0"],
    ["example", "m2f4-inner"],
    ["example", "f4c5-group"],
    ["example", "m2f4-diag"],
    ["example", "fyz-quotient"],
]

GOLDEN = os.path.join(HERE, "tests", "golden", "criterion7.txt")


def full_report() -> bytes:
    """Exit codes, stdout and stderr of the surface, then the preset checks."""
    chunks = []
    for argv in SURFACE:
        rc, out, err = run_cli([os.path.join(HERE, a) if a.startswith("workspaces/")
                                else a for a in argv])
        chunks.append(f"$ {' '.join(argv)}\nrc={rc}\n{out}{err}")
    for name in ("m2f4-inner", "f4c5-group", "m2f4-diag", "fyz-quotient"):
        for label, ok in load_preset(name).checks():
            chunks.append(f"{name}: {label}: {ok}")
    return "\n".join(chunks).encode()


def test_criterion_7_determinism():
    with _Verdict(7, "determinism"):
        assert full_report() == full_report()

        script = ("import sys; from skewcodes.cli import main; "
                  "sys.exit(main(sys.argv[1:]))")
        probe = ["verify", "-w", os.path.join(W, "m2f4_e12.json")]
        outs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            r = subprocess.run([sys.executable, "-c", script] + probe,
                               capture_output=True, env=env, cwd=HERE)
            assert r.returncode == 0
            outs.append(r.stdout)
        assert outs[0] == outs[1], "hash-seed variation must not leak"


def test_criterion_7_report_matches_golden():
    """The surface output is byte-identical to the committed capture."""
    with open(GOLDEN, "rb") as fh:
        assert full_report() == fh.read()
