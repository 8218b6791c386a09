"""skewcodes benchmark: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload ring-series --seed 1 --seconds 24 --trace 0

--trace 0 measures the end-to-end metrics: set-up is repeated and its median
reported, then whole blocks of seeded operations run back to back until
--seconds of wall time have passed.  Each operation is timed on its own,
scaled by the reference kernel timed around it (see Reference), and
verified afterwards, outside the timed region.

--trace 1 measures the per-layer metrics: a fixed number of blocks runs once
untraced and once with the layer tracer installed, so call and row counts
repeat exactly for a seed and the ratio of the two times is the tracing
overhead.

--workload all runs every workload in turn, each in a fresh process.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every operation
was verified.  See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("ring-series", "code-build", "code-query", "cli-cold")
TAIL_BEYOND = 10


def _pin_environment() -> None:
    """Single-threaded numeric libraries here and in every child process;
    must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def machine_record() -> dict:
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def make_workload(name: str, launcher=None):
    import workloads as wl
    if name == "ring-series":
        return wl.RingSeries()
    if name == "code-build":
        return wl.CodeBuild()
    if name == "code-query":
        return wl.CodeQuery()
    return wl.CliCold(ROOT, launcher)


def _rngs(seed: int):
    import numpy as np
    return np.random.default_rng([seed, 1]), np.random.default_rng([seed, 2])


class Reference:
    """A fixed numpy kernel, timed beside every measured operation.

    On a shared host, other tenants can slow a core by up to 1.7x for tens
    of seconds at a time, far more than any bound a benchmark can carry.
    The kernel slows with them, so every time is reported scaled by
    REF_SECONDS / (the kernel's time around it): seconds on the reference
    machine (Intel Xeon, 2 vCPUs) when it is not contended.  The kernel
    does not touch skewcodes, so no change to the package moves it; the raw
    wall times are printed beside the scaled ones.
    """

    ITERS = 50
    WARM = 5
    REF_SECONDS = 0.0004  # uncontended time of one probe on the reference machine

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.table = rng.integers(0, 4, (4, 4), dtype=np.int16)
        self.a = rng.integers(0, 4, (8, 8), dtype=np.int16)

    def probe(self) -> float:
        np, table, a = self.np, self.table, self.a
        for _ in range(self.WARM):  # refill the caches the operation evicted
            np.bitwise_xor.reduce(table[a[:, :, None], a[None, :, :]], axis=1)
        t0 = time.perf_counter()
        for _ in range(self.ITERS):
            np.bitwise_xor.reduce(table[a[:, :, None], a[None, :, :]], axis=1)
        return time.perf_counter() - t0

    def timed(self, fn):
        """fn(), its wall seconds and its scaled seconds."""
        before = self.probe()
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        return result, dt, dt * 2 * self.REF_SECONDS / (before + self.probe())


class Run:
    """Scaled and wall latencies, verdicts and failures of a workload run."""

    def __init__(self, ref: Reference, inject_fault: bool = False):
        self.ref = ref
        self.latency = []   # scaled seconds of every operation that returned
        self.wall = []
        self.kinds = []
        self.failed = {}
        self.attempted = 0
        self.inject_fault = inject_fault

    def execute(self, ops, tracer=None) -> list:
        """Time and verify each operation; returns (scaled seconds, verified)
        per operation, with infinite seconds when it raised."""
        from workloads import perturb
        out = []
        for kind, run, check in ops:
            self.attempted += 1
            dt, ok = math.inf, False
            try:
                result, wall, dt = self.ref.timed(run)
                self.latency.append(dt)
                self.wall.append(wall)
                self.kinds.append(kind)
                if tracer is not None:
                    tracer.pause()
                if self.inject_fault:
                    self.inject_fault = False
                    result = perturb(result)
                ok = bool(check(result))
            except Exception as exc:  # a failed operation is counted, not fatal
                print(f"  {kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
            finally:
                if tracer is not None:
                    tracer.resume()
            if not ok:
                self.failed[kind] = self.failed.get(kind, 0) + 1
            out.append((dt, ok))
        return out

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())


def _setup(workload, seed: int, reps: int, ref: Reference):
    """Set up reps times from the same seed; (state, scaled s, wall s)."""
    scaled, wall = [], []
    state = None
    for _ in range(reps):
        setup_rng, _ = _rngs(seed)
        state = None  # release the previous contexts before building anew
        gc.collect()
        state, w, dt = ref.timed(lambda: workload.setup(setup_rng))
        scaled.append(dt)
        wall.append(w)
    return state, scaled, wall


def _plan(workload, state, seed: int, blocks: int):
    _, plan_rng = _rngs(seed)
    ops = []
    for i in range(blocks):
        ops += workload.plan_block(state, plan_rng, i)
    return ops


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(name: str, seed: int, seconds: float, tiny: bool, inject_fault: bool):
    """End-to-end metrics of one workload, tracing off."""
    ref = Reference()
    workload = make_workload(name)
    reps = 1 if tiny else workload.setup_reps
    state, setup_s, setup_wall = _setup(workload, seed, reps, ref)
    _, plan_rng = _rngs(seed)
    run = Run(ref, inject_fault)
    gc.collect()
    start = time.perf_counter()
    blocks = 0
    while True:
        run.execute(workload.plan_block(state, plan_rng, blocks))
        blocks += 1
        if tiny or time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    lat = sorted(run.latency)
    n = len(lat)
    n_ok = run.attempted - run.n_failed
    tail_idx = max(0, n - 1 - TAIL_BEYOND)
    tail_pct = 100.0 * (tail_idx + 1) / n if n else 0.0
    metrics = {
        "throughput_ops_s": _metric(n_ok / sum(lat) if lat else 0.0, "1/s"),
        "latency_p50_ms": _metric(1000.0 * statistics.median(lat) if n else 0.0, "ms"),
        "latency_tail_ms": _metric(1000.0 * lat[tail_idx] if n else 0.0, "ms"),
        "setup_s": _metric(statistics.median(setup_s), "s"),
        "peak_rss_mb": _metric(_peak_rss_mb(name == "cli-cold"), "MB"),
        "verified_ratio": _metric(n_ok / run.attempted, "ratio"),
    }
    raw = sorted(run.wall)
    notes = {
        "throughput_ops_s": f"{n_ok} verified ops / {sum(lat):.3f} s "
                            f"({blocks} blocks, {wall:.2f} s wall)",
        "latency_p50_ms": f"median of n={n}; wall {1000 * statistics.median(raw):.4g} ms"
                          if n else "no samples",
        "latency_tail_ms": f"p{tail_pct:.2f}, n={n}, {n - 1 - tail_idx} beyond; wall "
                           f"{1000 * raw[tail_idx]:.4g} ms" if n else "no samples",
        "setup_s": f"median of n={len(setup_s)}; wall "
                   + ", ".join(f"{t:.4f}" for t in setup_wall),
        "peak_rss_mb": "largest child process" if name == "cli-cold" else "this process",
        "verified_ratio": f"failed_ratio = {run.n_failed}/{run.attempted} = "
                          f"{run.n_failed / run.attempted:.4f}",
    }
    extra = _kind_table(run)
    if getattr(workload, "codes_built", 0):
        extra.append(f"proper codes: {workload.proper}/{workload.codes_built}")
    return run, metrics, notes, extra, workload


def _kind_table(run: Run) -> list:
    rows = {}
    for kind, dt, wall in zip(run.kinds, run.latency, run.wall):
        rows.setdefault(kind, []).append((dt, wall))
    out = []
    for kind in sorted(rows):
        scaled, wall = zip(*rows[kind])
        out.append(f"  {kind:28s} n={len(scaled):5d}  median "
                   f"{1000 * statistics.median(scaled):9.3f} ms"
                   f"  max {1000 * max(scaled):9.3f} ms  (wall median "
                   f"{1000 * statistics.median(wall):9.3f} ms)  failed {run.failed.get(kind, 0)}")
    return out


def trace(name: str, seed: int, seconds: float, tiny: bool, inject_fault: bool):
    """Per-layer metrics: the same fixed blocks untraced, then traced."""
    from tracer import Tracer
    os.makedirs(OUT, exist_ok=True)
    child_stats = []

    def launcher(j):
        path = os.path.join(OUT, f"cli_{seed}_{j}.json")
        if os.path.exists(path):
            os.remove(path)
        child_stats.append(path)
        return [sys.executable, os.path.join(HERE, "cli_child.py"), path,
                os.path.join(OUT, f"trace_cli-cold_seed{seed}_cmd{j}.npz")]

    ref = Reference()
    run = Run(ref, inject_fault)
    plain = make_workload(name)
    blocks = 1 if tiny else plain.trace_blocks
    state, _, _ = _setup(plain, seed, 1, ref)
    untraced_s = sum(t for t, _ in run.execute(_plan(plain, state, seed, blocks))
                     if t < math.inf)

    workload = make_workload(name, launcher)
    tracer = Tracer()
    tracer.install()
    try:
        state, _, _ = _setup(workload, seed, 1, ref)
        tracer.pause()
        ops = _plan(workload, state, seed, blocks)
        tracer.resume()
        traced_s = sum(t for t, _ in run.execute(ops, tracer) if t < math.inf)
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(OUT, f"trace_{name}_seed{seed}.npz"))

    stats = tracer.layer_stats()
    cli = {"import_s": [], "load_workspace_s": [], "command_s": [], "spans": []}
    for path in child_stats:
        if not os.path.exists(path):
            continue  # the child failed; its operation is already counted
        with open(path, encoding="utf-8") as fh:
            child = json.load(fh)
        for key in cli:
            cli[key].append(child.pop(key))
        for key, value in child.items():
            stats[key] += value
    n_cli = len(cli["import_s"])
    calls = stats.pop("skewmap.ntable.matrix.calls")
    hits = stats.pop("skewmap.ntable.matrix.hits")
    accepted = stats.pop("fxlinalg.solve.accepted")
    solves = stats["fxlinalg.solve.calls"]
    built = getattr(workload, "codes_built", 0)
    proper = getattr(workload, "proper", 0)
    metrics = {key: _metric(value, "s" if key.endswith("_s") else
                            "bytes" if key.endswith(".bytes") else "count")
               for key, value in stats.items()}
    metrics.update({
        "skewmap.ntable.matrix.calls": _metric(calls, "count"),
        "skewmap.ntable.hit_ratio": _metric(hits / calls if calls else 0.0, "ratio"),
        "fxlinalg.solve.accept_ratio": _metric(accepted / solves if solves else 0.0, "ratio"),
        "codes.codes_built": _metric(built, "count"),
        "codes.proper_ratio": _metric(proper / built if built else 0.0, "ratio"),
        "cli.invocations": _metric(n_cli, "count"),
        "trace.spans": _metric(tracer.span_count() + sum(cli.pop("spans")), "count"),
        "trace_overhead_ratio": _metric(traced_s / untraced_s, "ratio"),
    })
    for key, values in cli.items():
        metrics[f"cli.{key}"] = _metric(sum(values) / n_cli if n_cli else 0.0, "s")
    notes = {
        "skewmap.ntable.hit_ratio": f"{hits}/{calls} matrix() calls needed no extension",
        "fxlinalg.solve.accept_ratio": f"{accepted}/{solves} solves found coordinates",
        "codes.proper_ratio": f"{proper}/{built} codes have k < n",
        "trace_overhead_ratio": f"traced {traced_s:.3f} s / untraced {untraced_s:.3f} s "
                                f"for the same {len(ops)} ops",
        "cli.import_s": f"mean over {n_cli} invocations",
    }
    return run, metrics, notes, _kind_table(run), workload


def run_one(args) -> int:
    # one core for the run and its children, so that each operation and
    # the reference probes around it share the core's contention
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    fn = trace if args.trace else measure
    run, metrics, notes, extra, workload = fn(args.workload, args.seed, args.seconds,
                                              args.tiny, args.inject_fault)
    mach = machine_record()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds}")
    print(f"inputs: {workload.summary}")
    print("machine: " + json.dumps(mach, sort_keys=True))
    for key, m in metrics.items():
        note = notes.get(key, "")
        print(f"  {key:34s} {m['value']:>16.6g} {m['unit']:6s} {note}")
    for line in extra:
        print(line)
    for kind, k in sorted(run.failed.items()):
        print(f"MISS {kind}: {k} of the attempted operations failed verification")
    result = {"correct": run.n_failed == 0, "attempted": run.attempted,
              "failed": run.n_failed, "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(result, machine=mach, inputs=workload.summary), fh, indent=1)
    print(json.dumps(result))
    return 0 if run.n_failed == 0 else 1


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process; never in parallel."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rc = 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        rc = rc or proc.returncode
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return proc.returncode or 1
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = m
    print(json.dumps(merged))
    return rc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one block and one set-up (self-test size)")
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt the first result before it is verified (self-test)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "skewcodes", "__init__.py")):
        print(f"error: no skewcodes sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    _pin_environment()
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
