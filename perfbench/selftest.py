"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

For every workload, in fresh processes and one after another:
  - a timed run prints exactly the end_to_end metrics of BENCHMARK.json,
    with their units, and verifies every operation;
  - two traced runs with one seed print exactly the per_layer metrics and
    agree on every count;
  - a run with a deliberately corrupted result counts it in `failed`,
    reports correct = false and exits non-zero, so the checker is not
    vacuous.
Finally the benchmark must refuse to run, without printing a result, in a
directory holding only BENCHMARK.json and the benchmark's own files.
Exit code 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SEED = 7
TIMED_UNITS = ("s", "ms")  # counts must repeat exactly; times need not


def _run(*args, cwd=ROOT, script=RUN):
    proc = subprocess.run([sys.executable, script, *args], capture_output=True,
                          text=True, cwd=cwd, timeout=900)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    try:
        result = json.loads(last[0])
    except json.JSONDecodeError:
        result = None
    return proc, result


def _counts(result):
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] not in TIMED_UNITS and k != "trace_overhead_ratio"}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []

    def expect(cond, what):
        print(f"{'ok  ' if cond else 'FAIL'} {what}")
        if not cond:
            problems.append(what)

    for w in spec["workloads"]:
        name = w["name"]
        base = ["--workload", name, "--seed", str(SEED), "--seconds", "1", "--tiny"]
        proc, res = _run(*base, "--trace", "0")
        expect(proc.returncode == 0 and res is not None and res["correct"]
               and res["failed"] == 0 and res["attempted"] >= 1,
               f"{name}: timed run verifies every operation")
        expect(res is not None and {k: m["unit"] for k, m in res["metrics"].items()} == e2e,
               f"{name}: end-to-end metric names and units match BENCHMARK.json")

        runs = [_run(*base, "--trace", "1") for _ in range(2)]
        expect(all(p.returncode == 0 and r is not None for p, r in runs),
               f"{name}: traced runs succeed")
        if all(r is not None for _, r in runs):
            first, second = (r for _, r in runs)
            expect({k: m["unit"] for k, m in first["metrics"].items()} == layer,
                   f"{name}: per-layer metric names and units match BENCHMARK.json")
            a, b = _counts(first), _counts(second)
            diff = sorted(k for k in a if a[k] != b.get(k))
            expect(not diff, f"{name}: two traced runs give identical counts"
                   + (f" (differ: {', '.join(diff)})" if diff else ""))

        proc, res = _run(*base, "--trace", "0", "--inject-fault")
        expect(proc.returncode != 0 and res is not None and not res["correct"]
               and res["failed"] >= 1,
               f"{name}: a corrupted result is counted as failed")

    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc, res = _run("--workload", spec["workloads"][0]["name"],
                     "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare,
                     script=os.path.join(bare, spec["command"][1]))
    expect(proc.returncode != 0 and res is None,
           "without the sources the benchmark exits non-zero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
