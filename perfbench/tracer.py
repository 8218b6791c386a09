"""Layer tracer kept entirely outside the package.

The tracer replaces selected module attributes of ``skewcodes`` with thin
wrappers.  A function is replaced in its defining module and in every
``skewcodes`` module that imported the name directly (``skewseries`` and
``skewlaurent`` import ``mul_arrays`` by name, ``codes`` imports ``closure``,
and so on); a method is replaced on its class.  Nothing inside the package
changes, and ``uninstall`` restores every original.

Each wrapped call records one span (name, start, end, parent span) in flat
arrays held in memory; ``write`` saves them when the run ends.  Self time is
the span's duration minus the time covered by its child spans, accumulated
as spans close.  A few targets are counted without a span because they are
called too often to time one by one.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

# (layer name, defining module, attribute path): one span per call.
SPAN_TARGETS = [
    ("gflinalg.mat_mul", "skewcodes._gflinalg", "mat_mul"),
    ("gflinalg.eliminate", "skewcodes._gflinalg", "_eliminate"),
    ("fields.sum_axis", "skewcodes.fields", "FieldSpec.sum_axis"),
    ("algebra.left_mult_matrix", "skewcodes.algebra", "Algebra.left_mult_matrix"),
    ("skewmap.ntable.ensure", "skewcodes.skewmap", "NOperatorTable.ensure"),
    ("skewpoly.mul_arrays", "skewcodes.skewpoly", "mul_arrays"),
    ("skewseries.series_mul", "skewcodes.skewseries", "series_mul"),
    ("skewlaurent.laurent_mul", "skewcodes.skewlaurent", "laurent_mul"),
    ("skewlaurent.xinv_times", "skewcodes.skewlaurent", "xinv_times"),
    ("modact.vec_mul_arrays", "skewcodes.modact", "vec_mul_arrays"),
    ("fxlinalg.smith_form", "skewcodes.fxlinalg", "smith_form"),
    ("fxlinalg.hermite_form", "skewcodes.fxlinalg", "hermite_form"),
    ("fxlinalg.closure", "skewcodes.fxlinalg", "closure"),
    ("fxlinalg.solve", "skewcodes.fxlinalg", "EchelonSolver.solve"),
    ("codes.cyclic_closure", "skewcodes.codes", "cyclic_closure"),
    ("codes.is_cyclic_submodule", "skewcodes.codes", "is_cyclic_submodule"),
    ("presets.load_preset", "skewcodes.presets", "load_preset"),
]

# (counter name, defining module, attribute path): a call count, no span.
COUNT_TARGETS = [
    ("fxlinalg.poly_mul.calls", "skewcodes.fxlinalg", "Poly.__mul__"),
    ("fxlinalg.poly_divmod.calls", "skewcodes.fxlinalg", "Poly.__divmod__"),
]

# Counters filled by the hooks below, reported even when they stay zero.
HOOK_COUNTERS = [
    "gflinalg.mat_mul.mults", "gflinalg.mat_mul.bytes",
    "skewmap.ntable.rows_built", "skewmap.ntable.matrix.calls",
    "skewmap.ntable.matrix.hits", "fxlinalg.solve.accepted",
]

_INDEX_BYTES = 2  # skewcodes.fields.DTYPE is int16


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Spans and counters for one traced region of one process."""

    def __init__(self, extra_spans=()):
        self.targets = list(SPAN_TARGETS) + list(extra_spans)
        self.names = [name for name, _, _ in self.targets]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.total_s = [0.0] * len(self.names)
        self.counters = {name: 0 for name, _, _ in COUNT_TARGETS}
        self.counters.update({name: 0 for name in HOOK_COUNTERS})
        self.active = False
        self._stack = []  # open spans: [span index, seconds of closed children]
        self._patches = []

    # ---- installation ----

    def install(self) -> None:
        for name, module_name, path in self.targets:
            self._patch(module_name, path, self._span_wrapper(name, path))
        for name, module_name, path in COUNT_TARGETS:
            self._patch(module_name, path, self._count_wrapper(name))
        self._patch("skewcodes.skewmap", "NOperatorTable.matrix",
                    self._matrix_wrapper)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, module_name: str, path: str, make) -> None:
        owner, attr = _resolve(module_name, path)
        original = owner.__dict__[attr]
        wrapper = make(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if "." in path:
            return  # methods are looked up on the class
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod is owner:
                continue
            if mod_name != "skewcodes" and not mod_name.startswith("skewcodes."):
                continue
            if mod.__dict__.get(attr) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    # ---- wrappers ----

    def _span_wrapper(self, name: str, path: str):
        nid = self._ids[name]
        hook = {
            "mat_mul": self._mat_mul_hook,
            "NOperatorTable.ensure": self._ensure_hook,
        }.get(path)
        accept = path == "EchelonSolver.solve"

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                if hook is not None:
                    hook(args)
                idx = len(self.start)
                stack = self._stack
                self.parent.append(stack[-1][0] if stack else -1)
                self.name_id.append(nid)
                frame = [idx, 0.0]
                stack.append(frame)
                t0 = perf_counter()
                self.start.append(t0)
                self.end.append(t0)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    self.end[idx] = t1
                    dur = t1 - t0
                    self.calls[nid] += 1
                    self.total_s[nid] += dur
                    self.self_s[nid] += dur - frame[1]
                    if stack:
                        stack[-1][1] += dur
                if accept and result is not None:
                    self.counters["fxlinalg.solve.accepted"] += 1
                return result
            return wrapper
        return make

    def _count_wrapper(self, name: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self.active:
                    self.counters[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _matrix_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(table, i, n):
            if self.active:
                self.counters["skewmap.ntable.matrix.calls"] += 1
                if n <= table.n_max:
                    self.counters["skewmap.ntable.matrix.hits"] += 1
            return fn(table, i, n)
        return wrapper

    def _mat_mul_hook(self, args) -> None:
        a, b = args[1], args[2]
        m, n = a.shape
        l = b.shape[1]
        c = self.counters
        c["gflinalg.mat_mul.mults"] += m * n * l
        # operands, the gathered product tensor and the result, all int16
        c["gflinalg.mat_mul.bytes"] += _INDEX_BYTES * (m * n + n * l + m * n * l + m * l)

    def _ensure_hook(self, args) -> None:
        table, n = args[0], args[1]
        if n > table.n_max:
            self.counters["skewmap.ntable.rows_built"] += n - table.n_max

    # ---- results ----

    def pause(self) -> None:
        self.active = False

    def resume(self) -> None:
        self.active = True

    def span_count(self) -> int:
        return len(self.start)

    def child_count(self, parent_name: str, child_name: str) -> int:
        """Spans of child_name whose direct parent is a parent_name span."""
        pid, cid = self._ids[parent_name], self._ids[child_name]
        return sum(1 for nid, par in zip(self.name_id, self.parent)
                   if nid == cid and par >= 0 and self.name_id[par] == pid)

    def layer_stats(self) -> dict:
        """Counts and self times keyed by metric name.

        codes.closure_rounds counts the purification rounds of cyclic
        closure: every closure span directly under a cyclic_closure span,
        less the initial purification of each call.
        """
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = self.self_s[nid]
        out.update(self.counters)
        out["codes.closure_rounds"] = (
            self.child_count("codes.cyclic_closure", "fxlinalg.closure")
            - out["codes.cyclic_closure.calls"])
        return out

    def write(self, path: str) -> None:
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32))
