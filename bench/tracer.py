"""Spans around cigarflow's public functions, recorded from outside the package.

`Tracer.install()` replaces each wrapped function under every name a
cigarflow module bound it to (``geometry.background_laplacian`` and the
copy ``flow`` imported alike), so calls made inside the package are traced
too; `uninstall()` restores the originals.  A span is (function, parent
span, start, end) with times from `time.perf_counter_ns`; spans stay in
memory until `summary()` reduces them or `save()` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

import numpy as np

WRAPPED = {
    "flow": ["step", "adaptive_dt", "fixed_fields", "map_to_fixed", "monitor",
             "curvature_evolution_residual", "kahler_residual", "profile_distance",
             "normalize"],
    "geometry": ["background_laplacian", "metric_laplacian", "width_report",
                 "solve_initial_potential"],
    "scenarios": ["build_scenario"],
    "snapshots": ["save_snapshot", "load_snapshot"],
    "diagnostics": ["emit_diagnostics"],
}
NAMES = [f"{module}.{fn}" for module, fns in WRAPPED.items() for fn in fns]


def _file_bytes(args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return lambda: os.path.getsize(path)


def _stream_bytes(args, kwargs):
    stream = args[1] if len(args) > 1 else kwargs["stream"]
    start = stream.tell()
    return lambda: stream.tell() - start


# bytes written, counted at the boundary of the function that writes them
BYTE_COUNTERS = {
    "snapshots.save_snapshot": _file_bytes,
    "diagnostics.emit_diagnostics": _stream_bytes,
}


class Tracer:
    def __init__(self):
        self.name_id, self.parent, self.start, self.end = [], [], [], []
        self.bytes = dict.fromkeys(BYTE_COUNTERS, 0)
        self._stack = []
        self._replaced = []

    def _wrap(self, index, fn):
        name = NAMES[index]
        sizer = BYTE_COUNTERS.get(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, byte_counts, clock = self._stack, self.bytes, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(end)
            measure = sizer(args, kwargs) if sizer else None
            name_id.append(index)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(span)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
                if measure is not None:
                    byte_counts[name] += measure()

        return traced

    def install(self):
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "cigarflow" or key.startswith("cigarflow.")]
        for index, name in enumerate(NAMES):
            module, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"cigarflow.{module}"), fn_name)
            traced = self._wrap(index, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        self._replaced.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._replaced):
            setattr(mod, attr, original)
        self._replaced = []

    def _arrays(self):
        return (np.asarray(self.name_id, dtype=np.int64), np.asarray(self.parent, dtype=np.int64),
                np.asarray(self.start, dtype=np.int64), np.asarray(self.end, dtype=np.int64))

    def save(self, path, environment_json):
        name_id, parent, start, end = self._arrays()
        np.savez(path, names=np.array(NAMES), name_id=name_id, parent=parent,
                 start=start, end=end, environment=np.array(environment_json))

    def summary(self, iterations, sim_time, traced_wall_s):
        """Per-iteration figures for every wrapped function plus the derived
        step and I/O counts.  `sim_time` is the simulated time of one
        iteration, `traced_wall_s` the summed wall time of the traced ones."""
        name_id, parent, start, end = self._arrays()
        dur = (end - start).astype(float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_ns = dur - child
        k = len(NAMES)
        calls = np.bincount(name_id, minlength=k)
        total_ns = np.bincount(name_id, weights=dur, minlength=k)
        self_total_ns = np.bincount(name_id, weights=self_ns, minlength=k)

        out = {}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls"] = calls[i] / iterations
            out[f"{name}.us_per_call"] = total_ns[i] / calls[i] / 1e3 if calls[i] else 0.0
            out[f"{name}.self_s"] = self_total_ns[i] / 1e9 / iterations

        is_step = name_id == NAMES.index("flow.step")
        is_monitor = name_id == NAMES.index("flow.monitor")
        under_monitor = np.zeros(name_id.size, dtype=bool)
        ancestor = parent.copy()
        while np.any(ancestor >= 0):
            live = ancestor >= 0
            under_monitor[live] |= is_monitor[ancestor[live]]
            ancestor[live] = parent[ancestor[live]]
        accepted = is_step & ~under_monitor
        n_accepted = int(accepted.sum())
        parent_accepted = np.zeros(name_id.size, dtype=bool)
        parent_accepted[has_parent] = accepted[parent[has_parent]]
        rhs_laplacians = (name_id == NAMES.index("geometry.background_laplacian")) & parent_accepted
        total_sim_time = sim_time * iterations

        out["flow.steps_per_sim_time"] = n_accepted / total_sim_time
        out["flow.rhs_evals_per_sim_time"] = rhs_laplacians.sum() / 2.0 / total_sim_time
        out["flow.probe_step_share"] = float((is_step & under_monitor).sum() / is_step.sum())
        out["flow.fixed_fields.calls_per_step"] = (
            calls[NAMES.index("flow.fixed_fields")] / n_accepted)
        for name, count in self.bytes.items():
            out[f"{name}.bytes"] = count / iterations
        out["trace.wall_s"] = traced_wall_s / iterations
        out["trace.unwrapped_s"] = (traced_wall_s - dur[~has_parent].sum() / 1e9) / iterations
        return out
