"""Spans around the calls into each pencil_lab layer, installed from outside.

The tracer wraps the public module-level functions of every layer module and
rebinds each wrapped name in every pencil_lab module that holds it, so calls
through ``module.func`` and through ``from .module import func`` are both
timed.  ``src/`` is not modified; ``uninstall`` puts the originals back.

Spans are kept in memory as (id, name, start, end, parent, thread id,
invocation id).  A worker-thread span carries its own thread id; its parent
may live on another thread (a pool task's parent is the pool span on the
calling thread).  Self time subtracts only child spans on the same thread.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import threading
import time
import types
from collections import defaultdict

LAYERS = ("cli", "expr", "grids", "geometry", "march", "compat", "diagonal",
          "lax", "surface", "io")

# Per-node and per-number helpers run 10^3 to 4*10^5 times a run.  Timing
# them would cost more than the work they do and would move the symbolic
# build out of the geometry and compat spans that own it.
UNTRACED = {"io.fmt", "io.canonical_digest"} | {
    f"expr.{n}" for n in ("const", "add", "sub", "mul", "div", "powi", "neg",
                          "call", "evaluate", "diff", "coords_used",
                          "to_text")}

WRITERS = ("io.write_obj", "io.write_csv_grid", "io.write_json_report")

# (metric name, unit, better): the per-layer metrics the traced run reports.
PER_LAYER = [
    ("grids.eval_grid.calls", "count", "lower"),
    ("grids.eval_grid.self_s", "s", "lower"),
    ("geometry.eval_array.self_s", "s", "lower"),
    ("geometry.christoffel.self_s", "s", "lower"),
    ("geometry.covariant_derivative.self_s", "s", "lower"),
    ("compat.btilde_from_r.self_s", "s", "lower"),
    ("expr.parse_expr.calls", "count", "lower"),
    ("compat.check_pencil.self_s", "s", "lower"),
    ("compat.check_theorem1.self_s", "s", "lower"),
    ("compat.verify_appendix.self_s", "s", "lower"),
    ("compat.hamiltonian_residuals.calls", "count", "lower"),
    ("compat.hamiltonian_residuals.self_s", "s", "lower"),
    ("compat.lambdas_skipped", "count", "lower"),
    ("march.solve_compatible.calls", "count", "lower"),
    ("march.solve_compatible.self_s", "s", "lower"),
    ("march.solve_compatible.errors", "count", "lower"),
    ("grids.cumint.calls", "count", "lower"),
    ("grids.cumint.self_s", "s", "lower"),
    ("grids.cumint.bytes_computed", "B", "lower"),
    ("grids.deriv.calls", "count", "lower"),
    ("grids.deriv.self_s", "s", "lower"),
    ("diagonal.solve_S.self_s", "s", "lower"),
    ("diagonal.solve_lame.self_s", "s", "lower"),
    ("lax.build_lax.self_s", "s", "lower"),
    ("lax.zero_curvature_residual.self_s", "s", "lower"),
    ("lax.integrate_frame.self_s", "s", "lower"),
    ("lax.induced_metric_residual.self_s", "s", "lower"),
    ("lax.weingarten_scaling_report.self_s", "s", "lower"),
    ("surface.solve_codazzi.self_s", "s", "lower"),
    ("surface.lax_residuals_3x3_2x2.self_s", "s", "lower"),
    ("surface.reconstruct_family.self_s", "s", "lower"),
    ("surface.weingarten_family_compare.self_s", "s", "lower"),
    ("surface.mesh_nontriviality.self_s", "s", "lower"),
    ("io.write_obj.self_s", "s", "lower"),
    ("io.write_csv_grid.self_s", "s", "lower"),
    ("io.write_json_report.self_s", "s", "lower"),
    ("io.bytes_written", "B", "lower"),
    ("io.write_mb_per_s", "MB/s", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.shift_pool.busy_s", "s", "lower"),
    ("cli.shift_pool.wall_s", "s", "lower"),
    ("cli.shift_pool.efficiency", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
]

# Metrics that must repeat exactly from one traced call to the next.
EXACT = ("grids.eval_grid.calls", "expr.parse_expr.calls",
         "compat.hamiltonian_residuals.calls", "march.solve_compatible.calls",
         "grids.cumint.calls", "grids.cumint.bytes_computed",
         "grids.deriv.calls", "io.bytes_written")


class Tracer:
    """In-memory span recorder plus the counters measured at span edges."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.invocation = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore = []

    # -- recording -----------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open_span(self, parent=None):
        """Push a new span on this thread; returns (id, parent, start)."""
        stack = self._stack()
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def close_span(self, name, opened):
        end = time.perf_counter()
        self._stack().pop()
        sid, parent, start = opened
        with self._lock:
            self.spans.append((sid, name, start, end, parent,
                               threading.get_ident(), self.invocation))

    def run_span(self, name, fn, args, kwargs, parent=None):
        opened = self.open_span(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close_span(name, opened)

    def count(self, key, amount):
        with self._lock:
            self.counters[(self.invocation, key)] += amount

    # -- installation --------------------------------------------------------
    def _wrapper(self, name, fn):
        if name == "grids.cumint":
            # Bytes read plus bytes written, computed from the array sizes;
            # cache misses are not seen.
            def on_return(args, result):
                self.count("grids.cumint.bytes_computed",
                           args[0].nbytes + result.nbytes)
        elif name in WRITERS:
            def on_return(args, result):
                self.count("io.bytes_written", os.path.getsize(args[0]))
        else:
            on_return = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                result = self.run_span(name, fn, args, kwargs)
            except Exception:
                self.count(f"{name}.errors", 1)
                raise
            if on_return is not None:
                on_return(args, result)
            return result
        return traced

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            """The shift pool: its block is one span, each task another."""

            def __enter__(self):
                self._span = tracer.open_span()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close_span("cli.shift_pool", self._span)
                    tracer.count("cli.shift_pool.threads",
                                 self._max_workers)

            def map(self, fn, *iterables, **kwargs):
                parent = self._span[0]

                def task(*args):
                    return tracer.run_span("cli.shift_pool.task", fn, args,
                                           {}, parent=parent)
                return super().map(task, *iterables, **kwargs)

        return TracedPool

    def install(self):
        """Rebind every public layer function in every pencil_lab module."""
        mods = {name: importlib.import_module(f"pencil_lab.{name}")
                for name in LAYERS}
        wrappers = {}  # id of the original function -> its traced wrapper
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    wrappers[id(obj)] = self._wrapper(name, obj)
        package = importlib.import_module("pencil_lab")
        for mod in [package, *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        cli = mods["cli"]
        self._restore.append((cli, "ThreadPoolExecutor",
                              cli.ThreadPoolExecutor))
        cli.ThreadPoolExecutor = self._pool_class(cli.ThreadPoolExecutor)

    def uninstall(self):
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    # -- analysis ------------------------------------------------------------
    def per_invocation(self, inv: int) -> dict:
        """Self time and call count per span name, plus counters, of a call."""
        spans = [s for s in self.spans if s[6] == inv]
        by_id = {s[0]: s for s in spans}
        child_time = defaultdict(float)
        for sid, _, start, end, parent, tid, _ in spans:
            if parent in by_id and by_id[parent][5] == tid:
                child_time[parent] += end - start
        out = defaultdict(float)
        for sid, name, start, end, _, _, _ in spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_time[sid]
            out[f"{name}.wall_s"] += end - start
        for (i, key), value in self.counters.items():
            if i == inv:
                out[key] += value
        return out

    def layer_metrics(self, inv: int) -> dict:
        """The PER_LAYER values of one traced call (overhead excluded)."""
        raw = self.per_invocation(inv)
        m = {name: raw.get(name, 0.0) for name, _, _ in PER_LAYER}
        m["cli.self_s"] = raw.get("cli.main.self_s", 0.0)
        m["cli.shift_pool.busy_s"] = raw.get("cli.shift_pool.task.wall_s", 0.0)
        wall = raw.get("cli.shift_pool.wall_s", 0.0)
        m["cli.shift_pool.wall_s"] = wall
        threads = raw.get("cli.shift_pool.threads", 0.0)
        pools = raw.get("cli.shift_pool.calls", 0.0)
        if wall > 0 and pools:
            m["cli.shift_pool.efficiency"] = (
                m["cli.shift_pool.busy_s"] / ((threads / pools) * wall))
        writer_s = sum(raw.get(f"{w}.self_s", 0.0) for w in WRITERS)
        if writer_s > 0:
            m["io.write_mb_per_s"] = raw["io.bytes_written"] / 1e6 / writer_s
        return m

    def write_spans(self, path):
        rows = [{"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                 "parent": s[4], "thread": s[5], "invocation": s[6]}
                for s in sorted(self.spans)]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def summarize(per_call: list) -> tuple:
    """Median of each metric over traced calls, and the exact-count check.

    Returns (metrics, problems); a problem names a count that changed from
    one call to the next.
    """
    metrics = {}
    problems = []
    for name, _, _ in PER_LAYER:
        values = [m[name] for m in per_call]
        metrics[name] = statistics.median(values)
        if name in EXACT and len(set(values)) > 1:
            problems.append(f"{name} differs between traced calls: {values}")
    return metrics, problems
