"""Span and counter recording around foliated_flows public calls.

``install`` wraps every function in ``LAYERS`` at each name its callers look
it up by: the attribute of every foliated_flows module that holds the same
function object, or the attribute of the class for a method.  No source file
changes.  Private helpers (``_rk4_path``, ``_decompose_from_path``, ...) are
not wrapped, so their time is their caller's self time.

Spans (id, parent, name, start, end) are kept in memory and written out by
``Tracer.dump``; ``summarize`` turns a dump into per-name call counts, total
time and self time, where self time is a span's duration minus the part of
it that its child spans cover (their union, since the children of a
multi-threaded fan-out overlap).

Which end-to-end metric each layer metric should move, and where:

  config.load_config.self_s                  setup_s, every workload
  drivers.sample_jump_driver.self_s,         wall_s on rates-cosine and
    drivers.jumps_drawn                        average-commuting
  drivers.sample_brownian.self_s,            wall_s on coalesce-circle
    drivers.generator.self_s,
    drivers.normals_drawn, drivers.streams_opened
  flows.perturbed_cylinder_path.self_s       wall_s on average-commuting (the
    (grid, r and the RK4 of z),                RK4 of z) and rates-cosine
    flows.grid_points
  flows.cos_integral_prefix.*,               wall_s on rates-cosine only; 0 on
    flows.cos_prefix_points                    average-commuting
  flows.index_of.*                           wall_s on rates-cosine
  flows.evolve_coalescing_circle.self_s      wall_s on coalesce-circle
    (draws excluded), flows.merges,
    flows.cross_leaf_merges, flows.coalesce_curve_dev_se
  averaging.decompose_error.self_s (A1..A4   wall_s on rates-cosine
    arithmetic), check_pathwise_bounds,
    averaging_error
  averaging.solve_averaged_ode.self_s,       fixed costs
    averaging.measured_lipschitz.self_s
  kernels.*.self_s                           wall_s on kernel-dense
  kernels.dense_bytes                        peak_rss_mb on kernel-dense
  parallel.map_indexed.self_s (fan-out       wall_s on average-commuting; about
    outside the replica functions),            0 on the 1-thread workloads
    parallel.threads
  harness.{run,emit_plotdata,to_json}.self_s wall_s on rates-cosine and
    harness.artifact_bytes                     coalesce-circle
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

PACKAGE = "foliated_flows"


def _count_merges(tr, out, args, kwargs):
    starts = args[0] if args else kwargs["starts"]
    tr.add("flows.merges", len(set(out.class_ids[0].tolist())) - len(set(out.class_ids[-1].tolist())))
    tr.add(
        "flows.cross_leaf_merges",
        sum(1 for (i, j) in out.hit_times if starts[i].leaf != starts[j].leaf),
    )


def _count_decomposition(tr, out, args, kwargs):
    tr.add("averaging.partition_intervals", out.partition.n_intervals)
    tr.add("averaging.replicas_exited", int(out.exited))


def _count_threads(tr, out, args, kwargs):
    n = args[1] if len(args) > 1 else kwargs["n"]
    threads = args[2] if len(args) > 2 else kwargs.get("threads", 1)
    tr.peak("parallel.threads", threads if threads > 1 and n > 1 else 1)


def _count_dense_bytes(tr, out, args, kwargs):
    # the largest dense kernel matrix built, computed from its shape
    tr.peak("kernels.dense_bytes", out.matrix.nbytes)


# (module, attribute, class or None, span name, counter)
LAYERS = (
    ("config", "load_config", None, "config.load_config", None),
    (
        "drivers",
        "sample_jump_driver",
        None,
        "drivers.sample_jump_driver",
        lambda tr, out, a, kw: tr.add("drivers.jumps_drawn", out.jump_times.size),
    ),
    (
        "drivers",
        "sample_brownian",
        None,
        "drivers.sample_brownian",
        lambda tr, out, a, kw: tr.add("drivers.normals_drawn", out.brownian_increments.size),
    ),
    (
        "drivers",
        "generator",
        "StreamKey",
        "drivers.generator",
        lambda tr, out, a, kw: tr.add("drivers.streams_opened", 1),
    ),
    (
        "flows",
        "perturbed_cylinder_path",
        None,
        "flows.perturbed_cylinder_path",
        lambda tr, out, a, kw: tr.add("flows.grid_points", out.times.size),
    ),
    (
        "flows",
        "cos_integral_prefix",
        "AngularJumpPath",
        "flows.cos_integral_prefix",
        lambda tr, out, a, kw: tr.add("flows.cos_prefix_points", out.size),
    ),
    ("flows", "index_of", "PerturbedCylinderPath", "flows.index_of", None),
    ("flows", "evolve_coalescing_circle", None, "flows.evolve_coalescing_circle", _count_merges),
    ("averaging", "decompose_error", None, "averaging.decompose_error", _count_decomposition),
    (
        "averaging",
        "check_pathwise_bounds",
        None,
        "averaging.check_pathwise_bounds",
        lambda tr, out, a, kw: tr.add("averaging.bound_violations", len(out[0])),
    ),
    ("averaging", "averaging_error", None, "averaging.averaging_error", None),
    ("averaging", "solve_averaged_ode", None, "averaging.solve_averaged_ode", None),
    ("averaging", "measured_lipschitz", None, "averaging.measured_lipschitz", None),
    ("kernels", "build_cylinder_kernel", None, "kernels.build_cylinder_kernel", _count_dense_bytes),
    ("kernels", "product_kernel_flow", None, "kernels.product_kernel_flow", _count_dense_bytes),
    ("kernels", "check_compatibility", None, "kernels.check_compatibility", None),
    ("kernels", "check_diagonal_preserving", None, "kernels.check_diagonal_preserving", None),
    ("kernels", "check_foliated", None, "kernels.check_foliated", None),
    ("kernels", "compose", "TransitionKernel", "kernels.compose", _count_dense_bytes),
    ("kernels", "write_kernel_json", None, "kernels.write_kernel_json", None),
    ("parallel", "map_indexed", None, "parallel.map_indexed", _count_threads),
    ("harness", "run", None, "harness.run", None),
    ("harness", "emit_plotdata", None, "harness.emit_plotdata", None),
    ("harness", "to_json", "RunReport", "harness.to_json", None),
)

# Span name of one replica function called by map_indexed; excluded from the
# fan-out's self time.
TASK_SPAN = "parallel.map_indexed.task"


class Tracer:
    """In-memory spans and counters; safe to use from worker threads."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, n) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name: str, n) -> None:
        with self._lock:
            self.counts[name] = max(self.counts.get(name, 0), n)

    def call(self, name: str, fn, args, kwargs, sid: int | None = None, parent: int | None = None):
        """fn(*args, **kwargs) inside a span named name."""
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else 0
        if sid is None:
            sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def wrap(self, name: str, fn, counter=None):
        fan_out = name == "parallel.map_indexed"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if fan_out:
                # the replica function runs on worker threads, so its span
                # names the fan-out span as its parent explicitly
                sid = next(self._ids)
                replica_fn = args[0]

                def task(i):
                    return self.call(TASK_SPAN, replica_fn, (i,), {}, parent=sid)

                out = self.call(name, fn, (task,) + args[1:], kwargs, sid=sid)
            else:
                out = self.call(name, fn, args, kwargs)
            if counter is not None:
                counter(self, out, args, kwargs)
            return out

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def install() -> Tracer:
    """Wrap every function in LAYERS, before the first call into any of them."""
    tracer = Tracer()
    homes = {m: importlib.import_module(f"{PACKAGE}.{m}") for m, *_ in LAYERS}
    modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
    for mod_name, attr, cls_name, span, counter in LAYERS:
        home = homes[mod_name]
        if cls_name is not None:
            cls = getattr(home, cls_name)
            setattr(cls, attr, tracer.wrap(span, getattr(cls, attr), counter))
            continue
        original = getattr(home, attr)
        wrapped = tracer.wrap(span, original, counter)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
    return tracer


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(path) -> dict:
    """Per span name: calls, total_s, self_s; plus the recorded counters."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    spans = data["spans"]
    children: dict[int, list[tuple[float, float]]] = {}
    for _sid, parent, _name, t0, t1 in spans:
        children.setdefault(parent, []).append((t0, t1))
    layers: dict[str, dict] = {}
    for sid, _parent, name, t0, t1 in spans:
        rec = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["total_s"] += t1 - t0
        rec["self_s"] += (t1 - t0) - _covered(children.get(sid, []), t0, t1)
    return {"layers": layers, "counts": data["counts"]}
