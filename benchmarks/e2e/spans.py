"""Outside-in wall-clock spans: the benchmark's own tracing.

Nothing under ``src/repro`` knows about this file.  A traced run swaps
each layer's *public* entry points (the table below) for wrappers that
record a span ``[name, layer, t0, t1, parent, run_id]`` around the call,
keeps the spans in memory, and puts the originals back when it ends.
The wrappers only observe: a traced run must produce the same bits and
the same modelled time as an untraced one (``run.py`` checks it).

A layer's *self time* is its spans' duration minus the part of that
interval their child spans cover (AMReX TinyProfiler's exclusive time),
so self times of all spans under one root sum to the root's duration.

The table is resolved by dotted name when tracing starts and fails
loudly: if a refactor renames a public entry point, open a benchmark
issue and update the table there — do not let a layer silently lose its
numbers.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable

__all__ = [
    "LAYERS", "HARNESS", "WRAP_POINTS", "COUNT_POINTS", "WrapPoint",
    "WrapPointError", "SpanRecorder", "Patcher", "resolve", "tracing",
    "counting", "self_times", "kernel_layer",
]

#: the timed layers, named after the packages of ``src/repro`` they cover
#: (``pdat`` also stands for ``cupdat`` and the ``mesh.variables``
#: factories; ``mesh`` itself is too hot to time and is counted instead)
LAYERS = ("hydro", "xfer", "geom", "pdat", "exec", "gpu", "comm", "sched",
          "regrid")
#: layer of the root spans the harness opens around each step / set-up
HARNESS = "harness"

# span record fields
NAME, LAYER, T0, T1, PARENT, RUN_ID = range(6)


class WrapPointError(LookupError):
    """A wrap point no longer resolves to a public callable."""


# -- per-call counters taken from the arguments ------------------------------------


def _count_exchange(args, kwargs):
    remote = [m for m in args[1] if m.src != m.dst]
    return (("comm.messages", len(remote)),
            ("comm.bytes", sum(m.nbytes for m in remote)))


def _count_isend(args, kwargs):
    msg = args[1]
    if msg.src == msg.dst:
        return ()
    return (("comm.messages", 1), ("comm.bytes", msg.nbytes))


def _count_allreduce(args, kwargs):
    return (("comm.allreduces", 1),)


@dataclass(frozen=True)
class WrapPoint:
    """One public callable to wrap, and the layer its time is charged to."""

    #: ``package.module.Class.method`` or ``package.module.function``
    target: str
    layer: str
    #: "span" times the call; "launch" additionally times the kernel body
    #: it is handed (``fn``, third positional argument after self) as a
    #: child span charged to the layer owning the kernel-name prefix
    kind: str = "span"
    #: optional ``(args, kwargs) -> ((counter, increment), ...)``
    counts: Callable | None = None


def _points(layer: str, prefix: str, names: Iterable[str], **kw) -> list[WrapPoint]:
    return [WrapPoint(f"{prefix}.{n}", layer, **kw) for n in names]


_PI = "repro.hydro.patch_integrator.CleverleafPatchIntegrator"
_BACKEND = "repro.exec.backend.Backend"
_DEVICE = "repro.gpu.device.Device"
_COMM = "repro.comm.simcomm.SimCommunicator"
_GEOM = "repro.geom.operators"
_BUILDER = "repro.sched.builder.GraphBuilder"

WRAP_POINTS: tuple[WrapPoint, ...] = (
    *_points("hydro", "repro.hydro.integrator.LagrangianEulerianIntegrator",
             ("step", "initialise")),
    *_points("hydro", _PI, ("ideal_gas", "viscosity", "calc_dt", "pdv",
                            "accelerate", "flux_calc", "advec_cell",
                            "advec_mom", "reset_field")),
    *_points("hydro", "repro.hydro.boundary.ReflectiveBoundary",
             ("apply_all", "batch_member")),
    *_points("xfer", "repro.xfer.refine_schedule.RefineSchedule",
             ("__init__", "fill", "emit_tasks")),
    *_points("xfer", "repro.xfer.coarsen_schedule.CoarsenSchedule",
             ("__init__", "coarsen", "emit_tasks")),
    WrapPoint("repro.xfer.schedule_cache.ScheduleCache.get", "xfer"),
    *_points("geom", f"{_GEOM}.RefineOperator", ("apply", "batch_member")),
    *_points("geom", f"{_GEOM}.CoarsenOperator", ("apply", "batch_member")),
    *_points("geom", f"{_GEOM}.CellMassWeightedCoarsen",
             ("apply_weighted", "batch_member_weighted")),
    WrapPoint(f"{_GEOM}.fused_refine_apply", "geom"),
    *_points("pdat", "repro.mesh.variables.HostDataFactory",
             ("allocate", "allocate_level")),
    *_points("pdat", "repro.mesh.variables.CudaDataFactory",
             ("allocate", "allocate_level")),
    *_points("exec", _BACKEND, ("run", "run_batched", "copy_batch",
                                "pack_batch", "unpack_batch",
                                "pack_batch_staged", "unpack_batch_staged")),
    # the exec seam's host launch path (Backend._cpu is its caller)
    WrapPoint("repro.comm.simcomm.Rank.cpu_run", "exec", kind="launch"),
    WrapPoint(f"{_DEVICE}.launch", "gpu", kind="launch"),
    *_points("gpu", _DEVICE, ("memcpy_htod", "memcpy_dtoh", "memcpy_dtod",
                              "empty", "zeros", "full")),
    WrapPoint(f"{_COMM}.exchange", "comm", counts=_count_exchange),
    WrapPoint(f"{_COMM}.isend", "comm", counts=_count_isend),
    WrapPoint(f"{_COMM}.allreduce_min", "comm", counts=_count_allreduce),
    *_points("comm", _COMM, ("wait_recv", "allgather")),
    WrapPoint("repro.sched.driver.StepScheduler.advance", "sched"),
    *_points("sched", _BUILDER, ("kernel_task", "copy", "stream_batch",
                                 "flush_fusion")),
    WrapPoint("repro.sched.task.TaskGraph.topological_order", "sched"),
    WrapPoint("repro.sched.executor.GraphExecutor.execute", "sched"),
    *_points("regrid", "repro.regrid.regridder.Regridder",
             ("regrid", "generate_boxes")),
    WrapPoint("repro.regrid.berger_rigoutsos.cluster_tags", "regrid"),
    WrapPoint("repro.regrid.load_balance.assign_owners", "regrid"),
)

#: ``mesh`` calls counted (never timed) during the count pass
COUNT_POINTS: tuple[str, ...] = (
    "repro.mesh.box.IntVector.__new__",
    "repro.mesh.box.Box.__init__",
    "repro.mesh.box.Box.shape",
    "repro.mesh.box.Box.slices_in",
    "repro.mesh.box.Box.intersection",
    "repro.mesh.box.Box.contains_box",
)


def kernel_layer(kernel_name: str, default: str) -> str:
    """The layer owning a kernel name's prefix (``hydro.pdv`` -> hydro)."""
    prefix = kernel_name.split(".", 1)[0]
    return prefix if prefix in LAYERS else default


# -- resolving and patching ------------------------------------------------------


def resolve(target: str):
    """``(owner, attribute, span name)`` for a dotted wrap-point name.

    ``owner`` is the class or module holding the attribute.  Raises
    :class:`WrapPointError` naming the first component that is missing.
    """
    parts = target.split(".")
    module = None
    for cut in range(len(parts) - 1, 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        break
    if module is None:
        raise WrapPointError(
            f"wrap point {target!r}: no importable module prefix — the "
            "benchmark's wrap table (benchmarks/e2e/spans.py) is out of "
            "date; open a benchmark issue")
    owner = module
    path = parts[cut:]
    for i, attr in enumerate(path):
        if not hasattr(owner, attr):
            missing = ".".join(parts[:cut + i + 1])
            raise WrapPointError(
                f"wrap point {target!r}: {missing!r} does not exist — a "
                "public entry point was renamed or removed; update the wrap "
                "table (benchmarks/e2e/spans.py) in a benchmark issue")
        if i < len(path) - 1:
            owner = getattr(owner, attr)
    if not callable(getattr(owner, path[-1])):
        raise WrapPointError(f"wrap point {target!r} is not callable")
    return owner, path[-1], ".".join(path[-2:])


def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


class Patcher:
    """Replaces attributes and puts every original back, in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make: Callable) -> None:
        """Swap ``owner.attr`` for ``make(original function)``.

        A method is wrapped on its class *and* on every subclass that
        overrides it; a module-level function in its module and in every
        loaded ``repro`` module that imported it by name.
        """
        if isinstance(owner, type):
            holders = [c for c in [owner, *_subclasses(owner)]
                       if attr in vars(c)]
            if not holders:
                raise WrapPointError(
                    f"{owner.__name__}.{attr} is inherited, not defined "
                    f"there: name the class that defines it")
            for cls in holders:
                raw = vars(cls)[attr]
                static = isinstance(raw, staticmethod)
                new = make(raw.__func__ if static else raw)
                self._set(cls, attr, raw, staticmethod(new) if static else new)
            return
        original = vars(owner)[attr]
        new = make(original)
        for name, module in list(sys.modules.items()):
            if (module is owner or name.startswith("repro.")) and \
                    vars(module).get(attr) is original:
                self._set(module, attr, original, new)

    def _set(self, owner, attr, raw, new) -> None:
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


# -- recording -------------------------------------------------------------------


class SpanRecorder:
    """In-memory span list plus the counters taken at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: index of the open span new spans are children of (-1 = none)
        self.current = -1
        #: identifier shared by every span of one step (or one set-up)
        self.run_id = 0

    def open(self, name: str, layer: str) -> list:
        """Start a span as a child of the currently open one."""
        record = [name, layer, 0.0, 0.0, self.current, self.run_id]
        self.current = len(self.spans)
        self.spans.append(record)
        record[T0] = perf_counter()
        return record

    def close(self, record: list) -> None:
        record[T1] = perf_counter()
        self.current = record[PARENT]

    @contextmanager
    def span(self, name: str, layer: str):
        """A span opened by hand (the harness's per-step root spans)."""
        record = self.open(name, layer)
        try:
            yield record
        finally:
            self.close(record)

    def wrap(self, fn, name: str, point: WrapPoint):
        """The observing replacement for ``fn``."""
        rec = self
        layer = point.layer
        counts = point.counts
        counters = self.counters

        if point.kind == "launch":
            # fn(self, kernel, elements, body, *args, **kw)
            def wrapper(self_, kernel, elements, body, *args, **kwargs):
                kname = getattr(kernel, "name", kernel)
                counters["kernel_elements." + kname] += max(int(elements), 0)
                body_layer = kernel_layer(kname, layer)

                def timed_body(*a):
                    record = rec.open("kernel_body", body_layer)
                    try:
                        return body(*a)
                    finally:
                        rec.close(record)

                record = rec.open(name, layer)
                try:
                    return fn(self_, kernel, elements, timed_body, *args,
                              **kwargs)
                finally:
                    rec.close(record)
        else:
            def wrapper(*args, **kwargs):
                if counts is not None:
                    for key, inc in counts(args, kwargs):
                        counters[key] += inc
                record = rec.open(name, layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.close(record)

        return functools.wraps(fn)(wrapper)


@contextmanager
def tracing(recorder: SpanRecorder, points: Iterable[WrapPoint] = WRAP_POINTS):
    """Install the span wrappers for the duration of the block."""
    resolved = [(p, *resolve(p.target)) for p in points]  # fail before patching
    patcher = Patcher()
    try:
        for point, owner, attr, name in resolved:
            patcher.replace(
                owner, attr,
                lambda fn, n=name, p=point: recorder.wrap(fn, n, p))
        yield recorder
    finally:
        patcher.restore()


@contextmanager
def counting(targets: Iterable[str] = COUNT_POINTS):
    """Install counting-only wrappers; yields ``{span name: calls}``."""
    counts: dict[str, int] = defaultdict(int)
    resolved = [resolve(t) for t in targets]
    patcher = Patcher()

    def make(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return functools.wraps(fn)(wrapper)

    try:
        for owner, attr, name in resolved:
            patcher.replace(owner, attr, lambda fn, k=name: make(fn, k))
        yield counts
    finally:
        patcher.restore()


# -- self-time arithmetic --------------------------------------------------------


def self_times(spans: list) -> list[float]:
    """Exclusive time of every span, in span order.

    A span's self time is its duration minus the part of its interval
    covered by the union of its direct children (children are clipped to
    the parent and may overlap or touch each other).
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[T0], s[T1]))
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[T0], s[T1]
        covered = 0.0
        edge = lo
        for c0, c1 in sorted(children.get(i, ())):
            c0 = max(c0, edge)
            c1 = min(c1, hi)
            if c1 > c0:
                covered += c1 - c0
                edge = c1
        out.append((hi - lo) - covered)
    return out
