"""Per-layer metrics: names, units, and how each is derived.

Three sources, all read at layer boundaries:

* the traced pass's spans (``spans.py``) — ``<layer>.self_s`` /
  ``.share`` and every ``*_s`` / ``*_calls`` / ``*_p50`` below; only
  spans under a ``step`` root count, so set-up never leaks into a share;
* the run's metrics manifest (``RunResult.metrics``) — modelled seconds
  and the program's own counters; these cover the whole run, set-up
  included, and repeat exactly;
* the count pass and the ``Box`` micro-loop — the ``mesh.*`` overlay.
  ``mesh`` time sits *inside* its callers' spans (mostly ``xfer``), so
  ``mesh.est_*`` is computed (calls x measured ns/op), not a term of the
  share sum.

``PER_LAYER`` is the contract ``BENCHMARK.json`` repeats; every traced
run emits every name (0 where a layer is not entered).
"""

from __future__ import annotations

import random
from collections import defaultdict
from statistics import median
from time import process_time

from spans import HARNESS, LAYERS, LAYER, NAME, PARENT, T0, T1, self_times

__all__ = ["PER_LAYER", "layer_metrics", "mesh_metrics", "box_microloop",
           "dominant_layer"]

_LOW, _HIGH = "lower", "higher"


def _common(layer):
    return [(f"{layer}.self_s", "s", _LOW), (f"{layer}.share", "ratio", _LOW)]


#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    *_common("hydro"),
    ("hydro.kernel_body_s", "s", _LOW),
    ("hydro.kernel_elements", "count", _LOW),
    ("hydro.body_ns_per_element", "ns", _LOW),
    ("hydro.dispatch_calls", "count", _LOW),
    ("hydro.boundary_s", "s", _LOW),
    ("hydro.mass_drift_rel", "ratio", _LOW),
    *_common("xfer"),
    ("xfer.fill_calls", "count", _LOW),
    ("xfer.fill_s", "s", _LOW),
    ("xfer.fill_ms_p50", "ms", _LOW),
    ("xfer.coarsen_calls", "count", _LOW),
    ("xfer.coarsen_s", "s", _LOW),
    ("xfer.schedule_builds", "count", _LOW),
    ("xfer.schedule_build_s", "s", _LOW),
    ("xfer.emit_s", "s", _LOW),
    ("xfer.cache_hit_ratio", "ratio", _HIGH),
    *_common("geom"),
    ("geom.kernel_body_s", "s", _LOW),
    ("geom.refine_elements", "count", _LOW),
    ("geom.coarsen_elements", "count", _LOW),
    *_common("pdat"),
    ("pdat.allocs", "count", _LOW),
    ("pdat.alloc_s", "s", _LOW),
    ("pdat.kernel_body_s", "s", _LOW),
    ("pdat.copy_elements", "count", _LOW),
    *_common("exec"),
    ("exec.run_calls", "count", _LOW),
    ("exec.run_batched_calls", "count", _LOW),
    ("exec.patches_per_launch", "ratio", _HIGH),
    ("exec.slab_fused_ratio", "ratio", _HIGH),
    ("exec.copy_batch_calls", "count", _LOW),
    ("exec.copy_batch_s", "s", _LOW),
    ("exec.pack_unpack_s", "s", _LOW),
    ("exec.stacked_ratio", "ratio", _HIGH),
    *_common("gpu"),
    ("gpu.kernel_launches", "count", _LOW),
    ("gpu.host_us_per_launch", "us", _LOW),
    ("gpu.memcpy_calls", "count", _LOW),
    ("gpu.h2d_bytes", "B", _LOW),
    ("gpu.d2h_bytes", "B", _LOW),
    ("gpu.modelled_kernel_s", "s", _LOW),
    ("gpu.modelled_transfer_s", "s", _LOW),
    *_common("comm"),
    ("comm.messages", "count", _LOW),
    ("comm.bytes", "B", _LOW),
    ("comm.allreduces", "count", _LOW),
    ("comm.exposed_wait_s", "s", _LOW),
    ("comm.hidden_s", "s", _HIGH),
    *_common("sched"),
    ("sched.graphs", "count", _LOW),
    ("sched.tasks", "count", _LOW),
    ("sched.build_s", "s", _LOW),
    ("sched.execute_s", "s", _LOW),
    ("sched.host_us_per_task", "us", _LOW),
    *_common("regrid"),
    ("regrid.regrids", "count", _LOW),
    ("regrid.s", "s", _LOW),
    ("regrid.ms_p50", "ms", _LOW),
    ("regrid.cluster_s", "s", _LOW),
    ("regrid.balance_s", "s", _LOW),
    ("regrid.levels_reclustered", "count", _LOW),
    ("regrid.levels_rebuilt", "count", _LOW),
    ("regrid.levels_kept", "count", _HIGH),
    ("regrid.levels_reused", "count", _HIGH),
    ("regrid.tag_readbacks", "count", _LOW),
    ("regrid.modelled_s", "s", _LOW),
    ("mesh.intvector_news_per_step", "count", _LOW),
    ("mesh.box_news_per_step", "count", _LOW),
    ("mesh.shape_calls_per_step", "count", _LOW),
    ("mesh.slices_in_calls_per_step", "count", _LOW),
    ("mesh.intersection_calls_per_step", "count", _LOW),
    ("mesh.contains_box_calls_per_step", "count", _LOW),
    ("mesh.box_algebra_ns_per_op", "ns", _LOW),
    ("mesh.est_ms_per_step", "ms", _LOW),
    ("mesh.est_share", "ratio", _LOW),
    ("mesh.patches", "count", _LOW),
    ("mesh.levels", "count", _LOW),
    ("harness.overhead_ratio", "ratio", _LOW),
    ("harness.unattributed_share", "ratio", _LOW),
    ("harness.calib_ms", "ms", _LOW),
    ("obs.tracer_on_ratio", "ratio", _LOW),
)

_PI_KERNELS = ("ideal_gas", "viscosity", "calc_dt", "pdv", "accelerate",
               "flux_calc", "advec_cell", "advec_mom", "reset_field")
_BUILDER_CALLS = ("kernel_task", "copy", "stream_batch", "flush_fusion")


class _StepSpans:
    """Aggregates of the spans that sit under a ``step`` root."""

    def __init__(self, spans: list):
        selfs = self_times(spans)
        self.total = 0.0
        self.layer_self: dict[str, float] = defaultdict(float)
        #: (span name, layer) -> inclusive durations, one per call
        self.durations: dict[tuple[str, str], list[float]] = defaultdict(list)
        self.self_by: dict[tuple[str, str], float] = defaultdict(float)
        in_step: list[bool] = []
        for s, own in zip(spans, selfs):
            parent = s[PARENT]
            inside = in_step[parent] if parent >= 0 else s[NAME] == "step"
            in_step.append(inside)
            if not inside:
                continue
            if parent < 0:
                self.total += s[T1] - s[T0]
            key = (s[NAME], s[LAYER])
            self.layer_self[s[LAYER]] += own
            self.durations[key].append(s[T1] - s[T0])
            self.self_by[key] += own

    def calls(self, layer: str, *names: str) -> int:
        return sum(len(self.durations.get((n, layer), ())) for n in names)

    def incl(self, layer: str, *names: str) -> float:
        return sum(sum(self.durations.get((n, layer), ())) for n in names)

    def p50_ms(self, layer: str, name: str) -> float:
        d = self.durations.get((name, layer))
        return 1e3 * median(d) if d else 0.0


def _sum(counters: dict, name: str, label: str = "") -> float:
    """Sum a manifest counter over its label variants (optionally one)."""
    return sum(v for k, v in counters.items()
               if (k == name or k.startswith(name + "{")) and label in k)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list, counters: dict, manifest: dict) -> dict[str, float]:
    """Every span- and manifest-derived metric of ``PER_LAYER``.

    ``counters`` are the recorder's argument counts taken during the
    traced step loop; ``manifest`` is the traced run's metrics manifest.
    """
    st = _StepSpans(spans)
    mc = manifest.get("counters", {})
    mg = manifest.get("gauges", {})
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = st.layer_self.get(layer, 0.0)
        m[f"{layer}.share"] = _ratio(st.layer_self.get(layer, 0.0), st.total)
    m["harness.unattributed_share"] = _ratio(
        st.layer_self.get(HARNESS, 0.0), st.total)

    def elements(prefix: str) -> float:
        return sum(v for k, v in counters.items()
                   if k.startswith("kernel_elements." + prefix))

    def body_s(layer: str) -> float:
        return st.self_by.get(("kernel_body", layer), 0.0)

    pi = [f"CleverleafPatchIntegrator.{k}" for k in _PI_KERNELS]
    m["hydro.kernel_body_s"] = body_s("hydro")
    m["hydro.kernel_elements"] = elements("hydro.")
    m["hydro.body_ns_per_element"] = 1e9 * _ratio(
        m["hydro.kernel_body_s"], m["hydro.kernel_elements"])
    m["hydro.dispatch_calls"] = st.calls("hydro", *pi)
    m["hydro.boundary_s"] = st.incl(
        "hydro", "ReflectiveBoundary.apply_all",
        "ReflectiveBoundary.batch_member")

    builds = ("RefineSchedule.__init__", "CoarsenSchedule.__init__")
    m["xfer.fill_calls"] = st.calls("xfer", "RefineSchedule.fill")
    m["xfer.fill_s"] = st.incl("xfer", "RefineSchedule.fill")
    m["xfer.fill_ms_p50"] = st.p50_ms("xfer", "RefineSchedule.fill")
    m["xfer.coarsen_calls"] = st.calls("xfer", "CoarsenSchedule.coarsen")
    m["xfer.coarsen_s"] = st.incl("xfer", "CoarsenSchedule.coarsen")
    m["xfer.schedule_builds"] = st.calls("xfer", *builds)
    m["xfer.schedule_build_s"] = st.incl("xfer", *builds)
    m["xfer.emit_s"] = st.incl("xfer", "RefineSchedule.emit_tasks",
                               "CoarsenSchedule.emit_tasks")
    hits = _sum(mc, "schedule_cache.hits")
    m["xfer.cache_hit_ratio"] = _ratio(
        hits, hits + _sum(mc, "schedule_cache.misses"))

    m["geom.kernel_body_s"] = body_s("geom")
    m["geom.refine_elements"] = elements("geom.refine")
    m["geom.coarsen_elements"] = elements("geom.coarsen")

    allocs = [f"{f}.{n}" for f in ("HostDataFactory", "CudaDataFactory")
              for n in ("allocate", "allocate_level")]
    m["pdat.allocs"] = st.calls("pdat", *allocs)
    m["pdat.alloc_s"] = st.incl("pdat", *allocs)
    m["pdat.kernel_body_s"] = body_s("pdat")
    m["pdat.copy_elements"] = elements("pdat.")

    m["exec.run_calls"] = st.calls("exec", "Backend.run")
    m["exec.run_batched_calls"] = st.calls("exec", "Backend.run_batched")
    m["exec.patches_per_launch"] = _ratio(
        _sum(mc, "batch.members"), _sum(mc, "batch.launches"))
    fused = _sum(mc, "slab_fused")
    m["exec.slab_fused_ratio"] = _ratio(
        fused, fused + _sum(mc, "slab_fallback"))
    m["exec.copy_batch_calls"] = st.calls("exec", "Backend.copy_batch")
    m["exec.copy_batch_s"] = st.incl("exec", "Backend.copy_batch")
    m["exec.pack_unpack_s"] = st.incl(
        "exec", "Backend.pack_batch", "Backend.unpack_batch",
        "Backend.pack_batch_staged", "Backend.unpack_batch_staged")
    stacked = _sum(mc, "stack.regions")
    m["exec.stacked_ratio"] = _ratio(
        stacked, stacked + _sum(mc, "stack.fallback_regions"))

    launches = st.calls("gpu", "Device.launch")
    m["gpu.kernel_launches"] = launches
    m["gpu.host_us_per_launch"] = 1e6 * _ratio(
        st.self_by.get(("Device.launch", "gpu"), 0.0), launches)
    m["gpu.memcpy_calls"] = st.calls(
        "gpu", "Device.memcpy_htod", "Device.memcpy_dtoh",
        "Device.memcpy_dtod")
    m["gpu.h2d_bytes"] = _sum(mc, "transfer.bytes", "direction=h2d")
    m["gpu.d2h_bytes"] = _sum(mc, "transfer.bytes", "direction=d2h")
    m["gpu.modelled_kernel_s"] = _sum(mc, "kernel.seconds", "gpu")
    m["gpu.modelled_transfer_s"] = _sum(mc, "transfer.seconds")

    m["comm.messages"] = counters.get("comm.messages", 0.0)
    m["comm.bytes"] = counters.get("comm.bytes", 0.0)
    m["comm.allreduces"] = counters.get("comm.allreduces", 0.0)
    m["comm.exposed_wait_s"] = _sum(mc, "overlap.exposed_seconds")
    m["comm.hidden_s"] = mg.get("overlap.hidden_seconds", 0.0)

    builder = [f"GraphBuilder.{n}" for n in _BUILDER_CALLS]
    tasks = _sum(mc, "sched.tasks")
    m["sched.graphs"] = _sum(mc, "sched.graphs")
    m["sched.tasks"] = tasks
    m["sched.build_s"] = st.incl("sched", *builder)
    m["sched.execute_s"] = st.incl("sched", "GraphExecutor.execute")
    m["sched.host_us_per_task"] = 1e6 * _ratio(m["sched.self_s"], tasks)

    m["regrid.regrids"] = _sum(mc, "regrid.regrids")
    m["regrid.s"] = st.incl("regrid", "Regridder.regrid")
    m["regrid.ms_p50"] = st.p50_ms("regrid", "Regridder.regrid")
    m["regrid.cluster_s"] = st.incl("regrid", "cluster_tags")
    m["regrid.balance_s"] = st.incl("regrid", "assign_owners")
    for name in ("levels_reclustered", "levels_rebuilt", "levels_kept",
                 "levels_reused", "tag_readbacks"):
        m[f"regrid.{name}"] = _sum(mc, f"regrid.{name}")
    m["regrid.modelled_s"] = mg.get("phase.seconds{phase=regrid}", 0.0)
    return m


def dominant_layer(metrics: dict[str, float]) -> str:
    """The timed layer with the largest share."""
    return max(LAYERS, key=lambda layer: metrics[f"{layer}.share"])


# -- the mesh overlay ---------------------------------------------------------------

MICROLOOP_OPS = 200_000


def box_microloop(seed: int) -> dict[str, float]:
    """ns per call of four counted ``Box`` methods (keyed by span name).

    A fixed ``MICROLOOP_OPS`` calls through the public ``Box`` API, a
    quarter on each method, over 256 random boxes inside one frame.
    """
    from repro.mesh.box import Box

    rng = random.Random(seed)
    frame = Box((0, 0), (255, 255))
    boxes = []
    for _ in range(256):
        x, y = rng.randrange(0, 224), rng.randrange(0, 224)
        boxes.append(Box((x, y), (x + rng.randrange(1, 32),
                                  y + rng.randrange(1, 32))))
    pairs = list(zip(boxes, boxes[1:] + boxes[:1]))
    sweeps = {
        "Box.shape": lambda: [a.shape() for a, _ in pairs],
        "Box.slices_in": lambda: [a.slices_in(frame) for a, _ in pairs],
        "Box.intersection": lambda: [a.intersection(b) for a, b in pairs],
        "Box.contains_box": lambda: [a.contains_box(b) for a, b in pairs],
    }
    reps = MICROLOOP_OPS // (len(sweeps) * len(pairs))
    out = {}
    for name, sweep in sweeps.items():
        t0 = process_time()
        for _ in range(reps):
            sweep()
        out[name] = 1e9 * (process_time() - t0) / (reps * len(pairs))
    return out


def mesh_metrics(counts: dict[str, int], steps: int, ns_per_op: dict[str, float],
                 step_ms: float, patches: int, levels: int) -> dict[str, float]:
    """The ``mesh.*`` overlay from the count pass and the micro-loop.

    ``mesh.est_ms_per_step`` is *computed*: counted calls of the four
    timed ``Box`` methods x their micro-loop cost.  It leaves out the
    uncounted methods (``grow``, ``coarsen``, ...), so it is a floor.
    """
    per_step = {k: v / steps for k, v in counts.items()}
    est_ms = sum(per_step.get(op, 0.0) * ns for op, ns in ns_per_op.items()) / 1e6
    return {
        "mesh.intvector_news_per_step": per_step.get("IntVector.__new__", 0.0),
        "mesh.box_news_per_step": per_step.get("Box.__init__", 0.0),
        "mesh.shape_calls_per_step": per_step.get("Box.shape", 0.0),
        "mesh.slices_in_calls_per_step": per_step.get("Box.slices_in", 0.0),
        "mesh.intersection_calls_per_step": per_step.get("Box.intersection", 0.0),
        "mesh.contains_box_calls_per_step": per_step.get("Box.contains_box", 0.0),
        "mesh.box_algebra_ns_per_op": sum(ns_per_op.values()) / len(ns_per_op),
        "mesh.est_ms_per_step": est_ms,
        "mesh.est_share": _ratio(est_ms, step_ms),
        "mesh.patches": float(patches),
        "mesh.levels": float(levels),
    }
