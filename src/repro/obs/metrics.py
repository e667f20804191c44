"""The unified metrics registry: one API over every accounting surface.

The run used to expose three disjoint accounting surfaces — per-kernel /
per-transfer counters (:class:`~repro.exec.stats.ExecStats`), phase
timers (:class:`~repro.util.timer.TimerRegistry`) and the scheduler's
execution counters — each with its own naming and merge rules.  A
:class:`MetricsRegistry` puts them behind one counter / gauge /
histogram API with defined rank-merge semantics (counters sum, gauges
max, histograms pool), JSON-able snapshots, and a schema-versioned
end-of-run manifest that :func:`benchmarks _report.emit <run_manifest>`
embeds into ``BENCH_*.json`` so regressions diff field by field.

:func:`registry_for_rank` adapts one rank's existing counters into a
registry under canonical metric names; :func:`registry_from_run` merges
all ranks of a finished simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ScopedRegistry",
    "registry_for_rank",
    "registry_from_run",
    "run_manifest",
    "MANIFEST_SCHEMA",
]

#: bumped whenever a manifest field changes meaning
#: (/2 added the "policies" section: resolved execution/regrid policies
#: plus the tuner's decisions when the run was auto-tuned)
MANIFEST_SCHEMA = "repro.metrics/2"


@dataclass
class Counter:
    """Monotonically accumulated quantity; ranks merge by summing."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


@dataclass
class Gauge:
    """Point-in-time level (peaks, phase maxima); ranks merge by max."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def set_max(self, value: float) -> None:
        if value > self.value:
            self.value = value


@dataclass
class Histogram:
    """Distribution summary (count / sum / min / max); ranks pool."""

    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _flat_name(name: str, key: tuple) -> str:
    if not key:
        return name
    inner = ",".join(f"{k}={v}" for k, v in key)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Named, labelled counters, gauges and histograms for one scope.

    A scope is usually one rank; :meth:`merge` folds another scope in
    with per-type semantics (sum / max / pool), so the run-level view is
    ``reduce(merge, per_rank_registries)`` exactly as it would be over
    real MPI.
    """

    def __init__(self):
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}

    # -- instruments -----------------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        key = (name, _label_key(labels))
        c = self._counters.get(key)
        if c is None:
            c = self._counters[key] = Counter()
        return c

    def gauge(self, name: str, **labels) -> Gauge:
        key = (name, _label_key(labels))
        g = self._gauges.get(key)
        if g is None:
            g = self._gauges[key] = Gauge()
        return g

    def histogram(self, name: str, **labels) -> Histogram:
        key = (name, _label_key(labels))
        h = self._histograms.get(key)
        if h is None:
            h = self._histograms[key] = Histogram()
        return h

    # -- namespacing -----------------------------------------------------------

    def scoped(self, **labels) -> "ScopedRegistry":
        """A facade stamping these labels onto every instrument it names.

        This is how multi-tenant consumers (``repro.serve``) keep one
        shared registry while each tenant's counters stay separable:
        ``reg.scoped(tenant="alice").counter("jobs.completed")`` is the
        same instrument as ``reg.counter("jobs.completed",
        tenant="alice")``.
        """
        return ScopedRegistry(self, labels)

    # -- aggregation -----------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another scope in: counters sum, gauges max, histograms pool."""
        for (name, key), c in other._counters.items():
            self.counter(name, **dict(key)).inc(c.value)
        for (name, key), g in other._gauges.items():
            self.gauge(name, **dict(key)).set_max(g.value)
        for (name, key), h in other._histograms.items():
            mine = self.histogram(name, **dict(key))
            mine.count += h.count
            mine.total += h.total
            mine.min = min(mine.min, h.min)
            mine.max = max(mine.max, h.max)

    @staticmethod
    def merged(registries) -> "MetricsRegistry":
        out = MetricsRegistry()
        for r in registries:
            out.merge(r)
        return out

    # -- export ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-able view of every instrument, label-flattened names."""
        return {
            "counters": {
                _flat_name(n, k): c.value
                for (n, k), c in sorted(self._counters.items())
            },
            "gauges": {
                _flat_name(n, k): g.value
                for (n, k), g in sorted(self._gauges.items())
            },
            "histograms": {
                _flat_name(n, k): {
                    "count": h.count,
                    "sum": h.total,
                    "min": h.min if h.count else None,
                    "max": h.max if h.count else None,
                    "mean": h.mean,
                }
                for (n, k), h in sorted(self._histograms.items())
            },
        }


class ScopedRegistry:
    """A label-stamping view of a :class:`MetricsRegistry`.

    Same counter/gauge/histogram API; every instrument it creates lives
    in the underlying registry with the scope's labels merged in (call
    labels win on collision), so per-tenant views merge and snapshot
    through the shared registry unchanged.
    """

    def __init__(self, registry: MetricsRegistry, labels: dict):
        self._registry = registry
        self._labels = dict(labels)

    def scoped(self, **labels) -> "ScopedRegistry":
        return ScopedRegistry(self._registry, {**self._labels, **labels})

    def counter(self, name: str, **labels) -> Counter:
        return self._registry.counter(name, **{**self._labels, **labels})

    def gauge(self, name: str, **labels) -> Gauge:
        return self._registry.gauge(name, **{**self._labels, **labels})

    def histogram(self, name: str, **labels) -> Histogram:
        return self._registry.histogram(name, **{**self._labels, **labels})


# -- adapters over the existing accounting surfaces ---------------------------


def registry_for_rank(rank) -> MetricsRegistry:
    """One rank's ExecStats + timers under canonical metric names."""
    reg = MetricsRegistry()
    stats = rank.exec_stats
    for (resource, kernel), c in stats.kernels.items():
        reg.counter("kernel.launches", kernel=kernel, on=resource).inc(c.launches)
        reg.counter("kernel.elements", kernel=kernel, on=resource).inc(c.elements)
        reg.counter("kernel.seconds", kernel=kernel, on=resource).inc(c.seconds)
    for direction, c in stats.transfers.items():
        reg.counter("transfer.count", direction=direction).inc(c.count)
        reg.counter("transfer.bytes", direction=direction).inc(c.bytes)
        reg.counter("transfer.seconds", direction=direction).inc(c.seconds)
    for label, c in stats.streams.items():
        reg.counter("stream.ops", stream=label).inc(c.ops)
        reg.counter("stream.busy_seconds", stream=label).inc(c.seconds)
    for kernel, c in stats.batches.items():
        reg.counter("batch.launches", kernel=kernel).inc(c.launches)
        reg.counter("batch.members", kernel=kernel).inc(c.members)
        reg.counter("batch.overhead_saved_seconds",
                    kernel=kernel).inc(c.overhead_saved_seconds)
        reg.counter("batch.host_seconds", kernel=kernel).inc(c.host_seconds)
    for kernel, c in stats.slab.items():
        reg.counter("slab_fused", kernel=kernel).inc(c.fused)
        reg.counter("slab_fallback", kernel=kernel).inc(c.fallback)
    for kernel, c in stats.stacked.items():
        reg.counter("stack.regions", kernel=kernel).inc(c.stacked)
        reg.counter("stack.ops", kernel=kernel).inc(c.groups)
    for kind, c in stats.schedules.items():
        reg.counter("schedule_cache.hits", kind=kind).inc(c.hits)
        reg.counter("schedule_cache.misses", kind=kind).inc(c.misses)
    if stats.overlap.async_seconds:
        reg.counter("overlap.async_seconds").inc(stats.overlap.async_seconds)
        reg.counter("overlap.exposed_seconds").inc(stats.overlap.exposed_seconds)
        reg.gauge("overlap.hidden_seconds").set(stats.overlap.hidden_seconds)
    for phase, seconds in rank.timers.totals.items():
        reg.gauge("phase.seconds", phase=phase).set(seconds)
    if rank.device is not None:
        dstats = rank.device.stats
        reg.gauge("device.peak_bytes").set(dstats.peak_bytes_allocated)
        reg.counter("device.kernel_launches").inc(dstats.kernel_launches)
    return reg


def registry_from_run(sim) -> MetricsRegistry:
    """Rank-merged registry of a (possibly still running) simulation."""
    reg = MetricsRegistry.merged(registry_for_rank(r) for r in sim.comm.ranks)
    sched = getattr(sim, "_step_scheduler", None)
    if sched is not None:
        for name, value in {**sched.executor.counters,
                            **sched.counters}.items():
            reg.counter(f"sched.{name}").inc(value)
    regridder = getattr(sim, "regridder", None)
    if regridder is not None and regridder.totals.regrids:
        t = regridder.totals
        reg.counter("regrid.regrids").inc(t.regrids)
        reg.counter("regrid.levels_reclustered").inc(t.levels_reclustered)
        reg.counter("regrid.levels_reused").inc(t.levels_reused)
        reg.counter("regrid.levels_rebuilt").inc(t.levels_rebuilt)
        reg.counter("regrid.levels_kept").inc(t.levels_kept)
        reg.counter("regrid.tag_readbacks").inc(t.tag_readbacks)
        for phase, secs in t.phase_seconds.items():
            reg.counter("regrid.phase_seconds", phase=phase).inc(secs)
    return reg


def run_manifest(sim, *, steps=None, dt_history=None, policies=None,
                 extra=None) -> dict:
    """The machine-readable end-of-run manifest (schema-versioned).

    This is what :class:`repro.api.RunResult` carries as ``metrics`` and
    what the benchmark harness embeds into ``BENCH_*.json``.
    ``policies`` is the resolved execution/regrid policy record (dicts of
    ``{"execution": ..., "regrid": ..., "tuned": ...}``) so a manifest
    states *how* the run executed, not just how fast.
    """
    reg = registry_from_run(sim)
    if dt_history:
        h = reg.histogram("dt")
        for dt in dt_history:
            h.observe(dt)
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "ranks": sim.comm.size,
        "steps": steps if steps is not None else sim.step_count,
        "cells": sim.total_cells(),
        "levels": sim.hierarchy.num_levels,
        "virtual_runtime": sim.elapsed(),
        "timers": sim.timer_summary(),
    }
    if policies is not None:
        manifest["policies"] = policies
    manifest.update(reg.snapshot())
    if extra:
        manifest.update(extra)
    return manifest
