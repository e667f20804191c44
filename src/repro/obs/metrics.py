"""The metrics registry: the one store of every modelled event.

Each rank owns a :class:`MetricsRegistry` (``rank.metrics``), and every
modelled event is counted once, in that store, where it happens:
``Device.launch`` / ``Rank.cpu_run`` record a kernel, the device's
memcpy paths a transfer and its stream's busy time, the backend a fused
launch or a stacked region copy, each step phase its virtual seconds
(``phase.seconds{phase=…}``, a gauge), the device its high-water mark
(``device.peak_bytes``), and — on rank 0's store — the schedule cache a
lookup, the step-graph executor a graph, task or collective, the step
scheduler a capture or replay (``sched.*``) and the regridder each
regrid's level counts (``regrid.*``).  Every name is the one the
manifest carries (``kernel.seconds{kernel=…,on=gpu}``,
``transfer.bytes{direction=h2d}``, ``schedule_cache.misses{kind=fill}``,
…).  Counters merge across ranks by summing, gauges by max (a phase's
critical-path seconds), histograms pool; ``--profile``'s attribution
tables and the schema-versioned end-of-run manifest that
:func:`benchmarks _report.emit <run_manifest>` embeds into
``BENCH_*.json`` read the merged store (the tuner reads none of it: the
lowest probed grind wins).  Nothing is translated, and
:func:`registry_from_run` only merges.

Hot paths record through :meth:`MetricsRegistry.counters`, which names
a counter *family* (:data:`FAMILIES`) and caches its counter handles per
label values, or through a gauge handle they keep; readers use
:meth:`~MetricsRegistry.value`, :meth:`~MetricsRegistry.total`,
:meth:`~MetricsRegistry.variants` and :meth:`~MetricsRegistry.levels`,
which never create an instrument.
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
    "FAMILIES",
    "registry_from_run",
    "phase_seconds",
    "STEP_PHASES",
    "run_manifest",
    "MANIFEST_SCHEMA",
]

#: bumped whenever a manifest field changes meaning
#: (/2 added the "policies" section: resolved execution/regrid policies
#: plus the tuner's decisions when the run was auto-tuned)
MANIFEST_SCHEMA = "repro.metrics/2"


@dataclass(slots=True)
class Counter:
    """Monotonically accumulated quantity; ranks merge by summing."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


@dataclass
class Gauge:
    """A per-rank level (device peak, a phase's seconds so far); ranks
    merge by max."""

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


#: counter families a hot path records as one event:
#: family -> (label names, counter names).  A family's counters are
#: created together, so a member that stays zero (the misses of a kind
#: that only ever hit) still reads and snapshots as 0.
FAMILIES = {
    "kernel": (("kernel", "on"),
               ("kernel.launches", "kernel.elements", "kernel.seconds")),
    "transfer": (("direction",),
                 ("transfer.count", "transfer.bytes", "transfer.seconds")),
    "stream": (("stream",), ("stream.ops", "stream.busy_seconds")),
    "batch": (("kernel",),
              ("batch.launches", "batch.members",
               "batch.overhead_saved_seconds", "batch.host_seconds",
               "slab_fused", "slab_fallback")),
    "stack": (("kernel",), ("stack.regions", "stack.ops")),
    "schedule_cache": (("kind",),
                       ("schedule_cache.hits", "schedule_cache.misses")),
    "overlap": ((), ("overlap.async_seconds", "overlap.exposed_seconds")),
    # step graphs executed (GraphExecutor) and phases recorded / replayed
    # (StepScheduler): captures + replays == graphs
    "sched": ((), ("sched.graphs", "sched.tasks", "sched.collectives",
                   "sched.captures", "sched.replays")),
    # summed over every regrid of the run (per-call: RegridStats)
    "regrid": ((), ("regrid.regrids", "regrid.levels_reclustered",
                    "regrid.levels_reused", "regrid.levels_rebuilt",
                    "regrid.levels_kept", "regrid.tag_readbacks")),
}

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
        #: (family, label values) -> that member's counters, in
        #: FAMILIES order: the record path's handle cache
        self._families: dict[tuple, tuple[Counter, ...]] = {}

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

    # -- the record path -------------------------------------------------------

    def counters(self, family: str, values: tuple) -> tuple[Counter, ...]:
        """The counters of one member of ``family`` (:data:`FAMILIES`),
        in the family's counter order; a recording site adds one event
        to each ``.value``.

        ``values`` are the member's label values in the family's label
        order.  The handles are cached on ``(family, values)``, so a
        record builds no label key.
        """
        counters = self._families.get((family, values))
        if counters is None:
            labels, names = FAMILIES[family]
            labels = dict(zip(labels, values))
            counters = self._families[family, values] = tuple(
                self.counter(n, **labels) for n in names)
        return counters

    def record_overlap(self, async_seconds: float,
                       exposed_seconds: float) -> None:
        """Count async / exposed copy-stream seconds and refresh the
        ``overlap.hidden_seconds`` gauge: their difference, the transfer
        time hidden under compute (ranks merge it by max)."""
        async_c, exposed_c = self.counters("overlap", ())
        async_c.value += async_seconds
        exposed_c.value += exposed_seconds
        self.gauge("overlap.hidden_seconds").set(
            max(0.0, async_c.value - exposed_c.value))

    # -- reading (never creates an instrument) ----------------------------------

    def value(self, name: str, **labels) -> float:
        """The value of one labelled counter; 0 if it was never recorded."""
        c = self._counters.get((name, _label_key(labels)))
        return c.value if c is not None else 0.0

    def total(self, name: str, **labels) -> float:
        """Counter ``name`` summed over every label variant carrying
        ``labels`` (all variants when none are given)."""
        want = labels.items()
        return sum(c.value for (n, key), c in self._counters.items()
                   if n == name and want <= set(key))

    def variants(self, name: str) -> dict[tuple, float]:
        """``{label values: value}`` of every variant of counter ``name``,
        in recording order; label values in sorted label-name order."""
        return {tuple(v for _, v in key): c.value
                for (n, key), c in self._counters.items() if n == name}

    def levels(self, name: str) -> dict[tuple, float]:
        """:meth:`variants` of gauge ``name``."""
        return {tuple(v for _, v in key): g.value
                for (n, key), g in self._gauges.items() if n == name}

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

    def counter(self, name: str, **labels) -> Counter:
        return self._registry.counter(name, **{**self._labels, **labels})

    def histogram(self, name: str, **labels) -> Histogram:
        return self._registry.histogram(name, **{**self._labels, **labels})


# -- the run-level view ---------------------------------------------------------


def registry_from_run(sim) -> MetricsRegistry:
    """Rank-merged registry of a (possibly still running) simulation."""
    return MetricsRegistry.merged(r.metrics for r in sim.comm.ranks)


#: the phases a timestep is timed in: every charged second of a run lands
#: in exactly one of them.  ``phase_seconds`` also holds the regrid
#: sub-phases (``regrid.collect``/``cluster``/``rebuild``/``transfer``),
#: which are nested inside ``regrid`` — sum these four, not every key.
STEP_PHASES = ("hydro", "timestep", "sync", "regrid")


def phase_seconds(reg: MetricsRegistry) -> dict[str, float]:
    """``{phase: seconds}`` of the ``phase.seconds`` gauges: in a
    rank-merged registry, each phase's critical-path virtual time."""
    return {phase: s for (phase,), s in reg.levels("phase.seconds").items()}


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
        "timers": phase_seconds(reg),
    }
    if policies is not None:
        manifest["policies"] = policies
    manifest.update(reg.snapshot())
    if extra:
        manifest.update(extra)
    return manifest
