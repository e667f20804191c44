"""Span-based tracing: what ran, on which timeline, and when.

A :class:`Span` is one closed interval on one rank's timeline — a kernel
launch, a PCIe transfer, a network send, a scheduler task, a blocking
wait — carrying both the *virtual* clock interval the cost model charged
(the paper's modelled time) and the *wall* clock interval the simulating
process actually spent (``time.perf_counter``).  The virtual interval is
what the timeline view renders; the wall interval is diagnostic payload.

A :class:`Tracer` collects spans from every emission site in the
execution stack (see :mod:`repro.obs.context` for how sites find it) and
hands them to pluggable sinks at :meth:`Tracer.close`.  The default sink,
:class:`ChromeTraceSink`, writes Chrome-trace/Perfetto JSON with one
process per rank and one thread per (rank, stream/lane) — so overlap
wins, fused launches, and exposed halo waits are visible as parallel
tracks on one timeline (load ``chrome://tracing`` or https://ui.perfetto.dev).

Tracing is observation-only: emission reads clocks, never advances them,
so a traced run is bitwise- and virtual-time-identical to an untraced
run (enforced by ``tests/test_obs.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "Tracer",
    "MemorySink",
    "ChromeTraceSink",
    "chrome_trace_events",
    "CATEGORIES",
]

#: span taxonomy; validators reject anything outside it
CATEGORIES = frozenset({
    "kernel",     # one kernel launch (device stream or CPU model)
    "fused",      # one batched launch covering many member kernels
    "transfer",   # PCIe / on-device copy (h2d, d2h, d2d)
    "comm",       # network activity: sends, receive waits, collectives
    "task",       # one scheduler task body (label = task label)
    "wait",       # a timeline blocked on another timeline's event
    "tune",       # one auto-tuner probe (payload carries the candidate)
    "phase",      # integrator step phases (hydro / timestep / sync / regrid)
})


@dataclass
class Span:
    """One closed interval on one (rank, lane) timeline."""

    name: str          # kernel / task / message name
    category: str      # one of CATEGORIES
    rank: int          # owning rank index
    lane: str          # canonical timeline label (obs.lanes)
    t0: float          # virtual begin (seconds)
    t1: float          # virtual end (seconds)
    wall0: float = 0.0  # wall-clock begin (perf_counter seconds)
    wall1: float = 0.0  # wall-clock end
    payload: dict = field(default_factory=dict)  # bytes, elements, members…

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Per-run span collector with pluggable sinks.

    Emission is append-only and allocation-light; sinks only see the
    spans at :meth:`close` (one flush per run, like a real tracer's
    post-mortem buffer dump).
    """

    def __init__(self, sinks=()):
        self.spans: list[Span] = []
        self.sinks = list(sinks)
        self.closed = False

    def emit(self, name: str, category: str, rank: int, lane: str,
             t0: float, t1: float, wall0: float = 0.0, wall1: float = 0.0,
             **payload) -> None:
        """Record one span.  Never touches any virtual clock."""
        self.spans.append(Span(name, category, rank, lane, t0, t1, wall0,
                               wall1, payload))

    def close(self) -> None:
        """Flush every sink once.  Idempotent."""
        if self.closed:
            return
        self.closed = True
        for sink in self.sinks:
            sink.write(self.spans)


class MemorySink:
    """Keeps the flushed spans; used by tests and programmatic consumers."""

    def __init__(self):
        self.spans: list[Span] = []

    def write(self, spans) -> None:
        self.spans = list(spans)


def chrome_trace_events(spans) -> list[dict]:
    """Spans → Chrome-trace event dicts (one thread per (rank, lane)).

    Virtual seconds map to trace microseconds.  Each (rank, lane) pair
    gets a stable thread id and a ``thread_name`` metadata event; ranks
    are processes named ``rank N``.
    """
    events: list[dict] = []
    tids: dict[tuple[int, str], int] = {}
    for span in spans:
        key = (span.rank, span.lane)
        if key not in tids:
            tid = len([k for k in tids if k[0] == span.rank])
            tids[key] = tid
            events.append({
                "name": "thread_name", "ph": "M", "pid": span.rank,
                "tid": tid, "args": {"name": span.lane},
            })
            if tid == 0:
                events.append({
                    "name": "process_name", "ph": "M", "pid": span.rank,
                    "tid": 0, "args": {"name": f"rank {span.rank}"},
                })
        args = dict(span.payload)
        args["wall_us"] = round((span.wall1 - span.wall0) * 1e6, 3)
        events.append({
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "pid": span.rank,
            "tid": tids[key],
            "ts": span.t0 * 1e6,
            "dur": max(span.duration, 0.0) * 1e6,
            "args": args,
        })
    return events


class ChromeTraceSink:
    """Writes the spans as a Chrome-trace/Perfetto JSON file."""

    def __init__(self, path: str):
        self.path = path

    def write(self, spans) -> None:
        doc = {
            "traceEvents": chrome_trace_events(spans),
            "displayTimeUnit": "ms",
            "otherData": {"clock": "virtual", "source": "repro.obs"},
        }
        with open(self.path, "w") as f:
            json.dump(doc, f)
            f.write("\n")
