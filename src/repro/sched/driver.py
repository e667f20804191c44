"""Per-timestep driver: record each step phase into a graph once, replay it.

The timestep itself is written once, in
``LagrangianEulerianIntegrator._advance``, in terms of five operations:
open a phase, fill a halo schedule, sweep a kernel over every patch,
coarsen a sync schedule, reduce launch handles.  The integrator runs each
operation as it is named; :class:`StepScheduler` implements the same five
by *recording*: the kernel sweeps and the schedules' transfer programs
run against the open phase's :class:`~repro.sched.builder.GraphBuilder`
instead of the immediate sink — one
:class:`~repro.sched.task.TaskGraph` per phase, handed to a
:class:`~repro.sched.executor.GraphExecutor` when the phase closes.
Graphs are per phase so the ``hydro`` / ``timestep`` / ``sync`` timer
decomposition keeps its meaning: every phase starts and ends with all
timelines joined.

Between regrids a phase's graph is the same program every step (the
paper's Fig. 5 stream schedule), so it is recorded once per hierarchy
generation and replayed — the CUDA-graph idiom.  A :class:`_Capture`
keeps the graph, its topological order and what recording did besides
adding tasks (scratch allocations, sanitizer notes), keyed by the
phase's position in the step and its variant (the advection's sweep
order).  A replayed phase builds nothing: each operation is checked
against the captured sequence and hands back the captured handles, then
the phase renews its scratch, re-issues its notes and executes.  Kernel
bodies read the step's ``dt`` from the integrator's
:class:`~repro.exec.batch.StepParams` when they run.  A regrid (a
``ScheduleCache`` purge, a level layout change) or a change of sanitizer
drops every capture; graphs hold no reference cycles, so a dropped one
is freed at once.

Because the default topological order is emission order, an executor
without overlap replays the inline call sequence exactly; overlap changes
only which virtual timeline each transfer's cost lands on.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING

from ..check.context import active as _check_active
from ..xfer.schedule_cache import level_token
from .builder import GraphBuilder
from .executor import GraphExecutor
from .task import Task, TaskGraph, TaskKind

if TYPE_CHECKING:  # pragma: no cover
    from ..hydro.integrator import LagrangianEulerianIntegrator

__all__ = ["StepScheduler", "ReplayDivergence"]


class ReplayDivergence(RuntimeError):
    """A replayed phase issued operations its capture did not record."""


class _Capture:
    """One phase's recorded graph: its tasks, their order for the
    executor's ``order_key``, the phase's operations as ``(kind,
    schedule, handles)`` and its issue-time effects as ``(fn, args)``."""

    __slots__ = ("graph", "order", "ops", "effects")

    def __init__(self, graph: TaskGraph, order: list, ops: list,
                 effects: list):
        self.graph = graph
        self.order = order
        self.ops = ops
        self.effects = effects


class StepScheduler:
    """Advances an integrator's hierarchy one step via task graphs."""

    def __init__(self, integrator: "LagrangianEulerianIntegrator",
                 overlap: bool = False, order_key=None):
        self.integrator = integrator
        self.executor = GraphExecutor(
            integrator.comm, overlap=overlap, order_key=order_key)
        #: phases recorded / replayed: ``sched.captures`` and
        #: ``sched.replays`` on rank 0's metrics registry
        _, _, _, self._n_captures, self._n_replays = (
            integrator.comm.rank(0).metrics.counters("sched", ()))
        #: (phase ordinal, variant) -> _Capture, for one generation
        self._captures: dict = {}
        self._generation = None
        self._ordinal = 0
        #: the open phase: recording into ``_gb`` (appending to ``_ops``),
        #: or replaying ``_replay`` (at operation ``_cursor``)
        self._gb: GraphBuilder | None = None
        self._ops: list = []
        self._replay: _Capture | None = None
        self._cursor = 0

    def advance(self) -> float:
        """One global timestep; returns dt.  The caller owns the step
        bookkeeping (time/step_count/regrid), as with the inline path."""
        self._ordinal = 0
        return self.integrator._advance(self)

    # -- the step program's operations, recorded or replayed ---------------------

    @contextmanager
    def _phase(self, name: str, variant: int = 0):
        """Record everything issued while open and execute it on close —
        or, if this phase was captured in this generation, replay it."""
        with self.integrator._phase(name):
            self._check_generation()
            key = (self._ordinal, variant)
            self._ordinal += 1
            capture = self._captures.get(key)
            if capture is None:
                yield from self._record(key)
            else:
                yield from self._replayed(key, capture)

    def _record(self, key):
        self._gb = gb = GraphBuilder(self.integrator.comm)
        self._ops = ops = []
        try:
            yield
        finally:
            self._gb = None
            self._ops = []
        order = gb.graph.topological_order(self.executor.order_key)
        self._n_captures.value += 1
        self.executor.execute(gb.graph, order)
        self._captures[key] = _Capture(gb.graph, order, ops, gb.effects)

    def _replayed(self, key, capture: _Capture):
        self._replay, self._cursor = capture, 0
        try:
            yield
            if self._cursor != len(capture.ops):
                raise ReplayDivergence(
                    f"phase {key} issued {self._cursor} of the "
                    f"{len(capture.ops)} operations it recorded")
        except BaseException:
            del self._captures[key]
            raise
        finally:
            self._replay = None
        self._n_replays.value += 1
        try:
            for fn, args in capture.effects:
                fn(*args)
            self.executor.execute(capture.graph, capture.order)
        except BaseException:
            del self._captures[key]
            raise

    def _check_generation(self) -> None:
        """Drop every capture when the hierarchy generation (schedule
        cache purges, level layouts) or the active sanitizer changed."""
        sim = self.integrator
        generation = (sim.schedule_cache.purges,
                      tuple(level_token(level) for level in sim.hierarchy),
                      _check_active())
        if generation != self._generation:
            self._captures.clear()
            self._generation = generation

    def _op(self, kind: str, schedule, record):
        """One operation of the open phase: record it (``record()``
        issues it into the builder and returns its handles) or check it
        against the capture and return the captured handles."""
        capture = self._replay
        if capture is None:
            handles = record()
            self._ops.append((kind, schedule, handles))
            return handles
        i = self._cursor
        if (i >= len(capture.ops) or capture.ops[i][0] != kind
                or capture.ops[i][1] is not schedule):
            raise ReplayDivergence(
                f"operation {i} of a replayed phase is {kind} where the "
                f"capture recorded "
                f"{capture.ops[i][0] if i < len(capture.ops) else 'nothing'}")
        self._cursor = i + 1
        return capture.ops[i][2]

    def _fill(self, sched) -> None:
        self._op("fill", sched, lambda: sched.emit_tasks(self._gb))

    def _coarsen(self, sched) -> None:
        self._op("coarsen", sched, lambda: sched.emit_tasks(self._gb))

    def _sweep(self, fn) -> list:
        return self._op("sweep", None,
                        lambda: self.integrator._sweep_into(self._gb, fn))

    def _reduce(self, fn, handles) -> Task:
        """One collective task over the sweep's readback tasks.

        In overlap mode every readback (one PCIe latency) rides the d2h
        copy stream, hiding under the next kernel instead of stalling the
        host.
        """
        return self._op("reduce", None, lambda: self._gb.add(
            TaskKind.REDUCE, None, "dt.allreduce",
            lambda _stream: fn(handles), reads=[t for _, t in handles]))
