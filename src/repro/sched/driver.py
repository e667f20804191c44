"""Per-timestep driver: record each step phase into a graph and execute it.

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

Because the default topological order is emission order, an executor
without overlap replays the inline call sequence exactly; overlap changes
only which virtual timeline each transfer's cost lands on.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING

from .builder import GraphBuilder
from .executor import GraphExecutor
from .task import Task, TaskKind

if TYPE_CHECKING:  # pragma: no cover
    from ..hydro.integrator import LagrangianEulerianIntegrator

__all__ = ["StepScheduler"]


class StepScheduler:
    """Advances an integrator's hierarchy one step via task graphs."""

    def __init__(self, integrator: "LagrangianEulerianIntegrator",
                 overlap: bool = False, order_key=None):
        self.integrator = integrator
        self.executor = GraphExecutor(
            integrator.comm, overlap=overlap, order_key=order_key)
        #: the open phase's builder
        self._gb: GraphBuilder | None = None

    @property
    def overlap(self) -> bool:
        return self.executor.overlap

    def advance(self) -> float:
        """One global timestep; returns dt.  The caller owns the step
        bookkeeping (time/step_count/regrid), as with the inline path."""
        return self.integrator._advance(self)

    # -- the step program's operations, recorded ---------------------------------

    @contextmanager
    def _phase(self, name: str):
        """Record everything emitted while open; execute it on close."""
        with self.integrator._phase(name):
            self._gb = gb = GraphBuilder(self.integrator.comm)
            yield
            self.executor.execute(gb.graph)

    def _fill(self, sched) -> None:
        sched.emit_tasks(self._gb, time=self.integrator.time)

    def _coarsen(self, sched) -> None:
        sched.emit_tasks(self._gb)

    def _sweep(self, fn) -> list:
        return self.integrator._sweep_into(self._gb, fn)

    def _reduce(self, fn, handles) -> Task:
        """One collective task over the sweep's readback tasks.

        In overlap mode every readback (one PCIe latency) rides the d2h
        copy stream, hiding under the next kernel instead of stalling the
        host.
        """
        return self._gb.add(TaskKind.REDUCE, None, "dt.allreduce",
                            lambda _stream: fn(handles),
                            reads=[t for _, t in handles])
