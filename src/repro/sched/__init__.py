"""Task-graph scheduling: one AMR timestep as an explicit dependency DAG.

The paper's §VI future work — "overlapping data transfer and computation"
— needs a control-flow layer above the execution-backend seam: something
that knows the whole step's structure (kernels, halo pack / D2H / network
/ H2D / unpack, fine-to-coarse sync, timestep reduction) and can place
each piece on the right timeline (compute stream, copy streams, NIC, host)
with event-based cross-stream ordering, instead of the hand-threaded
serial call sequence.  This package is that layer:

* :mod:`repro.sched.task` — the task taxonomy and the dependency DAG with
  deterministic topological ordering;
* :mod:`repro.sched.builder` — turns integrator sweeps and ``xfer``
  schedules into graph nodes, deriving dependencies automatically from
  each task's declared patch-data reads and writes;
* :mod:`repro.sched.executor` — dispatches a graph over per-rank streams
  and events (``overlap=True``) or the blocking legacy timelines
  (``overlap=False``), charging exposed copy-lane waits to each rank's
  metrics registry (``overlap.exposed_seconds``);
* :mod:`repro.sched.driver` — the per-timestep driver replacing
  ``LagrangianEulerianIntegrator``'s serial phase bodies.

Graph execution is *bitwise deterministic*: task bodies run in a
deterministic topological order regardless of overlap mode, so turning
overlap on changes only the virtual clocks, never the solution — and any
valid topological order yields the same bits (tested with hypothesis).
"""

from .builder import GraphBuilder
from .driver import StepScheduler
from .executor import GraphExecutor
from .task import Task, TaskGraph, TaskKind

__all__ = [
    "Task",
    "TaskGraph",
    "TaskKind",
    "GraphBuilder",
    "GraphExecutor",
    "StepScheduler",
]
