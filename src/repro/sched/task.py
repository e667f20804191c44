"""Typed tasks and the per-step dependency DAG.

A :class:`Task` is one schedulable unit of a timestep: a kernel launch, a
stage of a batched halo transfer (pack, D2H, send, recv, H2D, unpack), a
fused local copy, a global reduction, or the uncharged release of a
transfer's scratch.  Each task carries the rank that executes it, a
*lane* (which timeline the modelled cost lands on), the Python closure
that performs the real work, and its dependency edges.

The graph guarantees a **deterministic** topological order: ready tasks
are dispatched in ascending emission order (or by an injected tie-break
key, used by the determinism tests to explore alternative valid orders).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from ..obs import lanes

__all__ = ["TaskKind", "Task", "TaskGraph", "COMPUTE_LANE", "COPY_LANES"]


class TaskKind(str, Enum):
    """The task taxonomy (DESIGN.md §sched)."""

    KERNEL = "kernel"    # compute kernel launch (device stream or CPU model)
    COPY = "copy"        # fused same-resource region copies
    PACK = "pack"        # pack kernel into a staging buffer
    D2H = "d2h"          # staging buffer → host (PCIe, copy engine)
    H2D = "h2d"          # host → staging buffer (PCIe, copy engine)
    UNPACK = "unpack"    # unpack kernel from a staging buffer
    SEND = "send"        # non-blocking network send (NIC timeline)
    RECV = "recv"        # receiver-side wait for message arrival
    REDUCE = "reduce"    # global collective (all ranks)
    FREE = "free"        # release of a transfer's scratch: host-side,
                         # uncharged, and what an aborting executor
                         # still runs so nothing recorded leaks


COMPUTE_LANE = lanes.COMPUTE
#: lanes whose waits count as *exposed* transfer time in the overlap
#: accounting: time a compute or host timeline spent blocked on a PCIe leg
COPY_LANES = (lanes.D2H, lanes.H2D)

_LANES = {
    TaskKind.KERNEL: COMPUTE_LANE,
    TaskKind.COPY: COMPUTE_LANE,
    TaskKind.PACK: COMPUTE_LANE,
    TaskKind.UNPACK: COMPUTE_LANE,
    TaskKind.D2H: lanes.D2H,
    TaskKind.H2D: lanes.H2D,
    TaskKind.SEND: lanes.NET,
    TaskKind.RECV: lanes.HOST,
    TaskKind.REDUCE: lanes.HOST,
    TaskKind.FREE: lanes.HOST,
}


@dataclass(eq=False)
class Task:
    """One node of the step DAG.

    ``fn`` takes the stream the executor resolved for this task's lane
    (None outside overlap mode and on host timelines) and returns the
    task's result, stored in ``result`` for downstream closures (the dt
    reduction reads the per-patch CFL minima this way).
    """

    tid: int
    kind: TaskKind
    rank: int | None          # executing rank index; None = all ranks
    label: str
    fn: Callable
    deps: list["Task"] = field(default_factory=list)
    reads: tuple = ()         # declared patch-data reads (sanitizer replay)
    writes: tuple = ()        # declared patch-data writes
    # Per-run state, overwritten by every execution of the task (a graph
    # may be replayed many times):
    result: object = None
    event: object = None      # gpu.stream.Event, set in overlap mode
    finish: float = 0.0       # virtual completion time, set by the executor
    busy: float = 0.0         # this task's own stream-busy seconds (overlap)
    _chk_undeclared: tuple = ()  # undeclared accesses (--sanitize)

    @property
    def lane(self) -> str:
        return _LANES[self.kind]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Task({self.tid}, {self.kind.value}, rank={self.rank}, "
                f"{self.label!r})")


class TaskGraph:
    """An append-only DAG of tasks with deterministic topological order."""

    def __init__(self):
        self.tasks: list[Task] = []

    def add(self, kind: TaskKind, rank: int | None, label: str, fn,
            deps=(), reads=(), writes=()) -> Task:
        task = Task(len(self.tasks), kind, rank, label, fn,
                    deps=list(dict.fromkeys(deps)),
                    reads=tuple(reads), writes=tuple(writes))
        self.tasks.append(task)
        return task

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)

    def topological_order(self, key=None) -> list[Task]:
        """Tasks in a valid dependency order.

        ``key`` maps a task to a sortable priority used to break ties
        among simultaneously-ready tasks; the default (emission order)
        makes execution reproduce the serial call sequence exactly.  Any
        key yields a *valid* order — the determinism tests exploit this to
        check bitwise-independence from scheduling choices.
        """
        indegree = {t.tid: len(t.deps) for t in self.tasks}
        dependents: dict[int, list[Task]] = {t.tid: [] for t in self.tasks}
        for t in self.tasks:
            for d in t.deps:
                dependents[d.tid].append(t)
        keyfn = key if key is not None else (lambda task: task.tid)
        ready = [(keyfn(t), t.tid) for t in self.tasks if indegree[t.tid] == 0]
        heapq.heapify(ready)
        by_tid = {t.tid: t for t in self.tasks}
        order: list[Task] = []
        while ready:
            _, tid = heapq.heappop(ready)
            task = by_tid[tid]
            order.append(task)
            for dep in dependents[tid]:
                indegree[dep.tid] -= 1
                if indegree[dep.tid] == 0:
                    heapq.heappush(ready, (keyfn(dep), dep.tid))
        if len(order) != len(self.tasks):
            stuck = [t.label for t in self.tasks
                     if indegree[t.tid] > 0][:8]
            raise ValueError(f"task graph has a cycle (involving {stuck})")
        return order
