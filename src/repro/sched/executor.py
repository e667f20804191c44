"""Deterministic DAG execution over virtual timelines.

The executor dispatches a :class:`~repro.sched.task.TaskGraph` in a
deterministic topological order — so the *bits* produced never depend on
overlap mode or scheduling choices — while the modelled *time* lands on
different timelines per mode:

* ``overlap=False``: every task runs with the blocking legacy semantics
  (synchronous PCIe copies that drain the device, sends charged at the
  wait point).  This reproduces the serial call sequence exactly.
* ``overlap=True``: compute tasks run on the device's default stream,
  PCIe legs run asynchronously on per-direction copy-engine streams, and
  sends post to the NIC timeline without blocking the host.  Cross-stream
  ordering uses recorded events (``cudaEventRecord`` /
  ``cudaStreamWaitEvent``, the paper's Fig. 5a machinery), and every wait
  a compute or host timeline performs on a copy-stream event is charged
  to the rank's overlap accounting as *exposed* transfer time.

At the end of a graph the executor drains every timeline it used (device
streams, copy streams, posted sends) so phase timers observe a consistent
hierarchy state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..check.context import active as _check_active
from ..gpu.stream import Event
from ..obs.context import active_tracer
from ..obs.lanes import HOST
from .task import COPY_LANES, Task, TaskGraph, TaskKind

if TYPE_CHECKING:  # pragma: no cover
    from ..comm.simcomm import Rank, SimCommunicator

__all__ = ["GraphExecutor", "overlap_order"]


#: dispatch priority in overlap mode: launch all ready compute (and the
#: async copy legs, which cost the host one launch overhead) before any
#: task that blocks the host on a transfer — the "post everything, then
#: wait" discipline of a real async runtime.  Among equal priorities the
#: emission order breaks ties, keeping dispatch deterministic.
_OVERLAP_PRIORITY = {
    TaskKind.KERNEL: 0,
    TaskKind.COPY: 0,
    TaskKind.PACK: 0,
    TaskKind.FREE: 0,
    TaskKind.D2H: 1,
    TaskKind.H2D: 1,
    TaskKind.UNPACK: 2,
    TaskKind.SEND: 3,
    TaskKind.RECV: 4,
    TaskKind.REDUCE: 5,
}


def overlap_order(task: Task) -> int:
    """Compute-first tie-break key used by default in overlap mode."""
    return _OVERLAP_PRIORITY[task.kind]


class GraphExecutor:
    """Executes task graphs over a communicator's ranks."""

    def __init__(self, comm: "SimCommunicator", overlap: bool = False,
                 order_key=None):
        self.comm = comm
        self.overlap = overlap
        #: tie-break key for the topological order (tests inject
        #: permutations here to prove order-independence)
        self.order_key = order_key
        if order_key is None and overlap:
            self.order_key = overlap_order
        #: graphs, tasks and collectives executed: the ``sched`` family
        #: on rank 0's metrics registry
        self._graphs, self._tasks, self._collectives, _, _ = (
            comm.rank(0).metrics.counters("sched", ()))
        #: (rank index, copy lane) -> virtual time already charged as
        #: exposed, so overlapping waits (an event wait and the later
        #: end-of-graph drain covering the same stream interval) count once
        self._exposed_hwm: dict[tuple[int, str], float] = {}

    # -- public API ------------------------------------------------------------

    def execute(self, graph: TaskGraph, order=None) -> None:
        """Dispatch every task in order — ``order``, the graph's
        topological order for this executor's ``order_key`` when a
        caller replaying the graph kept it, else computed here.  If a
        task raises, the graph's not-yet-run ``FREE`` tasks still run
        before the error propagates: scratch allocated when the graph was
        recorded (or renewed for a replay) is released by tasks, and an
        aborted graph must not leak it.  Every run overwrites a task's
        ``result`` and ``finish``, and on a stream lane re-records its
        ``event`` and ``busy``."""
        self._graphs.value += 1
        if order is None:
            order = graph.topological_order(self.order_key)
        done = 0
        try:
            for task in order:
                self._dispatch(task)
                done += 1
        except BaseException:
            for task in order[done + 1:]:
                if task.kind is TaskKind.FREE:
                    task.fn(None)
            raise
        self._drain()
        chk = _check_active()
        if chk is not None:
            chk.check_graph(graph)

    # -- dispatch --------------------------------------------------------------

    def _dispatch(self, task: Task) -> None:
        self._tasks.value += 1
        if task.rank is None:
            self._collectives.value += 1
            self._run_collective(task)
            return
        rank = self.comm.rank(task.rank)
        stream = self._stream_for(task, rank)
        tracer = active_tracer()
        if stream is not None:
            self._wait_on_stream(task, stream, rank)
            t0 = stream.clock.time
            task.result = self._run_body(task, stream)
            ev = task.event
            if ev is None:
                ev = task.event = Event()
            ev.record(stream)
            task.finish = ev.timestamp
            task.busy = max(0.0, ev.timestamp - t0)
            if tracer is not None:
                tracer.emit(task.label, "task", rank.index, stream.label,
                            t0, ev.timestamp, kind=task.kind.value)
        else:
            self._wait_on_host(task, rank)
            t0 = rank.clock.time
            task.result = self._run_body(task, None)
            task.finish = rank.clock.time
            if tracer is not None and task.finish > t0:
                tracer.emit(task.label, "task", rank.index, HOST,
                            t0, task.finish, kind=task.kind.value)

    def _run_body(self, task: Task, stream):
        """Run ``task.fn`` inside a sanitizer access scope, if one is on."""
        chk = _check_active()
        if chk is None:
            return task.fn(stream)
        chk.begin_task(task)
        try:
            return task.fn(stream)
        finally:
            chk.end_task(task)

    def _run_collective(self, task: Task) -> None:
        # Each participating rank must reach its own dependencies before
        # entering the collective (the collective itself then meets the
        # clocks through the network model).
        tracer = active_tracer()
        for dep in task.deps:
            ev = dep.event
            if ev is not None and dep.rank is not None:
                r = self.comm.rank(dep.rank)
                before = r.clock.time
                r.clock.advance_to(ev.timestamp)
                if dep.lane in COPY_LANES:
                    self._charge_exposed(r, dep.lane, before, r.clock.time,
                                         cap=dep.busy)
                if tracer is not None and r.clock.time > before:
                    tracer.emit(f"wait {dep.label}", "wait", r.index, HOST,
                                before, r.clock.time, on=dep.lane)
        task.result = self._run_body(task, None)
        task.finish = max(r.clock.time for r in self.comm.ranks)

    # -- timeline resolution and waits -----------------------------------------

    def _stream_for(self, task: Task, rank: "Rank"):
        if not self.overlap or rank.device is None:
            return None
        lane = task.lane
        if lane == "compute":
            return rank.device.default_stream
        if lane in COPY_LANES and rank.resident_backend is not None:
            return rank.resident_backend.lane_stream(lane)
        return None

    def _wait_on_stream(self, task: Task, stream, rank: "Rank") -> None:
        tracer = active_tracer()
        for dep in task.deps:
            ev = dep.event
            if ev is not None and ev.stream is not stream:
                before = stream.clock.time
                stream.wait_event(ev)
                if dep.lane in COPY_LANES:
                    self._charge_exposed(rank, dep.lane, before,
                                         stream.clock.time, cap=dep.busy)
                if tracer is not None and stream.clock.time > before:
                    tracer.emit(f"wait {dep.label}", "wait", rank.index,
                                stream.label, before, stream.clock.time,
                                on=dep.lane)

    def _wait_on_host(self, task: Task, rank: "Rank") -> None:
        # A FREE task is uncharged bookkeeping: it releases scratch,
        # touching no device bytes, so the host never synchronises for
        # it — its dependency edges order dispatch only.
        if task.kind is TaskKind.FREE:
            return
        tracer = active_tracer()
        for dep in task.deps:
            ev = dep.event
            if ev is not None:
                before = rank.clock.time
                rank.clock.advance_to(ev.timestamp)
                if dep.lane in COPY_LANES:
                    self._charge_exposed(rank, dep.lane, before,
                                         rank.clock.time, cap=dep.busy)
                if tracer is not None and rank.clock.time > before:
                    tracer.emit(f"wait {dep.label}", "wait", rank.index,
                                HOST, before, rank.clock.time, on=dep.lane)

    def _charge_exposed(self, rank: "Rank", lane: str, before: float,
                        after: float, cap: float | None = None) -> None:
        """Charge a wait on a copy-lane timeline as exposed transfer time.

        ``before``/``after`` bracket the waiting clock's advance in virtual
        time.  The portion already charged for this rank's lane (the
        high-water mark) is skipped, ``cap`` bounds the charge by the
        awaited task's own busy seconds (waits also absorb upstream
        latency baked into event timestamps), and the total is clamped so
        exposed can never exceed the async seconds the rank actually put
        on copy streams.
        """
        key = (rank.index, lane)
        start = max(before, self._exposed_hwm.get(key, 0.0))
        if after <= start:
            return
        self._exposed_hwm[key] = after
        seconds = after - start
        if cap is not None:
            seconds = min(seconds, cap)
        m = rank.metrics
        room = (m.value("overlap.async_seconds")
                - m.value("overlap.exposed_seconds"))
        if seconds > 0.0 and room > 0.0:
            m.record_overlap(0.0, min(seconds, room))

    # -- end-of-graph drain ----------------------------------------------------

    def _drain(self) -> None:
        """Join every timeline: host waits for compute, then copy engines,
        then all posted sends (``MPI_Waitall``)."""
        tracer = active_tracer()
        for r in self.comm.ranks:
            if r.device is None:
                continue
            r.sync_device()
            rb = r.resident_backend
            if rb is None:
                continue
            for lane, s in rb._lane_streams.items():
                before = r.clock.time
                r.clock.advance_to(s.clock.time)
                self._charge_exposed(r, lane, before, r.clock.time)
                if tracer is not None and r.clock.time > before:
                    tracer.emit(f"drain {lane}", "wait", r.index, HOST,
                                before, r.clock.time, on=lane)
        self.comm.wait_all_sends()
