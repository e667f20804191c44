"""Graph construction: derive the step DAG from declared data accesses.

The builder is the bridge between the framework's existing call structure
and the task graph: integrator sweeps and ``xfer`` schedules *emit* tasks
here instead of executing work, and dependencies are inferred
automatically from each task's declared patch-data reads and writes
(RAW, WAR and WAW edges at patch-data granularity), so the schedules
never hand-thread ordering.

The invariant that makes patch-data granularity sufficient: distinct
writers of the *same* patch-data object within one graph touch disjoint
regions (same-level copies, coarse interpolation and physical boundary
fills partition the ghost frame) or, like fine-to-coarse sync writes
that share coarse points, must land in emission order anyway, so
serialising writers by emission order preserves bitwise results under
any topological order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..check.context import active as _check_active
from ..exec.batch import union_pds
from ..exec.plan import Scratch, declared
from .task import Task, TaskGraph, TaskKind

if TYPE_CHECKING:  # pragma: no cover
    from ..comm.simcomm import Rank, SimCommunicator

__all__ = ["GraphBuilder"]


class GraphBuilder:
    """Builds one phase's :class:`~repro.sched.task.TaskGraph`.

    The recording sink of the transfer/sweep programs: ``copy``,
    ``stream_batch``, ``kernel_task``, ``add``, ``scratch`` and ``note``
    are the same verbs :class:`repro.xfer.message.ImmediateSink` executes
    on the spot, so a schedule or a kernel sweep written once runs under
    either driver.  What issuing does besides adding tasks lands in
    ``effects``, for a driver that replays the graph.
    Grouping is the caller's (a ``LaunchBatcher``, a schedule's
    ``batch``); a launch of several members is one task whose
    declarations are the union of its members' — so dependency
    derivation, race replay and ``--sanitize`` treat the batch exactly as
    the sum of its parts.
    """

    def __init__(self, comm: "SimCommunicator"):
        self.comm = comm
        self.graph = TaskGraph()
        #: what issuing the program did besides adding tasks, in emission
        #: order, as ``(fn, args)``: scratch allocations and sanitizer
        #: notes — what a replay of the graph does again before it runs
        self.effects: list[tuple] = []
        # Keyed by id(): every keyed object is a task of the graph or in
        # one's ``reads``/``writes``, so it lives as long as the graph and
        # its id cannot be recycled mid-build.
        self._writer: dict[int, Task] = {}
        self._readers: dict[int, list[Task]] = {}

    # -- issue-time effects ----------------------------------------------------

    def scratch(self, space, size: int) -> Scratch:
        """A transfer's scratch, allocated now and renewed by a replay;
        its tasks reach the slab only when they run."""
        scratch = Scratch(space, size)
        self.effects.append((scratch.renew, ()))
        return scratch

    def note(self, fn, *args) -> None:
        """A side effect of issuing the program (a sanitizer note): run
        now, and again by every replay, in emission order."""
        fn(*args)
        self.effects.append((fn, args))

    # -- generic emission ------------------------------------------------------

    def add(self, kind: TaskKind, rank: int | None, label: str, fn,
            reads=(), writes=(), after=(),
            ghost_reads=(), ghost_only=False, marks=()) -> Task:
        """Add a task; dependencies = ``after`` + data edges.

        ``reads``/``writes`` are patch-data (or staging) objects this
        task's body will touch when it eventually runs; a task's own
        *result slot* counts as written by it, so downstream consumers of
        ``task.result`` declare ``reads=[task]`` instead of hand-threading
        an ``after`` edge.  ``ghost_reads``/``ghost_only``/``marks`` feed
        the sanitizer's stale-halo machinery (emission order *is* the
        intended data-flow order) and are ignored when it is inactive.
        """
        reads = tuple(reads)
        writes = tuple(writes)
        writer, readers = self._writer, self._readers
        deps = list(after)
        for pd in reads:
            w = writer.get(id(pd))
            if w is not None:
                deps.append(w)
        for pd in writes:
            w = writer.get(id(pd))
            if w is not None:
                deps.append(w)
            deps.extend(readers.get(id(pd), ()))
        task = self.graph.add(kind, rank, label, fn, deps=deps,
                              reads=reads, writes=writes)
        chk = _check_active()
        if chk is not None:
            self.note(chk.note_emission, label, reads, writes,
                      tuple(ghost_reads), ghost_only, tuple(marks))
        for pd in reads:
            readers.setdefault(id(pd), []).append(task)
        for pd in writes:
            writer[id(pd)] = task
            readers[id(pd)] = []
        # the result slot: written by the task, though not listed in its
        # ``writes`` (a task never references itself)
        writer[id(task)] = task
        return task

    # -- kernel launches -------------------------------------------------------

    def kernel_task(self, backend, rank: "Rank", kernel: str, members,
                    combine=None, ghost_only: bool = False) -> Task:
        """One kernel launch over >=1 batch members, as one task.

        ``combine`` marks a reduction (the CFL min): its scalar crosses
        the bus in a readback task, which is what is returned — the
        handle whose ``.result`` the reduction reads.
        """
        task = self.add(
            TaskKind.KERNEL, rank.index, kernel,
            lambda _stream: backend.run_batched(
                kernel, members, combine=combine, ghost_only=ghost_only),
            reads=union_pds(m.reads for m in members),
            writes=union_pds(m.writes for m in members),
            ghost_reads=union_pds(m.ghost_reads for m in members),
            ghost_only=ghost_only,
            marks=[mk for m in members for mk in m.marks])
        if combine is not None:
            return self.dt_readback(backend, rank, task)
        return task

    def flush_fusion(self, batcher) -> list:
        """Record every group ``batcher`` collected, one task each."""
        return batcher.flush(self.kernel_task)

    def dt_readback(self, backend, rank: "Rank", kernel_task: Task) -> Task:
        """The reduced CFL scalar crossing the PCIe bus after ``calc_dt``.

        Returns a D2H task whose result is the kernel task's dt value —
        a *declared read* of that result slot, so the edge is derived
        like every other data dependency.
        """
        def fn(stream):
            backend.charge_transfer("d2h", 8, stream=stream)
            return kernel_task.result

        return self.add(TaskKind.D2H, rank.index, "dt.readback", fn,
                        reads=(kernel_task,))

    # -- data-motion emitters (used by the xfer schedules) ---------------------

    def copy(self, rank: "Rank", items, label: str, ghost: bool = False) -> Task:
        """Fused same-resource copies: ``(dst_pd, src_pd, region)`` items.

        ``ghost=True`` marks a halo-fill copy: the destinations' ghost
        regions now mirror the sources' interiors (stamped for the
        stale-halo check) and no destination *interior* changes.
        """
        from ..xfer.message import copy_batch_local, halo_marks

        marks = (halo_marks((d, s) for d, s, _ in items)
                 if ghost and _check_active() is not None else ())
        return self.add(
            TaskKind.COPY, rank.index, label,
            lambda _stream: copy_batch_local(items, rank),
            reads=declared(items, 1), writes=declared(items, 0),
            ghost_only=ghost, marks=marks)

    def stream_batch(self, src_rank: "Rank", dst_rank: "Rank",
                     pack_items, unpack_items, label: str,
                     ghost: bool = False) -> Task:
        """One cross-rank MessageStream as a pipeline of typed stages.

        pack (src compute) → D2H (src copy engine) → send (src NIC) →
        recv (dst host) → H2D (dst copy engine) → unpack (dst compute).
        On host-resident data the staging and PCIe legs are no-ops and
        only the pack/send/recv/unpack stages carry cost.  Returns the
        unpack task (the stage downstream consumers depend on).
        """
        from ..comm.simcomm import Message
        from ..exec.backend import backend_for
        from ..xfer.message import (
            MESSAGE_HEADER_BYTES,
            batch_size_bytes,
            halo_marks,
        )

        src_backend = backend_for(pack_items[0][0], src_rank)
        dst_backend = backend_for(unpack_items[0][0], dst_rank)
        nbytes = batch_size_bytes(pack_items) + MESSAGE_HEADER_BYTES
        # The stages hand buffers on through ``box``, emptied by the last
        # one; they bind the communicator, never this builder (which
        # holds every task), so a graph is free of reference cycles.
        comm = self.comm
        box: dict[str, object] = {}

        def do_pack(stream):
            box["staging"] = src_backend.pack_batch_staged(pack_items)

        def do_d2h(stream):
            box["host"] = src_backend.copy_out(box["staging"], stream=stream)

        def do_send(stream):
            box["req"] = comm.isend(
                Message(src_rank.index, dst_rank.index, nbytes))

        def do_recv(stream):
            comm.wait_recv(box["req"])

        def do_h2d(stream):
            box["landing"] = dst_backend.copy_in(box["host"], stream=stream)

        def do_unpack(stream):
            landing = box["landing"]
            box.clear()
            dst_backend.unpack_batch_staged(landing, unpack_items)

        t_pack = self.add(TaskKind.PACK, src_rank.index, f"{label}.pack",
                          do_pack, reads=declared(pack_items, 0))
        t_d2h = self.add(TaskKind.D2H, src_rank.index, f"{label}.d2h",
                         do_d2h, after=(t_pack,))
        t_send = self.add(TaskKind.SEND, src_rank.index, f"{label}.send",
                          do_send, after=(t_d2h,))
        t_recv = self.add(TaskKind.RECV, dst_rank.index, f"{label}.recv",
                          do_recv, after=(t_send,))
        t_h2d = self.add(TaskKind.H2D, dst_rank.index, f"{label}.h2d",
                         do_h2d, after=(t_recv,))
        marks = (halo_marks((dst, src) for (src, _), (dst, _)
                            in zip(pack_items, unpack_items))
                 if ghost and _check_active() is not None else ())
        return self.add(TaskKind.UNPACK, dst_rank.index, f"{label}.unpack",
                        do_unpack, after=(t_h2d,),
                        writes=declared(unpack_items, 0),
                        ghost_only=ghost, marks=marks)
