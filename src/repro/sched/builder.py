"""Graph construction: derive the step DAG from declared data accesses.

The builder is the bridge between the framework's existing call structure
and the task graph: integrator sweeps and ``xfer`` schedules *emit* tasks
here instead of executing work, and dependencies are inferred
automatically from each task's declared patch-data reads and writes
(RAW, WAR and WAW edges at patch-data granularity), so the schedules
never hand-thread ordering.

The invariant that makes patch-data granularity sufficient: distinct
writers of the *same* patch-data object within one graph always touch
disjoint regions (same-level copies, coarse interpolation and physical
boundary fills partition the ghost frame), so serialising writers by
emission order preserves bitwise results under any topological order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..check.context import active as _check_active
from ..exec.batch import BatchMember, union_pds
from .task import Task, TaskGraph, TaskKind

if TYPE_CHECKING:  # pragma: no cover
    from ..comm.simcomm import Rank, SimCommunicator

__all__ = ["GraphBuilder"]


class _FusionGroup:
    """Pending same-kernel, same-level launches awaiting coalescing."""

    __slots__ = ("backend", "rank", "kernel", "combine", "members",
                 "read_ids", "write_ids")

    def __init__(self, backend, rank, kernel, combine):
        self.backend = backend
        self.rank = rank
        self.kernel = kernel
        self.combine = combine
        self.members: list[BatchMember] = []
        self.read_ids: set[int] = set()
        self.write_ids: set[int] = set()


class GraphBuilder:
    """Builds one phase's :class:`~repro.sched.task.TaskGraph`.

    Also serves as the *task sink* the patch integrator routes kernel
    launches through while a phase is being recorded (see
    ``CleverleafPatchIntegrator.task_sink``).

    With ``fuse=True`` (``--batch --overlap``), same-kernel,
    same-level kernel tasks with disjoint declared writes are coalesced
    into one batched task per (backend, level) whose declarations are the
    union of its members' — so dependency derivation, race replay and
    ``--sanitize`` treat the batch exactly as the sum of its parts.
    Groups flush when the sweep kernel changes, when any non-kernel task
    is added (data edges must see fused tasks in emission order), or at
    :meth:`flush_fusion` before execution.
    """

    def __init__(self, comm: "SimCommunicator", fuse: bool = False):
        self.comm = comm
        self.fuse = fuse
        self.graph = TaskGraph()
        self._writer: dict[int, Task] = {}
        self._readers: dict[int, list[Task]] = {}
        # Keep every keyed object alive for the graph's lifetime so id()
        # keys can never be recycled onto new objects mid-build.
        self._retained: list[object] = []
        self._pending: dict = {}
        self._pending_order: list = []
        self._pending_kernel: str | None = None
        #: (rank_index, readback_task) per fused reduction group, consumed
        #: by the scheduler's dt reduction
        self.fused_readbacks: list[tuple[int, Task]] = []

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
        self.flush_fusion()
        return self._add(kind, rank, label, fn, reads=reads, writes=writes,
                         after=after, ghost_reads=ghost_reads,
                         ghost_only=ghost_only, marks=marks)

    def _add(self, kind: TaskKind, rank: int | None, label: str, fn,
             reads=(), writes=(), after=(),
             ghost_reads=(), ghost_only=False, marks=()) -> Task:
        reads = list(reads)
        writes = list(writes)
        deps = list(after)
        for pd in reads:
            w = self._writer.get(id(pd))
            if w is not None:
                deps.append(w)
        for pd in writes:
            w = self._writer.get(id(pd))
            if w is not None:
                deps.append(w)
            deps.extend(self._readers.get(id(pd), ()))
        task = self.graph.add(kind, rank, label, fn, deps=deps,
                              reads=reads, writes=writes)
        chk = _check_active()
        if chk is not None:
            chk.note_emission(label, reads, writes, ghost_reads=ghost_reads,
                              ghost_only=ghost_only, marks=marks)
        for pd in reads:
            self._readers.setdefault(id(pd), []).append(task)
            self._retained.append(pd)
        for pd in writes:
            self._writer[id(pd)] = task
            self._readers[id(pd)] = []
            self._retained.append(pd)
        task.writes = (*task.writes, task)  # the result slot
        self._writer[id(task)] = task
        self._readers[id(task)] = []
        return task

    # -- kernel sink (patch integrator) ---------------------------------------

    def kernel_task(self, backend, rank: "Rank", kernel: str, elements: int,
                    body, reads, writes,
                    ghost_reads=(), ghost_only=False, marks=(),
                    level=None, combine=None, slab=None) -> Task | None:
        """One compute-kernel launch, dispatched through ``backend``.

        With fusion on, same-kernel launches on the same (backend, level)
        are collected instead of emitted and return None; the coalesced
        task appears when the group flushes.  ``combine`` marks a
        reduction kernel (the CFL min): its scalar crosses the bus in a
        readback task — returned here per launch, or emitted once per
        fused group and recorded in :attr:`fused_readbacks`.  ``slab``
        (a SlabSpec or the fallback sentinel) rides on the member so the
        fused task's ``run_batched`` can take the whole-slab fast path.
        """
        if self.fuse and not ghost_only:
            return self._collect(backend, rank, kernel,
                                 BatchMember(elements, body, reads, writes,
                                             ghost_reads, marks, slab=slab),
                                 level=level, combine=combine)
        task = self.add(
            TaskKind.KERNEL, rank.index, kernel,
            lambda _stream: backend.run(kernel, elements, body,
                                       reads=reads, writes=writes),
            reads=reads, writes=writes,
            ghost_reads=ghost_reads, ghost_only=ghost_only, marks=marks)
        if combine is not None:
            return self.dt_readback(backend, rank, task)
        return task

    def _collect(self, backend, rank: "Rank", kernel: str,
                 member: BatchMember, level=None, combine=None) -> None:
        if self._pending_kernel is not None and kernel != self._pending_kernel:
            # A new sweep started; coalesce the finished one so data
            # edges between sweeps derive from the fused tasks.
            self.flush_fusion()
        key = (id(backend), kernel, level)
        group = self._pending.get(key)
        if group is not None:
            member_writes = set(map(id, member.writes))
            member_reads = set(map(id, member.reads))
            if (member_writes & (group.read_ids | group.write_ids)
                    or member_reads & group.write_ids):
                # Overlapping operands: not a disjoint-writes sweep, so
                # serialise against everything pending.
                self.flush_fusion()
                group = None
        if group is None:
            group = _FusionGroup(backend, rank, kernel, combine)
            self._pending[key] = group
            self._pending_order.append(key)
        group.members.append(member)
        group.read_ids.update(map(id, member.reads))
        group.write_ids.update(map(id, member.writes))
        self._pending_kernel = kernel
        return None

    def flush_fusion(self) -> None:
        """Emit every pending fusion group as one batched task each."""
        if not self._pending:
            self._pending_kernel = None
            return
        pending, self._pending = self._pending, {}
        order, self._pending_order = self._pending_order, []
        self._pending_kernel = None
        for key in order:
            g = pending[key]
            members = g.members
            reads = union_pds(m.reads for m in members)
            writes = union_pds(m.writes for m in members)
            ghost_reads = union_pds(m.ghost_reads for m in members)
            marks = [mk for m in members for mk in m.marks]

            def fn(_stream, b=g.backend, k=g.kernel, ms=members, c=g.combine):
                return b.run_batched(k, ms, combine=c)

            task = self._add(TaskKind.KERNEL, g.rank.index, g.kernel, fn,
                             reads=reads, writes=writes,
                             ghost_reads=ghost_reads, marks=marks)
            if g.combine is not None:
                rb = self.dt_readback(g.backend, g.rank, task)
                self.fused_readbacks.append((g.rank.index, rb))

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
        from ..xfer.message import copy_batch_local

        marks = ([("stamp", dst, (src,)) for dst, src, _ in items]
                 if ghost else ())
        return self.add(
            TaskKind.COPY, rank.index, label,
            lambda _stream: copy_batch_local(items, rank),
            reads=[src for _, src, _ in items],
            writes=[dst for dst, _, _ in items],
            ghost_only=ghost, marks=marks)

    def boundary(self, patch, variables, rank: "Rank", boundary,
                 label: str = "fill.bc") -> Task:
        """Physical boundary fill on one patch (fused halo kernel)."""
        pds = [patch.data(v.name) for v in variables]
        return self.add(
            TaskKind.KERNEL, rank.index, label,
            lambda _stream: boundary.apply_all(patch, variables, rank),
            reads=pds, writes=pds,
            ghost_only=True, marks=[("stamp", pd, (pd,)) for pd in pds])

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
        from ..xfer.message import batch_size_bytes
        from ..xfer.transfer import MESSAGE_HEADER_BYTES

        src_backend = backend_for(pack_items[0][0], src_rank)
        dst_backend = backend_for(unpack_items[0][0], dst_rank)
        nbytes = batch_size_bytes(pack_items) + MESSAGE_HEADER_BYTES
        box: dict[str, object] = {}

        def do_pack(stream):
            box["staging"] = src_backend.pack_batch_staged(pack_items)

        def do_d2h(stream):
            box["host"] = src_backend.copy_out(box["staging"], stream=stream)

        def do_send(stream):
            box["req"] = self.comm.isend(
                Message(src_rank.index, dst_rank.index, nbytes))

        def do_recv(stream):
            self.comm.wait_recv(box["req"])

        def do_h2d(stream):
            box["landing"] = dst_backend.copy_in(box["host"], stream=stream)

        def do_unpack(stream):
            dst_backend.unpack_batch_staged(box["landing"], unpack_items)

        t_pack = self.add(TaskKind.PACK, src_rank.index, f"{label}.pack",
                          do_pack, reads=[pd for pd, _ in pack_items])
        t_d2h = self.add(TaskKind.D2H, src_rank.index, f"{label}.d2h",
                         do_d2h, after=(t_pack,))
        t_send = self.add(TaskKind.SEND, src_rank.index, f"{label}.send",
                          do_send, after=(t_d2h,))
        t_recv = self.add(TaskKind.RECV, dst_rank.index, f"{label}.recv",
                          do_recv, after=(t_send,))
        t_h2d = self.add(TaskKind.H2D, dst_rank.index, f"{label}.h2d",
                         do_h2d, after=(t_recv,))
        marks = ([("stamp", dst, (src,)) for (src, _), (dst, _)
                  in zip(pack_items, unpack_items)] if ghost else ())
        return self.add(TaskKind.UNPACK, dst_rank.index, f"{label}.unpack",
                        do_unpack, after=(t_h2d,),
                        writes=[pd for pd, _ in unpack_items],
                        ghost_only=ghost, marks=marks)
