"""Fused-launch batching: one kernel launch per level instead of per patch.

The paper attributes a large share of resident-GPU AMR cost to per-patch
launch overhead — thousands of small boxes mean thousands of tiny
launches per step.  AMReX answers this by fusing per-box work into one
launch over a MultiFab; this module is our equivalent.  A
:class:`BatchMember` captures one unit's kernel invocation (element
count, body closure, declared operands) — a patch, or ``count`` of them
at once: a shape bucket's stacked sweep, a compiled transfer plan;
``Backend.run_batched`` runs a list of members as a single launch whose
element count is the sum and whose declarations are the union, so the
cost model charges one launch overhead instead of N and the sanitizer /
scheduler still see every operand.

Bodies execute in member order over disjoint patch data, so a fused
launch produces bitwise-identical fields to the per-patch reference
path.

:class:`LaunchBatcher` is the one collection point: a kernel sweep (or a
transfer schedule) hands it members, it groups them — by
(backend, kernel, level) when fusing, one group per member otherwise —
and ``flush`` hands each group to a sink's launch verb.  A reduction
launch (the CFL ``calc_dt``) hands back a handle whose ``.result`` is the
group's combined value after a single modelled D2H readback.

:class:`StepParams` is the one per-step value a collected or recorded
launch reads when it runs: the step's ``dt``.  Fills read none.
"""

from __future__ import annotations

from .plan import Lazy

__all__ = ["BatchMember", "BatchSlot", "LaunchBatcher", "StepParams",
           "union_pds"]


def _declared(pds):
    """Declared operands as given when deferred (a :class:`Lazy`, made
    when something walks it), else as a tuple."""
    return pds if isinstance(pds, Lazy) else tuple(pds)


class BatchMember:
    """One unit's kernel invocation, deferred for fusion."""

    __slots__ = ("elements", "body", "reads", "writes", "ghost_reads",
                 "marks", "count")

    def __init__(self, elements: int, body, reads=(), writes=(),
                 ghost_reads=(), marks=(), count: int = 1):
        self.elements = int(elements)
        self.body = body
        self.reads = _declared(reads)
        self.writes = _declared(writes)
        self.ghost_reads = tuple(ghost_reads)
        self.marks = _declared(marks)
        #: per-patch / per-region invocations this member stands for: 1 for
        #: inherently per-patch work (halo bodies, a sync block's coarsen);
        #: a bucket sweep or a compiled transfer plan hands in one member
        #: whose body already runs ``count`` of them as one stacked /
        #: flat-index op
        self.count = int(count)


def union_pds(groups) -> tuple:
    """Order-preserving identity union of patch-data tuples."""
    out = []
    seen = set()
    for pds in groups:
        for pd in pds:
            if id(pd) not in seen:
                seen.add(id(pd))
                out.append(pd)
    return tuple(out)


class BatchSlot:
    """Holder for a launch result read back to the host."""

    __slots__ = ("result",)

    def __init__(self, result=None):
        self.result = result


class StepParams:
    """The per-step value a launch reads when its body *runs*, not when
    it is collected or recorded: the step's ``dt``, which the kernels
    that advance the state read.  A task graph recorded once and
    replayed every step binds this one object, never the value."""

    __slots__ = ("dt",)

    def __init__(self, dt: float = 0.0):
        self.dt = dt


class _Group:
    __slots__ = ("backend", "rank", "kernel", "combine", "ghost_only",
                 "members")

    def __init__(self, backend, rank, kernel, combine, ghost_only):
        self.backend = backend
        self.rank = rank
        self.kernel = kernel
        self.combine = combine
        self.ghost_only = ghost_only
        self.members: list[BatchMember] = []


class LaunchBatcher:
    """Collects per-patch launches and hands them to a sink in groups.

    With ``fuse`` every member sharing ``(backend, kernel, level)`` joins
    one group — one fused launch; without it each member is its own
    group, so the same code path issues the per-patch launches.
    """

    def __init__(self, fuse: bool):
        self.fuse = fuse
        self._groups: dict = {}

    def collect(self, backend, rank, kernel: str, member: BatchMember,
                level=None, combine=None, ghost_only: bool = False) -> None:
        key = ((id(backend), kernel, level) if self.fuse
               else len(self._groups))
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _Group(backend, rank, kernel,
                                               combine, ghost_only)
        group.members.append(member)

    def flush(self, launch) -> list:
        """Launch every group, in first-seen order, through ``launch`` (a
        sink's ``kernel_task``); returns ``(rank index, handle)`` per
        reduction group."""
        groups, self._groups = self._groups, {}
        handles = []
        for g in groups.values():
            handle = launch(g.backend, g.rank, g.kernel, g.members,
                            combine=g.combine, ghost_only=g.ghost_only)
            if g.combine is not None:
                handles.append((g.rank.index, handle))
        return handles
