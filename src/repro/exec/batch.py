"""Fused-launch batching: one kernel launch per level instead of per patch.

The paper attributes a large share of resident-GPU AMR cost to per-patch
launch overhead — thousands of small boxes mean thousands of tiny
launches per step.  AMReX answers this by fusing per-box work into one
launch over a MultiFab; this module is our equivalent.  A
:class:`BatchMember` captures one per-patch kernel invocation (element
count, body closure, declared operands); ``Backend.run_batched`` replays
a list of members as a single launch whose element count is the sum and
whose declarations are the union, so the cost model charges one launch
overhead instead of N and the sanitizer / scheduler still see every
operand.

Bodies execute in member order over disjoint patch data, so a fused
launch produces bitwise-identical fields to the per-patch reference
path.

:class:`LaunchBatcher` is the serial integrator's collection point: it
groups members by (backend, kernel, level) during one sweep and flushes
each group as one fused launch.  Reduction sweeps (the CFL ``calc_dt``)
additionally get a :class:`BatchSlot` per group — the fused launch
combines its members' results on the device and a single modelled D2H
readback fills the slot, replacing the per-patch readback chain.
"""

from __future__ import annotations

__all__ = ["BatchMember", "BatchSlot", "LaunchBatcher", "SlabSpec",
           "SLAB_FALLBACK", "union_pds"]

#: sentinel ``BatchMember.slab`` value: this fused work is inherently
#: per-patch (ragged halo bodies, per-region interpolation temps) — the
#: launch replays member bodies and is counted as ``slab_fallback``.
SLAB_FALLBACK = "fallback"


class SlabSpec:
    """How one member's kernel runs as part of a whole-slab stacked op.

    A fused group is *slab-eligible* when every member carries a spec
    with the same ``key`` (kernel identity plus every scalar argument)
    and, for each operand position, the members' patch-data objects tile
    exactly one uniform arena in stacked order 0..P-1.  The group then
    executes as ``fn(*stacked)`` — one vectorized NumPy op over the
    whole (P, f0, f1) arena slab per operand — instead of P per-patch
    bodies.  Groups failing any condition replay bodies as before and
    are counted as ``slab_fallback``.
    """

    __slots__ = ("key", "fn", "operands")

    def __init__(self, key, fn, operands):
        #: hashable identity: equal keys mean ``fn`` closures are
        #: interchangeable across members
        self.key = key
        #: ``fn(*stacked_arrays)`` in operand order; returns the group's
        #: reduced scalar for reduction kernels, else None
        self.fn = fn
        #: patch-data operands in ``fn`` argument order
        self.operands = tuple(operands)


class BatchMember:
    """One per-patch kernel invocation, deferred for fusion."""

    __slots__ = ("elements", "body", "reads", "writes", "ghost_reads",
                 "marks", "slab")

    def __init__(self, elements: int, body, reads=(), writes=(),
                 ghost_reads=(), marks=(), slab=None):
        self.elements = int(elements)
        self.body = body
        self.reads = tuple(reads)
        self.writes = tuple(writes)
        self.ghost_reads = tuple(ghost_reads)
        self.marks = tuple(marks)
        #: a :class:`SlabSpec`, :data:`SLAB_FALLBACK`, or None (replayed
        #: per member and not counted in the slab statistics)
        self.slab = slab


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
    """Holder for a fused reduction result, filled when its group flushes."""

    __slots__ = ("result",)

    def __init__(self):
        self.result = None


class _Group:
    __slots__ = ("backend", "kernel", "combine", "members", "slot")

    def __init__(self, backend, kernel, combine):
        self.backend = backend
        self.kernel = kernel
        self.combine = combine
        self.members: list[BatchMember] = []
        self.slot = BatchSlot() if combine is not None else None


class LaunchBatcher:
    """Collects per-patch launches and replays them as fused launches.

    The serial integrator installs one of these as the patch integrator's
    ``batch_sink`` for the duration of a sweep; every kernel the sweep
    would have launched lands here instead, grouped by
    ``(backend, kernel, level)``.  ``flush`` replays each group — in
    first-seen order — as one ``Backend.run_batched`` call, and charges
    one scalar D2H readback per reduction group.
    """

    def __init__(self):
        self._groups: dict = {}
        self._order: list = []

    def collect(self, backend, kernel: str, member: BatchMember,
                level=None, combine=None) -> BatchSlot | None:
        key = (id(backend), kernel, level)
        group = self._groups.get(key)
        if group is None:
            group = _Group(backend, kernel, combine)
            self._groups[key] = group
            self._order.append(key)
        group.members.append(member)
        return group.slot

    def flush(self) -> None:
        groups, self._groups = self._groups, {}
        order, self._order = self._order, []
        for key in order:
            g = groups[key]
            result = g.backend.run_batched(g.kernel, g.members,
                                           combine=g.combine)
            if g.combine is not None:
                # One reduced scalar crosses the bus per fused group,
                # not one per patch.
                g.backend.charge_transfer("d2h", 8)
                g.slot.result = result
