"""Batched region packing: the paper's ``MessageStream`` path.

SAMRAI's schedules (and AMReX's FillBoundary) aggregate every region of
every variable one rank sends another in one transfer into a single
contiguous message stream; on the GPU this means one pack kernel, one
PCIe copy each way and one MPI message per (source rank, destination
rank) per transfer phase — not one per region or per patch pair.  That
is the granularity of a ``batch`` schedule; without ``batch`` a schedule
keeps the paper's per-patch shape, one stream per (source, destination)
patch pair.  This module provides the batched
pack/unpack/copy primitives the schedules use; the resource dispatch
(one fused device kernel + one PCIe copy vs one charged CPU pass) lives
in the owning :mod:`repro.exec` backend.

An *item* is ``(patch_data, region_box)``; a batch is a list of items
whose regions are packed back-to-back in order — or that list in
compiled form (:mod:`repro.exec.plan`), which a fill or sync schedule
builds once and hands in on every replay.

The backends run these primitives without a per-region Python loop:
the regions of one store (an arena, a scratch slab, the buffer of patch
data allocated on its own) execute as one flat-index NumPy op, whatever
the patch shapes, counted as ``StackCounter`` in
:class:`~repro.exec.stats.ExecStats` (``--profile`` shows them).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..check.context import active as _check_active
from ..comm.simcomm import Message
from ..exec.backend import backend_for
from ..exec.batch import BatchSlot
from ..exec.plan import Scratch

if TYPE_CHECKING:  # pragma: no cover
    from ..comm.simcomm import Rank, SimCommunicator

__all__ = [
    "MESSAGE_HEADER_BYTES",
    "batch_size_bytes",
    "pack_batch",
    "unpack_batch",
    "copy_batch_local",
    "halo_marks",
    "ImmediateSink",
]

#: envelope overhead per point-to-point message (tag, box, datatype info)
MESSAGE_HEADER_BYTES = 64


def batch_size_bytes(items) -> int:
    total = getattr(items, "total", None)  # a compiled batch knows its size
    if total is None:
        total = sum(region.size() for _, region in items)
    return total * 8


def pack_batch(items, rank: "Rank") -> np.ndarray:
    """Pack all items into one contiguous host buffer.

    Device-resident batches use one pack kernel into a single device
    buffer followed by one D2H transfer; host batches use one charged
    CPU pass.
    """
    return backend_for(items[0][0], rank).pack_batch(items)


def unpack_batch(buffer: np.ndarray, items, rank: "Rank") -> None:
    """Unpack one contiguous host buffer into all items, in pack order."""
    backend_for(items[0][0], rank).unpack_batch(buffer, items)


def copy_batch_local(items, rank: "Rank") -> None:
    """Execute many same-rank region copies as one fused kernel.

    ``items`` is a list of ``(dst_pd, src_pd, region)``; all data must be
    on the same resource (all host, or all on one device).  This models a
    fused halo-copy kernel (one launch per destination patch per fill),
    which is how tuned implementations amortise launch overheads.
    """
    backend_for(items[0][0], rank).copy_batch(items)


def halo_marks(pairs) -> list:
    """Sanitizer marks of a halo copy: each ``(dst, src)`` destination's
    ghosts now mirror the source's interior."""
    return [("stamp", dst, (src,)) for dst, src in pairs]


class ImmediateSink:
    """Runs each verb of a transfer program as it is named.

    A schedule states its work once, over four verbs — ``copy`` (fused
    same-rank copies), ``stream_batch`` (one cross-rank message stream),
    ``kernel_task`` (one launch of >=1 batch members) and ``add`` (host
    bookkeeping, or a kernel that launches itself) — plus the two things
    issuing it does on the spot: ``scratch`` (allocate a transfer's
    scratch) and ``note`` (a sanitizer note).  This sink executes
    them on the spot with the blocking primitives above; the other sink,
    :class:`repro.sched.builder.GraphBuilder`, records the same calls as
    tasks.  Network time is charged once, by :meth:`close`.  Under
    ``--sanitize`` every verb reports itself to the checker exactly as a
    recorded task does at emission.
    """

    def __init__(self, comm: "SimCommunicator"):
        self.comm = comm
        self._messages: list[Message] = []

    def copy(self, rank: "Rank", items, label: str, ghost: bool = False) -> None:
        chk = _check_active()
        if chk is not None:
            chk.note_emission(
                label, [src for _, src, _ in items],
                [dst for dst, _, _ in items], ghost_only=ghost,
                marks=halo_marks((d, s) for d, s, _ in items) if ghost else ())
        copy_batch_local(items, rank)

    def stream_batch(self, src_rank: "Rank", dst_rank: "Rank", pack_items,
                     unpack_items, label: str, ghost: bool = False) -> None:
        chk = _check_active()
        if chk is not None:
            srcs = [pd for pd, _ in pack_items]
            dsts = [pd for pd, _ in unpack_items]
            chk.note_emission(
                label, srcs, dsts, ghost_only=ghost,
                marks=halo_marks(zip(dsts, srcs)) if ghost else ())
        buf = pack_batch(pack_items, src_rank)
        self._messages.append(Message(src_rank.index, dst_rank.index,
                                      buf.nbytes + MESSAGE_HEADER_BYTES))
        unpack_batch(buf, unpack_items, dst_rank)

    def kernel_task(self, backend, rank: "Rank", kernel: str, members,  # noqa: ARG002 — verb signature shared with GraphBuilder
                    combine=None, ghost_only: bool = False) -> BatchSlot:
        slot = BatchSlot(backend.run_batched(kernel, members, combine=combine,
                                             ghost_only=ghost_only))
        if combine is not None:
            # One reduced scalar crosses the bus per launch, not per patch.
            backend.charge_transfer("d2h", 8)
        return slot

    def flush_fusion(self, batcher) -> list:
        """Launch every group ``batcher`` collected."""
        return batcher.flush(self.kernel_task)

    def add(self, kind, rank, label: str, fn, reads=(), writes=(),  # noqa: ARG002 — verb signature shared with GraphBuilder
            ghost_only: bool = False, marks=()) -> None:
        chk = _check_active()
        if chk is None:
            fn(None)
            return
        scope = chk.begin_kernel(label, reads, writes,
                                 ghost_only=ghost_only, marks=marks)
        try:
            fn(None)
        except BaseException:
            chk.abort_kernel(scope)
            raise
        chk.end_kernel(scope)

    def scratch(self, space, size: int) -> Scratch:
        """A transfer's scratch, allocated now."""
        return Scratch(space, size)

    def note(self, fn, *args) -> None:
        """A side effect of issuing the program (a sanitizer note): run
        now."""
        fn(*args)

    def close(self) -> None:
        """Charge the network for every stream posted since the last close."""
        messages, self._messages = self._messages, []
        self.comm.exchange(messages)
