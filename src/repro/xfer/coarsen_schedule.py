"""Fine-to-coarse synchronisation (SAMRAI's ``CoarsenSchedule``).

After advancing the hierarchy, coarse cells covered by fine patches are
overwritten with the conservative average of their fine children (§II).
The averaging kernel runs on the *fine* patch's owner (on its GPU for
resident data) into a small temporary block, which is then streamed to the
coarse patch's owner — so only the already-coarsened bytes cross the
network, as on the real machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..exec.backend import backend_for
from ..exec.batch import SLAB_FALLBACK
from ..geom.operators import CellMassWeightedCoarsen
from ..mesh.box import Box
from ..mesh.variables import Variable
from .refine_schedule import alloc_temp, free_temps
from .overlap import index_box_for

if TYPE_CHECKING:  # pragma: no cover
    from ..comm.simcomm import SimCommunicator
    from ..geom.operators import CoarsenOperator
    from ..mesh.patch import Patch
    from ..mesh.patch_level import PatchLevel

__all__ = ["CoarsenSpec", "CoarsenSchedule"]


@dataclass(frozen=True)
class CoarsenSpec:
    """One variable to synchronise, with its coarsen operator.

    ``weight_name`` names the fine-side weight field for mass-weighted
    coarsening (density when coarsening specific internal energy).
    """

    var: Variable
    coarsen_op: "CoarsenOperator"
    weight_name: str | None = None


@dataclass
class _CoarsenTransaction:
    fine_patch: "Patch"
    coarse_patch: "Patch"
    region: Box  # coarse centring index space


class CoarsenSchedule:
    """Synchronises data from ``fine_level`` onto ``coarse_level``."""

    def __init__(
        self,
        fine_level: "PatchLevel",
        coarse_level: "PatchLevel",
        specs: list[CoarsenSpec],
        comm: "SimCommunicator",
        factory,
        batch: bool = False,
    ):
        self.fine_level = fine_level
        self.coarse_level = coarse_level
        self.specs = specs
        self.comm = comm
        self.factory = factory
        #: fuse the per-variable coarsen kernels into batched launches.
        #: Coarsening runs through per-region temps, inherently per-patch
        #: work, so its fused members are marked as deliberate slab
        #: fallbacks
        self.batch = batch
        self.transactions: list[_CoarsenTransaction] = []
        self._build()

    def _member_for(self, spec: CoarsenSpec, fine_patch: "Patch", temp,
                    region: Box, ratio):
        """One variable's coarsen work as a fusable batch member."""
        fine_pd = fine_patch.data(spec.var.name)
        op = spec.coarsen_op
        if isinstance(op, CellMassWeightedCoarsen):
            member = op.batch_member_weighted(
                fine_pd, fine_patch.data(spec.weight_name), temp, region, ratio)
        else:
            member = op.batch_member(fine_pd, temp, region, ratio)
        member.slab = SLAB_FALLBACK
        return member

    def _alloc_temp(self, var: Variable, t: "_CoarsenTransaction", fine_rank):
        """A block on the fine owner for one variable's coarsened values,
        and the centring-space region it covers."""
        region = index_box_for(var, t.region)
        return alloc_temp(self.factory, var, region, fine_rank), region

    def _build(self) -> None:
        ratio = self.fine_level.ratio_to_coarser
        for coarse in self.coarse_level:
            for fine in self.fine_level:
                overlap = coarse.box.intersection(fine.box.coarsen(ratio))
                if not overlap.is_empty():
                    self.transactions.append(_CoarsenTransaction(fine, coarse, overlap))

    def coarsen(self) -> None:
        """Execute the synchronisation.

        Per fine/coarse patch pair: each variable is coarsened on the fine
        owner's resource into a small temporary block, then all blocks
        travel together — one fused copy (same rank) or one message stream
        (cross rank) — so only already-coarsened bytes cross the network.
        """
        from ..check.context import active as _check_active

        chk = _check_active()
        messages = []
        ratio = self.fine_level.ratio_to_coarser
        if self.batch:
            self._coarsen_batched(messages, chk, ratio)
            self.comm.exchange(messages)
            return
        for t in self.transactions:
            fine_rank = self.comm.rank(t.fine_patch.owner)
            temps = []
            for spec in self.specs:
                temp, region = self._alloc_temp(spec.var, t, fine_rank)
                fine_pd = t.fine_patch.data(spec.var.name)
                op = spec.coarsen_op
                if isinstance(op, CellMassWeightedCoarsen):
                    weight_pd = t.fine_patch.data(spec.weight_name)
                    op.apply_weighted(fine_pd, weight_pd, temp, region, ratio,
                                      rank=fine_rank)
                else:
                    op.apply(fine_pd, temp, region, ratio, rank=fine_rank)
                temps.append((spec, temp, region))
            self._ship(t, temps, messages, chk)
        self.comm.exchange(messages)

    def _coarsen_batched(self, messages, chk, ratio) -> None:
        """Batched execution: one ``geom.coarsen`` launch per fine backend
        covering every (transaction, variable) pair, then the per-pair
        ship phase exactly as in the reference path."""
        staged: list[tuple[_CoarsenTransaction, list]] = []
        groups: dict[int, tuple[object, list]] = {}
        for t in self.transactions:
            fine_rank = self.comm.rank(t.fine_patch.owner)
            temps = []
            for spec in self.specs:
                temp, region = self._alloc_temp(spec.var, t, fine_rank)
                member = self._member_for(spec, t.fine_patch, temp, region,
                                          ratio)
                backend = backend_for(temp, fine_rank)
                entry = groups.setdefault(id(backend), (backend, []))
                entry[1].append(member)
                temps.append((spec, temp, region))
            staged.append((t, temps))
        for backend, members in groups.values():
            backend.run_batched("geom.coarsen", members)
        for t, temps in staged:
            self._ship(t, temps, messages, chk)

    def _ship(self, t: "_CoarsenTransaction", temps, messages, chk) -> None:
        """Move one transaction's coarsened temps to the coarse owner."""
        from ..comm.simcomm import Message
        from .message import copy_batch_local, pack_batch, unpack_batch
        from .transfer import MESSAGE_HEADER_BYTES

        fine_rank = self.comm.rank(t.fine_patch.owner)
        coarse_rank = self.comm.rank(t.coarse_patch.owner)
        if fine_rank.index == coarse_rank.index:
            copy_batch_local(
                [(t.coarse_patch.data(s.var.name), temp, region)
                 for s, temp, region in temps],
                coarse_rank,
            )
        else:
            buf = pack_batch(
                [(temp, region) for _, temp, region in temps], fine_rank
            )
            messages.append(Message(fine_rank.index, coarse_rank.index,
                                    buf.nbytes + MESSAGE_HEADER_BYTES))
            unpack_batch(
                buf,
                [(t.coarse_patch.data(s.var.name), region)
                 for s, _, region in temps],
                coarse_rank,
            )
        if chk is not None:
            for s, _, _ in temps:
                chk.note_interior_write(t.coarse_patch.data(s.var.name))
        free_temps(temp for _, temp, _ in temps)

    def emit_tasks(self, gb) -> None:
        """Record this synchronisation into a graph builder.

        Same work and emission order as :meth:`coarsen`: per transaction,
        one coarsen kernel per variable into a temp, one fused copy or one
        six-stage message stream to the coarse owner, then a host-side
        free.  The builder's read/write tracking orders the mass-weighted
        energy coarsen against any finer level's sync that wrote this
        level's density interiors earlier in the same graph.
        """
        from ..sched.task import TaskKind

        ratio = self.fine_level.ratio_to_coarser
        for t in self.transactions:
            fine_rank = self.comm.rank(t.fine_patch.owner)
            coarse_rank = self.comm.rank(t.coarse_patch.owner)
            temps = []
            for spec in self.specs:
                temp, region = self._alloc_temp(spec.var, t, fine_rank)
                fine_pd = t.fine_patch.data(spec.var.name)
                op = spec.coarsen_op
                if self.batch:
                    # Route through the builder's fusion pass: members
                    # coalesce into one geom.coarsen task per transaction
                    # (the following copy/stream flushes the group).
                    member = self._member_for(spec, t.fine_patch, temp,
                                              region, ratio)
                    gb.kernel_task(backend_for(temp, fine_rank), fine_rank,
                                   "geom.coarsen", member.elements,
                                   member.body, list(member.reads),
                                   list(member.writes),
                                   level=self.fine_level.level_number,
                                   slab=member.slab)
                    temps.append((spec, temp, region))
                    continue
                if isinstance(op, CellMassWeightedCoarsen):
                    weight_pd = t.fine_patch.data(spec.weight_name)
                    reads = [fine_pd, weight_pd]

                    def fn(stream, op=op, f=fine_pd, w=weight_pd, tmp=temp,
                           r=region, rk=fine_rank):
                        op.apply_weighted(f, w, tmp, r, ratio, rank=rk)
                else:
                    reads = [fine_pd]

                    def fn(stream, op=op, f=fine_pd, tmp=temp, r=region,
                           rk=fine_rank):
                        op.apply(f, tmp, r, ratio, rank=rk)

                gb.add(TaskKind.KERNEL, fine_rank.index,
                       f"sync.coarsen.{spec.var.name}", fn,
                       reads=reads, writes=[temp])
                temps.append((spec, temp, region))
            if fine_rank.index == coarse_rank.index:
                gb.copy(
                    coarse_rank,
                    [(t.coarse_patch.data(s.var.name), temp, region)
                     for s, temp, region in temps],
                    "sync.copy")
            else:
                gb.stream_batch(
                    fine_rank, coarse_rank,
                    [(temp, region) for _, temp, region in temps],
                    [(t.coarse_patch.data(s.var.name), region)
                     for s, _, region in temps],
                    f"sync.L{self.fine_level.level_number}",
                )

            blocks = [temp for _, temp, _ in temps]
            gb.add(TaskKind.HOST, fine_rank.index, "sync.free",
                   lambda _stream, blocks=blocks: free_temps(blocks),
                   writes=blocks)

    def num_transactions(self) -> int:
        return len(self.transactions)
