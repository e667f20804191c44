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
from ..exec.batch import LaunchBatcher
from ..geom.operators import CellMassWeightedCoarsen
from ..mesh.box import Box
from ..mesh.variables import Variable
from ..sched.task import TaskKind
from .message import ImmediateSink
from .overlap import index_box_for
from .refine_schedule import alloc_temp, free_temps

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


def chunks(work: list, batch: bool) -> list[list]:
    """The units the schedule issues its work in: everything at once under
    ``batch`` (one launch per backend, one copy per rank), else one
    transaction at a time."""
    if batch:
        return [work] if work else []
    return [[w] for w in work]


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
        #: fuse the per-variable coarsen kernels into one launch per fine
        #: backend.  Coarsening runs through per-region temps, inherently
        #: per-patch work, so that launch replays member bodies
        #: (``slab_fallback``)
        self.batch = batch
        self.transactions: list[_CoarsenTransaction] = []
        self._build()

    def _build(self) -> None:
        """One transaction per (coarse patch, fine patch) whose coarsened
        shadow it meets -- coarse patches in level order, then fine ones
        -- found through the shadows' spatial index, not a scan."""
        fine, coarse = self.fine_level, self.coarse_level
        shadows = fine.box_array.coarsen(fine.ratio_to_coarser)
        c, f = shadows.pairs(coarse.box_array)
        regions = coarse.box_array.take(c).intersect(shadows.take(f))
        self.transactions = [
            _CoarsenTransaction(fine.patches[j], coarse.patches[i], region)
            for i, j, region in zip(c.tolist(), f.tolist(), regions.boxes())]

    # -- the transfer program ----------------------------------------------------
    #
    # Stated once over a sink's verbs, like ``RefineSchedule``'s:
    # :meth:`coarsen` runs it now, :meth:`emit_tasks` records it.

    def coarsen(self) -> None:
        """Execute the synchronisation now."""
        sink = ImmediateSink(self.comm)
        self._transfer(sink)
        sink.close()

    def emit_tasks(self, gb) -> None:
        """Record this synchronisation into a graph builder.

        The builder's read/write tracking orders the mass-weighted energy
        coarsen against any finer level's sync that wrote this level's
        density interiors earlier in the same graph.
        """
        self._transfer(gb)

    def _transfer(self, sink) -> None:
        """Coarsen on the fine owner, ship to the coarse owner, free.

        Per fine/coarse patch pair each variable is coarsened into a
        small temporary block on the fine owner's resource — one launch
        per variable, or under ``batch`` one per fine backend covering
        every (transaction, variable) pair — then all of a pair's blocks
        travel together, one fused copy (same rank) or one message stream
        (cross rank), so only already-coarsened bytes cross the network.
        Whatever raises on the way, no temp outlives the call.
        """
        ratio = self.fine_level.ratio_to_coarser
        held: list = []
        try:
            for chunk in chunks(self.transactions, self.batch):
                launches = LaunchBatcher(self.batch)
                staged = []
                for t in chunk:
                    fine_rank = self.comm.rank(t.fine_patch.owner)
                    temps = []
                    for spec in self.specs:
                        region = index_box_for(spec.var, t.region)
                        temp = alloc_temp(self.factory, spec.var, region,
                                          fine_rank)
                        held.append(temp)
                        temps.append((spec, temp, region))
                        self._coarsen_one(sink, launches, spec, t.fine_patch,
                                          temp, region, ratio, fine_rank)
                    staged.append((t, fine_rank, temps))
                sink.flush_fusion(launches)
                for t, fine_rank, temps in staged:
                    self._ship(sink, t, fine_rank, temps)
        except BaseException:
            free_temps(held)
            raise

    def _coarsen_one(self, sink, launches, spec: CoarsenSpec,
                     fine_patch: "Patch", temp, region: Box, ratio,
                     fine_rank) -> None:
        """One variable's coarsen kernel: a member of the level-wide
        launch under ``batch``, else the operator's own launch."""
        fine_pd = fine_patch.data(spec.var.name)
        op = spec.coarsen_op
        if isinstance(op, CellMassWeightedCoarsen):
            reads = [fine_pd, fine_patch.data(spec.weight_name)]
            member_of, apply = op.batch_member_weighted, op.apply_weighted
        else:
            reads = [fine_pd]
            member_of, apply = op.batch_member, op.apply
        args = (*reads, temp, region, ratio)
        if self.batch:
            launches.collect(backend_for(temp, fine_rank), fine_rank,
                             "geom.coarsen", member_of(*args))
        else:
            sink.add(TaskKind.KERNEL, fine_rank.index,
                     f"sync.coarsen.{spec.var.name}",
                     lambda _stream: apply(*args, rank=fine_rank),
                     reads=reads, writes=[temp])

    def _ship(self, sink, t: "_CoarsenTransaction", fine_rank, temps) -> None:
        """Move one transaction's coarsened temps to the coarse owner."""
        coarse_rank = self.comm.rank(t.coarse_patch.owner)
        level = self.fine_level.level_number
        if fine_rank.index == coarse_rank.index:
            sink.copy(coarse_rank,
                      [(t.coarse_patch.data(s.var.name), temp, region)
                       for s, temp, region in temps],
                      "sync.copy")
        else:
            sink.stream_batch(
                fine_rank, coarse_rank,
                [(temp, region) for _, temp, region in temps],
                [(t.coarse_patch.data(s.var.name), region)
                 for s, _, region in temps],
                f"sync.L{level}")
        blocks = [temp for _, temp, _ in temps]
        sink.add(TaskKind.FREE, fine_rank.index, "sync.free",
                 lambda _stream: free_temps(blocks), writes=blocks)

    def num_transactions(self) -> int:
        return len(self.transactions)
