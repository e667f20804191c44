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

import numpy as np

from ..exec.backend import backend_for
from ..exec.batch import LaunchBatcher
from ..exec.plan import StreamPlan, flat_index, level_arenas
from ..geom.operators import CellMassWeightedCoarsen
from ..mesh.box import Box
from ..mesh.box_array import box_points
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
        #: under ``batch``, the unpack groups of each cross-rank
        #: (fine owner, coarse owner) message, compiled on first use
        self._unpacks: dict | None = None
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
        every (transaction, variable) pair — then the blocks travel to
        the coarse owner, so only already-coarsened bytes cross the
        network: one fused copy per transaction on the same rank, one
        message stream per (fine rank, coarse rank) across ranks — per
        transaction, or under ``batch`` for all of the pair's
        transactions at once.  Whatever raises on the way, no temp
        outlives the call.
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
                remote: dict = {}  # (fine, coarse) rank -> transactions
                for t, fine_rank, temps in staged:
                    coarse_rank = self.comm.rank(t.coarse_patch.owner)
                    if fine_rank is coarse_rank:
                        self._ship(sink, fine_rank, coarse_rank, [(t, temps)])
                    else:
                        remote.setdefault(
                            (fine_rank, coarse_rank), []).append((t, temps))
                for (fine_rank, coarse_rank), shipped in remote.items():
                    self._ship(sink, fine_rank, coarse_rank, shipped)
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

    def _ship(self, sink, fine_rank, coarse_rank, shipped) -> None:
        """Move the coarsened temps of ``shipped``, ``(transaction,
        temps)`` pairs from ``fine_rank`` to ``coarse_rank``, as one fused
        copy or one message stream, in transaction order; then free them."""
        items = [(t.coarse_patch.data(s.var.name), temp, region)
                 for t, temps in shipped for s, temp, region in temps]
        if fine_rank is coarse_rank:
            sink.copy(coarse_rank, items, "sync.copy")
        else:
            unpack = [(dst, region) for dst, _, region in items]
            if self.batch:
                if self._unpacks is None:
                    self._unpacks = self._compile_unpacks()
                unpack = StreamPlan(
                    unpack, len(unpack), sum(r.size() for _, r in unpack),
                    self._unpacks[fine_rank.index, coarse_rank.index])
            sink.stream_batch(
                fine_rank, coarse_rank,
                [(temp, region) for _, temp, region in items], unpack,
                f"sync.L{self.fine_level.level_number}")
        blocks = [temp for _, temp, _ in items]
        sink.add(TaskKind.FREE, fine_rank.index, "sync.free",
                 lambda _stream: free_temps(blocks), writes=blocks)

    def _compile_unpacks(self) -> dict:
        """``(fine owner, coarse owner) -> [(coarse arena, index, where)]``:
        the unpack of each batched cross-rank message, as one flat-index
        scatter per variable of every point *no later transaction onto
        the same coarse patch rewrites*.

        Sync writes are not disjoint: node data shares the nodes on a
        shadow's edge, and an odd-sized fine patch shares coarse cells
        with its neighbour, so the last transaction to write a point is
        the one whose value stays.  Shipped one at a time, transactions
        land in order; gathered into one message per rank pair they land
        after the coarse rank's same-rank copies and each other.  A point
        a later transaction rewrites is dead, so skipping it leaves every
        surviving value the one the per-transaction order leaves — in any
        order — while the message and its payload stay the full items'.
        """
        arenas = [level_arenas(self.coarse_level, s.var.name) for s in self.specs]
        after: dict = {}   # coarse patch -> regions of later transactions
        shipped: dict = {}
        for t in reversed(self.transactions):
            later = after.setdefault(id(t.coarse_patch), [])
            if t.fine_patch.owner != t.coarse_patch.owner:
                shipped.setdefault((t.fine_patch.owner, t.coarse_patch.owner),
                                   []).append((t, list(later)))
            later.append(t.region)
        unpacks = {}
        for (fine, coarse), txs in shipped.items():
            pds, regions, rewritten = [], [], []
            for t, later in reversed(txs):
                for spec in self.specs:
                    pds.append(t.coarse_patch.data(spec.var.name))
                    regions.append(index_box_for(spec.var, t.region))
                    rewritten.append([index_box_for(spec.var, r) for r in later])
            which, coords = box_points(regions)
            points = np.stack(coords, axis=1)
            live = np.ones(len(which), dtype=bool)
            for k, boxes in enumerate(rewritten):
                mine = np.flatnonzero(which == k)
                for box in boxes:
                    live[mine] &= ~((points[mine] >= box.lower)
                                    & (points[mine] <= box.upper)).all(axis=1)
            keep = np.flatnonzero(live)
            index = flat_index(pds, which[keep], [c[keep] for c in coords])
            var = which[keep] % len(self.specs)
            unpacks[fine, coarse] = [
                (arena[coarse], index[var == v], keep[var == v])
                for v, arena in enumerate(arenas)]
        return unpacks

    def num_transactions(self) -> int:
        return len(self.transactions)
