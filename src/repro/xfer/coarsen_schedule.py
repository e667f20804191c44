"""Fine-to-coarse synchronisation (SAMRAI's ``CoarsenSchedule``).

After advancing the hierarchy, coarse cells covered by fine patches are
overwritten with the conservative average of their fine children (§II).
The averaging kernel runs on the *fine* patch's owner (on its GPU for
resident data) into scratch, which is then shipped to the coarse patch's
owner — so only the already-coarsened bytes cross the network, as on the
real machine.

A schedule compiles its transactions on first use, on the primitives
fills use (:mod:`repro.exec.plan`), and replays them from then on.  A
*ship* is one :class:`~repro.exec.plan.Scratch` slab with its
(transaction, variable) blocks back to back, each a
:class:`~repro.exec.plan.ScratchBlock` token in declarations; one
compiled copy or message into the coarse arenas; one free.  ``batch``
picks only the grouping: per transaction (a coarsen launch per variable,
one ship), or level-wide (a coarsen launch per fine backend, a ship per
same-rank transaction and per (fine rank, coarse rank) pair).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..exec.backend import backend_for
from ..exec.batch import LaunchBatcher
from ..exec.plan import (
    CopyPlan,
    Scratch,
    ScratchBlock,
    StreamPlan,
    flat_index,
    level_arenas,
)
from ..geom.operators import CellMassWeightedCoarsen
from ..mesh.box import Box
from ..mesh.box_array import box_points
from ..mesh.variables import Variable
from ..sched.task import TaskKind
from .message import ImmediateSink
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
    region: Box  # coarse cell index space


class _Block:
    """One (transaction, variable) block: elements ``lo .. hi - 1`` of its
    ship's scratch over ``region`` (coarse centring space); ``later``, the
    regions later transactions onto the same coarse patch write."""

    __slots__ = ("op", "fine", "weight", "coarse", "region", "token", "lo",
                 "hi", "elements", "later")

    def __init__(self, spec: CoarsenSpec, t: _CoarsenTransaction, ratio,
                 space, lo: int, later):
        name, self.op = spec.var.name, spec.coarsen_op
        self.fine = t.fine_patch.data(name)
        self.weight = (t.fine_patch.data(spec.weight_name)
                       if isinstance(self.op, CellMassWeightedCoarsen) else None)
        self.coarse = t.coarse_patch.data(name)
        self.region = index_box_for(spec.var, t.region)
        size = self.region.size()
        self.token = ScratchBlock(f"_tmp_{name}", 8 * size, space)
        self.lo, self.hi = lo, lo + size
        self.elements = size * math.prod(ratio)  # the fine points read
        self.later = [index_box_for(spec.var, r) for r in later]

    def member(self, scratch: Scratch, ratio):
        """The block's coarsen body, into its segment of ``scratch``."""
        into = (scratch.segment(self.lo, self.hi), self.token, self.region,
                ratio, self.elements)
        if self.weight is None:
            return self.op.batch_member(self.fine, *into)
        return self.op.batch_member_weighted(self.fine, self.weight, *into)


class _Ship:
    """Blocks coarsened on rank ``fine`` for rank ``coarse``, back to back
    in one scratch slab, and ``groups``: their scatter into the coarse
    arenas, ``(arena, arena index, scratch index)`` per block."""

    def __init__(self, fine, coarse, backend):
        self.fine, self.coarse, self.backend = fine, coarse, backend
        self.blocks: list[_Block] = []
        self.size = 0
        self.groups: list = []

    def add(self, spec, t, ratio, later) -> _Block:
        block = _Block(spec, t, ratio, self.backend.space, self.size, later)
        self.blocks.append(block)
        self.size = block.hi
        return block

    def compile(self, arenas: list, index, points) -> None:
        """The scatter of every point that must land, cut from ``index`` /
        ``points``: the coarse arena index and coordinates of this ship's
        points in scratch order.  A message lands after the coarse rank's
        copies and the other messages, so it skips each point a later
        transaction onto the same coarse patch rewrites: every point that
        stays holds the value the per-transaction order leaves, while the
        payload stays whole."""
        for k, b in enumerate(self.blocks):
            into, where = index[b.lo:b.hi], slice(b.lo, b.hi)
            if b.later:
                mine, live = points[b.lo:b.hi], np.ones(b.hi - b.lo, bool)
                for box in b.later:
                    live &= ~((mine >= box.lower)
                              & (mine <= box.upper)).all(axis=1)
                keep = np.flatnonzero(live)
                into, where = into[keep], keep + b.lo
            self.groups.append(
                (arenas[k % len(arenas)][self.coarse.index], into, where))

    def send(self, sink, scratch: Scratch, label: str) -> None:
        """The whole scratch as one fused copy, or one message stream."""
        n, blocks = len(self.blocks), self.blocks
        if self.fine is self.coarse:
            sink.copy(self.coarse, CopyPlan(
                [(b.coarse, b.token, b.region) for b in blocks], n, self.size,
                [(arena, scratch.slab, index, where)
                 for arena, index, where in self.groups]), "sync.copy")
            return
        sink.stream_batch(
            self.fine, self.coarse,
            StreamPlan([(b.token, b.region) for b in blocks], n, self.size,
                       [(scratch.slab, slice(None), slice(None))]),
            StreamPlan([(b.coarse, b.region) for b in blocks], n, self.size,
                       self.groups), label)


class CoarsenSchedule:
    """Synchronises data from ``fine_level`` onto ``coarse_level``."""

    def __init__(
        self,
        fine_level: "PatchLevel",
        coarse_level: "PatchLevel",
        specs: list[CoarsenSpec],
        comm: "SimCommunicator",
        *,
        batch: bool = False,
    ):
        self.fine_level = fine_level
        self.coarse_level = coarse_level
        self.specs = specs
        self.comm = comm
        #: group the sync level-wide: one coarsen launch per fine backend,
        #: one message per (fine rank, coarse rank); else per transaction
        self.batch = batch
        self.transactions: list[_CoarsenTransaction] = []
        #: the compiled sync, built on first use and replayed from then on
        self._units: list | None = None
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

    def _compile(self) -> list:
        """The units issued at once — every transaction under ``batch``,
        else each one — as ``(blocks, ships)``: the coarsen members in
        transaction order with their ships, and the ships in issue order
        (same-rank transactions, then cross-rank groups, first-seen)."""
        ranks, ratio = self.comm.ranks, self.fine_level.ratio_to_coarser
        later, after = [], {}  # coarse patch -> later transactions' regions
        for t in reversed(self.transactions):
            mine = after.setdefault(id(t.coarse_patch), [])
            later.append(list(mine))
            mine.append(t.region)
        units: dict = {}
        for i, t in enumerate(self.transactions):
            f, c = t.fine_patch.owner, t.coarse_patch.owner
            blocks, local, remote = units.setdefault(
                None if self.batch else i, ([], {}, {}))
            ships, key = (local, i) if f == c else (remote, (f, c))
            ship = ships.get(key)
            if ship is None:
                ship = ships[key] = _Ship(ranks[f], ranks[c], backend_for(
                    t.fine_patch.data(self.specs[0].var.name), ranks[f]))
            blocks.extend((ship, ship.add(spec, t, ratio,
                                          later[-1 - i] if f != c else ()))
                          for spec in self.specs)
        out = [(blocks, [*local.values(), *remote.values()])
               for blocks, local, remote in units.values()]
        # every ship's points at once, ship after ship in scratch order
        ships = [ship for _, unit in out for ship in unit]
        blocks = [b for ship in ships for b in ship.blocks]
        which, coords = box_points([b.region for b in blocks])
        index = flat_index([b.coarse for b in blocks], which, coords)
        points, at = np.stack(coords, axis=1), 0
        arenas = [level_arenas(self.coarse_level, s.var.name)
                  for s in self.specs]
        for ship in ships:
            ship.compile(arenas, index[at:at + ship.size],
                         points[at:at + ship.size])
            at += ship.size
        return out

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
        """Per unit: coarsen every block on its fine owner into its ship's
        scratch, then ship each scratch to the coarse owner and free it.
        Whatever raises while a unit is issued, no scratch outlives the
        call."""
        if self._units is None:
            self._units = (self._compile()
                           if self.specs and self.transactions else [])
        ratio = self.fine_level.ratio_to_coarser
        label = f"sync.L{self.fine_level.level_number}"
        for blocks, ships in self._units:
            scratch: dict = {}
            try:
                for ship in ships:
                    scratch[ship] = Scratch(ship.backend.space, ship.size)
                launches = LaunchBatcher(self.batch)
                for ship, block in blocks:
                    launches.collect(ship.backend, ship.fine, "geom.coarsen",
                                     block.member(scratch[ship], ratio))
                sink.flush_fusion(launches)
                for ship, mine in scratch.items():
                    ship.send(sink, mine, label)
                    sink.add(TaskKind.FREE, ship.fine.index, "sync.free",
                             lambda _stream, mine=mine: mine.free(),
                             writes=[b.token for b in ship.blocks])
            except BaseException:
                for mine in scratch.values():
                    mine.free()
                raise

    def num_transactions(self) -> int:
        return len(self.transactions)
