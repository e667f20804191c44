"""Fine-to-coarse synchronisation (SAMRAI's ``CoarsenSchedule``).

After advancing the hierarchy, coarse cells covered by fine patches are
overwritten with the conservative average of their fine children (§II).
The averaging kernel runs on the *fine* patch's owner (on its GPU for
resident data) into scratch, which is then shipped to the coarse patch's
owner — so only the already-coarsened bytes cross the network, as on the
real machine.

A schedule compiles its transactions on first use, on the primitives
fills use (:mod:`repro.exec.plan`), and replays them from then on.  A
*ship* is one :class:`~repro.exec.plan.Scratch` slab holding, per
variable, its transactions' blocks back to back, each a
:class:`~repro.exec.plan.ScratchBlock` token in declarations; one
compiled copy or message into the coarse arenas; one free.  The coarsen
itself is data (:class:`~repro.geom.interp_math.CoarsenStencil`): per
launch, one member per variable gathers every block's fine children by
flat index from the fine arena and reduces them into the ship segments.
Each ship skips the points a later transaction onto the same coarse
patch rewrites, so every coarse point is written once and no copy or
message depends on the order it lands in.  ``batch`` picks only the
grouping: per transaction (a coarsen launch per variable, one ship), or
level-wide (a coarsen launch per fine backend, a ship per (fine rank,
coarse rank) pair, same-rank pairs included).
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
from ..geom.interp_math import coarsen_children
from ..geom.operators import CellMassWeightedCoarsen
from ..mesh.box import Box
from ..mesh.box_array import box_points
from ..mesh.variables import Variable
from ..sched.task import TaskKind
from .message import ImmediateSink

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

    def __post_init__(self):
        if (isinstance(self.coarsen_op, CellMassWeightedCoarsen)
                and self.weight_name is None):
            raise ValueError(
                f"coarsening {self.var.name!r} mass-weighted needs a "
                f"weight_name (the fine weight field)")


@dataclass
class _CoarsenTransaction:
    fine_patch: "Patch"
    coarse_patch: "Patch"
    region: Box  # coarse cell index space


class _Ship:
    """Transactions coarsened on rank ``fine`` for rank ``coarse``, shipped
    as one scratch slab holding, per variable, their (transaction,
    variable) blocks back to back."""

    def __init__(self, fine, coarse, backend):
        self.fine, self.coarse, self.backend = fine, coarse, backend
        self.transactions: list[int] = []
        self.size = 0
        #: ``(coarse pd, token, region)`` per block, in scratch order
        self.items: list = []
        #: per variable ``(coarse arena, arena index, scratch index)``:
        #: the scatter of every point that must land
        self.groups: list = []

    def send(self, sink, scratch: Scratch, label: str) -> None:
        """The whole scratch as one fused copy, or one message stream."""
        items, n = self.items, len(self.items)
        if self.fine is self.coarse:
            sink.copy(self.coarse, CopyPlan(
                items, n, self.size,
                [(arena, scratch, index, where)
                 for arena, index, where in self.groups]), "sync.copy")
            return
        sink.stream_batch(
            self.fine, self.coarse,
            StreamPlan([(token, region) for _, token, region in items], n,
                       self.size, [(scratch, slice(None), slice(None))]),
            StreamPlan([(pd, region) for pd, _, region in items], n,
                       self.size, self.groups), label)


class _Launch:
    """The coarsens of one fine backend in one unit: per variable, one
    member over every block of the launch's ships."""

    def __init__(self, backend, rank):
        self.backend, self.rank = backend, rank
        self.ships: list[_Ship] = []
        #: per variable ``(op, fine, weight, terms, outs, elements, count)``
        #: (:meth:`CoarsenOperator.batch_member`), ``outs`` naming ships
        self.parts: list = []

    def members(self, scratch: dict, ratio):
        for op, fine, weight, terms, outs, elements, count in self.parts:
            into = [(scratch[ship].segment(lo, hi), tokens, hi - lo)
                    for ship, lo, hi, tokens in outs]
            if weight is None:
                yield op.batch_member(fine, terms, ratio, into, elements,
                                      count)
            else:
                yield op.batch_member_weighted(fine, weight, terms, ratio,
                                               into, elements, count)


def _last_writes(index, stores, order) -> np.ndarray:
    """Whether each point is the last write of its target: point ``p``
    writes element ``index[p]`` of store ``stores[p]`` in turn
    ``order[p]``."""
    key = stores * (int(index.max()) + 1) + index
    sort = np.lexsort((order, key))
    last = np.ones(len(sort), dtype=bool)
    last[:-1] = key[sort[1:]] != key[sort[:-1]]
    live = np.zeros(len(sort), dtype=bool)
    live[sort[last]] = True
    return live


class _Points:
    """Every transaction's points in one index space, in transaction
    order, and what the sync needs of them: ``bounds`` (where each
    transaction's points start, and the end), ``regions`` (each
    transaction's region), ``index`` (coarse arena index), ``live`` (not
    rewritten by a later transaction onto the same coarse patch: every
    coarse point is written once, so no copy or message depends on the
    order it lands in), ``gather`` (fine arena index of each child) and
    ``wide`` (the region is wider than one coarse cell along axis 1).
    Shared by every variable whose arenas have the same layouts."""

    def __init__(self, sched: "CoarsenSchedule", var: Variable, name: str,
                 stencil):
        txs = sched.transactions
        space = var.index_box(sched._regions)
        which, coords = box_points(space.corners)
        self.bounds = np.concatenate(([0], np.cumsum(np.bincount(
            which, minlength=len(txs))))).tolist()
        self.regions = space.boxes()
        self.index = flat_index([t.coarse_patch.data(name) for t in txs],
                                which, coords)
        self.live = _last_writes(self.index, np.array(
            [t.coarse_patch.owner for t in txs])[which], which)
        f0, f1 = coarsen_children(stencil, *coords,
                                  sched.fine_level.ratio_to_coarser)
        self.gather = flat_index(
            [t.fine_patch.data(name) for t in txs],
            np.repeat(which, f0.shape[1]),
            [f0.ravel(), f1.ravel()]).reshape(f0.shape)
        self.wide = (space.upper[:, 1] > space.lower[:, 1])[which]

    def rows(self, transactions: list) -> np.ndarray:
        """The points of ``transactions``, in their order."""
        b = self.bounds
        return np.concatenate([np.arange(b[i], b[i + 1], dtype=np.intp)
                               for i in transactions])


def _layout(arenas: dict) -> tuple:
    return tuple((owner, arena.layout) for owner, arena in arenas.items())


def _each(patches, name: str) -> tuple:
    """The patches' data of variable ``name``, each once."""
    return tuple(dict.fromkeys(p.data(name) for p in patches))


def _terms(gather: np.ndarray, wide: np.ndarray) -> list:
    """``(gather, wide, where)`` per reduction order present (``where``
    None when there is one)."""
    if wide.all() or not wide.any():
        return [(gather, bool(wide[0]), None)]
    return [(gather[w], flag, np.flatnonzero(w))
            for flag, w in ((True, wide), (False, ~wide))]


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
        #: the transactions' regions, as one array
        self._regions = regions
        self.transactions = [
            _CoarsenTransaction(fine.patches[j], coarse.patches[i], region)
            for i, j, region in zip(c.tolist(), f.tolist(), regions.boxes())]

    def _compile(self) -> list:
        """The units issued at once — every transaction under ``batch``,
        else each one — as ``(launches, ships)``: per unit the
        transactions keyed per (fine rank, coarse rank) into ships,
        same-rank ships first, each first-seen, and per fine rank a
        launch.  Every index array is built once for all transactions,
        and once for all variables whose arenas share a layout."""
        ranks, ratio = self.comm.ranks, self.fine_level.ratio_to_coarser
        specs, txs = self.specs, self.transactions
        names = [spec.var.name for spec in specs]
        units: dict = {}
        for i, t in enumerate(txs):
            f, c = t.fine_patch.owner, t.coarse_patch.owner
            launches, ships = units.setdefault(None if self.batch else i,
                                               ({}, {}))
            ship = ships.get((f, c))
            if ship is None:
                launch = launches.get(f)
                if launch is None:
                    launch = launches[f] = _Launch(backend_for(
                        t.fine_patch.data(names[0]), ranks[f]), ranks[f])
                ship = ships[f, c] = _Ship(ranks[f], ranks[c], launch.backend)
                launch.ships.append(ship)
            ship.transactions.append(i)
        out = [(list(launches.values()),
                sorted(ships.values(), key=lambda s: s.fine is not s.coarse))
               for launches, ships in units.values()]

        weights = {spec.weight_name for spec in specs
                   if isinstance(spec.coarsen_op, CellMassWeightedCoarsen)}
        coarse = [level_arenas(self.coarse_level, n) for n in names]
        fine = {n: level_arenas(self.fine_level, n)
                for n in {*names, *weights}}
        shared: dict = {}
        points = []
        for v, spec in enumerate(specs):
            stencil = spec.coarsen_op.stencil_for(spec.var)
            key = (spec.var.offset, tuple(stencil.children(ratio)),
                   _layout(coarse[v]), _layout(fine[names[v]]))
            if key not in shared:
                shared[key] = _Points(self, spec.var, names[v], stencil)
            points.append(shared[key])

        # per ship and variable: the blocks' scratch segment ``(lo, hi,
        # tokens, rows)``, and the scatter of its live points into the
        # coarse arena
        segments: dict = {}
        for ship in (ship for _, unit in out for ship in unit):
            for v, name in enumerate(names):
                pts, lo = points[v], ship.size
                rows = pts.rows(ship.transactions)
                tokens = [ScratchBlock(f"_tmp_{name}", 8 * (
                    pts.bounds[i + 1] - pts.bounds[i]), ship.backend.space)
                    for i in ship.transactions]
                ship.items.extend(
                    (txs[i].coarse_patch.data(name), token, pts.regions[i])
                    for i, token in zip(ship.transactions, tokens))
                ship.size += len(rows)
                keep = np.flatnonzero(pts.live[rows])
                ship.groups.append((
                    coarse[v][ship.coarse.index], pts.index[rows[keep]],
                    slice(lo, ship.size) if len(keep) == len(rows)
                    else keep + lo))
                segments[ship, v] = (lo, ship.size, tokens, rows)

        # per launch and variable: one member over all the launch's blocks
        fine_ratio = math.prod(ratio)
        for launch in (launch for launches, _ in out for launch in launches):
            f = launch.rank.index
            patches = [txs[i].fine_patch for ship in launch.ships
                       for i in ship.transactions]
            for v, spec in enumerate(specs):
                data = (fine[names[v]][f], _each(patches, names[v]))
                weight = None
                if isinstance(spec.coarsen_op, CellMassWeightedCoarsen):
                    weight = (fine[spec.weight_name][f],
                              _each(patches, spec.weight_name))
                    if weight[0].layout != data[0].layout:
                        raise ValueError(
                            f"weight {spec.weight_name!r} of {names[v]!r} "
                            f"is not laid out like it")
                spans = [(ship, *segments[ship, v]) for ship in launch.ships]
                rows = np.concatenate([span[4] for span in spans])
                launch.parts.append((
                    spec.coarsen_op, data, weight,
                    _terms(points[v].gather[rows], points[v].wide[rows]),
                    [span[:4] for span in spans], len(rows) * fine_ratio,
                    len(patches)))
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
        for launches, ships in self._units:
            scratch: dict = {}
            try:
                for ship in ships:
                    scratch[ship] = sink.scratch(ship.backend.space,
                                                 ship.size)
                batcher = LaunchBatcher(self.batch)
                for launch in launches:
                    for member in launch.members(scratch, ratio):
                        batcher.collect(launch.backend, launch.rank,
                                        "geom.coarsen", member)
                sink.flush_fusion(batcher)
                for ship in ships:
                    mine = scratch[ship]
                    ship.send(sink, mine, label)
                    sink.add(TaskKind.FREE, ship.fine.index, "sync.free",
                             lambda _stream, mine=mine: mine.free(),
                             writes=[token for _, token, _ in ship.items])
            except BaseException:
                for mine in scratch.values():
                    mine.free()
                raise

    def num_transactions(self) -> int:
        return len(self.transactions)
