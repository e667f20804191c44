"""Ghost-region fill for a patch level (SAMRAI's ``RefineSchedule``).

Boundary data for each patch is filled from three sources, in the order
the paper describes (§II, §IV-B):

1. **same-level copy** — ghost regions overlapping a neighbouring patch's
   interior are copied (packed/streamed across ranks when the owner
   differs);
2. **coarse-level interpolation** — remaining in-domain regions are filled
   by a refine operator from a temporary coarse-data block gathered from
   the next coarser level (which must already have valid ghosts — the
   integrator fills levels coarse-to-fine);
3. **physical boundary conditions** — applied last by the application's
   boundary object, overwriting all out-of-domain ghosts.

The transaction *geometry* depends only on the level structure and the
data centring — not on which variable is being moved — so it is computed
once per (level, centring signature) in :func:`build_fill_geometry` and
shared by every variable and every fill group until a regrid invalidates
it.  This mirrors SAMRAI, which caches schedules per variable context.
It is kept as arrays — patch indices and corner rows, as AMReX keeps its
FillBoundary metadata — from the levels' box arrays to the compiled
plan; :class:`FillGeometry` lists its transactions as objects only when
asked.

The first time a schedule runs it compiles its transactions into a
flat-index :class:`~repro.xfer.fill_plan.FillPlan` and from then on
replays it: no box algebra, no per-region temporaries and no regrouping
in steady state, on uniform and ragged levels alike.  ``batch`` picks
the grouping the modelled clock charges and the task graph records —
level-wide launches and rank-pair messages, or the paper's per-patch
launches and patch-pair messages.  Executed now, every schedule runs the
level-wide plan; a per-patch one runs it uncharged and charges the
per-patch shape from ledger rows read once off the geometry's sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..check.context import active as _check_active
from ..exec.batch import StepParams
from ..mesh.box import Box, IntVector
from ..mesh.box_array import BoxArray, coalesce
from ..mesh.variables import Variable
from .fill_plan import MixedRefineError, compile_fill, per_patch_rows
from .message import ImmediateSink, UnchargedSink
from .overlap import index_box_for

if TYPE_CHECKING:  # pragma: no cover
    from ..comm.simcomm import SimCommunicator
    from ..geom.operators import RefineOperator
    from ..mesh.patch import Patch
    from ..mesh.patch_level import PatchLevel

__all__ = [
    "FillSpec", "RefineSchedule", "build_fill_geometry", "FillGeometry",
    "needed_coarse_frame", "signature_of",
]


@dataclass(frozen=True)
class FillSpec:
    """One variable to fill, with its coarse-fine interpolation operator.

    ``refine_op`` may be None for variables never filled from a coarser
    level (build fails loudly if such a variable turns out to need it).
    """

    var: Variable
    refine_op: "RefineOperator | None" = None


def _params(time) -> StepParams | None:
    """A fill's ``time`` as the parameters its timestamp tasks read."""
    if time is None or isinstance(time, StepParams):
        return time
    return StepParams(time=time)


def signature_of(var: Variable) -> Variable:
    """The centring signature of a variable: geometry-equivalent key."""
    return Variable("_sig", var.centring, var.ghosts, var.axis)


def needed_coarse_frame(var: Variable, region: "Box | BoxArray",
                        ratio: IntVector) -> "Box | BoxArray":
    """Coarse centring-space frame an interpolation of ``region`` reads
    (``region``: one box, or every region of a level as a ``BoxArray``)."""
    c = region.coarsen(ratio)
    if var.centring != "node":
        c = c.grow(1)  # MC slopes (cell) / transverse slopes (side) read +-1
    # bilinear corners (node) / the bracketing coarse face along the
    # normal (side): the centring's own upper offset
    return c.grow_upper(var.offset)


@dataclass
class _InterpGeom:
    dst_patch: "Patch"
    region: Box                         # fine centring space, to interpolate
    coarse_frame: Box                   # coarse centring space, temp extent
    sources: list[tuple["Patch", Box]]  # (coarse patch, region of temp)


class FillGeometry:
    """Variable-independent transactions for one (level, signature), as
    arrays: patch indices into the levels and ``(n, 2, dim)`` corners.

    Same-level copies, in transaction order: ``copy_src`` (a patch of the
    source level) fills ``copy_box`` of ``copy_dst`` (of the destination
    level).  Interpolations: region ``interp_box`` of ``interp_dst`` from
    the coarse-level block ``interp_frame``, whose sources
    ``source_start[r]:source_start[r + 1]`` are ``source_patch`` (of the
    coarse level) supplying ``source_box``.  :attr:`copies` and
    :attr:`interps` list them as objects, made on each access."""

    def __init__(self, sig, dst_level, src_level, coarse_level, copies,
                 interps):
        #: the centring signature the geometry is in
        self.sig = sig
        self.dst_level = dst_level
        self.src_level = src_level
        self.coarse_level = coarse_level
        self.copy_src, self.copy_dst, self.copy_box = copies
        (self.interp_dst, self.interp_box, self.interp_frame,
         self.source_start, self.source_patch, self.source_box) = interps
        #: the transactions as flat indices into the levels' arenas, compiled
        #: by the first schedule that runs them, whatever its grouping
        #: (``fill_plan``)
        self.flat = None

    @property
    def copies(self) -> list[tuple["Patch", "Patch", Box]]:
        """``(src patch, dst patch, region)`` per copy."""
        src = self.src_level.patches if self.src_level is not None else ()
        return [(src[s], self.dst_level.patches[d], Box(lo, hi))
                for s, d, (lo, hi) in zip(self.copy_src.tolist(),
                                          self.copy_dst.tolist(),
                                          self.copy_box.tolist())]

    @property
    def interps(self) -> list[_InterpGeom]:
        """An ``_InterpGeom`` per interpolated region."""
        sources = [(self.coarse_level.patches[s], Box(lo, hi))
                   for s, (lo, hi) in zip(self.source_patch.tolist(),
                                          self.source_box.tolist())]
        start = self.source_start.tolist()
        return [_InterpGeom(self.dst_level.patches[d], Box(*region),
                            Box(*frame), sources[start[r]:start[r + 1]])
                for r, (d, region, frame) in enumerate(zip(
                    self.interp_dst.tolist(), self.interp_box.tolist(),
                    self.interp_frame.tolist()))]


def build_fill_geometry(
    dst_level: "PatchLevel",
    coarse_level: "PatchLevel | None",
    sig: Variable,
    src_level: "PatchLevel | None",
    interior: bool = False,
) -> FillGeometry:
    """Compute the fill transactions for one centring signature.

    ``interior=True`` fills patch interiors (regrid solution transfer)
    from ``src_level`` (the old level, possibly None) instead of ghost
    regions from the level itself.

    The regions to fill, the source patches that can reach each and the
    order-dependent part -- earlier sources take their overlap first,
    later ones get what is left -- come from the levels' box arrays for
    all destinations at once (``BoxArray.claims``); only merging what
    no source covers into interpolation regions runs per destination.
    Sources are visited in level order, so the transactions are the
    ones a scan of every source patch per destination produces, in the
    same order.
    """
    interiors = dst_level.index_boxes(sig)
    if interior:
        owners, pieces = np.arange(len(interiors)), interiors
    else:
        owners, pieces = dst_level.frames(sig).subtract(interiors)
    sources = (src_level.index_boxes(sig) if src_level is not None
               else BoxArray.from_boxes([], interiors.dim))
    (query, src, taken), (rest, left) = sources.claims(pieces)
    copies = (src, owners[query], taken)
    # what no same-level source covers, inside the domain, merged per
    # destination into the regions to interpolate
    domain = index_box_for(sig, dst_level.domain)
    inside = BoxArray._of(left).intersect(domain)
    keep = ~inside.is_empty()
    dst = owners[rest[keep]]
    rows = inside.take(keep).rows()
    regions, region_dst = [], []
    ends = np.flatnonzero(np.diff(dst, append=-1)) + 1
    for lo, hi in zip([0, *ends[:-1].tolist()], ends.tolist()):
        merged = coalesce(rows[lo:hi]) if hi - lo > 1 else rows[lo:hi]
        regions.extend(merged)
        region_dst.extend([int(dst[lo])] * len(merged))
    dim = interiors.dim
    if regions and coarse_level is None:
        raise ValueError(
            f"level {dst_level.level_number} needs coarse-level fill "
            "but no coarser level exists"
        )
    interps = (_interp_geoms(sig, np.array(region_dst, dtype=np.intp),
                             BoxArray(regions), dst_level, coarse_level)
               if regions else _no_interps(dim))
    return FillGeometry(sig, dst_level, src_level, coarse_level, copies,
                        interps)


def _no_interps(dim: int) -> tuple:
    none = np.zeros(0, dtype=np.intp)
    boxes = np.zeros((0, 2, dim), dtype=np.int64)
    return none, boxes, boxes, np.zeros(1, dtype=np.intp), none, boxes


def _interp_geoms(sig, dst, regions: BoxArray, dst_level,
                  coarse_level) -> tuple:
    """The interpolation arrays of every region: the coarse frame each
    interpolation reads and which coarse patch supplies which part of
    it."""
    frames = needed_coarse_frame(sig, regions, dst_level.ratio_to_coarser)
    needed = frames.intersect(index_box_for(sig, coarse_level.domain))
    # Prefer coarse interiors, then coarse ghost frames (valid after the
    # coarse level's own fill, which runs first): one array, interiors
    # first, claimed in index order.
    sources = BoxArray(np.concatenate([coarse_level.index_boxes(sig).corners,
                                       coarse_level.frames(sig).corners]))
    (query, src, taken), (short, _) = sources.claims(needed)
    if len(short):
        raise ValueError(
            f"coarse level does not cover interpolation stencil near "
            f"{regions.boxes()[short[0]]} (nesting violation?)"
        )
    start = np.zeros(len(regions) + 1, dtype=np.intp)
    np.cumsum(np.bincount(query, minlength=len(regions)), out=start[1:])
    return (dst, regions.corners, frames.corners, start,
            src % len(coarse_level), taken)


class RefineSchedule:
    """Fills the ghost regions of every variable on a destination level."""

    def __init__(
        self,
        dst_level: "PatchLevel",
        coarse_level: "PatchLevel | None",
        specs: list[FillSpec],
        comm: "SimCommunicator",
        *,
        boundary=None,
        src_level: "PatchLevel | None" = None,
        interior: bool = False,
        geometry_cache: dict | None = None,
        batch: bool = False,
    ):
        self.dst_level = dst_level
        self.coarse_level = coarse_level
        self.specs = specs
        self.comm = comm
        self.boundary = boundary
        self.interior = interior
        #: group the fill level-wide: one copy per owner, one message per
        #: rank pair, one clamp / refine / boundary launch per backend;
        #: else per patch, per patch pair, per region and per patch
        self.batch = batch
        if src_level is None and not interior:
            src_level = dst_level
        self.src_level = src_level
        #: the level-wide plan :meth:`fill` executes, compiled on first use
        #: (so a schedule used once pays for it once) and replayed from
        #: then on; a level-wide schedule also records it as tasks
        self._plan = None
        #: a per-patch schedule's per-patch plan, compiled and kept only
        #: while :meth:`emit_tasks` records it as tasks
        self._tasks = None
        #: a per-patch schedule's charges: the ``(transfer, finish)``
        #: ledger rows of its per-patch plan, read off the geometry's
        #: sizes once
        self._charges = None
        cache = geometry_cache if geometry_cache is not None else {}
        self.items: list[tuple[FillSpec, FillGeometry]] = []
        by_geom: dict[int, tuple[FillGeometry, list[FillSpec]]] = {}
        for spec in specs:
            sig = signature_of(spec.var)
            # Keyed on the level *objects* (identity hash), not their ids:
            # a persistent cache (xfer.schedule_cache) must pin the levels
            # so a freed level's id can never be reused by a new one.
            key = (dst_level, coarse_level, src_level, interior, sig)
            geom = cache.get(key)
            if geom is None:
                geom = build_fill_geometry(
                    dst_level, coarse_level, sig, src_level, interior
                )
                cache[key] = geom
            if len(geom.interp_dst) and spec.refine_op is None:
                raise ValueError(
                    f"variable {spec.var.name!r} on level "
                    f"{dst_level.level_number} needs coarse-level fill but "
                    "has no refine operator"
                )
            self.items.append((spec, geom))
            by_geom.setdefault(id(geom), (geom, []))[1].append(spec)
        #: the variables of each geometry, in first-use order
        self.sig_groups = list(by_geom.values())
        if not batch:
            for geom, group in self.sig_groups:
                if (len(geom.interp_dst)
                        and len({type(s.refine_op) for s in group}) > 1):
                    raise MixedRefineError(
                        f"variables {[s.var.name for s in group]} share a "
                        f"centring but not a refine operator type: a "
                        f"per-patch fill refines a region's variables in "
                        f"one launch")

    # -- the transfer program ----------------------------------------------------
    #
    # The compiled plan states the fill over a sink's verbs: :meth:`fill`
    # runs it against an immediate sink, :meth:`emit_tasks` against a
    # graph builder.  The plan :meth:`fill` executes is always the
    # level-wide one; a per-patch schedule runs it uncharged and charges
    # its per-patch plan's rows instead.

    def fill(self, time: float | None = None) -> None:
        """Execute the schedule now: copies, interpolation, physical BCs.

        A level-wide schedule executes its plan through an
        :class:`~repro.xfer.message.ImmediateSink`, charged as it runs.
        A per-patch schedule executes the same level-wide plan through an
        :class:`~repro.xfer.message.UnchargedSink` and charges the
        per-patch plan — its launches, copies, staging, messages and
        scratch, in the order executing it issued them — from ledger rows
        read once off the geometry's sizes (:func:`per_patch_rows
        <repro.xfer.fill_plan.per_patch_rows>`); both groupings run the
        same kernels over the same elements, so the fields are the same
        bits."""
        params = _params(time)
        plan = self._level_wide()
        if self.batch:
            sink = ImmediateSink(self.comm)
            self._transfer(sink, plan)
            sink.close()
            plan.finish(sink, params)
            return
        if self._charges is None:
            self._charges = per_patch_rows(self, plan)
        sink = UnchargedSink(self.comm)
        self._transfer(sink, plan)
        plan.finish(sink, params)
        transfer, finish = self._charges
        posted = ImmediateSink(self.comm)
        transfer.replay(posted.post)
        posted.close()
        finish.replay()

    def emit_tasks(self, gb,
                   time: "float | StepParams | None" = None) -> None:
        """Record the schedule into a graph builder (the scheduler path).

        The same program as :meth:`fill` charges, in the same order,
        landing as typed tasks: fused local copies, six-stage message
        streams for cross-rank batches, interpolation gathers + refines,
        physical BCs, and host-side frees and timestamp updates.
        Dependencies come from the builder's read/write tracking, so any
        topological order reproduces :meth:`fill` bit for bit.  ``time``
        may be a :class:`~repro.exec.batch.StepParams`, whose ``time`` the
        timestamp tasks read when they run, so a replayed graph stamps
        each step's time.
        """
        if self.batch:
            plan = self._level_wide()
        else:
            if self._tasks is None:
                self._tasks = compile_fill(self, False)
            plan = self._tasks
        self._transfer(gb, plan)
        plan.finish(gb, _params(time))

    def _level_wide(self):
        """The level-wide plan (raises on unpooled levels)."""
        if self._plan is None:
            self._plan = compile_fill(self, True)
        return self._plan

    def _transfer(self, sink, plan) -> None:
        """Same-level copies, then coarse-level interpolation."""
        chk = _check_active()
        if chk is not None:
            sink.note(self._note_fill_start, chk)
        plan.transfer(sink, not self.interior, chk is not None)

    def _note_fill_start(self, chk) -> None:
        """Tell the sanitizer this fill begins (emission order; a sink
        note, so a replayed graph tells it again).

        A ghost fill repartitions *every* ghost region of every
        destination (copies + interpolation cover in-domain, physical BCs
        cover out-of-domain), so old halo stamps are dropped before the
        new ones land.  An interior fill instead writes destination
        interiors (regrid solution transfer).
        """
        for dst in self.dst_level:
            for spec, _ in self.items:
                pd = dst.data(spec.var.name)
                if self.interior:
                    chk.note_interior_write(pd)
                else:
                    chk.reset_stamps(pd)
