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

The first time a schedule runs it compiles its transactions into a
flat-index :class:`~repro.xfer.fill_plan.FillPlan` and from then on
replays it: no box algebra, no per-region temporaries and no regrouping
in steady state, on uniform and ragged levels alike.  ``batch`` picks
only the plan's launch grouping — level-wide launches and rank-pair
messages, or the paper's per-patch launches and patch-pair messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..check.context import active as _check_active
from ..exec.batch import StepParams
from ..mesh.box import Box, IntVector, meet
from ..mesh.box_array import BoxArray, coalesce
from ..mesh.variables import Variable
from .fill_plan import compile_fill
from .message import ImmediateSink
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


@dataclass
class FillGeometry:
    """Variable-independent transactions for one (level, signature)."""

    copies: list[tuple["Patch", "Patch", Box]] = field(default_factory=list)
    interps: list[_InterpGeom] = field(default_factory=list)
    #: the transactions as flat indices into the levels' arenas, compiled
    #: by the first schedule that runs them, whatever its grouping
    #: (``fill_plan``)
    flat: object = None


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

    The regions to fill and, for each, the source patches that can reach
    it come from the levels' box arrays for all destinations at once;
    only the order-dependent part -- earlier sources take their overlap
    first, later ones get what is left -- runs per region, over its few
    candidates, on corner rows (``BoxArray.claims``).  Sources
    are visited in level order, so the transactions are the ones a scan
    of every source patch per destination produces, in the same order.
    """
    geom = FillGeometry()
    interiors = dst_level.index_boxes(sig)
    if interior:
        owners, pieces = range(len(interiors)), interiors
    else:
        owners, pieces = dst_level.frames(sig).subtract(interiors)
        owners = owners.tolist()
    sources = (src_level.index_boxes(sig) if src_level is not None
               else BoxArray.from_boxes([], interiors.dim))
    left_of: dict = {}  # destination -> rows no same-level source covers
    for d, (taken, left) in zip(owners, sources.claims(pieces)):
        dst = dst_level.patches[d]
        geom.copies.extend((src_level.patches[s], dst, Box(lo, hi))
                           for s, lo, hi in taken)
        if left:
            left_of.setdefault(d, []).extend(left)
    domain = index_box_for(sig, dst_level.domain)
    regions = []
    for d, left in left_of.items():
        inside = filter(None, (meet(lo, hi, domain.lower, domain.upper)
                               for lo, hi in left))
        regions.extend((dst_level.patches[d], Box(lo, hi))
                       for lo, hi in coalesce(inside))
    if regions:
        if coarse_level is None:
            raise ValueError(
                f"level {dst_level.level_number} needs coarse-level fill "
                "but no coarser level exists"
            )
        geom.interps = _build_interp_geoms(sig, regions, dst_level,
                                           coarse_level)
    return geom


def _build_interp_geoms(sig, regions, dst_level, coarse_level) -> list:
    """The :class:`_InterpGeom` of every ``(dst patch, region)``: the
    coarse frame each interpolation reads and which coarse patch supplies
    which part of it."""
    frames = needed_coarse_frame(
        sig, BoxArray.from_boxes([region for _, region in regions]),
        dst_level.ratio_to_coarser)
    needed = frames.intersect(index_box_for(sig, coarse_level.domain))
    # Prefer coarse interiors, then coarse ghost frames (valid after the
    # coarse level's own fill, which runs first): one array, interiors
    # first, claimed in index order.
    coarse = coarse_level.patches
    sources = BoxArray(np.concatenate([coarse_level.index_boxes(sig).corners,
                                       coarse_level.frames(sig).corners]))
    out = []
    for (dst, region), frame, (taken, left) in zip(
            regions, frames.boxes(), sources.claims(needed)):
        if left:
            raise ValueError(
                f"coarse level does not cover interpolation stencil near "
                f"{region} (nesting violation?)"
            )
        out.append(_InterpGeom(dst, region, frame, [
            (coarse[s % len(coarse)], Box(lo, hi)) for s, lo, hi in taken]))
    return out


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
        #: the compiled fill, built on first use (so a schedule used once
        #: pays for it once) and replayed from then on
        self._plan = None
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
            if geom.interps and spec.refine_op is None:
                raise ValueError(
                    f"variable {spec.var.name!r} on level "
                    f"{dst_level.level_number} needs coarse-level fill but "
                    "has no refine operator"
                )
            self.items.append((spec, geom))
            by_geom.setdefault(id(geom), (geom, []))[1].append(spec)
        #: the variables of each geometry, in first-use order
        self.sig_groups = list(by_geom.values())

    # -- the transfer program ----------------------------------------------------
    #
    # The compiled plan states the fill over a sink's verbs: :meth:`fill`
    # runs it against an :class:`~repro.xfer.message.ImmediateSink`,
    # :meth:`emit_tasks` against a graph builder.

    def fill(self, time: float | None = None) -> None:
        """Execute the schedule now: copies, interpolation, physical BCs."""
        sink = ImmediateSink(self.comm)
        self._transfer(sink)
        sink.close()
        self._plan.finish(sink, _params(time))

    def emit_tasks(self, gb,
                   time: "float | StepParams | None" = None) -> None:
        """Record the schedule into a graph builder (the scheduler path).

        The same program as :meth:`fill`, in the same order, landing as
        typed tasks: fused local copies, six-stage message streams for
        cross-rank batches, interpolation gathers + refines, physical
        BCs, and host-side frees and timestamp updates.  Dependencies
        come from the builder's read/write tracking, so any topological
        order reproduces :meth:`fill` bit for bit.  ``time`` may be a
        :class:`~repro.exec.batch.StepParams`, whose ``time`` the
        timestamp tasks read when they run, so a replayed graph stamps
        each step's time.
        """
        self._transfer(gb)
        self._plan.finish(gb, _params(time))

    def _transfer(self, sink) -> None:
        """Same-level copies, then coarse-level interpolation."""
        chk = _check_active()
        if chk is not None:
            sink.note(self._note_fill_start, chk)
        if self._plan is None:
            self._plan = compile_fill(self)  # once; raises on unpooled levels
        self._plan.transfer(sink, not self.interior, chk is not None)

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

    # -- statistics ---------------------------------------------------------------

    def num_transactions(self) -> tuple[int, int]:
        copies = sum(len(g.copies) for _, g in self.items)
        interps = sum(len(g.interps) for _, g in self.items)
        return copies, interps
