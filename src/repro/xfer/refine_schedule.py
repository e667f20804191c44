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

Under ``batch`` the schedule goes one step further and, the first time it
runs, compiles its transactions into flat-index plans it then replays
(:mod:`repro.xfer.fill_plan`): no box algebra, no per-region temporaries
and no regrouping in steady state, on uniform and ragged levels alike.
The per-region program below is what a non-``batch`` schedule runs — the
paper's per-patch launch shape, and the reference the plans are pinned
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..check.context import active as _check_active
from ..exec.backend import array_of, backend_for
from ..exec.batch import BatchMember, LaunchBatcher
from ..mesh.box import Box, IntVector, meet
from ..mesh.box_array import BoxArray, coalesce
from ..mesh.variables import Variable
from ..sched.task import TaskKind
from .fill_plan import Lazy, compile_fill
from .message import ImmediateSink, halo_marks
from .overlap import clamp_extend, index_box_for

if TYPE_CHECKING:  # pragma: no cover
    from ..comm.simcomm import SimCommunicator
    from ..geom.operators import RefineOperator
    from ..mesh.patch import Patch
    from ..mesh.patch_level import PatchLevel

__all__ = [
    "FillSpec", "RefineSchedule", "build_fill_geometry", "FillGeometry",
    "needed_coarse_frame", "temp_box_for", "alloc_temp", "free_temps",
    "signature_of",
]


@dataclass(frozen=True)
class FillSpec:
    """One variable to fill, with its coarse-fine interpolation operator.

    ``refine_op`` may be None for variables never filled from a coarser
    level (build fails loudly if such a variable turns out to need it).
    """

    var: Variable
    refine_op: "RefineOperator | None" = None


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


def temp_box_for(var: Variable, frame: Box) -> Box:
    """Cell box whose zero-ghost storage frame equals ``frame``."""
    return var.cell_box(frame)


def alloc_temp(factory, var: Variable, frame: Box, rank):
    """A zero-ghost temporary block for ``var`` whose storage is ``frame``."""
    return factory.allocate(
        Variable(f"_tmp_{var.name}", var.centring, 0, var.axis),
        temp_box_for(var, frame), rank, frame=frame)


def free_temps(temps) -> None:
    """Release temporary blocks (device-backed ones own pool memory)."""
    for temp in temps:
        temp.free()


def _patch_data(patches, names):
    for patch in patches:
        for name in names:
            yield patch.data(name)


def _set_times(patches, names, time: float) -> None:
    for pd in _patch_data(patches, names):
        pd.set_time(time)


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
    #: by the first batched schedule that runs them (``fill_plan``)
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
        factory,
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
        self.factory = factory
        self.boundary = boundary
        self.interior = interior
        #: issue the fill level-wide: one copy per owner, one clamp /
        #: refine / boundary launch per backend — compiled on first use
        #: into a plan that is replayed from then on
        self.batch = batch
        if src_level is None and not interior:
            src_level = dst_level
        self.src_level = src_level
        #: what a schedule keeps between fills (all built lazily, so a
        #: schedule used once pays for them once): under ``batch`` the
        #: compiled transfers and the boundary members; the patches whose
        #: data each timestamp task stamps
        self._plan = self._halos = self._stamped = None
        cache = geometry_cache if geometry_cache is not None else {}
        self.items: list[tuple[FillSpec, FillGeometry]] = []
        self.sig_groups: list[tuple[FillGeometry, list[FillSpec]]] = []
        by_geom: dict[int, list[FillSpec]] = {}
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
            group = by_geom.get(id(geom))
            if group is None:
                group = []
                by_geom[id(geom)] = group
                self.sig_groups.append((geom, group))
            group.append(spec)

    # -- the transfer program ----------------------------------------------------
    #
    # The fill is stated once, over a sink's verbs (``copy``,
    # ``stream_batch``, ``kernel_task``, ``add``): :meth:`fill` runs it
    # against an :class:`~repro.xfer.message.ImmediateSink`,
    # :meth:`emit_tasks` against a graph builder.  ``batch`` alone decides
    # the grouping — the compiled plan's one copy per owner, one message
    # per rank pair, one launch per backend, one free per rank; or the
    # per-region program's, per destination / patch pair / region / patch:
    # the paper's Fig. 9-11 launch shape.

    def fill(self, time: float | None = None) -> None:
        """Execute the schedule now: copies, interpolation, physical BCs."""
        sink = ImmediateSink(self.comm)
        self._transfer(sink)
        sink.close()
        self._finish(sink, time)

    def emit_tasks(self, gb, time: float | None = None) -> None:
        """Record the schedule into a graph builder (the scheduler path).

        The same program as :meth:`fill`, in the same order, landing as
        typed tasks: fused local copies, six-stage message streams for
        cross-rank batches, interpolation gathers + refines, physical
        BCs, and host-side frees and timestamp updates.  Dependencies
        come from the builder's read/write tracking, so any topological
        order reproduces :meth:`fill` bit for bit.
        """
        self._transfer(gb)
        self._finish(gb, time)

    def _transfer(self, sink) -> None:
        """Same-level copies, then coarse-level interpolation.

        Same-rank copies are fused into one kernel; cross-rank copies are
        packed into one message stream covering every variable (the
        paper's MessageStream path) — per (src rank, dst rank) under
        ``batch``, per (src patch, dst patch) in the per-region program.
        """
        chk = _check_active()
        if chk is not None:
            self._note_fill_start(chk)
        ghost = not self.interior
        if self.batch and self._plan is None:
            self._plan = compile_fill(self)  # once; raises on unpooled levels
        plan = self._plan
        copies, streams = ((plan.copies, plan.streams) if plan
                           else self._group_copies())
        for rank, items in copies:
            sink.copy(rank, items, "fill.copy", ghost=ghost)
        for src_rank, dst_rank, pack, unpack in streams:
            sink.stream_batch(src_rank, dst_rank, pack, unpack,
                              f"fill.L{self.dst_level.level_number}",
                              ghost=ghost)
        if plan:
            if plan.ranks:
                plan.replay_interp(sink, ghost, chk is not None)
            return
        for geom, specs in self.sig_groups:
            for ig in geom.interps:
                self._interpolate(sink, specs, ig, ghost, chk is not None)

    def _finish(self, sink, time: float | None) -> None:
        """Physical boundary conditions, then the new timestamps."""
        ranks = self.comm.ranks
        variables = [spec.var for spec, _ in self.items]
        if self.boundary is not None:
            halos = LaunchBatcher(self.batch)
            if self.batch:
                if self._halos is None:
                    members = [(ranks[dst.owner],
                                self.boundary.batch_member(dst, variables))
                               for dst in self.dst_level]
                    self._halos = [
                        (backend_for(member.writes[0], rank), rank, member)
                        for rank, member in members if member is not None]
                for backend, rank, member in self._halos:
                    halos.collect(backend, rank, "hydro.update_halo", member,
                                  ghost_only=True)
            else:
                for dst in self.dst_level:
                    if dst.touches_boundary():
                        self._apply_boundary(sink, dst, variables,
                                             ranks[dst.owner])
            sink.flush_fusion(halos)
        if time is not None:
            if self._stamped is None:
                groups: dict = {}
                for dst in self.dst_level:
                    key = dst.owner if self.batch else id(dst)
                    groups.setdefault(key, (dst.owner, []))[1].append(dst)
                self._stamped = list(groups.values())
            names = [v.name for v in variables]
            for owner, patches in self._stamped:
                sink.add(TaskKind.HOST, owner, "fill.set_time",
                         lambda _stream, patches=patches: _set_times(
                             patches, names, time),
                         reads=Lazy(_patch_data, patches, names))

    def _apply_boundary(self, sink, dst, variables, rank) -> None:
        """One patch's physical BCs through the boundary object's own
        fused halo kernel."""
        pds = [dst.data(v.name) for v in variables]
        sink.add(TaskKind.KERNEL, rank.index, "fill.bc",
                 lambda _stream: self.boundary.apply_all(dst, variables, rank),
                 reads=pds, writes=pds, ghost_only=True,
                 marks=(halo_marks((pd, pd) for pd in pds)
                        if _check_active() is not None else ()))

    def _note_fill_start(self, chk) -> None:
        """Tell the sanitizer this fill begins (emission order).

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

    def _group_copies(self) -> tuple[list, list]:
        """Same-level copies of the per-region program, over every variable.

        Returns ``(copies, streams)``: same-rank copies as ``(rank,
        [(dst_pd, src_pd, region)])``, one entry per destination patch,
        and cross-rank copies as ``(src rank, dst rank, pack items,
        unpack items)`` per patch pair, one message stream each.
        """
        ranks = self.comm.ranks
        local: dict = {}
        remote: dict = {}
        for spec, geom in self.items:
            name = spec.var.name
            for src, dst, region in geom.copies:
                if src.owner == dst.owner:
                    entry = local.setdefault(id(dst), (ranks[dst.owner], []))
                    entry[1].append((dst.data(name), src.data(name), region))
                else:
                    entry = remote.setdefault(
                        (id(src), id(dst)),
                        (ranks[src.owner], ranks[dst.owner], [], []))
                    entry[2].append((src.data(name), region))
                    entry[3].append((dst.data(name), region))
        return list(local.values()), list(remote.values())

    def _clamp_member(self, temp, var: Variable):
        """The kernel zero-gradient-extending ``temp``'s cells outside the
        coarse domain, or None when the block lies inside it."""
        frame = temp.get_ghost_box()
        valid = index_box_for(var, self.coarse_level.domain)
        if valid.contains_box(frame):
            return None
        return BatchMember(
            frame.size(), lambda: clamp_extend(array_of(temp), frame, valid),
            reads=(temp,), writes=(temp,))

    def _interpolate(self, sink, specs, ig: _InterpGeom, ghost: bool,
                     checking: bool) -> None:
        """Interpolate one region for every variable of one signature.

        Temporary coarse blocks (one per variable) are gathered first —
        same-rank sources fuse into one copy, each cross-rank source
        sends one message stream covering all variables — then clamped
        at the coarse domain edge, refined by the operators' own launch
        (one per variable, or one fused for a homogeneous operator), and
        freed.  Whatever raises on the way, no temp outlives the call.
        """
        level = self.dst_level.level_number
        dst_rank = self.comm.rank(ig.dst_patch.owner)
        temps: list = []
        try:
            for spec in specs:
                temps.append(alloc_temp(self.factory, spec.var,
                                        ig.coarse_frame, dst_rank))
            gathers = []
            for src_patch, sub in ig.sources:
                src_rank = self.comm.rank(src_patch.owner)
                if src_rank.index == dst_rank.index:
                    gathers.extend(
                        (temp, src_patch.data(spec.var.name), sub)
                        for spec, temp in zip(specs, temps))
                else:
                    sink.stream_batch(
                        src_rank, dst_rank,
                        [(src_patch.data(s.var.name), sub) for s in specs],
                        [(t, sub) for t in temps],
                        f"fill.interp.L{level}")
            if gathers:
                sink.copy(dst_rank, gathers, "fill.gather")

            clamps = LaunchBatcher(False)
            for spec, temp in zip(specs, temps):
                clamp = self._clamp_member(temp, spec.var)
                if clamp is not None:
                    clamps.collect(backend_for(temp, dst_rank), dst_rank,
                                   "pdat.copy", clamp)
            sink.flush_fusion(clamps)

            dst_pds = [ig.dst_patch.data(s.var.name) for s in specs]
            sink.add(TaskKind.KERNEL, dst_rank.index, "fill.refine",
                     lambda _stream: self._fused_refine(specs, temps, ig,
                                                        dst_rank),
                     reads=temps, writes=dst_pds, ghost_only=ghost,
                     marks=[("stamp", pd, [sp.data(s.var.name)
                                           for sp, _ in ig.sources])
                            for s, pd in zip(specs, dst_pds)]
                     if ghost and checking else ())
            sink.add(TaskKind.FREE, dst_rank.index, "fill.free",
                     lambda _stream: free_temps(temps), writes=temps)
        except BaseException:
            free_temps(temps)
            raise

    def _fused_refine(self, specs, temps, ig: _InterpGeom, dst_rank) -> None:
        """One refine launch covering every variable of the signature."""
        ratio = self.dst_level.ratio_to_coarser
        op0 = specs[0].refine_op
        if len(specs) == 1 or any(type(s.refine_op) is not type(op0) for s in specs):
            for spec, temp in zip(specs, temps):
                spec.refine_op.apply(
                    temp, ig.dst_patch.data(spec.var.name),
                    ig.region, ratio, rank=dst_rank,
                )
            return
        from ..geom.operators import fused_refine_apply

        pairs = [
            (temp, ig.dst_patch.data(spec.var.name))
            for spec, temp in zip(specs, temps)
        ]
        fused_refine_apply(specs[0].refine_op, pairs, ig.region, ratio, dst_rank)

    # -- statistics ---------------------------------------------------------------

    def num_transactions(self) -> tuple[int, int]:
        copies = sum(len(g.copies) for _, g in self.items)
        interps = sum(len(g.interps) for _, g in self.items)
        return copies, interps
