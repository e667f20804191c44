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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..check.context import active as _check_active
from ..exec.backend import array_of, backend_for, run_on
from ..exec.batch import SLAB_FALLBACK, BatchMember
from ..mesh.box import Box, IntVector
from ..mesh.box_container import BoxContainer
from ..mesh.variables import Variable
from .overlap import clamp_extend, frame_box_for, ghost_fill_pieces, index_box_for

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


def needed_coarse_frame(var: Variable, region: Box, ratio: IntVector) -> Box:
    """Coarse centring-space frame an interpolation of ``region`` reads."""
    c = region.coarsen(ratio)
    if var.centring == "cell":
        return c.grow(1)  # MC slopes read +-1
    if var.centring == "node":
        return Box(c.lower, c.upper + IntVector.uniform(1, c.dim))  # bilinear corners
    out = c.grow(1)  # transverse slopes
    upper = list(out.upper)
    upper[var.axis] += 1  # bracketing coarse face in the normal direction
    return Box(out.lower, upper)


def temp_box_for(var: Variable, frame: Box) -> Box:
    """Cell box whose zero-ghost storage frame equals ``frame``."""
    if var.centring == "cell":
        return frame
    if var.centring == "node":
        return Box(frame.lower, frame.upper - IntVector.uniform(1, frame.dim))
    shift = [0] * frame.dim
    shift[var.axis] = 1
    return Box(frame.lower, frame.upper - IntVector(shift))


def alloc_temp(factory, var: Variable, frame: Box, rank):
    """A zero-ghost temporary block for ``var`` whose storage is ``frame``."""
    return factory.allocate(
        Variable(f"_tmp_{var.name}", var.centring, 0, var.axis),
        temp_box_for(var, frame), rank)


def free_temps(temps) -> None:
    """Release temporary blocks (device-backed ones own pool memory)."""
    for temp in temps:
        free = getattr(temp, "free", None)
        if free is not None:
            free()


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
    """
    geom = FillGeometry()
    domain_idx = index_box_for(sig, dst_level.domain)
    src_patches = list(src_level) if src_level is not None else []
    src_interiors = [index_box_for(sig, s.box) for s in src_patches]

    for dst in dst_level:
        if interior:
            pieces = BoxContainer([index_box_for(sig, dst.box)])
        else:
            pieces = ghost_fill_pieces(sig, dst)
        dst_frame = frame_box_for(sig, dst.box)
        # Prefilter: only neighbours whose interior meets this frame.
        candidates = [
            (s, sbox) for s, sbox in zip(src_patches, src_interiors)
            if (s is not dst or interior) and sbox.intersects(dst_frame)
        ]
        remaining = BoxContainer()
        for piece in pieces:
            left = [piece]
            for src, src_interior in candidates:
                nxt = []
                for r in left:
                    overlap = r.intersection(src_interior)
                    if overlap.is_empty():
                        nxt.append(r)
                    else:
                        geom.copies.append((src, dst, overlap))
                        nxt.extend(r.remove_intersection(overlap))
                left = nxt
                if not left:
                    break
            remaining.extend(left)
        interp_regions = remaining.intersect(domain_idx).coalesce()
        if interp_regions.is_empty():
            continue
        if coarse_level is None:
            raise ValueError(
                f"level {dst_level.level_number} needs coarse-level fill "
                "but no coarser level exists"
            )
        for region in interp_regions:
            geom.interps.append(
                _build_interp_geom(sig, dst, region, dst_level, coarse_level)
            )
    return geom


def _build_interp_geom(sig, dst, region, dst_level, coarse_level) -> _InterpGeom:
    ratio = dst_level.ratio_to_coarser
    frame = needed_coarse_frame(sig, region, ratio)
    coarse_domain_idx = index_box_for(sig, coarse_level.domain)
    needed = BoxContainer([frame.intersection(coarse_domain_idx)])
    sources: list[tuple["Patch", Box]] = []
    # Prefer coarse interiors, then coarse ghost frames (valid after the
    # coarse level's own fill, which runs first).
    for use_frame in (False, True):
        if needed.is_empty():
            break
        for src in coarse_level:
            src_box = (
                frame_box_for(sig, src.box) if use_frame
                else index_box_for(sig, src.box)
            )
            if not src_box.intersects(frame):
                continue
            nxt = BoxContainer()
            for r in needed:
                overlap = r.intersection(src_box)
                if overlap.is_empty():
                    nxt.append(r)
                else:
                    sources.append((src, overlap))
                    nxt.extend(r.remove_intersection(overlap))
            needed = nxt
            if needed.is_empty():
                break
    if not needed.is_empty():
        raise ValueError(
            f"coarse level does not cover interpolation stencil near "
            f"{region} (nesting violation?)"
        )
    return _InterpGeom(dst, region, frame, sources)


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
        #: fuse clamp/refine/boundary kernels into batched launches.  Fill
        #: work is inherently per-region (ragged halo bodies, per-region
        #: interpolation temps), so its fused members are marked as
        #: deliberate slab fallbacks
        self.batch = batch
        if src_level is None and not interior:
            src_level = dst_level
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

    # -- execution --------------------------------------------------------------

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

    def _group_copies(self) -> tuple[dict, dict]:
        """Same-level copies grouped for fusion, over every variable.

        Returns ``(local, remote)``: same-rank copies keyed by destination
        patch — ``id(dst) -> (dst, [(dst_pd, src_pd, region)])`` — and
        cross-rank copies keyed by patch pair — ``(id(src), id(dst)) ->
        (src, dst, [(name, region)])`` — one message stream each.
        """
        local: dict = {}
        remote: dict = {}
        for spec, geom in self.items:
            name = spec.var.name
            for src, dst, region in geom.copies:
                if src.owner == dst.owner:
                    entry = local.setdefault(id(dst), (dst, []))
                    entry[1].append((dst.data(name), src.data(name), region))
                else:
                    entry = remote.setdefault((id(src), id(dst)), (src, dst, []))
                    entry[2].append((name, region))
        return local, remote

    def _alloc_temps(self, specs: list[FillSpec], ig: _InterpGeom, rank) -> list:
        """One coarse block per variable, covering ``ig``'s coarse frame."""
        return [alloc_temp(self.factory, s.var, ig.coarse_frame, rank)
                for s in specs]

    def _clamp_member(self, temp, var: Variable, slab=None):
        """The kernel zero-gradient-extending ``temp``'s cells outside the
        coarse domain, or None when the block lies inside it."""
        frame = temp.get_ghost_box()
        valid = index_box_for(var, self.coarse_level.domain)
        if valid.contains_box(frame):
            return None
        return BatchMember(
            frame.size(), lambda: clamp_extend(array_of(temp), frame, valid),
            reads=(temp,), writes=(temp,), slab=slab)

    def fill(self, time: float | None = None) -> None:
        """Execute the schedule: copies, interpolation, physical BCs.

        Same-rank copies are fused into one kernel per destination patch;
        cross-rank copies are packed per (src, dst) pair into one message
        stream covering every variable (the paper's MessageStream path).
        """
        from ..comm.simcomm import Message
        from .message import copy_batch_local, pack_batch, unpack_batch
        from .transfer import MESSAGE_HEADER_BYTES

        chk = _check_active()
        if chk is not None:
            self._note_fill_start(chk)
        messages = []
        ranks = self.comm.ranks
        local, remote = self._group_copies()
        if self.batch:
            # One fused copy launch per owning rank for the whole level:
            # arena-backed regions then collapse to stacked slab ops in
            # the backend (bitwise identical — destinations are disjoint;
            # modelled launch count drops, as for every --batch fusion).
            by_owner: dict[int, list] = {}
            for dst, items in local.values():
                by_owner.setdefault(dst.owner, []).extend(items)
            for owner, items in by_owner.items():
                copy_batch_local(items, ranks[owner])
        else:
            for dst, items in local.values():
                copy_batch_local(items, ranks[dst.owner])
        if chk is not None and not self.interior:
            for _dst, items in local.values():
                for dst_pd, src_pd, _ in items:
                    chk.stamp(dst_pd, (src_pd,))
        for src, dst, named in remote.values():
            buf = pack_batch([(src.data(n), r) for n, r in named],
                             ranks[src.owner])
            messages.append(Message(src.owner, dst.owner,
                                    buf.nbytes + MESSAGE_HEADER_BYTES))
            unpack_batch(buf, [(dst.data(n), r) for n, r in named],
                         ranks[dst.owner])
            if chk is not None and not self.interior:
                for n, _ in named:
                    chk.stamp(dst.data(n), (src.data(n),))
        if self.batch:
            self._fill_interps_batched(messages)
        else:
            for geom, group in self.sig_groups:
                for ig in geom.interps:
                    self._execute_interp_group(group, ig, messages)
        self.comm.exchange(messages)
        if self.boundary is not None:
            variables = [spec.var for spec, _ in self.items]
            if self.batch:
                self._apply_boundary_batched(variables, ranks)
            else:
                for dst in self.dst_level:
                    self.boundary.apply_all(dst, variables, ranks[dst.owner])
        if time is not None:
            for dst in self.dst_level:
                for spec, _ in self.items:
                    dst.data(spec.var.name).set_time(time)

    def emit_tasks(self, gb, time: float | None = None) -> None:
        """Record this fill into a graph builder (the scheduler path).

        Emits the same work as :meth:`fill`, in the same order, but
        decomposed into typed tasks: fused local copies, six-stage message
        streams for cross-rank batches, interpolation gathers + refines,
        physical BCs, and a final host-side timestamp update.  Dependencies
        come from the builder's read/write tracking, so any topological
        order reproduces :meth:`fill` bit for bit.
        """
        chk = _check_active()
        if chk is not None:
            self._note_fill_start(chk)
        ghost = not self.interior
        ranks = self.comm.ranks
        local, remote = self._group_copies()
        for dst, items in local.values():
            gb.copy(ranks[dst.owner], items, "fill.copy", ghost=ghost)
        for src, dst, named in remote.values():
            gb.stream_batch(
                ranks[src.owner], ranks[dst.owner],
                [(src.data(n), r) for n, r in named],
                [(dst.data(n), r) for n, r in named],
                f"fill.L{self.dst_level.level_number}",
                ghost=ghost,
            )
        for geom, group in self.sig_groups:
            for ig in geom.interps:
                self._emit_interp_group(gb, group, ig)
        if self.boundary is not None:
            variables = [spec.var for spec, _ in self.items]
            for dst in self.dst_level:
                gb.boundary(dst, variables, ranks[dst.owner], self.boundary)
        if time is not None:
            from ..sched.task import TaskKind

            for dst in self.dst_level:
                pds = [dst.data(spec.var.name) for spec, _ in self.items]

                def set_times(stream, pds=pds):
                    for pd in pds:
                        pd.set_time(time)

                gb.add(TaskKind.HOST, dst.owner, "fill.set_time", set_times,
                       reads=pds)

    def _emit_interp_group(self, gb, specs: list[FillSpec],
                           ig: _InterpGeom) -> None:
        """Task-graph counterpart of :meth:`_execute_interp_group`."""
        from ..sched.task import TaskKind

        dst_rank = self.comm.rank(ig.dst_patch.owner)
        temps = self._alloc_temps(specs, ig, dst_rank)

        local_items = []
        for src_patch, sub in ig.sources:
            src_rank = self.comm.rank(src_patch.owner)
            if src_rank.index == dst_rank.index:
                for spec, temp in zip(specs, temps):
                    local_items.append((temp, src_patch.data(spec.var.name), sub))
            else:
                gb.stream_batch(
                    src_rank, dst_rank,
                    [(src_patch.data(s.var.name), sub) for s in specs],
                    [(t, sub) for t in temps],
                    f"fill.interp.L{self.dst_level.level_number}",
                )
        if local_items:
            gb.copy(dst_rank, local_items, "fill.gather")

        for spec, temp in zip(specs, temps):
            clamp = self._clamp_member(temp, spec.var)
            if clamp is not None:
                gb.kernel_task(
                    backend_for(temp, dst_rank), dst_rank, "pdat.copy",
                    clamp.elements, clamp.body, [temp], [temp])

        dst_pds = [ig.dst_patch.data(s.var.name) for s in specs]
        ghost = not self.interior
        marks = ([("stamp", pd, [sp.data(spec.var.name)
                                 for sp, _ in ig.sources])
                  for spec, pd in zip(specs, dst_pds)] if ghost else ())
        gb.add(TaskKind.KERNEL, dst_rank.index, "fill.refine",
               lambda _stream: self._fused_refine(specs, temps, ig, dst_rank),
               reads=temps, writes=dst_pds, ghost_only=ghost, marks=marks)
        gb.add(TaskKind.HOST, dst_rank.index, "fill.free",
               lambda _stream: free_temps(temps), writes=temps)

    def _execute_interp_group(self, specs: list[FillSpec], ig: _InterpGeom,
                              messages) -> None:
        """Interpolate one region for every variable of one signature.

        Temporary coarse blocks (one per variable) are gathered together:
        same-rank source copies fuse into one kernel, cross-rank sources
        send one message stream covering all variables, and the refine
        operator runs once per region with all variables fused.
        """
        from .message import copy_batch_local, pack_batch, unpack_batch
        from .transfer import MESSAGE_HEADER_BYTES
        from ..comm.simcomm import Message

        dst_rank = self.comm.rank(ig.dst_patch.owner)
        temps = self._alloc_temps(specs, ig, dst_rank)

        local_items = []
        for src_patch, sub in ig.sources:
            src_rank = self.comm.rank(src_patch.owner)
            if src_rank.index == dst_rank.index:
                for spec, temp in zip(specs, temps):
                    local_items.append((temp, src_patch.data(spec.var.name), sub))
            else:
                buf = pack_batch(
                    [(src_patch.data(s.var.name), sub) for s in specs], src_rank
                )
                messages.append(Message(src_rank.index, dst_rank.index,
                                        buf.nbytes + MESSAGE_HEADER_BYTES))
                unpack_batch(buf, [(t, sub) for t in temps], dst_rank)
        if local_items:
            copy_batch_local(local_items, dst_rank)

        for spec, temp in zip(specs, temps):
            clamp = self._clamp_member(temp, spec.var)
            if clamp is not None:
                run_on(temp, dst_rank, "pdat.copy", clamp.elements, clamp.body)
        self._fused_refine(specs, temps, ig, dst_rank)
        chk = _check_active()
        if chk is not None and not self.interior:
            for spec in specs:
                chk.stamp(ig.dst_patch.data(spec.var.name),
                          [sp.data(spec.var.name) for sp, _ in ig.sources])
        free_temps(temps)

    def _fill_interps_batched(self, messages) -> None:
        """Batched interpolation: gather every temp block first, then one
        clamp launch and one refine launch per destination backend.

        Interp regions are mutually disjoint (per-destination remainders
        after copy subtraction, coalesced) and each temp is private to its
        region, so fusing across regions and variables is bitwise-safe.
        Halo stamps ride the fused launch as marks, replacing the
        per-region ``chk.stamp`` calls of the reference path.
        """
        from ..comm.simcomm import Message
        from .message import copy_batch_local, pack_batch, unpack_batch
        from .transfer import MESSAGE_HEADER_BYTES

        entries = []  # (specs, temps, ig, dst_rank)
        gathers: dict[int, tuple[object, list]] = {}
        for geom, specs in self.sig_groups:
            for ig in geom.interps:
                dst_rank = self.comm.rank(ig.dst_patch.owner)
                temps = self._alloc_temps(specs, ig, dst_rank)
                for src_patch, sub in ig.sources:
                    src_rank = self.comm.rank(src_patch.owner)
                    if src_rank.index == dst_rank.index:
                        entry = gathers.setdefault(
                            dst_rank.index, (dst_rank, []))
                        entry[1].extend(
                            (temp, src_patch.data(spec.var.name), sub)
                            for spec, temp in zip(specs, temps))
                    else:
                        buf = pack_batch(
                            [(src_patch.data(s.var.name), sub) for s in specs],
                            src_rank)
                        messages.append(Message(
                            src_rank.index, dst_rank.index,
                            buf.nbytes + MESSAGE_HEADER_BYTES))
                        unpack_batch(buf, [(t, sub) for t in temps], dst_rank)
                entries.append((specs, temps, ig, dst_rank))
        for rank, items in gathers.values():
            copy_batch_local(items, rank)

        ghost = not self.interior
        ratio = self.dst_level.ratio_to_coarser
        clamps: dict[int, tuple[object, list]] = {}
        refines: dict[int, tuple[object, list]] = {}
        for specs, temps, ig, dst_rank in entries:
            for spec, temp in zip(specs, temps):
                clamp = self._clamp_member(temp, spec.var, slab=SLAB_FALLBACK)
                if clamp is not None:
                    backend = backend_for(temp, dst_rank)
                    entry = clamps.setdefault(id(backend), (backend, []))
                    entry[1].append(clamp)
                dst_pd = ig.dst_patch.data(spec.var.name)
                member = spec.refine_op.batch_member(
                    temp, dst_pd, ig.region, ratio)
                member.slab = SLAB_FALLBACK
                if ghost:
                    member.marks = (
                        ("stamp", dst_pd,
                         [sp.data(spec.var.name) for sp, _ in ig.sources]),)
                backend = backend_for(dst_pd, dst_rank)
                entry = refines.setdefault(id(backend), (backend, []))
                entry[1].append(member)
        for backend, members in clamps.values():
            backend.run_batched("pdat.copy", members)
        for backend, members in refines.values():
            backend.run_batched("geom.refine", members, ghost_only=ghost)
        for _, temps, _, _ in entries:
            free_temps(temps)

    def _apply_boundary_batched(self, variables, ranks) -> None:
        """One ``update_halo`` launch per rank over its boundary patches."""
        groups: dict[int, tuple[object, list]] = {}
        for dst in self.dst_level:
            member = self.boundary.batch_member(dst, variables)
            if member is None:
                continue
            member.slab = SLAB_FALLBACK
            backend = backend_for(member.writes[0], ranks[dst.owner])
            entry = groups.setdefault(id(backend), (backend, []))
            entry[1].append(member)
        for backend, members in groups.values():
            backend.run_batched("hydro.update_halo", members, ghost_only=True)

    def _fused_refine(self, specs, temps, ig: _InterpGeom, dst_rank) -> None:
        """One refine launch covering every variable of the signature."""
        ratio = self.dst_level.ratio_to_coarser
        if self.batch:
            # Scheduler path: the surrounding fill.refine task declares the
            # union of operands; one batched launch replaces the
            # per-variable (or homogeneous-op fused) launches.
            members = [
                spec.refine_op.batch_member(
                    temp, ig.dst_patch.data(spec.var.name), ig.region, ratio)
                for spec, temp in zip(specs, temps)
            ]
            for member in members:
                member.slab = SLAB_FALLBACK
            backend_for(temps[0], dst_rank).run_batched("geom.refine", members)
            return
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

    # Backwards-compatible views used by a few tests.
    @property
    def copies(self):
        return [t for _, g in self.items for t in g.copies]

    @property
    def interps(self):
        return [t for _, g in self.items for t in g.interps]
