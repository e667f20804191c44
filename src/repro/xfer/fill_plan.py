"""Compiled ghost fills: what every fill schedule executes and charges.

Between regrids a fill schedule's levels, boxes and arenas cannot change
(``ScheduleCache`` hands back the same schedule object until a level is
rebuilt), so :func:`compile_fill` turns a
:class:`~repro.xfer.refine_schedule.RefineSchedule`'s transactions into
flat indices into the arenas' slabs (:mod:`repro.exec.plan`) once, and
:class:`FillPlan` replays them.  Indices do not care about shapes, so a
ragged level compiles like a uniform one.

The index arrays depend on the transaction geometry and the arena
*layout* only, so they live on the shared
:class:`~repro.xfer.refine_schedule.FillGeometry`, compiled from its
patch-index and corner arrays and each level's per-patch arena offsets
(``member_frames``): per owner (or owner pair) every transaction's
points back to back, with per-transaction bounds, so any run of
transactions is a slice.  The schedule's ``batch`` picks only how the
plan cuts them into launches, messages and scratch allocations:
level-wide (one ``fill.copy`` per owner, one stream per rank pair, one
interpolation unit with one scratch slab per rank, one launch per
backend) or per patch, the paper's Fig. 9-11 shape (one copy per
destination patch, one stream per patch pair, one unit and scratch per
region, one halo launch per boundary patch).  Those cuts and units are
made once per geometry and grouping, on the geometry's flat form; a
schedule's :class:`FillPlan` only binds them to its variables' arenas,
stencils and halo members, and dies with the schedule.  Either way the
same kernels run over the same elements with the same declared
operands, so fields are bitwise the same.  Each coarse block in a
scratch slab is a :class:`~repro.exec.plan.ScratchBlock` token in
declarations; tokens, item lists and their boxes are made only when the
sanitizer, a graph recorder or a backend charging its operands walks
them.

A level-wide plan is what a fill executes, whatever the schedule's
grouping.  A per-patch schedule charges the paper's shape from
:class:`~repro.gpu.ledger.ChargeLedger` rows :func:`per_patch_rows` reads
off the geometry's sizes; its per-patch plan is compiled only to be
recorded as tasks (``RefineSchedule.emit_tasks``).
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

import numpy as np

from ..comm.simcomm import Message
from ..exec.backend import backend_for, slab_of
from ..exec.batch import BatchMember, LaunchBatcher
from ..exec.plan import (
    CopyPlan,
    Lazy,
    Scratch,
    ScratchBlock,
    StreamPlan,
    level_arenas,
    member_frames,
    ravel_index,
)
from ..geom.interp_math import flat_refine_terms
from ..geom.operators import RefineOperator
from ..gpu.ledger import ChargeLedger
from ..mesh.box import Box
from ..mesh.box_array import BoxArray, box_points
from ..sched.task import TaskKind
from .message import MESSAGE_HEADER_BYTES
from .overlap import index_box_for

if TYPE_CHECKING:  # pragma: no cover
    from ..exec.batch import StepParams
    from .refine_schedule import FillGeometry, RefineSchedule

__all__ = ["FillPlan", "MixedRefineError", "compile_fill", "per_patch_rows"]


class MixedRefineError(TypeError):
    """A per-patch fill whose centring group mixes refine operator types:
    the per-patch shape interpolates a region's variables in one launch,
    which needs one operator."""


def _bounds(which, n: int) -> np.ndarray:
    """Where each of ``n`` items' points start in a point list whose point
    ``p`` belongs to item ``which[p]`` (items in order), and its end."""
    out = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(which, minlength=n), out=out[1:])
    return out


def _ranges(start, stop) -> np.ndarray:
    """``start[i]:stop[i]`` for every ``i``, back to back."""
    sizes = stop - start
    ends = np.cumsum(sizes)
    return np.arange(ends[-1] if len(ends) else 0, dtype=np.intp) + np.repeat(
        start - (ends - sizes), sizes)


def _first_use(keys) -> tuple[np.ndarray, np.ndarray]:
    """``(distinct keys in first-use order, each element's rank among
    them)``."""
    distinct, first, inverse = np.unique(keys, return_index=True,
                                         return_inverse=True)
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first, kind="stable")] = np.arange(len(first))
    return distinct[np.argsort(first, kind="stable")], rank[inverse]


def _runs(key, pos) -> tuple:
    """Transactions (in geometry order) cut by ``key``: the groups in the
    order they first need a transaction, each group's transactions as
    runs of consecutive positions ``pos`` of one owner's (owner pair's)
    list.  Returns ``(key, p0, p1)`` arrays, one row per run."""
    _, group = _first_use(key)
    order = np.argsort(group, kind="stable")
    g, p = group[order], pos[order]
    cut = np.ones(len(p), dtype=bool)
    cut[1:] = (g[1:] != g[:-1]) | (p[1:] != p[:-1] + 1)
    starts = np.flatnonzero(cut)
    ends = np.append(starts[1:], len(p)) - 1
    return key[order][starts], p[starts], p[ends] + 1


# -- per geometry: the index arrays, whatever the grouping ------------------------


class _FlatCopies:
    """One kind of a geometry's copies, same-rank (``local``) or
    cross-rank, as the lists a grouping cuts: each owner's (owner
    pair's) transactions in geometry order, the lists back to back --
    transaction ``tx[i]`` of list ``where[i]`` -- with ``into`` /
    ``frm`` the destination and source arena indices of their points and
    ``bounds`` per transaction.  ``pos`` places the kind's transactions,
    taken in geometry order, in those lists."""

    __slots__ = ("geom", "local", "n", "tx", "where", "pos", "into", "frm",
                 "bounds")

    def __init__(self, geom: "FillGeometry", local: bool, dst, src):
        self.geom, self.local = geom, local
        d_own = geom.dst_level.owners[geom.copy_dst]
        s_own = (geom.src_level.owners[geom.copy_src] if len(d_own)
                 else d_own)
        #: owner pairs are coded ``src * n + dst``
        self.n = n = int(max(d_own.max(initial=0), s_own.max(initial=0))) + 1
        tx = np.flatnonzero((s_own == d_own) == local)
        where = d_own[tx] if local else s_own[tx] * n + d_own[tx]
        order = np.argsort(where, kind="stable")
        self.tx = tx = tx[order]
        self.where = where[order]
        self.pos = np.empty(len(tx), dtype=np.intp)
        self.pos[order] = np.arange(len(tx))
        which, coords = box_points(geom.copy_box[tx])
        self.into = ravel_index(*dst, geom.copy_dst[tx][which], coords)
        self.frm = (ravel_index(*src, geom.copy_src[tx][which], coords)
                    if len(tx) else self.into)
        self.bounds = _bounds(which, len(tx))

    def cut(self, fused: bool) -> list:
        """``(key, owner or owner pair, transactions, into, frm)`` per run
        of the grouping's cut, ``key`` the owner or owner pair
        (``fused``), else the destination patch or patch pair."""
        geom, tx = self.geom, np.sort(self.tx)
        if not len(tx):
            return []
        s, d = geom.copy_src[tx], geom.copy_dst[tx]
        base = self.n if fused else len(geom.dst_level)
        if fused:
            d, s = geom.dst_level.owners[d], geom.src_level.owners[s]
        keys, p0, p1 = _runs(d if self.local else s * base + d, self.pos)
        out = []
        for k, w, a, b in zip(keys.tolist(), self.where[p0].tolist(),
                              p0.tolist(), p1.tolist()):
            if not self.local:
                k, w = divmod(k, base), divmod(w, self.n)
            lo, hi = self.bounds[a], self.bounds[b]
            out.append((k, w, self.tx[a:b], self.into[lo:hi],
                        self.frm[lo:hi]))
        return out


class _FlatInterp:
    """One owner's share of a geometry's interpolations: its regions, in
    geometry order, with their coarse blocks back to back in a segment of
    a variable's scratch (block ``b`` at ``offsets[b]``), and every index
    array over all of them with per-region bounds."""

    __slots__ = ("geom", "regions", "offsets", "lowers", "shapes", "fine",
                 "sources", "blocks", "gather", "clamp", "clamped", "terms")

    def __init__(self, geom: "FillGeometry", regions, owner: int, fine,
                 coarse, coarse_owner, valid: Box):
        self.geom = geom
        #: the geometry's region numbers, in order
        self.regions = regions
        n = len(regions)
        frames = geom.interp_frame[regions]
        self.lowers = frames[:, 0]
        self.shapes = frames[:, 1] - frames[:, 0] + 1
        self.offsets = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(self.shapes.prod(axis=1), out=self.offsets[1:])
        #: (fine arena index, bounds) of every point of every region
        which, coords = box_points(geom.interp_box[regions])
        self.fine = (ravel_index(*fine, geom.interp_dst[regions][which],
                                 coords), _bounds(which, n))
        #: the regions' coarse sources (the geometry's numbers), region by
        #: region, and the block of each
        self.sources = sources = _ranges(geom.source_start[regions],
                                         geom.source_start[regions + 1])
        self.blocks = np.repeat(np.arange(n),
                                np.diff(geom.source_start)[regions])
        #: (segment index, coarse arena index, point bounds, source
        #: bounds) of the same-rank coarse sources, region by region
        mine = coarse_owner[geom.source_patch[sources]] == owner
        self.gather = None
        if mine.any():
            sources, blocks = sources[mine], self.blocks[mine]
            which, coords = box_points(geom.source_box[sources])
            self.gather = (
                self.ravel(blocks[which], coords),
                ravel_index(*coarse, geom.source_patch[sources][which],
                            coords),
                _bounds(blocks[which], n), _bounds(blocks, n))
        self._compile_clamp(frames, valid)
        self.terms: dict = {}   # stencil -> (gather, weights)

    def ravel(self, blocks, coords) -> np.ndarray:
        """Segment index of points of coarse blocks (``ravel_index``)."""
        return ravel_index(self.offsets[:-1], self.lowers, self.shapes,
                           blocks, coords)

    def _compile_clamp(self, frames, valid: Box) -> None:
        """Zero-gradient extension of every block poking out of the coarse
        domain as one in-segment index pair with per-region bounds: each
        element outside ``valid`` takes the nearest valid element's
        value."""
        valid = BoxArray.from_boxes([valid])
        #: the blocks poking out, in order
        self.clamped = np.flatnonzero(~valid.contains(BoxArray._of(frames)))
        self.clamp = None
        if not len(self.clamped):
            return
        inside = BoxArray._of(frames[self.clamped]).intersect(valid)
        if inside.is_empty().any():
            raise ValueError("no valid region to extend from")
        which, coords = box_points(frames[self.clamped])
        lower, upper = inside.lower[which], inside.upper[which]
        clipped = [np.clip(c, lower[:, axis], upper[:, axis])
                   for axis, c in enumerate(coords)]
        outside = np.zeros(len(which), dtype=bool)
        for c, k in zip(coords, clipped):
            outside |= c != k
        blocks = self.clamped[which[outside]]
        self.clamp = (self.ravel(blocks, [c[outside] for c in coords]),
                      self.ravel(blocks, [k[outside] for k in clipped]),
                      _bounds(blocks, len(frames)))

    def refine_terms(self, stencil, ratio) -> None:
        """``flat_refine_terms`` of every region's points against the
        segment layout, once per stencil."""
        if stencil not in self.terms:
            which, (f0, f1) = box_points(self.geom.interp_box[self.regions])
            origin = (self.offsets[:-1] - self.lowers[:, 0] * self.shapes[:, 1]
                      - self.lowers[:, 1])
            self.terms[stencil] = flat_refine_terms(
                stencil, f0, f1, ratio, origin[which], self.shapes[which, 1])


class _FlatGeometry:
    """A ``FillGeometry`` as index arrays, for one arena layout, and its
    cuts and units per grouping (:meth:`skeleton`)."""

    __slots__ = ("geom", "layouts", "local", "remote_copies", "interps",
                 "remote", "_skeletons")

    def __init__(self, geom: "FillGeometry", var, layouts):
        """Compile ``geom`` against the arenas of variable ``var`` (the
        indices serve every variable whose arenas share ``layouts``).
        The geometry keeps its flat form; the flat form and its parts
        refer back to it weakly, so a purged geometry is freed at once,
        not by the cycle collector."""
        self.geom = geom = weakref.proxy(geom)
        self.layouts = layouts
        self._skeletons: dict = {}
        dst_level, src_level = geom.dst_level, geom.src_level
        dst = member_frames(dst_level, var)
        src = (dst if src_level is dst_level
               else member_frames(src_level, var) if len(geom.copy_dst)
               else None)
        #: same-rank copies by destination owner, cross-rank ones by
        #: (source owner, destination owner)
        self.local = _FlatCopies(geom, True, dst, src)
        self.remote_copies = _FlatCopies(geom, False, dst, src)
        #: owner -> _FlatInterp, in first-region order
        self.interps: dict = {}
        #: (src owner, dst owner) -> (sources, blocks, pack index, unpack
        #: index, bounds): every cross-rank coarse source between two
        #: ranks, in geometry order, its block in the dst owner's segment
        #: layout; the unpack index is into that layout
        self.remote: dict = {}
        if not len(geom.interp_dst):
            return
        coarse_level = geom.coarse_level
        coarse = member_frames(coarse_level, var)
        coarse_owner = coarse_level.owners
        valid = index_box_for(var, coarse_level.domain)
        owner = dst_level.owners[geom.interp_dst]
        owners, _ = _first_use(owner)
        for d in owners.tolist():
            self.interps[d] = _FlatInterp(geom, np.flatnonzero(owner == d), d,
                                          dst, coarse, coarse_owner, valid)
        pairs: dict = {}
        for d, fi in self.interps.items():
            s = coarse_owner[geom.source_patch[fi.sources]]
            for s_owner in _first_use(s[s != d])[0].tolist():
                pairs[s_owner, d] = (fi.sources[s == s_owner],
                                     fi.blocks[s == s_owner])
        for (s, d), (sources, blocks) in pairs.items():
            which, coords = box_points(geom.source_box[sources])
            self.remote[s, d] = (
                sources, blocks,
                ravel_index(*coarse, geom.source_patch[sources][which],
                            coords),
                self.interps[d].ravel(blocks[which], coords),
                _bounds(which, len(sources)))

    def skeleton(self, fused: bool) -> tuple:
        """``(copies, streams, units)``, how one grouping cuts the
        geometry whatever the variables (made on first use):

        * ``copies`` / ``streams``: :meth:`_FlatCopies.cut` of the
          same-rank / cross-rank copies;
        * ``units``: per interpolation unit (the level; one region)
          ``(key, parts, gathering owners, clamping owners, streams)``,
          with ``parts`` ``(owner, b0, b1)`` and ``streams`` ``(owner
          pair, i0, i1, owner)`` runs of that pair's cross-rank sources,
          each an own stream per rank pair or per source."""
        skeleton = self._skeletons.get(fused)
        if skeleton is None:
            skeleton = self._skeletons[fused] = (
                self.local.cut(fused), self.remote_copies.cut(fused),
                self._units(fused))
        return skeleton

    def _units(self, fused: bool) -> list:
        """The interpolation units of :meth:`skeleton`, region by region
        in geometry order."""
        geom, units = self.geom, {}
        block: dict = {}  # owner -> its next region
        seen: dict = {}   # owner pair -> its next cross-rank source
        owners = geom.dst_level.owners[geom.interp_dst].tolist()
        for r, d in enumerate(owners):
            fi = self.interps[d]
            b = block[d] = block.get(d, -1) + 1
            parts, gathers, clamps, streams = units.setdefault(
                None if fused else r, ({}, {}, {}, {}))
            parts.setdefault(d, [b, b])[1] = b + 1
            if fi.gather is not None and fi.gather[3][b + 1] > fi.gather[3][b]:
                gathers.setdefault(d)
            if fi.clamp is not None and fi.clamp[2][b + 1] > fi.clamp[2][b]:
                clamps.setdefault(d)
            lo, hi = geom.source_start[r], geom.source_start[r + 1]
            for j, src in enumerate(geom.coarse_level.owners[
                    geom.source_patch[lo:hi]].tolist()):
                if src != d:
                    i = seen[src, d] = seen.get((src, d), -1) + 1
                    streams.setdefault((src, d) if fused else j,
                                       [(src, d), i, i, d])[2] = i + 1
        return [(key, [(d, *p) for d, p in parts.items()], list(gathers),
                 list(clamps), [tuple(run) for run in streams.values()])
                for key, (parts, gathers, clamps, streams) in units.items()]


def _flat_geometry(sched: "RefineSchedule", geom: "FillGeometry", spec):
    """``(flat geometry, dst arenas, src arenas, coarse arenas)`` for one
    variable, compiling the geometry's flat form if its cached one was
    made for another arena layout."""
    name = spec.var.name
    dst = level_arenas(sched.dst_level, name)
    src = (dst if sched.src_level is sched.dst_level
           else level_arenas(sched.src_level, name) if sched.src_level else {})
    coarse = (level_arenas(sched.coarse_level, name)
              if len(geom.interp_dst) else {})
    layouts = tuple(tuple((o, a.layout) for o, a in arenas.items())
                    for arenas in (dst, src, coarse))
    flat = geom.flat
    if flat is None or flat.layouts != layouts:
        flat = geom.flat = _FlatGeometry(geom, spec.var, layouts)
    return flat, dst, src, coarse


# -- per schedule: indices cut into launches and bound to variables ---------------


class _Bound:
    """One variable's side of one owner's interpolations: its arenas, its
    stencil (whose terms it compiles on ``fi``) and, made when first
    declared, one ``ScratchBlock`` per region (the temporary's stand-in)."""

    __slots__ = ("name", "fi", "space", "stencil", "coarse", "coarse_arena",
                 "fine_arena", "_blocks")

    def __init__(self, spec, fi: _FlatInterp, ratio, space, coarse: dict,
                 fine_arena, owner: int):
        self.name = spec.var.name
        self.fi = fi
        self.space = space
        self.stencil = spec.refine_op.stencil_for(spec.var)
        fi.refine_terms(self.stencil, ratio)
        #: the coarse level's arenas by owner; this owner's
        self.coarse = coarse
        self.coarse_arena = coarse.get(owner)
        self.fine_arena = fine_arena
        self._blocks = None

    def block(self, b: int) -> ScratchBlock:
        """Region ``b``'s token, made on first use."""
        blocks = self._blocks
        if blocks is None:
            blocks = self._blocks = [None] * len(self.fi.regions)
        token = blocks[b]
        if token is None:
            offsets = self.fi.offsets
            token = blocks[b] = ScratchBlock(
                f"_tmp_{self.name}", 8 * int(offsets[b + 1] - offsets[b]),
                self.space)
        return token

    def blocks(self, b0: int, b1: int):
        for b in range(b0, b1):
            yield self.block(b)

    def fine_pds(self, b0: int, b1: int):
        """The distinct patch data regions ``b0 .. b1 - 1`` refine."""
        geom = self.fi.geom
        patches = geom.dst_level.patches
        for d in dict.fromkeys(geom.interp_dst[self.fi.regions[b0:b1]].tolist()):
            yield patches[d].data(self.name)


class _Segment:
    """One variable's coarse blocks in a unit's scratch on one rank: a
    contiguous range of the rank's slab."""

    __slots__ = ("bound", "lo", "hi")

    def __init__(self, bound: _Bound, lo: int, hi: int):
        self.bound = bound
        self.lo = lo
        self.hi = hi

    def store(self, scratch: Scratch):
        return scratch.segment(self.lo, self.hi)


class _Part:
    """Regions ``b0 .. b1 - 1`` of one owner's interpolations for one
    centring group, inside one unit: one segment per variable."""

    __slots__ = ("fi", "b0", "b1", "binds", "segments")

    def __init__(self, fi: _FlatInterp, b0: int, b1: int, binds):
        self.fi = fi
        self.b0, self.b1 = b0, b1
        self.binds = binds
        self.segments: list[_Segment] = []

    def cut(self, index, bounds, shift: bool = False) -> np.ndarray:
        """The part's points of a per-region index array; segment indices
        (``shift``) move down to the part's first block."""
        out = index[..., bounds[self.b0]:bounds[self.b1]]
        return out - self.fi.offsets[self.b0] if shift and self.b0 else out


class _RankInterp:
    """Everything one rank interpolates in one unit."""

    __slots__ = ("rank", "backend", "size", "parts", "gathered")

    def __init__(self, rank, backend):
        self.rank = rank
        self.backend = backend
        self.size = 0
        #: one per centring group, in schedule order
        self.parts: list[_Part] = []
        #: the ``fill.gather`` copy's items, walked only to declare them
        #: (not a bound method: the unit must not refer to itself)
        self.gathered = Lazy(_gather_items, self.parts, rank.index)

    def layout(self) -> None:
        """Lay every part's variables out back to back in the slab."""
        for part in self.parts:
            size = int(part.fi.offsets[part.b1] - part.fi.offsets[part.b0])
            part.segments = [_Segment(bound, self.size + k * size,
                                      self.size + (k + 1) * size)
                             for k, bound in enumerate(part.binds)]
            self.size += size * len(part.binds)

    def each(self):
        """``(part, block number, geometry region)`` in region order."""
        for part in self.parts:
            regions = part.fi.regions
            for b in range(part.b0, part.b1):
                yield part, b, int(regions[b])

    def blocks(self):
        """Every temporary's token: what the unit's free writes."""
        for part in self.parts:
            for seg in part.segments:
                yield from seg.bound.blocks(part.b0, part.b1)

    def fine_pds(self):
        """Every patch data the unit refines, once."""
        return iter(dict.fromkeys(
            pd for part in self.parts for seg in part.segments
            for pd in seg.bound.fine_pds(part.b0, part.b1)))

    def gather(self, scratch: Scratch) -> CopyPlan:
        """The ``fill.gather`` copy: same-rank coarse data into scratch
        (its sizes from the compiled bounds)."""
        groups, count, total = [], 0, 0
        for part in self.parts:
            if part.fi.gather is None:
                continue
            into, frm, bounds, items = part.fi.gather
            n = len(part.segments)
            count += int(items[part.b1] - items[part.b0]) * n
            total += int(bounds[part.b1] - bounds[part.b0]) * n
            into, frm = part.cut(into, bounds, True), part.cut(frm, bounds)
            groups.extend((seg.store(scratch), seg.bound.coarse_arena,
                           into, frm) for seg in part.segments)
        return CopyPlan(self.gathered, count, total, groups,
                        Lazy(_gather_items, self.parts, self.rank.index,
                             False))

    def _clamped(self, fused: bool) -> list:
        """``(part, segments)`` of each clamp launch: one for the rank, or
        one per variable of every part with blocks poking out."""
        parts = [part for part in self.parts if part.fi.clamp is not None]
        if fused:
            return [[(part, part.segments) for part in parts]]
        return [[(part, [seg])] for part in parts for seg in part.segments]

    def clamp_members(self, scratch: Scratch, fused: bool) -> list:
        """The clamp ``pdat.copy`` launches' members, the zero-gradient
        extension of every block poking out of the coarse domain, in
        scratch: one member for the rank, or one per variable."""
        return [_clamp_of(scratch, parts) for parts in self._clamped(fused)]

    def refine_elements(self) -> int:
        """The element count of the ``geom.refine`` launch."""
        return sum(int(part.fi.fine[1][part.b1] - part.fi.fine[1][part.b0])
                   * len(part.segments) for part in self.parts)

    def refine_member(self, scratch: Scratch, ratio, marked: bool,
                      fused: bool) -> BatchMember:
        """The ``geom.refine`` launch's member: every variable's stencil
        over every region's points (halo stamps when ``marked``).  It
        stands for one launch per region and variable when ``fused``,
        else for the one launch of its one region."""
        ops, count = [], 0
        for part in self.parts:
            index, bounds = part.fi.fine
            index = part.cut(index, bounds)
            for seg in part.segments:
                bound = seg.bound
                gather, weights = part.fi.terms[bound.stencil]
                ops.append((bound.stencil, seg.store(scratch),
                            Lazy(bound.blocks, part.b0, part.b1),
                            bound.fine_arena,
                            Lazy(bound.fine_pds, part.b0, part.b1),
                            part.cut(gather, bounds, True),
                            tuple(part.cut(w, bounds) for w in weights),
                            index))
            regions = part.b1 - part.b0
            count += regions * (len(part.segments) if fused else 1)
        marks = self._marks() if marked else ()
        return RefineOperator.batch_member(ops, self.refine_elements(), count,
                                           reads=Lazy(self.blocks),
                                           writes=Lazy(self.fine_pds),
                                           marks=marks)

    def _marks(self) -> list:
        """The halo stamps of the refined regions (sanitizer only)."""
        marks = []
        for part, _, r in self.each():
            geom = part.fi.geom
            dst = geom.dst_level.patches[geom.interp_dst[r]]
            lo, hi = geom.source_start[r], geom.source_start[r + 1]
            sources = [geom.coarse_level.patches[s]
                       for s in geom.source_patch[lo:hi].tolist()]
            marks.extend(("stamp", dst.data(seg.bound.name),
                          [sp.data(seg.bound.name) for sp in sources])
                         for seg in part.segments)
        return marks


def _gather_items(parts, owner: int, regions: bool = True):
    """The ``fill.gather`` copy's items: every same-rank coarse source of
    the parts' regions, per variable (regions None unless ``regions``)."""
    for part in parts:
        geom = part.fi.geom
        for b in range(part.b0, part.b1):
            r = part.fi.regions[b]
            lo, hi = geom.source_start[r], geom.source_start[r + 1]
            for s, (a, z) in zip(geom.source_patch[lo:hi].tolist(),
                                 geom.source_box[lo:hi].tolist()):
                src = geom.coarse_level.patches[s]
                if src.owner == owner:
                    for seg in part.segments:
                        yield (seg.bound.block(b), src.data(seg.bound.name),
                               Box(a, z) if regions else None)


def _tokens(clamped):
    """The tokens of ``(segments, blocks)`` pairs, block by block."""
    for segments, blocks in clamped:
        for b in blocks:
            for seg in segments:
                yield seg.bound.block(b)


def _clamp_of(scratch: Scratch, parts) -> BatchMember:
    """One clamp member over the blocks of ``(part, segments)`` poking
    out of the coarse domain."""
    ops, clamped, elements, count = [], [], 0, 0
    for part, segments in parts:
        into, frm, bounds = part.fi.clamp
        offsets = part.fi.offsets
        blocks = [b for b in part.fi.clamped.tolist()
                  if part.b0 <= b < part.b1]
        into, frm = part.cut(into, bounds, True), part.cut(frm, bounds, True)
        ops.extend((seg.store(scratch), Lazy(_tokens, [((seg,), blocks)]),
                    into, frm) for seg in segments)
        clamped.append((segments, blocks))
        elements += len(segments) * sum(int(offsets[b + 1] - offsets[b])
                                        for b in blocks)
        count += len(blocks) * len(segments)

    def body():
        for store, blocks, into, frm in ops:
            flat = slab_of(store, blocks)
            flat[into] = flat[frm]

    declared = Lazy(_tokens, clamped)
    return BatchMember(elements, body, reads=declared, writes=declared,
                       count=count)


class _Interp:
    """One interpolation unit: the whole level (level-wide) or one region
    (per patch).  Its scratch lives from the unit's gathers to its
    free."""

    __slots__ = ("fused", "ranks", "gather_first", "clamp_first", "gathers")

    def __init__(self, fused: bool):
        self.fused = fused
        #: rank index -> _RankInterp, in first-region order; the ranks
        #: that gather from their own coarse data / that clamp, in the
        #: order the geometry first needs them to
        self.ranks: dict[int, _RankInterp] = {}
        self.gather_first: dict = {}
        self.clamp_first: dict = {}
        #: cross-rank coarse sources: (src rank, dst interp, pack
        #: StreamPlan, unpack StreamPlan over unbound ``_Segment`` stores)
        self.gathers: list = []

    def replay(self, sink, level: int, ratio, ghost: bool,
               checking: bool) -> None:
        """Gather coarse blocks into per-rank scratch, clamp, refine,
        free.  Whatever raises while the unit is issued, no scratch
        outlives the call."""
        scratch = {}
        try:
            for index, ri in self.ranks.items():
                scratch[index] = sink.scratch(ri.backend.space, ri.size)
            for src_rank, ri, pack, unpack in self.gathers:
                mine = scratch[ri.rank.index]
                bound = StreamPlan(unpack.items, unpack.count, unpack.total,
                                   [(seg.store(mine), index, where)
                                    for seg, index, where in unpack.groups],
                                   unpack._columns)
                sink.stream_batch(src_rank, ri.rank, pack, bound,
                                  f"fill.interp.L{level}")
            for index in self.gather_first:
                ri = self.ranks[index]
                sink.copy(ri.rank, ri.gather(scratch[index]), "fill.gather")
            clamps = LaunchBatcher(self.fused)
            for index in self.clamp_first:
                ri = self.ranks[index]
                for member in ri.clamp_members(scratch[index], self.fused):
                    clamps.collect(ri.backend, ri.rank, "pdat.copy", member)
            sink.flush_fusion(clamps)
            refines = LaunchBatcher(self.fused)
            for index, ri in self.ranks.items():
                refines.collect(
                    ri.backend, ri.rank, "geom.refine",
                    ri.refine_member(scratch[index], ratio,
                                     ghost and checking, self.fused),
                    ghost_only=ghost)
            sink.flush_fusion(refines)
            for index, ri in self.ranks.items():
                sink.add(TaskKind.FREE, index, "fill.free",
                         lambda _stream, mine=scratch[index]: mine.free(),
                         writes=Lazy(ri.blocks))
        except BaseException:
            for mine in scratch.values():
                mine.free()
            raise


class FillPlan:
    """One :class:`RefineSchedule`'s fill, compiled: its copies, message
    streams, interpolation units, halo launches and timestamp groups."""

    def __init__(self, level: int, ratio, fused: bool, names):
        self.level = level
        self.ratio = ratio
        self.fused = fused
        self.names = names
        #: (rank, CopyPlan) per group: the ``fill.copy`` launches
        self.copies: list = []
        #: (src rank, dst rank, pack StreamPlan, unpack StreamPlan) per
        #: group pair
        self.streams: list = []
        #: the interpolation units, in issue order
        self.interps: list[_Interp] = []
        #: (backend, rank, member) per boundary patch: its halo kernel
        self.halos: list = []
        #: (owner, patches) whose data one timestamp task stamps
        self.stamped: list = []

    def transfer(self, sink, ghost: bool, checking: bool) -> None:
        """Same-level copies, then coarse-level interpolation."""
        for rank, copy in self.copies:
            sink.copy(rank, copy, "fill.copy", ghost=ghost)
        for src_rank, dst_rank, pack, unpack in self.streams:
            sink.stream_batch(src_rank, dst_rank, pack, unpack,
                              f"fill.L{self.level}", ghost=ghost)
        for unit in self.interps:
            unit.replay(sink, self.level, self.ratio, ghost, checking)

    def finish(self, sink, params: "StepParams | None") -> None:
        """Physical boundary conditions, then the new timestamps: the
        ``time`` of ``params`` when the stamps run (none when None)."""
        halos = LaunchBatcher(self.fused)
        for backend, rank, member in self.halos:
            halos.collect(backend, rank, "hydro.update_halo", member,
                          ghost_only=True)
        sink.flush_fusion(halos)
        if params is None:
            return
        names = self.names
        for owner, patches in self.stamped:
            sink.add(TaskKind.HOST, owner, "fill.set_time",
                     lambda _stream, patches=patches: _set_times(
                         patches, names, params.time),
                     reads=Lazy(_patch_data, patches, names))


class _StreamPair:
    """One message stream being assembled: per variable, every
    transaction between its two ends back to back, in the order they are
    added — so one message, one pack and one unpack launch carry all of
    them, and each patch pair's items keep their geometry order.

    Entries are ``(variable name, segment, geometry, transactions)``:
    same-level copies (``segment`` None) with ``transactions`` an array
    of the geometry's copies, or coarse-source gathers, whose destination
    is scratch, with ``transactions`` ``(sources, blocks)`` arrays of the
    geometry's sources and their blocks of ``segment``."""

    def __init__(self, src: int, dst: int):
        self.src = src
        self.dst = dst
        self.pack: list = []     # (src store, index, where) per entry
        self.unpack: list = []   # (dst store, index, where) per entry
        self.named: list = []    # (variable name, segment, geometry, txs)
        self.count = 0
        self.total = 0

    def add(self, name, segment, geom, txs, src_store, frm, dst_store,
            into) -> None:
        where = slice(self.total, self.total + len(frm))
        self.pack.append((src_store, frm, where))
        self.unpack.append((dst_store, into, where))
        self.named.append((name, segment, geom, txs))
        self.count += len(txs if segment is None else txs[0])
        self.total += len(frm)

    def plans(self) -> tuple[StreamPlan, StreamPlan]:
        """The stream's pack and unpack plans."""
        return tuple(StreamPlan(Lazy(_stream_items, self.named, side),
                                self.count, self.total, groups,
                                Lazy(_stream_items, self.named, side, False))
                     for side, groups in ((0, self.pack), (1, self.unpack)))


def _rows(*columns):
    """The rows of parallel arrays, the first one made on its own: a
    plan's first item is asked for alone, on every fill (it selects the
    backend)."""
    for part in (slice(0, 1), slice(1, None)):
        yield from zip(*(column[part].tolist() for column in columns))


def _copy_items(named, regions: bool = True):
    """A copy plan's items (their regions None unless ``regions``)."""
    for name, geom, txs in named:
        src, dst = geom.src_level.patches, geom.dst_level.patches
        for s, d, (lo, hi) in _rows(geom.copy_src[txs], geom.copy_dst[txs],
                                    geom.copy_box[txs]):
            yield (dst[d].data(name), src[s].data(name),
                   Box(lo, hi) if regions else None)


def _stream_items(named, side: int, regions: bool = True):
    """The pack (``side`` 0) or unpack (1) items of a stream's entries
    (their regions None unless ``regions``)."""
    for name, segment, geom, txs in named:
        if segment is None:
            patches = (geom.src_level if side == 0 else geom.dst_level).patches
            index = (geom.copy_src if side == 0 else geom.copy_dst)[txs]
            boxes = geom.copy_box[txs]
        else:
            sources, blocks = txs
            patches = geom.coarse_level.patches
            index = geom.source_patch[sources] if side == 0 else blocks
            boxes = geom.source_box[sources]
        for i, (lo, hi) in _rows(index, boxes):
            pd = (patches[i].data(name) if side == 0 or segment is None
                  else segment.bound.block(i))
            yield pd, Box(lo, hi) if regions else None


def _patch_data(patches, names):
    for patch in patches:
        for name in names:
            yield patch.data(name)


def _set_times(patches, names, time: float) -> None:
    for pd in _patch_data(patches, names):
        pd.set_time(time)


def compile_fill(sched: "RefineSchedule", fused: bool) -> FillPlan:
    """The schedule's fill as a :class:`FillPlan`, grouped level-wide
    (``fused``) or per patch: the geometries' cuts and units for that
    grouping (made once per geometry) bound to the schedule's variables.
    Every level involved must be arena-pooled (what level allocation
    gives); a hand-built, per-patch-allocated one raises
    :class:`~repro.exec.plan.UnpooledLevelError` naming it."""
    ranks = sched.comm.ranks
    plan = FillPlan(sched.dst_level.level_number,
                    sched.dst_level.ratio_to_coarser, fused,
                    [spec.var.name for spec, _ in sched.items])
    bound = {spec: _flat_geometry(sched, geom, spec)
             for spec, geom in sched.items}

    # same-level copies: one plan per group, one stream per group pair;
    # the variables of one geometry share its cuts
    local: dict = {}    # group -> (owner, arena groups, named transactions)
    remote: dict = {}   # (src group, dst group) -> _StreamPair
    for spec, geom in sched.items:
        flat, dst, src, _ = bound[spec]
        name = spec.var.name
        copies, streams, _ = flat.skeleton(fused)
        for key, d, txs, into, frm in copies:
            entry = local.setdefault(key, (d, [], []))
            entry[1].append((dst[d], src[d], into, frm))
            entry[2].append((name, geom, txs))
        for key, (s, d), txs, into, frm in streams:
            pair = remote.get(key)
            if pair is None:
                pair = remote[key] = _StreamPair(s, d)
            pair.add(name, None, geom, txs, src[s], frm, dst[d], into)
    for owner, groups, named in local.values():
        plan.copies.append((ranks[owner], CopyPlan(
            Lazy(_copy_items, named), sum(len(txs) for *_, txs in named),
            sum(len(into) for _, _, into, _ in groups), groups,
            Lazy(_copy_items, named, False))))
    for pair in remote.values():
        plan.streams.append((ranks[pair.src], ranks[pair.dst],
                             *pair.plans()))

    # coarse-fine interpolation: units of regions — the level, or one
    # region — per rank one part per centring group; cross-rank coarse
    # sources one stream per rank pair or per source
    units: dict = {}    # unit key -> _Interp
    sources: dict = {}  # unit key -> stream key -> runs over an owner
    #                     pair's cross-rank sources
    for g, (geom, specs) in enumerate(sched.sig_groups):
        if not len(geom.interp_dst):
            continue
        flat = bound[specs[0]][0]
        binds: dict = {}  # owner -> one _Bound per variable
        for ukey, parts, gathers, clamps, streams in flat.skeleton(fused)[2]:
            key = None if fused else (g, ukey)
            unit = units.get(key)
            if unit is None:
                unit = units[key] = _Interp(fused)
            part_of = {}
            for d, b0, b1 in parts:
                fi = flat.interps[d]
                ri = unit.ranks.get(d)
                if ri is None:
                    rank = ranks[d]
                    dst_patch = geom.dst_level.patches[
                        geom.interp_dst[fi.regions[b0]]]
                    ri = unit.ranks[d] = _RankInterp(rank, backend_for(
                        dst_patch.data(specs[0].var.name), rank))
                if d not in binds:
                    binds[d] = [_Bound(spec, fi, plan.ratio,
                                       ri.backend.space, bound[spec][3],
                                       bound[spec][1][d], d)
                                for spec in specs]
                part = part_of[d] = _Part(fi, b0, b1, binds[d])
                ri.parts.append(part)
            for d in gathers:
                unit.gather_first.setdefault(d)
            for d in clamps:
                unit.clamp_first.setdefault(d)
            for pair, i0, i1, d in streams:
                sources.setdefault(key, {}).setdefault(
                    pair if fused else (pair, i0), []).append(
                    (flat, pair, i0, i1, part_of[d]))
    for unit in units.values():
        for ri in unit.ranks.values():
            ri.layout()
    for key, streams in sources.items():
        unit = units[key]
        for runs in streams.values():
            s, d = runs[0][1]
            stream = _StreamPair(s, d)
            for flat, pair, i0, i1, part in runs:
                these, blocks, frm, into, bounds = flat.remote[pair]
                lo, hi = bounds[i0], bounds[i1]
                txs, frm, into = ((these[i0:i1], blocks[i0:i1]),
                                  frm[lo:hi], into[lo:hi])
                if part.b0:  # into the part's segment, not the owner's
                    into = into - part.fi.offsets[part.b0]
                for seg in part.segments:
                    stream.add(seg.bound.name, seg, flat.geom, txs,
                               seg.bound.coarse[s], frm, seg, into)
            unit.gathers.append((ranks[s], unit.ranks[d], *stream.plans()))
    plan.interps = list(units.values())

    # physical boundaries and timestamps, per group
    variables = [spec.var for spec, _ in sched.items]
    stamped: dict = {}
    for dst in sched.dst_level:
        stamped.setdefault(dst.owner if fused else dst,
                           (dst.owner, []))[1].append(dst)
        member = (sched.boundary.batch_member(dst, variables)
                  if sched.boundary is not None else None)
        if member is not None:
            rank = ranks[dst.owner]
            plan.halos.append((backend_for(member.writes[0], rank), rank,
                               member))
    plan.stamped = list(stamped.values())
    return plan


# -- per-patch charges, from sizes ------------------------------------------------


def per_patch_rows(sched: "RefineSchedule", plan: FillPlan) -> tuple:
    """The ``(transfer, finish)`` ledger rows of the schedule's per-patch
    plan — what executing it through an immediate sink was charged: per
    destination patch one copy, per patch pair one stream, per region its
    scratch, cross-rank gathers, gather copy, clamps, refine and free,
    then per boundary patch its halo launch (``plan``'s, the same members
    in the same order) — read off the per-patch cuts and units of the
    geometries (compiled by ``plan``) and their point counts and bounds,
    without binding a variable."""
    transfer, finish = ChargeLedger(), ChargeLedger()
    name, backends = sched.items[0][0].var.name, {}

    def backend(patch):
        if patch not in backends:
            backends[patch] = backend_for(patch.data(name),
                                          sched.comm.ranks[patch.owner])
        return backends[patch]

    groups: tuple[dict, dict] = ({}, {})  # per patch, per patch pair
    for _, geom in sched.items:
        for into, cut in zip(groups, geom.flat.skeleton(False)):
            for key, _, txs, points, _ in cut:
                sizes = into.setdefault(key, [0, 0, 0])
                sizes[0] += len(txs)
                sizes[1] += len(points)
                sizes[2] += 1
    dst = sched.dst_level.patches
    for d, sizes in groups[0].items():
        backend(dst[d]).record_copy(transfer, *sizes)
    for (s, d), sizes in groups[1].items():
        _record_stream(transfer, backend(sched.src_level.patches[s]),
                       backend(dst[d]), *sizes)
    for geom, specs in sched.sig_groups:
        if len(geom.interp_dst):
            _record_regions(transfer, geom.flat, len(specs), backend)
    for be, _, member in plan.halos:
        be.record(finish, "hydro.update_halo", member.elements,
                  member.reads, member.writes)
    return transfer, finish


def _record_regions(ledger, flat: _FlatGeometry, k: int, backend) -> None:
    """The rows of a geometry's per-region units for a centring group of
    ``k`` variables, region by region: scratch, cross-rank gathers, the
    gather copy, a clamp per variable if the block pokes out of the
    coarse domain, the refine, the free."""
    geom = flat.geom
    for _, [(d, b, _)], gathers, clamps, streams in flat.skeleton(False)[2]:
        fi = flat.interps[d]
        be = backend(geom.dst_level.patches[geom.interp_dst[fi.regions[b]]])
        size = int(fi.offsets[b + 1] - fi.offsets[b])
        be.record_alloc(ledger, size * k)
        for pair, i, _, _ in streams:
            sources, _, _, _, bounds = flat.remote[pair]
            src = geom.coarse_level.patches[geom.source_patch[sources[i]]]
            _record_stream(ledger, backend(src), be, k,
                           int(bounds[i + 1] - bounds[i]) * k, k)
        if gathers:
            _, _, bounds, items = fi.gather
            be.record_copy(ledger, int(items[b + 1] - items[b]) * k,
                           int(bounds[b + 1] - bounds[b]) * k, k)
        for _ in range(k if clamps else 0):
            be.record(ledger, "pdat.copy", size)
        be.record(ledger, "geom.refine",
                  int(fi.fine[1][b + 1] - fi.fine[1][b]) * k)
        be.record_free(ledger, size * k)


def _record_stream(ledger, src, dst, count: int, total: int,
                   ops: int) -> None:
    """The rows one message stream through an immediate sink is charged
    as: the source's pack leg, the message, the destination's unpack
    leg."""
    src.record_pack(ledger, count, total, ops)
    ledger.message(Message(src.rank.index, dst.rank.index,
                           8 * total + MESSAGE_HEADER_BYTES))
    dst.record_unpack(ledger, count, total, ops)
