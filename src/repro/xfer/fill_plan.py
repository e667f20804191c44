"""Compiled ghost fills: the one executor of every fill schedule.

Between regrids a fill schedule's levels, boxes and arenas cannot change
(``ScheduleCache`` hands back the same schedule object until a level is
rebuilt), so :func:`compile_fill` turns a
:class:`~repro.xfer.refine_schedule.RefineSchedule`'s transactions into
flat indices into the arenas' slabs (:mod:`repro.exec.plan`) once, and
:class:`FillPlan` replays them.  Indices do not care about shapes, so a
ragged level compiles like a uniform one.

The index arrays depend on the transaction geometry and the arena
*layout* only, so they live on the shared
:class:`~repro.xfer.refine_schedule.FillGeometry`: per owner (or owner
pair) every transaction's points back to back, with per-transaction
bounds, so any run of transactions is a slice.  The schedule's ``batch``
picks only how the plan cuts them into launches, messages and scratch
allocations: level-wide (one ``fill.copy`` per owner, one stream per
rank pair, one interpolation unit with one scratch slab per rank, one
launch per backend) or per patch, the paper's Fig. 9-11 shape (one copy
per destination patch, one stream per patch pair, one unit and scratch
per region, one halo launch per boundary patch).  Either way the same
kernels run over the same elements with the same declared operands, so
fields are bitwise the same.  Each coarse block in a scratch slab is a
:class:`~repro.exec.plan.ScratchBlock` token in declarations.  A
schedule's :class:`FillPlan` binds the shared indices to its variables'
arenas and dies with it.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING

import numpy as np

from ..exec.backend import backend_for, slab_of
from ..exec.batch import BatchMember, LaunchBatcher
from ..exec.plan import (
    CopyPlan,
    Scratch,
    ScratchBlock,
    StreamPlan,
    flat_index,
    level_arenas,
    ravel_index,
)
from ..geom.interp_math import flat_refine_terms
from ..geom.operators import RefineOperator
from ..mesh.box_array import box_points
from ..sched.task import TaskKind
from .overlap import index_box_for

if TYPE_CHECKING:  # pragma: no cover
    from ..exec.batch import StepParams
    from .refine_schedule import FillGeometry, RefineSchedule

__all__ = ["FillPlan", "Lazy", "MixedRefineError", "compile_fill"]


class MixedRefineError(TypeError):
    """A per-patch fill whose centring group mixes refine operator types:
    the per-patch shape interpolates a region's variables in one launch,
    which needs one operator."""


class Lazy:
    """A re-iterable over ``make(*args)``: the item list of a compiled
    verb, generated only when something (the sanitizer, the graph
    recorder) walks it to declare operands.  The first item — what
    selects the backend on every replay — is kept."""

    __slots__ = ("make", "args", "first")

    def __init__(self, make, *args):
        self.make = make
        self.args = args
        self.first = next(iter(self), None)

    def __iter__(self):
        return self.make(*self.args)

    def __getitem__(self, i):
        return self.first if i == 0 else next(islice(iter(self), i, None))


def _bounds(which, n: int) -> np.ndarray:
    """Where each of ``n`` items' points start in a point list whose point
    ``p`` belongs to item ``which[p]`` (items in order), and its end."""
    out = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(which, minlength=n), out=out[1:])
    return out


def _compile(txs, name, *sides):
    """``(*indices, bounds)``: the points of ``(src patch, dst patch,
    region)`` transactions as flat arena indices into the patch data of
    each of ``sides`` (0: the sources, 1: the destinations)."""
    which, coords = box_points([region for *_, region in txs])
    return (*(flat_index([tx[side].data(name) for tx in txs], which, coords)
              for side in sides), _bounds(which, len(txs)))


def _extend(runs: dict, key, where, i: int, *extra) -> None:
    """Add item ``i`` of list ``where`` to group ``key``: extend the
    group's last run when ``i`` follows it in the same list, else start a
    new run ``[where, i, i + 1, *extra]``."""
    mine = runs.setdefault(key, [])
    if mine and mine[-1][0] == where and mine[-1][2] == i:
        mine[-1][2] = i + 1
    else:
        mine.append([where, i, i + 1, *extra])


# -- per geometry: the index arrays, whatever the grouping ------------------------


class _FlatInterp:
    """One owner's share of a geometry's interpolations: its regions, in
    geometry order, with their coarse blocks back to back in a segment of
    a variable's scratch (block ``b`` at ``offsets[b]``), and every index
    array over all of them with per-region bounds."""

    __slots__ = ("regions", "offsets", "lowers", "shapes", "fine", "gather",
                 "clamp", "clamped", "terms")

    def __init__(self, regions, name: str, valid):
        self.regions = regions
        frames = [ig.coarse_frame for ig in regions]
        n = len(regions)
        self.offsets = np.zeros(n + 1, dtype=np.intp)
        np.cumsum([f.size() for f in frames], out=self.offsets[1:])
        self.lowers = np.array([f.lower for f in frames], dtype=np.intp)
        self.shapes = np.array([f.shape() for f in frames], dtype=np.intp)
        #: (fine arena index, bounds) of every point of every region
        which, coords = box_points([ig.region for ig in regions])
        self.fine = (flat_index([ig.dst_patch.data(name) for ig in regions],
                                which, coords), _bounds(which, n))
        #: (segment index, coarse arena index, point bounds, source
        #: bounds) of the same-rank coarse sources, region by region
        owner = regions[0].dst_patch.owner
        mine = [(b, src.data(name), sub) for b, ig in enumerate(regions)
                for src, sub in ig.sources if src.owner == owner]
        self.gather = None
        if mine:
            which, coords = box_points([sub for *_, sub in mine])
            blocks = np.array([b for b, _, _ in mine], dtype=np.intp)
            self.gather = (self.ravel(blocks, which, coords),
                           flat_index([pd for _, pd, _ in mine], which, coords),
                           _bounds(blocks[which], n), _bounds(blocks, n))
        self._compile_clamp(frames, valid)
        self.terms: dict = {}   # stencil -> (gather, weights)

    def ravel(self, blocks, which, coords) -> np.ndarray:
        """Segment index of points of coarse blocks (``ravel_index``)."""
        return ravel_index(self.offsets[blocks], self.lowers[blocks],
                           self.shapes[blocks], which, coords)

    def _compile_clamp(self, frames, valid) -> None:
        """Zero-gradient extension of every block poking out of the coarse
        domain as one in-segment index pair with per-region bounds: each
        element outside ``valid`` takes the nearest valid element's
        value."""
        #: the blocks poking out, in order
        self.clamped = [b for b, f in enumerate(frames)
                        if not valid.contains_box(f)]
        self.clamp = None
        if not self.clamped:
            return
        inside = [frames[b].intersection(valid) for b in self.clamped]
        if any(v.is_empty() for v in inside):
            raise ValueError("no valid region to extend from")
        which, coords = box_points([frames[b] for b in self.clamped])
        lower = np.array([v.lower for v in inside], dtype=np.intp)[which]
        upper = np.array([v.upper for v in inside], dtype=np.intp)[which]
        clipped = [np.clip(c, lower[:, axis], upper[:, axis])
                   for axis, c in enumerate(coords)]
        outside = np.zeros(len(which), dtype=bool)
        for c, k in zip(coords, clipped):
            outside |= c != k
        blocks = np.asarray(self.clamped, dtype=np.intp)[which[outside]]
        points = np.arange(len(blocks), dtype=np.intp)
        self.clamp = (self.ravel(blocks, points, [c[outside] for c in coords]),
                      self.ravel(blocks, points, [k[outside] for k in clipped]),
                      _bounds(blocks, len(frames)))

    def refine_terms(self, stencil, ratio) -> None:
        """``flat_refine_terms`` of every region's points against the
        segment layout, once per stencil."""
        if stencil not in self.terms:
            which, (f0, f1) = box_points([ig.region for ig in self.regions])
            origin = (self.offsets[:-1] - self.lowers[:, 0] * self.shapes[:, 1]
                      - self.lowers[:, 1])
            self.terms[stencil] = flat_refine_terms(
                stencil, f0, f1, ratio, origin[which], self.shapes[which, 1])


class _FlatGeometry:
    """A ``FillGeometry`` as index arrays, for one arena layout."""

    __slots__ = ("layouts", "copies", "streams", "interps", "remote")

    def __init__(self, geom: "FillGeometry", name: str, var, coarse_level,
                 layouts):
        """Compile ``geom`` against the arenas of variable ``name`` (any
        variable ``var`` of the geometry's centring: the indices serve
        every variable whose arenas share ``layouts``)."""
        self.layouts = layouts
        local: dict = {}
        remote: dict = {}
        for tx in geom.copies:
            s, d = tx[0].owner, tx[1].owner
            (local.setdefault(d, []) if s == d
             else remote.setdefault((s, d), [])).append(tx)
        #: owner -> (transactions, dst index, src index, bounds): its
        #: same-rank copies in geometry order
        self.copies = {d: (txs, *_compile(txs, name, 1, 0))
                       for d, txs in local.items()}
        #: (src owner, dst owner) -> (transactions, pack index, unpack
        #: index, bounds): every copy between two ranks, in geometry order
        self.streams = {pair: (txs, *_compile(txs, name, 0, 1))
                        for pair, txs in remote.items()}
        #: owner -> _FlatInterp, in first-region order
        self.interps: dict = {}
        #: (src owner, dst owner) -> (sources, pack index, unpack index,
        #: bounds): every cross-rank coarse source between two ranks, in
        #: geometry order, as ``(src patch, block, sub-box)``; the unpack
        #: index is into the dst owner's segment layout
        self.remote: dict = {}
        if not geom.interps:
            return
        valid = index_box_for(var, coarse_level.domain)
        mine: dict = {}
        for ig in geom.interps:
            mine.setdefault(ig.dst_patch.owner, []).append(ig)
        self.interps = {d: _FlatInterp(regions, name, valid)
                        for d, regions in mine.items()}
        sources: dict = {}
        for d, fi in self.interps.items():
            for b, ig in enumerate(fi.regions):
                for src, sub in ig.sources:
                    if src.owner != d:
                        sources.setdefault((src.owner, d), []).append(
                            (src, b, sub))
        for (s, d), these in sources.items():
            which, coords = box_points([sub for *_, sub in these])
            self.remote[s, d] = (
                these,
                flat_index([p.data(name) for p, _, _ in these], which, coords),
                self.interps[d].ravel(
                    np.array([b for _, b, _ in these], dtype=np.intp)[which],
                    np.arange(len(which), dtype=np.intp), coords),
                _bounds(which, len(these)))


def _flat_geometry(sched: "RefineSchedule", geom: "FillGeometry", spec):
    """``(flat geometry, dst arenas, src arenas, coarse arenas)`` for one
    variable, compiling the geometry's flat form if its cached one was
    made for another arena layout."""
    name = spec.var.name
    dst = level_arenas(sched.dst_level, name)
    src = (dst if sched.src_level is sched.dst_level
           else level_arenas(sched.src_level, name) if sched.src_level else {})
    coarse = level_arenas(sched.coarse_level, name) if geom.interps else {}
    layouts = tuple(tuple((o, a.layout) for o, a in arenas.items())
                    for arenas in (dst, src, coarse))
    flat = geom.flat
    if flat is None or flat.layouts != layouts:
        flat = geom.flat = _FlatGeometry(geom, name, spec.var,
                                         sched.coarse_level, layouts)
    return flat, dst, src, coarse


# -- per schedule: indices cut into launches and bound to variables ---------------


class _Bound:
    """One variable's side of one owner's interpolations: its arenas, its
    stencil (whose terms it compiles on ``fi``), one ``ScratchBlock`` per
    region (the temporary's stand-in) and the patch data the regions
    refine."""

    __slots__ = ("name", "stencil", "coarse", "coarse_arena", "fine_arena",
                 "blocks", "fine_pds")

    def __init__(self, spec, fi: _FlatInterp, ratio, space, coarse: dict,
                 fine_arena):
        self.name = name = spec.var.name
        self.stencil = spec.refine_op.stencil_for(spec.var)
        fi.refine_terms(self.stencil, ratio)
        #: the coarse level's arenas by owner; this owner's
        self.coarse = coarse
        self.coarse_arena = coarse.get(fi.regions[0].dst_patch.owner)
        self.fine_arena = fine_arena
        label = f"_tmp_{name}"
        self.blocks = [ScratchBlock(label, 8 * ig.coarse_frame.size(), space)
                       for ig in fi.regions]
        self.fine_pds = tuple(dict.fromkeys(
            ig.dst_patch.data(name) for ig in fi.regions))


class _Segment:
    """One variable's coarse blocks in a unit's scratch on one rank: a
    contiguous range of the rank's slab."""

    __slots__ = ("bound", "blocks", "lo", "hi")

    def __init__(self, bound: _Bound, lo: int, hi: int):
        self.bound = bound
        self.blocks = bound.blocks
        self.lo = lo
        self.hi = hi

    def store(self, scratch: Scratch):
        return scratch.segment(self.lo, self.hi)


class _Part:
    """Regions ``b0 .. b1 - 1`` of one owner's interpolations for one
    centring group, inside one unit: one segment per variable."""

    __slots__ = ("fi", "b0", "b1", "binds", "segments")

    def __init__(self, fi: _FlatInterp, b: int, binds):
        self.fi = fi
        self.b0, self.b1 = b, b + 1
        self.binds = binds
        self.segments: list[_Segment] = []

    def cut(self, index, bounds, shift: bool = False) -> np.ndarray:
        """The part's points of a per-region index array; segment indices
        (``shift``) move down to the part's first block."""
        out = index[..., bounds[self.b0]:bounds[self.b1]]
        return out - self.fi.offsets[self.b0] if shift and self.b0 else out

    def fine_pds(self, seg: _Segment) -> tuple:
        if self.b0 == 0 and self.b1 == len(self.fi.regions):
            return seg.bound.fine_pds
        return tuple(dict.fromkeys(ig.dst_patch.data(seg.bound.name)
                                   for ig in self.fi.regions[self.b0:self.b1]))


class _RankInterp:
    """Everything one rank interpolates in one unit."""

    __slots__ = ("rank", "backend", "size", "parts")

    def __init__(self, rank, backend):
        self.rank = rank
        self.backend = backend
        self.size = 0
        #: one per centring group, in schedule order
        self.parts: list[_Part] = []

    def layout(self) -> None:
        """Lay every part's variables out back to back in the slab."""
        for part in self.parts:
            size = int(part.fi.offsets[part.b1] - part.fi.offsets[part.b0])
            part.segments = [_Segment(bound, self.size + k * size,
                                      self.size + (k + 1) * size)
                             for k, bound in enumerate(part.binds)]
            self.size += size * len(part.binds)

    def each(self):
        """``(part, block number, region)`` in region order."""
        for part in self.parts:
            for b in range(part.b0, part.b1):
                yield part, b, part.fi.regions[b]

    def blocks(self) -> list:
        """Every temporary's token: what the unit's free writes."""
        return [blk for part in self.parts for seg in part.segments
                for blk in seg.blocks[part.b0:part.b1]]

    def gather_items(self):
        owner = self.rank.index
        for part, b, ig in self.each():
            for src_patch, sub in ig.sources:
                if src_patch.owner == owner:
                    for seg in part.segments:
                        yield (seg.blocks[b],
                               src_patch.data(seg.bound.name), sub)

    def gather(self, scratch: Scratch) -> CopyPlan:
        """The ``fill.gather`` copy: same-rank coarse data into scratch."""
        groups, count, total = [], 0, 0
        for part in self.parts:
            if part.fi.gather is None:
                continue
            into, frm, bounds, items = part.fi.gather
            into, frm = part.cut(into, bounds, True), part.cut(frm, bounds)
            groups.extend((seg.store(scratch), seg.bound.coarse_arena,
                           into, frm) for seg in part.segments)
            count += int(items[part.b1] - items[part.b0]) * len(part.segments)
            total += len(into) * len(part.segments)
        return CopyPlan(Lazy(self.gather_items), count, total, groups)

    def clamp_members(self, scratch: Scratch, fused: bool) -> list:
        """The clamp ``pdat.copy`` launches' members, the zero-gradient
        extension of every block poking out of the coarse domain, in
        scratch: one member for the rank, or one per variable."""
        parts = [part for part in self.parts if part.fi.clamp is not None]
        if fused:
            return [_clamp_of(scratch, [(part, part.segments)
                                        for part in parts])]
        return [_clamp_of(scratch, [(part, [seg])])
                for part in parts for seg in part.segments]

    def refine_member(self, scratch: Scratch, ratio, marked: bool,
                      fused: bool) -> BatchMember:
        """The ``geom.refine`` launch's member: every variable's stencil
        over every region's points (halo stamps when ``marked``).  It
        stands for one launch per region and variable when ``fused``,
        else for the one launch of its one region."""
        ops, elements, count, fine_pds = [], 0, 0, {}
        for part in self.parts:
            index, bounds = part.fi.fine
            index = part.cut(index, bounds)
            for seg in part.segments:
                gather, weights = part.fi.terms[seg.bound.stencil]
                pds = part.fine_pds(seg)
                fine_pds.update(dict.fromkeys(pds))
                ops.append((seg.bound.stencil, seg.store(scratch),
                            seg.blocks[part.b0:part.b1], seg.bound.fine_arena,
                            pds, part.cut(gather, bounds, True),
                            tuple(part.cut(w, bounds) for w in weights),
                            index))
            regions = part.b1 - part.b0
            elements += len(index) * len(part.segments)
            count += regions * (len(part.segments) if fused else 1)
        marks = [("stamp", ig.dst_patch.data(seg.bound.name),
                  [sp.data(seg.bound.name) for sp, _ in ig.sources])
                 for part, _, ig in self.each()
                 for seg in part.segments] if marked else ()
        return RefineOperator.batch_member(ops, elements, count,
                                           reads=self.blocks(),
                                           writes=tuple(fine_pds),
                                           marks=marks)


def _clamp_of(scratch: Scratch, parts) -> BatchMember:
    """One clamp member over the clamped blocks of ``(part, segments)``."""
    ops, clamped, elements, count = [], [], 0, 0
    for part, segments in parts:
        fi = part.fi
        into, frm, bounds = fi.clamp
        blocks = [b for b in fi.clamped if part.b0 <= b < part.b1]
        into, frm = part.cut(into, bounds, True), part.cut(frm, bounds, True)
        ops.extend((seg.store(scratch), [seg.blocks[b] for b in blocks],
                    into, frm) for seg in segments)
        clamped.extend(seg.blocks[b] for b in blocks for seg in segments)
        size = sum(int(fi.offsets[b + 1] - fi.offsets[b]) for b in blocks)
        elements += size * len(segments)
        count += len(blocks) * len(segments)

    def body():
        for store, blocks, into, frm in ops:
            flat = slab_of(store, blocks)
            flat[into] = flat[frm]

    return BatchMember(elements, body, reads=clamped, writes=clamped,
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
                                    for seg, index, where in unpack.groups])
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
                         writes=ri.blocks())
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

    Entries are ``(variable name, segment, transactions)`` with
    transactions ``(src patch, dst, region)``: ``dst`` a patch, or — for
    a coarse-source gather, whose destination is scratch — a block
    number of ``segment``."""

    def __init__(self, src: int, dst: int):
        self.src = src
        self.dst = dst
        self.pack: list = []     # (src store, index, where) per entry
        self.unpack: list = []   # (dst store, index, where) per entry
        self.named: list = []    # (variable name, segment, transactions)
        self.count = 0
        self.total = 0

    def add(self, name, segment, txs, src_store, frm, dst_store,
            into) -> None:
        where = slice(self.total, self.total + len(frm))
        self.pack.append((src_store, frm, where))
        self.unpack.append((dst_store, into, where))
        self.named.append((name, segment, txs))
        self.count += len(txs)
        self.total += len(frm)

    def plans(self) -> tuple[StreamPlan, StreamPlan]:
        """The stream's pack and unpack plans."""
        return (StreamPlan(Lazy(_pack_items, self.named), self.count,
                           self.total, self.pack),
                StreamPlan(Lazy(_unpack_items, self.named), self.count,
                           self.total, self.unpack))


def _copy_items(named):
    for name, txs in named:
        for src, dst, region in txs:
            yield dst.data(name), src.data(name), region


def _pack_items(named):
    for name, _, txs in named:
        for src, _, region in txs:
            yield src.data(name), region


def _unpack_items(named):
    for name, segment, txs in named:
        for _, dst, region in txs:
            yield (dst.data(name) if segment is None
                   else segment.blocks[dst]), region


def _patch_data(patches, names):
    for patch in patches:
        for name in names:
            yield patch.data(name)


def _set_times(patches, names, time: float) -> None:
    for pd in _patch_data(patches, names):
        pd.set_time(time)


def _cut_copies(geom: "FillGeometry", flat: _FlatGeometry, group):
    """``geom``'s copies cut into runs by ``group`` (of a destination
    patch): ``(same-rank, cross-rank)`` lists of ``(group key, owner or
    owner pair, transactions, index, index)`` — the two index arrays in
    the order ``flat.copies`` / ``flat.streams`` hold them — in the order
    the groups first need them, each run a slice of one owner's (owner
    pair's) list."""
    runs: tuple[dict, dict] = ({}, {})  # same-rank, cross-rank
    seen: dict = {}
    for s_patch, d_patch, _ in geom.copies:
        s, d = s_patch.owner, d_patch.owner
        where = d if s == d else (s, d)
        i = seen[where] = seen.get(where, -1) + 1
        key = group(d_patch) if s == d else (group(s_patch), group(d_patch))
        _extend(runs[s != d], key, where, i)
    out = ([], [])
    for cut, by_key, lists in zip(out, runs, (flat.copies, flat.streams)):
        for key, these in by_key.items():
            for where, t0, t1 in these:
                txs, a, b, bounds = lists[where]
                lo, hi = bounds[t0], bounds[t1]
                cut.append((key, where, txs[t0:t1], a[lo:hi], b[lo:hi]))
    return out


def compile_fill(sched: "RefineSchedule") -> FillPlan:
    """The schedule's fill as a :class:`FillPlan`, grouped as its
    ``batch`` says.  Every level involved must be arena-pooled (what
    level allocation gives); a hand-built, per-patch-allocated one raises
    :class:`~repro.exec.plan.UnpooledLevelError` naming it."""
    ranks = sched.comm.ranks
    fused = sched.batch
    plan = FillPlan(sched.dst_level.level_number,
                    sched.dst_level.ratio_to_coarser, fused,
                    [spec.var.name for spec, _ in sched.items])
    bound = {spec: _flat_geometry(sched, geom, spec)
             for spec, geom in sched.items}
    # what a destination patch's work is grouped by: its owner (level-wide
    # launches, rank-pair messages) or the patch itself
    group = (lambda patch: patch.owner) if fused else (lambda patch: patch)

    # same-level copies: one plan per group, one stream per group pair;
    # the variables of one geometry share its cuts
    local: dict = {}    # group -> (owner, arena groups, named transactions)
    remote: dict = {}   # (src group, dst group) -> _StreamPair
    cuts: dict = {}     # id(flat geometry) -> its copies cut by group
    for spec, geom in sched.items:
        flat, dst, src, _ = bound[spec]
        name = spec.var.name
        if id(flat) not in cuts:
            cuts[id(flat)] = _cut_copies(geom, flat, group)
        mine, theirs = cuts[id(flat)]
        for key, d, txs, into, frm in mine:
            entry = local.setdefault(key, (d, [], []))
            entry[1].append((dst[d], src[d], into, frm))
            entry[2].append((name, txs))
        for key, (s, d), txs, frm, into in theirs:
            pair = remote.get(key)
            if pair is None:
                pair = remote[key] = _StreamPair(s, d)
            pair.add(name, None, txs, src[s], frm, dst[d], into)
    for owner, groups, named in local.values():
        plan.copies.append((ranks[owner], CopyPlan(
            Lazy(_copy_items, named), sum(len(txs) for _, txs in named),
            sum(len(into) for _, _, into, _ in groups), groups)))
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
        if not geom.interps:
            continue
        if not fused and len({type(s.refine_op) for s in specs}) > 1:
            raise MixedRefineError(
                f"variables {[s.var.name for s in specs]} share a centring "
                f"but not a refine operator type: a per-patch fill refines "
                f"a region's variables in one launch")
        flat = bound[specs[0]][0]
        binds: dict = {}  # owner -> one _Bound per variable
        block: dict = {}  # owner -> its next region
        seen: dict = {}   # owner pair -> its next cross-rank source
        for r, ig in enumerate(geom.interps):
            d = ig.dst_patch.owner
            fi = flat.interps[d]
            b = block[d] = block.get(d, -1) + 1
            key = None if fused else (g, r)
            unit = units.get(key)
            if unit is None:
                unit = units[key] = _Interp(fused)
            ri = unit.ranks.get(d)
            if ri is None:
                rank = ranks[d]
                ri = unit.ranks[d] = _RankInterp(rank, backend_for(
                    ig.dst_patch.data(specs[0].var.name), rank))
            if d not in binds:
                binds[d] = [_Bound(spec, fi, plan.ratio, ri.backend.space,
                                   bound[spec][3], bound[spec][1][d])
                            for spec in specs]
            part = ri.parts[-1] if ri.parts else None
            if part is not None and part.fi is fi and part.b1 == b:
                part.b1 = b + 1
            else:
                part = _Part(fi, b, binds[d])
                ri.parts.append(part)
            if fi.gather is not None and fi.gather[3][b + 1] > fi.gather[3][b]:
                unit.gather_first.setdefault(d)
            if fi.clamp is not None and fi.clamp[2][b + 1] > fi.clamp[2][b]:
                unit.clamp_first.setdefault(d)
            for j, (src, _) in enumerate(ig.sources):
                if src.owner != d:
                    pair = (src.owner, d)
                    i = seen[pair] = seen.get(pair, -1) + 1
                    _extend(sources.setdefault(key, {}), pair if fused else j,
                            (flat, pair), i, part)
    for unit in units.values():
        for ri in unit.ranks.values():
            ri.layout()
    for key, streams in sources.items():
        unit = units[key]
        for runs in streams.values():
            s, d = runs[0][0][1]
            stream = _StreamPair(s, d)
            for (flat, pair), i0, i1, part in runs:
                these, frm, into, bounds = flat.remote[pair]
                lo, hi = bounds[i0], bounds[i1]
                txs, frm, into = these[i0:i1], frm[lo:hi], into[lo:hi]
                if part.b0:  # into the part's segment, not the owner's
                    into = into - part.fi.offsets[part.b0]
                for seg in part.segments:
                    stream.add(seg.bound.name, seg, txs, seg.bound.coarse[s],
                               frm, seg, into)
            unit.gathers.append((ranks[s], unit.ranks[d], *stream.plans()))
    plan.interps = list(units.values())

    # physical boundaries and timestamps, per group
    variables = [spec.var for spec, _ in sched.items]
    stamped: dict = {}
    for dst in sched.dst_level:
        stamped.setdefault(group(dst), (dst.owner, []))[1].append(dst)
        member = (sched.boundary.batch_member(dst, variables)
                  if sched.boundary is not None else None)
        if member is not None:
            rank = ranks[dst.owner]
            plan.halos.append((backend_for(member.writes[0], rank), rank,
                               member))
    plan.stamped = list(stamped.values())
    return plan
