"""Compiled ghost fills: a batched schedule's transfers as replayable plans.

Between regrids a fill schedule's levels, boxes and arenas cannot change
(``ScheduleCache`` hands back the same schedule object until a level is
rebuilt), so everything :meth:`RefineSchedule._transfer` derives from
them is derived once.  :func:`compile_fill` turns the schedule's
transactions into flat indices into the arenas' slabs
(:mod:`repro.exec.plan`): same-level copies become one index pair per
arena pair, cross-rank copies and cross-rank coarse sources one message
stream per (src rank, dst rank) — one gather/scatter per variable, as
SAMRAI's and AMReX's schedules send one buffer per neighbour rank — and
the coarse-fine interpolation of a whole level becomes, per variable, one
gather into a scratch slab, one clamp and one evaluation of the refine
stencil over every region's points (:func:`repro.geom.interp_math.refine_flat`).
Indices do not care about shapes, so a ragged level compiles like a
uniform one.

What is compiled is split by what it depends on.  The index arrays
depend on the transaction geometry and on the arena *layout* only, so
they live on the shared :class:`~repro.xfer.refine_schedule.FillGeometry`
(one copy per level and centring, whatever the number of variables and
fill groups).  The :class:`FillPlan` of one schedule binds them to its
variables' arenas; it lives on the schedule and dies with it.

Replaying issues the per-region program's work with its launches
grouped level-wide — the same kernel names, element counts and declared
operands, one ``fill.copy`` per owner and one message per rank pair
where the per-region program issues one per destination and one per
patch pair — so fields are bitwise the same and only launch, message
and task counts differ; interpolation temporaries become one
:class:`~repro.exec.plan.Scratch` slab per rank, allocated when the
program is issued and freed where the temporaries were, with one
:class:`~repro.exec.plan.ScratchBlock` token per temporary standing in
for it in declarations.
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
    compile_copies,
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
    from .refine_schedule import FillGeometry, RefineSchedule

__all__ = ["FillPlan", "Lazy", "compile_fill"]


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


# -- per geometry: the index arrays ----------------------------------------------


class _FlatInterp:
    """One destination rank's share of a geometry's interpolations."""

    __slots__ = ("regions", "offsets", "size", "gather", "clamp",
                 "fine_index", "terms")

    def __init__(self):
        #: this rank's ``_InterpGeom`` regions, in geometry order; region
        #: ``b``'s coarse block sits at ``offsets[b]`` of a variable's
        #: ``size``-element scratch segment
        self.regions: list = []
        self.offsets: list[int] = []
        self.size = 0
        #: ``(segment index, coarse arena index, items, elements)`` of the
        #: same-rank coarse sources
        self.gather = None
        #: ``(dst index, src index, blocks, elements)`` within a segment
        self.clamp = None
        #: fine arena index of every point of every region
        self.fine_index = None
        self.terms: dict = {}   # stencil -> (gather, weights)

    def block(self, b: int):
        """``(offset, lower, shape)`` of block ``b`` for :func:`ravel_index`."""
        frame = self.regions[b].coarse_frame
        return self.offsets[b], frame.lower, frame.shape()

    def refine_terms(self, stencil, ratio):
        """``flat_refine_terms`` of every region's points against this
        rank's segment layout, once per stencil."""
        terms = self.terms.get(stencil)
        if terms is None:
            which, (f0, f1) = box_points([ig.region for ig in self.regions])
            blocks = [self.block(b) for b in range(len(self.regions))]
            width = np.array([shape[1] for _, _, shape in blocks], dtype=np.intp)
            origin = np.array([off - lo[0] * shape[1] - lo[1]
                               for off, lo, shape in blocks], dtype=np.intp)
            terms = self.terms[stencil] = flat_refine_terms(
                stencil, f0, f1, ratio, origin[which], width[which])
        return terms


class _FlatGeometry:
    """A ``FillGeometry`` as index arrays, for one arena layout."""

    __slots__ = ("layouts", "copies", "streams", "interps", "remote",
                 "gather_first", "clamp_first")

    def __init__(self, geom: "FillGeometry", name: str, var, coarse_level,
                 layouts):
        """Compile ``geom`` against the arenas of variable ``name`` (any
        variable ``var`` of the geometry's centring: the indices serve
        every variable whose arenas share ``layouts``)."""
        self.layouts = layouts
        self._compile_copies(geom, name)
        self._compile_interps(geom, name, var, coarse_level)

    def _compile_copies(self, geom, name) -> None:
        local: dict = {}
        remote: dict = {}
        for src, dst, region in geom.copies:
            if src.owner == dst.owner:
                local.setdefault(dst.owner, []).append(
                    (dst.data(name), src.data(name), region))
            else:
                remote.setdefault((src.owner, dst.owner), []).append(
                    (src, dst, region))
        #: owner -> (dst index, src index, items, elements)
        self.copies = {}
        for owner, items in local.items():
            plan = compile_copies(items)
            (_, _, dst_index, src_index), = plan.groups
            self.copies[owner] = (dst_index, src_index, plan.count, plan.total)
        #: (src owner, dst owner) -> (transactions, pack index, unpack
        #: index): every copy between two ranks, in geometry order
        self.streams = {}
        for pair, txs in remote.items():
            which, coords = box_points([region for _, _, region in txs])
            self.streams[pair] = (
                txs, flat_index([s.data(name) for s, _, _ in txs], which, coords),
                flat_index([d.data(name) for _, d, _ in txs], which, coords))

    def _compile_interps(self, geom, name, var, coarse_level) -> None:
        #: dst owner -> _FlatInterp
        self.interps: dict = {}
        #: owners in the order the geometry first meets a region of theirs
        #: poking out of the coarse domain / with a same-rank source (the
        #: order the per-region program first issues that work for them)
        self.clamp_first: dict = {}
        local: dict = {}   # owner -> (block, source pd, sub-box) on its rank
        remote: dict = {}  # (src owner, dst owner) -> (block, src patch, sub-box)
        valid = index_box_for(var, coarse_level.domain) if geom.interps else None
        for ig in geom.interps:
            owner = ig.dst_patch.owner
            fi = self.interps.setdefault(owner, _FlatInterp())
            b = len(fi.regions)
            fi.regions.append(ig)
            fi.offsets.append(fi.size)
            fi.size += ig.coarse_frame.size()
            for src_patch, sub in ig.sources:
                if src_patch.owner == owner:
                    local.setdefault(owner, []).append(
                        (b, src_patch.data(name), sub))
                else:
                    remote.setdefault((src_patch.owner, owner), []).append(
                        (src_patch, b, sub))
            if not valid.contains_box(ig.coarse_frame):
                self.clamp_first.setdefault(owner)
        self.gather_first = dict.fromkeys(local)
        for owner, fi in self.interps.items():
            mine = local.get(owner)
            if mine:
                which, coords = box_points([sub for _, _, sub in mine])
                fi.gather = (
                    ravel_index(*zip(*(fi.block(b) for b, _, _ in mine)),
                                which, coords),
                    flat_index([pd for _, pd, _ in mine], which, coords),
                    len(mine), len(which))
            fi.clamp = _compile_clamp(fi, valid)
            which, coords = box_points([ig.region for ig in fi.regions])
            fi.fine_index = flat_index(
                [ig.dst_patch.data(name) for ig in fi.regions], which, coords)
        #: (src owner, dst owner) -> (sources, pack index, unpack index):
        #: every cross-rank coarse source between two ranks, in geometry
        #: order, as ``(src patch, block, sub-box)``; the unpack index is
        #: into the dst owner's segment layout
        self.remote = {}
        for (src, owner), sources in remote.items():
            which, coords = box_points([sub for _, _, sub in sources])
            self.remote[src, owner] = (
                sources,
                flat_index([p.data(name) for p, _, _ in sources], which, coords),
                ravel_index(*zip(*(self.interps[owner].block(b)
                                   for _, b, _ in sources)), which, coords))


def _compile_clamp(fi: _FlatInterp, valid):
    """Zero-gradient extension of every block poking out of the coarse
    domain (``clamp_extend``), as one in-segment index pair: each element
    outside ``valid`` takes the nearest valid element's value."""
    blocks = [b for b, ig in enumerate(fi.regions)
              if not valid.contains_box(ig.coarse_frame)]
    if not blocks:
        return None
    frames = [fi.regions[b].coarse_frame for b in blocks]
    inside = [frame.intersection(valid) for frame in frames]
    if any(v.is_empty() for v in inside):
        raise ValueError("no valid region to extend from")
    which, coords = box_points(frames)
    lower = np.array([v.lower for v in inside], dtype=np.intp)[which]
    upper = np.array([v.upper for v in inside], dtype=np.intp)[which]
    clipped = [np.clip(c, lower[:, axis], upper[:, axis])
               for axis, c in enumerate(coords)]
    outside = np.zeros(len(which), dtype=bool)
    for c, k in zip(coords, clipped):
        outside |= c != k
    meta = list(zip(*(fi.block(b) for b in blocks)))
    which = which[outside]
    return (ravel_index(*meta, which, [c[outside] for c in coords]),
            ravel_index(*meta, which, [k[outside] for k in clipped]),
            blocks, sum(frame.size() for frame in frames))


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


# -- per schedule: indices bound to variables -------------------------------------


class _Segment:
    """One variable's coarse blocks on one rank: a contiguous range of
    the rank's scratch slab, laid out by the geometry's ``_FlatInterp``."""

    __slots__ = ("spec", "lo", "hi", "blocks", "coarse_arena", "fine_arena",
                 "fine_pds")

    def __init__(self, spec, lo, fi: _FlatInterp, space, coarse_arena,
                 fine_arena):
        self.spec = spec
        self.lo = lo
        self.hi = lo + fi.size
        name = spec.var.name
        label = f"_tmp_{name}"
        self.blocks = [ScratchBlock(label, 8 * ig.coarse_frame.size(), space)
                       for ig in fi.regions]
        self.coarse_arena = coarse_arena
        self.fine_arena = fine_arena
        self.fine_pds = tuple(dict.fromkeys(
            ig.dst_patch.data(name) for ig in fi.regions))

    def store(self, scratch: Scratch):
        return scratch.segment(self.lo, self.hi)


class _RankInterp:
    """Everything one rank interpolates in one fill."""

    def __init__(self, rank, backend):
        self.rank = rank
        self.backend = backend
        self.size = 0
        #: (flat interp, segments) per centring group, in schedule order
        self.groups: list[tuple[_FlatInterp, list[_Segment]]] = []
        #: every block's token / the clamped ones' / the refined patch
        #: data, each in the order the per-region program declares them
        self.blocks: list = []
        self.clamped: list = []
        self.fine_pds: dict = {}

    def add_group(self, fi: _FlatInterp, segments: "list[_Segment]") -> None:
        self.groups.append((fi, segments))
        clamped = set(fi.clamp[2]) if fi.clamp else ()
        for b, ig in enumerate(fi.regions):
            for seg in segments:
                self.blocks.append(seg.blocks[b])
                if b in clamped:
                    self.clamped.append(seg.blocks[b])
                self.fine_pds.setdefault(ig.dst_patch.data(seg.spec.var.name))

    def each(self):
        """``(block number, region, segments)`` in the order the
        per-region program visits regions."""
        for fi, segments in self.groups:
            for b, ig in enumerate(fi.regions):
                yield b, ig, segments

    def gather_items(self):
        owner = self.rank.index
        for b, ig, segments in self.each():
            for src_patch, sub in ig.sources:
                if src_patch.owner == owner:
                    for seg in segments:
                        yield (seg.blocks[b],
                               src_patch.data(seg.spec.var.name), sub)

    def gather(self, scratch: Scratch) -> CopyPlan:
        """The ``fill.gather`` copy: same-rank coarse data into scratch."""
        groups, count, total = [], 0, 0
        for fi, segments in self.groups:
            if fi.gather is not None:
                into, frm, items, elements = fi.gather
                groups.extend((seg.store(scratch), seg.coarse_arena, into, frm)
                              for seg in segments)
                count += items * len(segments)
                total += elements * len(segments)
        return CopyPlan(Lazy(self.gather_items), count, total, groups)

    def clamp_member(self, scratch: Scratch) -> BatchMember:
        """The clamp ``pdat.copy`` launch's member: ``clamp_extend`` of
        every block poking out of the coarse domain, in scratch."""
        ops, elements, count = [], 0, 0
        for fi, segments in self.groups:
            if fi.clamp is not None:
                into, frm, blocks, size = fi.clamp
                ops.extend((seg.store(scratch), [seg.blocks[b] for b in blocks],
                            into, frm) for seg in segments)
                elements += size * len(segments)
                count += len(blocks) * len(segments)

        def body():
            for store, blocks, into, frm in ops:
                flat = slab_of(store, blocks)
                flat[into] = flat[frm]

        return BatchMember(elements, body, reads=self.clamped,
                           writes=self.clamped, count=count)

    def refine_member(self, scratch: Scratch, ratio,
                      marked: bool) -> BatchMember:
        """The ``geom.refine`` launch's member: every variable's stencil
        over every region's points (halo stamps when ``marked``)."""
        ops, elements, count = [], 0, 0
        for fi, segments in self.groups:
            for seg in segments:
                stencil = seg.spec.refine_op.stencil_for(seg.spec.var)
                ops.append((stencil, seg.store(scratch), seg.blocks,
                            seg.fine_arena, seg.fine_pds,
                            *fi.refine_terms(stencil, ratio), fi.fine_index))
            elements += len(fi.fine_index) * len(segments)
            count += len(fi.regions) * len(segments)
        marks = [("stamp", ig.dst_patch.data(seg.spec.var.name),
                  [sp.data(seg.spec.var.name) for sp, _ in ig.sources])
                 for _, ig, segments in self.each()
                 for seg in segments] if marked else ()
        return RefineOperator.batch_member(ops, elements, count,
                                           reads=self.blocks,
                                           writes=self.fine_pds, marks=marks)


class FillPlan:
    """One batched :class:`RefineSchedule`'s transfers, compiled: one
    ``fill.copy`` per owner, one message stream per (src rank, dst rank)
    for the same-level copies and one per rank pair for the cross-rank
    coarse sources, however many patch pairs and variables they carry."""

    def __init__(self, level: int, ratio):
        self.level = level
        self.ratio = ratio
        #: (rank, CopyPlan) per owner: the ``fill.copy`` launches
        self.copies: list = []
        #: (src rank, dst rank, pack StreamPlan, unpack StreamPlan) per
        #: rank pair
        self.streams: list = []
        #: rank index -> _RankInterp, in first-region order; the ranks
        #: that gather from their own coarse data / that clamp, in the
        #: order the per-region program first does so
        self.ranks: dict[int, _RankInterp] = {}
        self.gather_first: dict = {}
        self.clamp_first: dict = {}
        #: cross-rank coarse sources, per rank pair: (src rank, dst interp,
        #: pack StreamPlan, unpack StreamPlan over unbound ``_Segment``
        #: stores)
        self.gathers: list = []

    def replay_interp(self, sink, ghost: bool, checking: bool) -> None:
        """Coarse-fine interpolation of the whole level: gather coarse
        blocks into per-rank scratch, clamp, refine, free.  Whatever
        raises while the program is issued, no scratch outlives the call."""
        scratch = {}
        try:
            for index, ri in self.ranks.items():
                scratch[index] = Scratch(ri.backend.space, ri.size)
            for src_rank, ri, pack, unpack in self.gathers:
                mine = scratch[ri.rank.index]
                bound = StreamPlan(unpack.items, unpack.count, unpack.total,
                                   [(seg.store(mine), index, where)
                                    for seg, index, where in unpack.groups])
                sink.stream_batch(src_rank, ri.rank, pack, bound,
                                  f"fill.interp.L{self.level}")
            for index in self.gather_first:
                ri = self.ranks[index]
                sink.copy(ri.rank, ri.gather(scratch[index]), "fill.gather")
            clamps = LaunchBatcher(True)
            for index in self.clamp_first:
                ri = self.ranks[index]
                clamps.collect(ri.backend, ri.rank, "pdat.copy",
                               ri.clamp_member(scratch[index]))
            sink.flush_fusion(clamps)
            refines = LaunchBatcher(True)
            for index, ri in self.ranks.items():
                refines.collect(
                    ri.backend, ri.rank, "geom.refine",
                    ri.refine_member(scratch[index], self.ratio,
                                     ghost and checking),
                    ghost_only=ghost)
            sink.flush_fusion(refines)
            for index, ri in self.ranks.items():
                sink.add(TaskKind.FREE, index, "fill.free",
                         lambda _stream, mine=scratch[index]: mine.free(),
                         writes=ri.blocks)
        except BaseException:
            for mine in scratch.values():
                mine.free()
            raise


class _StreamPair:
    """One (src rank, dst rank) message stream being assembled: per
    variable, every transaction between the two ranks back to back, in
    the order they are added — so one message, one pack and one unpack
    launch carry all of them, and each patch pair's items keep the order
    the per-region program streams them in.

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

    def pack_plan(self) -> StreamPlan:
        return StreamPlan(Lazy(_pack_items, self.named),
                          self.count, self.total, self.pack)

    def unpack_plan(self) -> StreamPlan:
        return StreamPlan(Lazy(_unpack_items, self.named),
                          self.count, self.total, self.unpack)


def _copy_items(items, owner: int):
    for spec, geom in items:
        name = spec.var.name
        for src, dst, region in geom.copies:
            if src.owner == owner == dst.owner:
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


def compile_fill(sched: "RefineSchedule") -> FillPlan:
    """The schedule's transfers as a :class:`FillPlan`.  Every level
    involved must be arena-pooled (``batch`` allocation); a hand-built,
    per-patch-allocated one raises
    :class:`~repro.exec.plan.UnpooledLevelError` naming it."""
    ranks = sched.comm.ranks
    plan = FillPlan(sched.dst_level.level_number,
                    sched.dst_level.ratio_to_coarser)
    bound = {spec: _flat_geometry(sched, geom, spec)
             for spec, geom in sched.items}

    # same-level copies: one plan per owner, one stream per rank pair
    local: dict = {}    # owner -> [groups, items, elements]
    remote: dict = {}   # (src owner, dst owner) -> _StreamPair
    for spec, _ in sched.items:
        flat, dst, src, _ = bound[spec]
        for owner, (into, frm, items, elements) in flat.copies.items():
            entry = local.setdefault(owner, [[], 0, 0])
            entry[0].append((dst[owner], src[owner], into, frm))
            entry[1] += items
            entry[2] += elements
        for (s, d), (txs, frm, into) in flat.streams.items():
            pair = remote.get((s, d))
            if pair is None:
                pair = remote[s, d] = _StreamPair(s, d)
            pair.add(spec.var.name, None, txs, src[s], frm, dst[d], into)
    for owner, (groups, count, total) in local.items():
        plan.copies.append((ranks[owner], CopyPlan(
            Lazy(_copy_items, sched.items, owner), count, total, groups)))
    for pair in remote.values():
        plan.streams.append((ranks[pair.src], ranks[pair.dst],
                             pair.pack_plan(), pair.unpack_plan()))

    # coarse-fine interpolation: per rank, per centring group, per
    # variable; cross-rank coarse sources one stream per rank pair
    gathers: dict = {}  # (src owner, dst owner) -> _StreamPair
    for geom, specs in sched.sig_groups:
        if not geom.interps:
            continue
        flat = bound[specs[0]][0]
        plan.gather_first.update(flat.gather_first)
        plan.clamp_first.update(flat.clamp_first)
        segments_of: dict = {}
        for owner, fi in flat.interps.items():
            ri = plan.ranks.get(owner)
            if ri is None:
                rank = ranks[owner]
                ri = plan.ranks[owner] = _RankInterp(rank, backend_for(
                    fi.regions[0].dst_patch.data(specs[0].var.name), rank))
            segments = []
            for spec in specs:
                _, dst, _, coarse = bound[spec]
                segments.append(_Segment(spec, ri.size, fi, ri.backend.space,
                                         coarse.get(owner), dst[owner]))
                ri.size += fi.size
            ri.add_group(fi, segments)
            segments_of[owner] = segments
        for (s, d), (sources, frm, into) in flat.remote.items():
            pair = gathers.get((s, d))
            if pair is None:
                pair = gathers[s, d] = _StreamPair(s, d)
            for seg in segments_of[d]:
                pair.add(seg.spec.var.name, seg, sources,
                         bound[seg.spec][3][s], frm, seg, into)
    for pair in gathers.values():
        plan.gathers.append((ranks[pair.src], plan.ranks[pair.dst],
                             pair.pack_plan(), pair.unpack_plan()))
    return plan
