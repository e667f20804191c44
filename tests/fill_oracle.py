"""The per-region fill and per-transaction sync programs, kept as the
reference.

Until every :class:`~repro.xfer.refine_schedule.RefineSchedule` ran a
compiled :class:`~repro.xfer.fill_plan.FillPlan`, this is how a
schedule without ``batch`` filled a level: per destination patch one
fused copy, per patch pair one message stream, per interpolated region
freshly allocated temporaries, a gather, one clamp launch per variable,
the operators' own refine launch (fused for a homogeneous operator) and
a free; then one ``boundary.apply_all`` task per boundary patch.

Until every :class:`~repro.xfer.coarsen_schedule.CoarsenSchedule` ran a
compiled sync, this is how it synchronised a level, in both groupings:
per (transaction, variable) a temporary patch data from the factory and
a coarsen launch (fused per fine backend under ``batch``), then per
transaction one fused copy or message (under ``batch`` one per rank
pair, same-rank pairs first), each followed by a free.  Its coarsen
bodies are the per-block routines every operator ran until coarsen
operators became stencils evaluated over a whole launch
(``interp_math.CoarsenStencil``); ``tests/test_operators.py`` pins the
stencils to them bit for bit.

``tests/test_plan.py`` asserts compiled fills of both groupings leave
the same bits, and the per-patch grouping the same launch sequence and
device high-water; and compiled syncs of both groupings the same bits,
launch sequence, messages and device high-water as their program here.
Until a per-patch :class:`~repro.xfer.refine_schedule.RefineSchedule`
executed the level-wide twin of its plan uncharged and charged the
per-patch plan from ledger rows, it executed the per-patch plan itself
through an immediate sink: :func:`per_patch_fills` swaps that back in
for a run, and :class:`RecordingSink` walks a plan the way that sink ran
it, writing down the ledger rows each verb was charged as.
``tests/test_fill_ledger.py`` holds the two against each other.

Written against the public schedule, sink, plan and operator APIs only.
"""

from contextlib import contextmanager

import numpy as np

from repro.check.context import active as _check_active
from repro.comm.simcomm import Message
from repro.exec.backend import (
    ResidentDeviceBackend,
    array_of,
    backend_for,
    frame_of,
    run_on,
    slab_of,
)
from repro.exec.batch import BatchMember, LaunchBatcher
from repro.exec.plan import StreamPlan, flat_index, level_arenas, store_of
from repro.geom.operators import (
    CellMassWeightedCoarsen,
    CellVolumeWeightedCoarsen,
    NodeInjectionCoarsen,
    SideSumCoarsen,
    fused_refine_apply,
)
from repro.mesh.box import Box, IntVector
from repro.mesh.box_array import box_points
from repro.mesh.variables import Variable
from repro.sched.task import TaskKind
from repro.xfer.coarsen_schedule import CoarsenSchedule
from repro.xfer.fill_plan import compile_fill
from repro.xfer.message import MESSAGE_HEADER_BYTES, ImmediateSink, halo_marks
from repro.xfer.overlap import index_box_for
from repro.xfer.refine_schedule import RefineSchedule


def alloc_temp(factory, var: Variable, frame: Box, rank):
    """A zero-ghost temporary block for ``var`` whose storage is ``frame``."""
    return factory.allocate(
        Variable(f"_tmp_{var.name}", var.centring, 0, var.axis),
        var.cell_box(frame), rank, frame=frame)


def free_temps(temps) -> None:
    """Release temporary blocks (device-backed ones own pool memory)."""
    for temp in temps:
        temp.free()


def clamp_extend(arr, frame: Box, valid: Box) -> None:
    """Fill every element outside ``valid`` from the nearest valid element.

    Zero-gradient extension used as the fallback for interpolation-stencil
    cells that poke outside the physical domain; the fine patch's physical
    boundary routine overwrites anything that actually matters afterwards.
    """
    v = frame.intersection(valid)
    if v.is_empty():
        raise ValueError("no valid region to extend from")
    idx = []
    for axis in range(frame.dim):
        i = np.arange(frame.lower[axis], frame.upper[axis] + 1)
        idx.append(np.clip(i, v.lower[axis], v.upper[axis]) - frame.lower[axis])
    arr[...] = arr[np.ix_(*idx)]


class PerRegionSchedule(RefineSchedule):
    """A :class:`RefineSchedule` that runs the per-region program, its
    temporaries allocated by ``factory``."""

    def __init__(self, *args, factory, **kwargs):
        self.factory = factory
        # the program groups its own work (and falls back to one refine
        # per variable for a mixed centring group), whatever ``batch``
        super().__init__(*args, **{**kwargs, "batch": True})

    def fill(self) -> None:
        sink = ImmediateSink(self.comm)
        self._transfer(sink)
        sink.close()
        self._finish(sink)

    def emit_tasks(self, gb) -> None:
        self._transfer(gb)
        self._finish(gb)

    def _transfer(self, sink) -> None:
        chk = _check_active()
        if chk is not None:
            self._note_fill_start(chk)
        ghost = not self.interior
        copies, streams = self._group_copies()
        for rank, items in copies:
            sink.copy(rank, items, "fill.copy", ghost=ghost)
        for src_rank, dst_rank, pack, unpack in streams:
            sink.stream_batch(src_rank, dst_rank, pack, unpack,
                              f"fill.L{self.dst_level.level_number}",
                              ghost=ghost)
        for geom, specs in self.sig_groups:
            for ig in geom.interps:
                self._interpolate(sink, specs, ig, ghost, chk is not None)

    def _finish(self, sink) -> None:
        ranks = self.comm.ranks
        variables = [spec.var for spec, _ in self.items]
        if self.boundary is not None:
            for dst in self.dst_level:
                if dst.touches_boundary():
                    self._apply_boundary(sink, dst, variables,
                                         ranks[dst.owner])

    def _apply_boundary(self, sink, dst, variables, rank) -> None:
        pds = [dst.data(v.name) for v in variables]
        sink.add(TaskKind.KERNEL, rank.index, "fill.bc",
                 lambda _stream: self.boundary.apply_all(dst, variables, rank),
                 reads=pds, writes=pds, ghost_only=True,
                 marks=(halo_marks((pd, pd) for pd in pds)
                        if _check_active() is not None else ()))

    def _group_copies(self) -> tuple[list, list]:
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

    def _clamp_member(self, temp, var):
        frame = temp.get_ghost_box()
        valid = index_box_for(var, self.coarse_level.domain)
        if valid.contains_box(frame):
            return None
        return BatchMember(
            frame.size(), lambda: clamp_extend(array_of(temp), frame, valid),
            reads=(temp,), writes=(temp,))

    def _interpolate(self, sink, specs, ig, ghost: bool,
                     checking: bool) -> None:
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

    def _fused_refine(self, specs, temps, ig, dst_rank) -> None:
        ratio = self.dst_level.ratio_to_coarser
        op0 = specs[0].refine_op
        if len(specs) == 1 or any(type(s.refine_op) is not type(op0) for s in specs):
            for spec, temp in zip(specs, temps):
                spec.refine_op.apply(
                    temp, ig.dst_patch.data(spec.var.name),
                    ig.region, ratio, rank=dst_rank,
                )
            return
        pairs = [
            (temp, ig.dst_patch.data(spec.var.name))
            for spec, temp in zip(specs, temps)
        ]
        fused_refine_apply(specs[0].refine_op, pairs, ig.region, ratio, dst_rank)


# -- the per-transaction sync -------------------------------------------------
#
# The per-block coarsen routines every sync ran until coarsen operators
# became stencils evaluated over all blocks of a launch at once
# (``interp_math.CoarsenStencil``), and the operator bodies that ran them.


def block_reduce(fine_region: np.ndarray, ratio: IntVector, op: str) -> np.ndarray:
    """Reduce each ratio[0] x ratio[1] block of a fine region array."""
    m0 = fine_region.shape[0] // ratio[0]
    m1 = fine_region.shape[1] // ratio[1]
    blocks = fine_region.reshape(m0, ratio[0], m1, ratio[1])
    if op == "sum":
        return blocks.sum(axis=(1, 3))
    if op == "mean":
        return blocks.mean(axis=(1, 3))
    raise ValueError(f"unknown block op {op!r}")


def coarsen_cell_volume_weighted(fine, fine_frame: Box, coarse, coarse_frame: Box,
                                 region: Box, ratio: IntVector) -> None:
    """Volume-weighted coarsen: the block mean over the fine children."""
    fine_region = region.refine(ratio)
    f = fine[fine_region.slices_in(fine_frame)]
    coarse[region.slices_in(coarse_frame)] = block_reduce(f, ratio, "mean")


def coarsen_cell_mass_weighted(fine, fine_weight, fine_frame: Box, coarse,
                               coarse_frame: Box, region: Box,
                               ratio: IntVector) -> None:
    """Mass-weighted coarsen: c_i = sum(f_j w_j vol) / sum(w_j vol)."""
    fine_region = region.refine(ratio)
    sl = fine_region.slices_in(fine_frame)
    f = fine[sl]
    w = fine_weight[sl]
    num = block_reduce(f * w, ratio, "sum")
    den = block_reduce(w, ratio, "sum")
    coarse[region.slices_in(coarse_frame)] = num / den


def coarsen_node_injection(fine, fine_frame: Box, coarse, coarse_frame: Box,
                           region: Box, ratio: IntVector) -> None:
    """Node injection: coarse node <- coincident fine node (exact)."""
    i0 = np.arange(region.lower[0], region.upper[0] + 1) * ratio[0] - fine_frame.lower[0]
    i1 = np.arange(region.lower[1], region.upper[1] + 1) * ratio[1] - fine_frame.lower[1]
    coarse[region.slices_in(coarse_frame)] = fine[np.ix_(i0, i1)]


def coarsen_side_sum(fine, fine_frame: Box, coarse, coarse_frame: Box,
                     region: Box, ratio: IntVector, axis: int) -> None:
    """Side-centred coarsen: each coarse face sums its aligned fine faces."""
    trans = 1 - axis
    in_ = np.arange(region.lower[axis], region.upper[axis] + 1) * ratio[axis] - fine_frame.lower[axis]
    out = None
    for k in range(ratio[trans]):
        it = (
            np.arange(region.lower[trans], region.upper[trans] + 1) * ratio[trans]
            + k
            - fine_frame.lower[trans]
        )
        idx = np.ix_(in_, it) if axis == 0 else np.ix_(it, in_)
        contrib = fine[idx]
        out = contrib.copy() if out is None else out + contrib
    coarse[region.slices_in(coarse_frame)] = out


def reduce_block(op, fine_pd, farr, fframe, carr, cframe, region, ratio,
                 weight=None) -> None:
    """The frozen per-block reduction of coarsen operator ``op``."""
    if isinstance(op, CellMassWeightedCoarsen):
        coarsen_cell_mass_weighted(farr, weight, fframe, carr, cframe, region,
                                   ratio)
    elif isinstance(op, CellVolumeWeightedCoarsen):
        coarsen_cell_volume_weighted(farr, fframe, carr, cframe, region, ratio)
    elif isinstance(op, NodeInjectionCoarsen):
        coarsen_node_injection(farr, fframe, carr, cframe, region, ratio)
    elif isinstance(op, SideSumCoarsen):
        coarsen_side_sum(farr, fframe, carr, cframe, region, ratio,
                         fine_pd.var.axis)
    else:
        raise TypeError(f"no frozen body for {type(op).__name__}")


def _body(op, fine_pd, weight_pd, coarse, region, ratio):
    """The reduction as a kernel body; ``coarse()`` hands it the
    destination ``(array, frame)`` inside the launch."""
    def body():
        farr, fframe = array_of(fine_pd), frame_of(fine_pd)
        weight = None
        if weight_pd is not None:
            weight = array_of(weight_pd)
            if frame_of(weight_pd) != fframe:
                raise ValueError("weight frame must match data frame")
        reduce_block(op, fine_pd, farr, fframe, *coarse(), region, ratio,
                     weight)

    return body


def chunks(work: list, batch: bool) -> list[list]:
    """The units the program issues its work in: everything at once under
    ``batch`` (one launch per backend, one copy per rank), else one
    transaction at a time."""
    if batch:
        return [work] if work else []
    return [[w] for w in work]


class PerTransactionSync(CoarsenSchedule):
    """A :class:`CoarsenSchedule` that runs the per-transaction program,
    its temporaries allocated by ``factory``."""

    def __init__(self, *args, factory, batch: bool = False):
        self.factory = factory
        self._unpacks = None
        super().__init__(*args, batch=batch)

    def _transfer(self, sink) -> None:
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
                # under batch one ship per rank pair, same-rank pairs first
                local: dict = {}
                remote: dict = {}
                for t, fine_rank, temps in staged:
                    coarse_rank = self.comm.rank(t.coarse_patch.owner)
                    if fine_rank is coarse_rank:
                        local.setdefault(fine_rank if self.batch else id(t),
                                         (fine_rank, coarse_rank, []))[2].append(
                                             (t, temps))
                    else:
                        remote.setdefault((fine_rank, coarse_rank),
                                          (fine_rank, coarse_rank, []))[2].append(
                                              (t, temps))
                for fine_rank, coarse_rank, shipped in [*local.values(),
                                                        *remote.values()]:
                    self._ship(sink, fine_rank, coarse_rank, shipped)
        except BaseException:
            free_temps(held)
            raise

    def _coarsen_one(self, sink, launches, spec, fine_patch, temp, region,
                     ratio, fine_rank) -> None:
        fine_pd = fine_patch.data(spec.var.name)
        op = spec.coarsen_op
        weight = (fine_patch.data(spec.weight_name)
                  if isinstance(op, CellMassWeightedCoarsen) else None)
        reads = [fine_pd] if weight is None else [fine_pd, weight]
        elements = region.refine(ratio).size()
        if self.batch:
            body = _body(op, fine_pd, weight, lambda: (
                slab_of(store_of(temp), (temp,)).reshape(
                    tuple(region.shape())), region), region, ratio)
            launches.collect(backend_for(temp, fine_rank), fine_rank,
                             "geom.coarsen", BatchMember(
                                 elements, body, reads=reads, writes=(temp,)))
        else:
            body = _body(op, fine_pd, weight,
                         lambda: (array_of(temp), frame_of(temp)), region,
                         ratio)
            sink.add(TaskKind.KERNEL, fine_rank.index,
                     f"sync.coarsen.{spec.var.name}",
                     lambda _stream: run_on(temp, fine_rank, "geom.coarsen",
                                            elements, body),
                     reads=reads, writes=[temp])

    def _ship(self, sink, fine_rank, coarse_rank, shipped) -> None:
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
        """Per (fine owner, coarse owner) the batched message's unpack:
        every point no later transaction onto the same coarse patch
        rewrites, one flat-index scatter per variable."""
        arenas = [level_arenas(self.coarse_level, s.var.name) for s in self.specs]
        after: dict = {}
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


# -- the per-patch plan, executed --------------------------------------------


def per_patch_plan(sched: RefineSchedule):
    """The schedule's per-patch plan, compiled once and kept on it."""
    plan = getattr(sched, "_oracle_plan", None)
    if plan is None:
        plan = sched._oracle_plan = compile_fill(sched, False)
    return plan


def execute_per_patch(sched: RefineSchedule) -> None:
    """One fill of ``sched`` as a per-patch schedule filled until it ran
    its level-wide twin: the per-patch plan through an immediate sink,
    charged as it executes."""
    plan = per_patch_plan(sched)
    sink = ImmediateSink(sched.comm)
    sched._transfer(sink, plan)
    sink.close()
    plan.finish(sink)


@contextmanager
def per_patch_fills(monkeypatch):
    """Per-patch schedules filled inside the block execute their
    per-patch plan (level-wide ones are unchanged)."""
    fill = RefineSchedule.fill

    def oracle_fill(self):
        if self.batch:
            return fill(self)
        return execute_per_patch(self)

    with monkeypatch.context() as m:
        m.setattr(RefineSchedule, "fill", oracle_fill)
        yield


class _RecordedScratch:
    """A stand-in scratch: its segments are stores nothing reads, its
    free is a ledger row."""

    def __init__(self, ledger, space, size: int):
        self.ledger, self.space, self.size = ledger, space, size

    def segment(self, lo, hi):
        return (self, lo, hi)

    def free(self) -> None:
        if self.space.resident:
            self.ledger.free(self.space, 8 * self.size)


class RecordingSink:
    """Walks a transfer program and writes into ``ledger`` the rows an
    immediate sink was charged as for each verb, from the verb's
    arguments: a copy or a launch on the resource its backend runs on, a
    stream's staging (device memory: allocate, copy across the bus,
    free) around its pack and unpack, the message between, the ``stack``
    counts of every compiled copy, scratch allocations and frees.  Runs
    no body."""

    def __init__(self, ledger):
        self.ledger = ledger

    def _launch(self, backend, kernel: str, elements: int) -> None:
        if isinstance(backend, ResidentDeviceBackend):
            self.ledger.launch(backend.device, kernel, elements)
        elif backend.rank is not None:
            self.ledger.cpu(backend.rank, kernel, elements)

    def _stack(self, backend, kernel: str, plan) -> None:
        if plan.groups and backend.rank is not None:
            self.ledger.stack(backend.rank, kernel, plan.count,
                              len(plan.groups))

    def copy(self, rank, items, label, ghost=False) -> None:  # noqa: ARG002
        backend = backend_for(items[0][0], rank)
        self._launch(backend, "pdat.copy", items.total)
        self._stack(backend, "pdat.copy", items)

    def stream_batch(self, src_rank, dst_rank, pack, unpack, label,  # noqa: ARG002
                     ghost=False) -> None:
        nbytes = 8 * pack.total
        src = backend_for(pack[0][0], src_rank)
        if src.space.resident:
            self.ledger.alloc(src.space, nbytes)
        self._launch(src, "pdat.pack", pack.total)
        self._stack(src, "pdat.pack", pack)
        if src.space.resident:
            self.ledger.d2h(src.space, nbytes)
            self.ledger.free(src.space, nbytes)
        self.ledger.message(Message(src_rank.index, dst_rank.index,
                                    nbytes + MESSAGE_HEADER_BYTES))
        dst = backend_for(unpack[0][0], dst_rank)
        if dst.space.resident:
            self.ledger.alloc(dst.space, nbytes)
            self.ledger.h2d(dst.space, nbytes)
        self._launch(dst, "pdat.unpack", unpack.total)
        if dst.space.resident:
            self.ledger.free(dst.space, nbytes)
        self._stack(dst, "pdat.unpack", unpack)

    def kernel_task(self, backend, rank, kernel, members, combine=None,  # noqa: ARG002
                    ghost_only=False) -> None:
        assert sum(m.count for m in members) <= 1, "a per-patch launch"
        self._launch(backend, kernel, sum(m.elements for m in members))

    def flush_fusion(self, batcher):
        return batcher.flush(self.kernel_task)

    def add(self, kind, rank, label, fn, reads=(), writes=(),  # noqa: ARG002
            ghost_only=False, marks=()) -> None:
        if kind is TaskKind.FREE:
            fn(None)

    def scratch(self, space, size: int):
        if space.resident:
            self.ledger.alloc(space, 8 * size)
        return _RecordedScratch(self.ledger, space, size)

    def note(self, fn, *args) -> None:
        pass
