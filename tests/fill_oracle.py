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
transaction one fused copy or message (under ``batch`` one message per
rank pair), each followed by a free.

``tests/test_plan.py`` asserts compiled fills of both groupings leave
the same bits, and the per-patch grouping the same launch sequence and
device high-water; and compiled syncs of both groupings the same bits,
launch sequence, messages and device high-water as their program here.
Written against the public schedule, sink, plan and operator APIs only.
"""

import numpy as np

from repro.check.context import active as _check_active
from repro.exec.backend import array_of, backend_for
from repro.exec.batch import BatchMember, LaunchBatcher
from repro.exec.plan import StreamPlan, flat_index, level_arenas, store_of
from repro.geom.operators import CellMassWeightedCoarsen, fused_refine_apply
from repro.mesh.box import Box
from repro.mesh.box_array import box_points
from repro.mesh.variables import Variable
from repro.sched.task import TaskKind
from repro.xfer.coarsen_schedule import CoarsenSchedule
from repro.xfer.message import ImmediateSink, halo_marks
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


def _set_times(patches, names, time: float) -> None:
    for patch in patches:
        for name in names:
            patch.data(name).set_time(time)


class PerRegionSchedule(RefineSchedule):
    """A :class:`RefineSchedule` that runs the per-region program."""

    def fill(self, time=None) -> None:
        sink = ImmediateSink(self.comm)
        self._transfer(sink)
        sink.close()
        self._finish(sink, time)

    def emit_tasks(self, gb, time=None) -> None:
        self._transfer(gb)
        self._finish(gb, time)

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

    def _finish(self, sink, time) -> None:
        ranks = self.comm.ranks
        variables = [spec.var for spec, _ in self.items]
        if self.boundary is not None:
            for dst in self.dst_level:
                if dst.touches_boundary():
                    self._apply_boundary(sink, dst, variables,
                                         ranks[dst.owner])
        if time is not None:
            names = [v.name for v in variables]
            for dst in self.dst_level:
                sink.add(TaskKind.HOST, dst.owner, "fill.set_time",
                         lambda _stream, patches=[dst]: _set_times(
                             patches, names, time),
                         reads=[dst.data(n) for n in names])

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
                remote: dict = {}
                for t, fine_rank, temps in staged:
                    coarse_rank = self.comm.rank(t.coarse_patch.owner)
                    if fine_rank is coarse_rank:
                        self._ship(sink, fine_rank, coarse_rank, [(t, temps)])
                    else:
                        remote.setdefault(
                            (fine_rank, coarse_rank), []).append((t, temps))
                for (fine_rank, coarse_rank), shipped in remote.items():
                    self._ship(sink, fine_rank, coarse_rank, shipped)
        except BaseException:
            free_temps(held)
            raise

    def _coarsen_one(self, sink, launches, spec, fine_patch, temp, region,
                     ratio, fine_rank) -> None:
        fine_pd = fine_patch.data(spec.var.name)
        op = spec.coarsen_op
        if isinstance(op, CellMassWeightedCoarsen):
            reads = [fine_pd, fine_patch.data(spec.weight_name)]
            member_of, apply = op.batch_member_weighted, op.apply_weighted
        else:
            reads = [fine_pd]
            member_of, apply = op.batch_member, op.apply
        if self.batch:
            launches.collect(backend_for(temp, fine_rank), fine_rank,
                             "geom.coarsen", member_of(
                                 *reads, store_of(temp), temp, region, ratio,
                                 region.refine(ratio).size()))
        else:
            sink.add(TaskKind.KERNEL, fine_rank.index,
                     f"sync.coarsen.{spec.var.name}",
                     lambda _stream: apply(*reads, temp, region, ratio,
                                           rank=fine_rank),
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
