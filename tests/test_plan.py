"""Compiled transfers: flat-index plans against the per-region reference.

A compiled plan must be a pure host-side rewrite of the per-region
program it replaces, so every layer is pinned against that program:

* ``exec.plan`` — a compiled copy / pack / unpack over random ragged
  arenas equals ``PatchData.copy`` / ``pack_stream`` / ``unpack_stream``
  region by region, in both memory spaces and all four centrings;
* ``geom.interp_math`` — the flat evaluation of a refine stencil over many
  regions' points equals the per-region function, bit for bit;
* ``xfer.fill_plan`` — replaying a cached schedule does no box algebra and
  allocates one scratch slab per rank (level-wide) or per interpolated
  region (per patch), and a plan whose level was rebuilt by a regrid can
  only raise, never read stale memory; replaying a cached sync allocates
  one scratch slab per ship and compiles nothing;
* ``xfer.fill_plan`` against the per-region program itself
  (``tests/fill_oracle.py``) — compiled fills of both groupings leave its
  bits on random ragged hierarchies, the per-patch grouping with its
  launch sequence, messages and device high-water; a geometry shared by
  both groupings keeps each its own; a per-patch fill refuses a centring
  group that mixes refine operators;
* ``xfer.coarsen_schedule`` against the per-transaction program — compiled
  syncs of both groupings, under both sinks, leave its bits, launch
  sequence, messages and device high-water.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from fill_oracle import PerRegionSchedule, PerTransactionSync
from geometry_oracle import cell_indices
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api import ExecutionPolicy, RegridPolicy, RunConfig, build_simulation
from repro.comm.simcomm import SimCommunicator
from repro.exec import backend as backend_module
from repro.exec.backend import UNCHARGED_HOST, ResidentDeviceBackend
from repro.exec.plan import (CopyPlan, StreamPlan, compile_copies,
                              compile_stream, ravel_index)
from repro.geom import interp_math as m
from repro.geom.operators import (
    CellConservativeLinearRefine,
    CellMassWeightedCoarsen,
    CellVolumeWeightedCoarsen,
    NodeInjectionCoarsen,
    SideSumCoarsen,
)
from repro.gpu.device import K20X, Device
from repro.hydro.fields import FIELD_GROUPS, PRIMARY_FIELDS
from repro.hydro.problems import SodProblem
from repro.mesh.box import Box, IntVector
from repro.mesh.box_array import box_points
from repro.mesh.variables import CudaDataFactory, Variable
from repro.pdat import HOST, Arena, PatchData
from repro.regrid.load_balance import chop_boxes
from repro.sched.builder import GraphBuilder
from repro.sched.executor import GraphExecutor
from repro.xfer.coarsen_schedule import CoarsenSchedule, CoarsenSpec
from repro.xfer.fill_plan import MixedRefineError
from repro.xfer.message import ImmediateSink
from repro.xfer.refine_schedule import FillSpec, RefineSchedule

CENTRINGS = [("cell", 0), ("node", 0), ("side", 0), ("side", 1)]


# -- box_points: the one region -> array conversion ----------------------------


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9),
                          st.integers(-1, 5), st.integers(-1, 5)),
                max_size=6))
def test_box_points_visits_every_index_row_major(corners):
    boxes = [Box((i, j), (i + h, j + w)) for i, j, h, w in corners]
    which, (c0, c1) = box_points(boxes)
    want = [(k, *index) for k, box in enumerate(boxes)
            for index in cell_indices(box)]
    assert list(zip(which.tolist(), c0.tolist(), c1.tolist())) == want


# -- (i) compiled copy / pack / unpack == the per-region PatchData calls --------


def test_ravel_index_is_c_order_inside_each_block():
    # block 0: 2x3 at offset 0, lower (0, 0); block 1: 3x2 at offset 6,
    # lower (-1, 4)
    offsets, lowers, shapes = [0, 6], [(0, 0), (-1, 4)], [(2, 3), (3, 2)]
    which = np.array([0, 0, 1, 1, 1])
    coords = (np.array([0, 1, -1, 0, 1]), np.array([2, 0, 4, 5, 5]))
    got = ravel_index(offsets, lowers, shapes, which, coords)
    assert got.tolist() == [2, 3, 6, 9, 11]
    store = np.arange(12)
    assert store[got].tolist() == [2, 3, 6, 9, 11]


@pytest.mark.parametrize("point", [(2, 0), (0, 3), (-1, 0)])
def test_ravel_index_raises_for_a_point_outside_its_block(point):
    with pytest.raises(IndexError, match="not contained"):
        ravel_index([0, 6], [(0, 0), (0, 0)], [(2, 3), (2, 3)],
                    np.array([0, 1]),
                    (np.array([0, point[0]]), np.array([0, point[1]])))


class _DeviceRank:
    """The little of a rank a resident backend needs."""

    def __init__(self):
        self.device = Device(K20X)
        self.metrics = self.device.metrics
        self.index = 0


def _world(kind):
    """(space, backend, access scope) for one memory space."""
    if kind == "host":
        return HOST, UNCHARGED_HOST, nullcontext
    rank = _DeviceRank()
    return rank.device, ResidentDeviceBackend(rank), rank.device._memcpy_scope


def _ragged_row(space, var, widths, rng):
    """Arena-backed members side by side along x, one per width (so the
    arena is as ragged as ``widths``), random contents."""
    boxes, lo = [], 0
    for w in widths:
        boxes.append(Box((lo, 0), (lo + w - 1, 3 + w % 2)))
        lo += w
    shapes = [tuple(var.frame(b).shape()) for b in boxes]
    arena = Arena(space, sum(a * b for a, b in shapes))
    pds = []
    for box, shape in zip(boxes, shapes):
        pd = PatchData(var, box, space, member=arena.place(shape))
        pd.from_host(rng.random(shape))
        pds.append(pd)
    return pds


def _region_in(frame: Box, rng) -> Box:
    lo = [int(rng.integers(frame.lower[a], frame.upper[a] + 1)) for a in (0, 1)]
    hi = [int(rng.integers(lo[a], frame.upper[a] + 1)) for a in (0, 1)]
    return Box(lo, hi)


def _clone(space, var, pds):
    """Standalone (non-arena) copies of ``pds``: the reference operands."""
    out = []
    for pd in pds:
        twin = PatchData(var, pd.box, space)
        twin.from_host(pd.to_host())
        out.append(twin)
    return out


@pytest.mark.parametrize("kind", ["host", "device"])
@pytest.mark.parametrize("centring,axis", CENTRINGS)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       widths=st.lists(st.integers(2, 5), min_size=2, max_size=5),
       nregions=st.integers(1, 8))
def test_compiled_transfers_equal_the_per_region_calls(kind, centring, axis,
                                                       seed, widths, nregions):
    space, backend, _ = _world(kind)
    rng = np.random.default_rng(seed)
    var = Variable("q", centring, 2, axis)
    srcs = _ragged_row(space, var, widths, rng)
    dsts = _ragged_row(space, var, widths, rng)
    picks = [int(rng.integers(len(widths))) for _ in range(nregions)]
    # regions inside both operands' frames (same boxes): in-frame for all
    regions = [_region_in(srcs[k].get_ghost_box(), rng) for k in picks]

    # reference: one PatchData call per region, on standalone twins
    ref_src, ref_dst = _clone(space, var, srcs), _clone(space, var, dsts)
    for k, region in zip(picks, regions):
        ref_dst[k].copy(ref_src[k], region)
    stream = np.concatenate(
        [ref_src[k].pack_stream(region) for k, region in zip(picks, regions)])

    plan = compile_copies([(dsts[k], srcs[k], r) for k, r in zip(picks, regions)])
    assert len(plan.groups) == 1 and plan.count == nregions
    backend.copy_batch(plan)
    for got, want in zip(dsts, ref_dst):
        assert np.array_equal(got.to_host(), want.to_host())

    pack = compile_stream([(srcs[k], r) for k, r in zip(picks, regions)])
    assert len(pack.groups) == 1 and pack.total == stream.size
    assert np.array_equal(backend.pack_batch(pack), stream)

    # unpack the reversed stream: a different value lands in every element
    ref_off = 0
    for k, region in zip(picks, regions):
        n = region.size()
        ref_dst[k].unpack_stream(stream[::-1][ref_off:ref_off + n], region)
        ref_off += n
    backend.unpack_batch(
        stream[::-1], compile_stream([(dsts[k], r) for k, r in zip(picks, regions)]))
    for got, want in zip(dsts, ref_dst):
        assert np.array_equal(got.to_host(), want.to_host())


def test_compiling_a_region_outside_its_frame_raises():
    var = Variable("q", "cell", 2)
    a, b = _ragged_row(HOST, var, [3, 4], np.random.default_rng(0))
    outside = Box((40, 40), (41, 41))
    with pytest.raises(IndexError):
        compile_copies([(a, b, outside)])
    with pytest.raises(IndexError):
        compile_stream([(a, outside)])


def test_plans_reach_storage_only_inside_a_launch_and_never_after_free():
    """The slab's own discipline guards every replay: a device plan body
    outside a launch is a memory-space error, a released slab a
    use-after-free."""
    from repro.gpu.errors import MemorySpaceError

    space, backend, _ = _world("device")
    var = Variable("q", "cell", 2)
    rng = np.random.default_rng(1)
    srcs, dsts = (_ragged_row(space, var, [3, 4], rng) for _ in range(2))
    plan = compile_copies([(d, s, s.box) for d, s in zip(dsts, srcs)])
    (dst, src, dst_index, src_index), = plan.groups
    with pytest.raises(MemorySpaceError):
        dst.flat()[dst_index] = src.flat()[src_index]
    backend.copy_batch(plan)  # inside the launch: fine
    for pd in dsts:
        pd.free()
    with pytest.raises(RuntimeError, match="use after free"):
        backend.copy_batch(plan)


# -- (ii) flat refine == per-region refine -------------------------------------

STENCILS = [("node", m.NODE_LINEAR),
            ("cell", m.CELL_CONSERVATIVE_LINEAR),
            ("side-x", m.SIDE_CONSERVATIVE_LINEAR[0]),
            ("side-y", m.SIDE_CONSERVATIVE_LINEAR[1])]


@pytest.mark.parametrize("name,stencil", STENCILS,
                         ids=[s[0] for s in STENCILS])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), nregions=st.integers(1, 6),
       r0=st.integers(1, 4), r1=st.integers(1, 4))
def test_flat_refine_is_bitwise_the_per_region_refine(name, stencil, seed,
                                                      nregions, r0, r1):
    """Many regions, each with its own coarse block of its own shape,
    evaluated at once against one flat coarse array and scattered into one
    flat fine array: every element equals the per-region function's."""
    rng = np.random.default_rng(seed)
    ratio = IntVector(r0, r1)
    regions, cframes, coarse, fframes = [], [], [], []
    for _ in range(nregions):
        lo = rng.integers(-12, 12, 2)
        region = Box(lo.tolist(), (lo + rng.integers(0, 6, 2)).tolist())
        c = region.coarsen(ratio)
        pad_lo, pad_hi = rng.integers(1, 3, 2), rng.integers(2, 4, 2)
        cframe = Box(c.lower - IntVector(pad_lo), c.upper + IntVector(pad_hi))
        regions.append(region)
        cframes.append(cframe)
        coarse.append(rng.standard_normal(tuple(cframe.shape())))
        fframes.append(region.grow(int(rng.integers(0, 3))))

    want = []
    for region, cframe, carr, fframe in zip(regions, cframes, coarse, fframes):
        fine = np.full(tuple(fframe.shape()), np.nan)
        m.refine_region(stencil, carr, cframe, fine, fframe, region, ratio)
        want.append(fine)

    coarse_flat = np.concatenate([c.ravel() for c in coarse])
    coffs = np.cumsum([0] + [c.size for c in coarse[:-1]])
    foffs = np.cumsum([0] + [f.size() for f in fframes[:-1]])
    fine_flat = np.full(sum(f.size() for f in fframes), np.nan)
    which, (f0, f1) = box_points(regions)
    width = np.array([f.shape()[1] for f in cframes])
    origin = np.array([off - f.lower[0] * f.shape()[1] - f.lower[1]
                       for off, f in zip(coffs, cframes)])
    fwidth = np.array([f.shape()[1] for f in fframes])
    flo = np.array([f.lower for f in fframes])
    fine_index = (foffs[which] + (f0 - flo[which, 0]) * fwidth[which]
                  + (f1 - flo[which, 1]))
    gather, weights = m.flat_refine_terms(stencil, f0, f1, ratio,
                                          origin[which], width[which])
    m.refine_flat(stencil, coarse_flat, gather, weights, fine_flat, fine_index)

    for off, fframe, fine in zip(foffs, fframes, want):
        got = fine_flat[off:off + fframe.size()].reshape(fine.shape)
        assert np.array_equal(got, fine, equal_nan=True)


# -- (iv), (v) replay and invalidation on a real hierarchy ---------------------


def _ragged_sim(steps=0, batch=True):
    """Sod 24x23, three levels, 8-cell patches: every level is ragged."""
    sim = build_simulation(RunConfig(
        problem=SodProblem((24, 23)), nranks=1, max_levels=3,
        max_patch_size=8, regrid=RegridPolicy(interval=3), max_steps=8,
        execution=ExecutionPolicy(batch=batch)))
    sim.initialise()
    sim.run(max_steps=steps)
    return sim


def test_replaying_a_cached_fill_does_no_box_algebra_and_one_alloc_per_rank(
        monkeypatch):
    """Level-wide, one scratch slab for the one rank; per patch, one per
    interpolated region, where the region's temporaries were.  A cached
    sync, in either grouping, allocates one scratch slab per ship (what
    each ``sync.free`` releases: one per rank pair level-wide, one per
    transaction else), no patch data, does no box algebra and compiles
    no item list."""
    counts = {"Box.__init__": 0, "Box.slices_in": 0, "Device.empty": 0,
              "allocate": 0, "compile": 0, "sync.free": 0}

    def counting(cls, attr, key, when=lambda *args, **kwargs: True):
        original = getattr(cls, attr)

        def wrapper(*args, **kwargs):
            counts[key] += bool(when(*args, **kwargs))
            return original(*args, **kwargs)
        monkeypatch.setattr(cls, attr, wrapper)

    counting(Box, "__init__", "Box.__init__")
    counting(Box, "slices_in", "Box.slices_in")
    counting(Device, "empty", "Device.empty")
    counting(CudaDataFactory, "allocate", "allocate")
    counting(backend_module, "compile_copies", "compile",
             lambda items: not isinstance(items, CopyPlan))
    counting(backend_module, "compile_stream", "compile",
             lambda items: not isinstance(items, StreamPlan))
    counting(ImmediateSink, "add", "sync.free",
             lambda self, kind, rank, label, *args, **kw: label == "sync.free")
    for batch in (True, False):
        sim = _ragged_sim(batch=batch)
        level = sim.hierarchy.level(sim.hierarchy.num_levels - 1)
        assert len({tuple(p.box.shape()) for p in level}) > 1, "level is ragged"
        sched = sim._fill_schedule_for(level, FIELD_GROUPS["step_start"])
        sched.fill(time=0.0)  # first use compiles the plan
        assert sched._plan and sched._plan.interps, "fine level interpolates"
        assert sim._fill_schedule_for(level, FIELD_GROUPS["step_start"]) is sched
        regions = sum(len(geom.interps) for geom, _ in sched.sig_groups)
        assert regions > 1

        counts.update(dict.fromkeys(counts, 0))
        sched.fill(time=0.0)
        assert counts["Box.__init__"] == 0 and counts["Box.slices_in"] == 0
        assert counts["Device.empty"] == (1 if batch else regions), batch

        sync = sim._coarsen_schedule_for(level.level_number)
        sync.coarsen()  # first use compiles the sync
        assert sim._coarsen_schedule_for(level.level_number) is sync
        counts.update(dict.fromkeys(counts, 0))
        sync.coarsen()
        pairs = {(t.fine_patch.owner, t.coarse_patch.owner)
                 for t in sync.transactions}
        assert len(sync.transactions) > len(pairs)
        assert counts["sync.free"] == (len(pairs) if batch
                                       else len(sync.transactions))
        assert counts["Box.__init__"] == 0, batch
        assert counts["Device.empty"] == counts["sync.free"], batch
        assert counts["allocate"] == 0 and counts["compile"] == 0, batch


def test_a_purged_schedules_plan_raises_instead_of_reading_a_released_slab():
    sim = _ragged_sim()
    top = sim.hierarchy.num_levels - 1
    old_level = sim.hierarchy.level(top)
    sched = sim._fill_schedule_for(old_level, FIELD_GROUPS["step_start"])
    sched.fill(time=0.0)
    sim.run(max_steps=3)  # the step-3 regrid rebuilds the fine levels
    assert sim.hierarchy.level(top) is not old_level, "level was rebuilt"
    # no surviving cache entry names the released level ...
    for levels, cached in sim.schedule_cache._entries.values():
        assert old_level not in levels and cached is not sched
    # ... and the purged schedule's plan cannot be replayed onto it
    with pytest.raises(RuntimeError, match="use after free"):
        sched.fill(time=0.0)


def test_a_batched_schedule_on_a_per_patch_allocated_level_raises_naming_it():
    """Every fill compiles against arenas, batched or not: a hand-built
    level allocated patch by patch is a typed error naming the level, not
    a silent per-region fallback."""
    from repro.comm.simcomm import make_communicator
    from repro.exec.plan import UnpooledLevelError
    from repro.mesh.geometry import CartesianGridGeometry
    from repro.mesh.hierarchy import PatchHierarchy
    from repro.mesh.variables import HostDataFactory, VariableRegistry
    from repro.xfer.refine_schedule import FillSpec, RefineSchedule

    comm = make_communicator("IPA", 1, gpus=False)
    geom = CartesianGridGeometry(Box([0, 0], [15, 15]), (0, 0), (1, 1))
    hier = PatchHierarchy(geom, max_levels=1, refinement_ratio=2)
    reg = VariableRegistry()
    reg.declare("rho", "cell", 2)
    level = hier.make_level(0, [Box([0, 0], [7, 15]), Box([8, 0], [15, 15])],
                            [0, 0])
    factory = HostDataFactory()
    for patch in level:
        patch._data["rho"] = factory.allocate(reg["rho"], patch.box,
                                              comm.rank(patch.owner))
    for batch in (True, False):
        sched = RefineSchedule(level, None, [FillSpec(reg["rho"])], comm,
                               batch=batch)
        with pytest.raises(UnpooledLevelError, match="level 0 holds 'rho'"):
            sched.fill()


# -- (vi) compiled fills == the per-region program -------------------------------

#: two cell and two node variables (one refine launch covers both), and
#: one side variable per axis: all four centrings
ORACLE_FIELDS = ("density0", "energy0", "xvel0", "yvel0", "vol_flux_x",
                 "vol_flux_y")


@contextmanager
def _recording():
    """``(launches, messages)`` posted while the block runs: ``(kernel,
    rank, elements)`` per device launch, ``(src, dst, bytes)`` per
    message, whichever sink posted it."""
    launches, messages = [], []
    launch, exchange = Device.launch, SimCommunicator.exchange
    isend = SimCommunicator.isend

    def recorded_launch(self, name, elements, fn, *args, **kwargs):
        launches.append((getattr(name, "name", name), self.trace_rank,
                         int(elements)))
        return launch(self, name, elements, fn, *args, **kwargs)

    def recorded_exchange(self, posted):
        messages.extend((msg.src, msg.dst, msg.nbytes) for msg in posted)
        return exchange(self, posted)

    def recorded_isend(self, msg):
        messages.append((msg.src, msg.dst, msg.nbytes))
        return isend(self, msg)

    Device.launch, SimCommunicator.exchange = recorded_launch, recorded_exchange
    SimCommunicator.isend = recorded_isend
    try:
        yield launches, messages
    finally:
        Device.launch, SimCommunicator.exchange = launch, exchange
        SimCommunicator.isend = isend


def _state(levels, names, seed):
    """Random values in every frame (ghosts too): ``{pd: host array}``."""
    rng = np.random.default_rng(seed)
    return {patch.data(n): rng.uniform(0.5, 2.0, tuple(
                patch.data(n).get_ghost_box().shape()))
            for level in levels for patch in level for n in names}


def _outcome(sched, state, comm):
    """Run ``sched`` once from ``state``: ``(every destination frame,
    launches, messages, device high-water per rank)``."""
    for pd, host in state.items():
        pd.from_host(host)
    devices = [rank.device for rank in comm.ranks]
    for device in devices:
        device.metrics.gauge("device.peak_bytes").set(device.bytes_allocated)
    with _recording() as (launches, messages):
        sched.fill(time=1.0)
    frames = [patch.data(spec.var.name).to_host()
              for patch in sched.dst_level for spec in sched.specs]
    return (frames, launches, messages,
            [d.peak_bytes for d in devices])


def _check_against_oracle(make, state, comm, factory):
    """``make(schedule class, **kwargs)`` -> a fill; both groupings leave
    the bits of the oracle (its temporaries from ``factory``), the
    per-patch one also its launches, messages and device high-water."""
    want = _outcome(make(PerRegionSchedule, factory=factory), state, comm)
    per_patch = _outcome(make(RefineSchedule, batch=False), state, comm)
    level_wide = _outcome(make(RefineSchedule, batch=True), state, comm)
    for got in (per_patch, level_wide):
        assert all(np.array_equal(a, b, equal_nan=True)
                   for a, b in zip(got[0], want[0]))
    assert per_patch[1:] == want[1:]


@pytest.mark.parametrize("nranks", [1, 4])
@settings(max_examples=5, deadline=None)
@given(nx=st.integers(16, 26), ny=st.integers(12, 22),
       max_patch=st.integers(5, 9), seed=st.integers(0, 2**31 - 1))
def test_compiled_fills_are_the_per_region_program(nranks, nx, ny, max_patch,
                                                   seed):
    """Ghost fills of every level, and regrid interior fills of a
    re-tiled fine level with and without an old level to copy from, on
    a random ragged three-level hierarchy: per-patch and level-wide
    compiled fills leave exactly the per-region program's bits."""
    sim = build_simulation(RunConfig(
        problem=SodProblem((nx, ny)), nranks=nranks, max_levels=3,
        max_patch_size=max_patch, execution=ExecutionPolicy(batch=False)))
    sim.initialise()
    hier, comm = sim.hierarchy, sim.comm
    assume(hier.num_levels == 3)
    assume(any(len({tuple(p.box.shape()) for p in level}) > 1
               for level in hier))
    specs = sim._specs_for(ORACLE_FIELDS)
    rng = np.random.default_rng(seed)

    for level in hier:
        coarse = hier.level(level.level_number - 1) if level.level_number else None
        _check_against_oracle(
            lambda cls, level=level, coarse=coarse, **kw: cls(
                level, coarse, specs, comm, boundary=sim.boundary, **kw),
            _state(hier, ORACLE_FIELDS, seed), comm, sim.factory)

    for lnum in (1, 2):
        boxes = [p.box for p in hier.level(lnum)]
        coarse = hier.level(lnum - 1)
        chopped, halved = chop_boxes(boxes, max_patch - 2), boxes[::2]
        new = hier.make_level(lnum, chopped,
                              rng.integers(0, nranks, len(chopped)).tolist())
        old = hier.make_level(lnum, halved,
                              rng.integers(0, nranks, len(halved)).tolist())
        for made in (new, old):
            made.allocate_all(sim.variables, sim.factory, comm)
        for src in (old, None):
            _check_against_oracle(
                lambda cls, new=new, coarse=coarse, src=src, **kw: cls(
                    new, coarse, specs, comm, src_level=src, interior=True,
                    **kw),
                _state([*hier, new, old], ORACLE_FIELDS, seed), comm,
                sim.factory)
        new.free_all()
        old.free_all()


def test_a_geometry_shared_by_both_groupings_keeps_each_its_own():
    """The regrid's per-patch ghost schedule and the integrator's
    level-wide one share their (level, centring) geometries, compiled
    indices included, through the schedule cache.  The grouping lives in
    each schedule's plan, so neither leaks into the other: filled
    alternately, the per-patch one keeps the per-region program's launch
    sequence and the level-wide one its one copy per owner, both with the
    per-region program's bits, and the shared indices compile once."""
    sim = _ragged_sim()
    level = sim.hierarchy.level(2)
    coarse = sim.hierarchy.level(1)
    level_wide = sim._fill_schedule_for(level, PRIMARY_FIELDS)
    per_patch = sim.regridder._ghost_schedule(level, coarse)
    assert level_wide.batch and not per_patch.batch
    assert all(a is b for (_, a), (_, b) in zip(level_wide.items,
                                               per_patch.items))
    state = _state(sim.hierarchy, PRIMARY_FIELDS, 7)
    oracle = PerRegionSchedule(level, coarse, per_patch.specs, sim.comm,
                               factory=sim.factory, boundary=sim.boundary)
    want = _outcome(oracle, state, sim.comm)
    owners = len({d.owner for _, g in per_patch.items for _, d, _ in g.copies})
    flats = None
    for _ in range(2):
        got = _outcome(per_patch, state, sim.comm)
        assert all(np.array_equal(a, b) for a, b in zip(got[0], want[0]))
        assert got[1:] == want[1:]
        got = _outcome(level_wide, state, sim.comm)
        assert all(np.array_equal(a, b) for a, b in zip(got[0], want[0]))
        assert len(level_wide._plan.copies) == owners
        assert len(per_patch._plan.copies) > owners
        now = [geom.flat for _, geom in per_patch.items]
        assert flats is None or all(a is b for a, b in zip(flats, now))
        flats = now


def test_a_per_patch_fill_rejects_a_centring_group_of_mixed_refine_operators():
    """The per-region program fell back to one launch per variable when a
    centring group mixed operator types; the per-patch grouping refines a
    region's variables in one launch, so it refuses such a group with a
    typed error, while a level-wide fill runs it as the oracle does."""
    class OtherCellRefine(CellConservativeLinearRefine):
        pass

    sim = _ragged_sim(batch=False)
    level, coarse = sim.hierarchy.level(2), sim.hierarchy.level(1)
    specs = [FillSpec(sim.variables["density0"], CellConservativeLinearRefine()),
             FillSpec(sim.variables["energy0"], OtherCellRefine())]

    def make(cls, **kw):
        return cls(level, coarse, specs, sim.comm,
                   boundary=sim.boundary, **kw)

    with pytest.raises(MixedRefineError, match="density0"):
        make(RefineSchedule, batch=False).fill()
    state = _state(sim.hierarchy, ("density0", "energy0"), 3)
    want = _outcome(make(PerRegionSchedule, factory=sim.factory), state,
                    sim.comm)
    got = _outcome(make(RefineSchedule, batch=True), state, sim.comm)
    assert all(np.array_equal(a, b) for a, b in zip(got[0], want[0]))


# -- (vii) compiled syncs == the per-transaction program ---------------------------


def _sync_outcome(sched, state, comm, recorded: bool):
    """Run ``sched`` once from ``state``, executed now or recorded into a
    graph and executed: ``(every coarse frame, launches, messages, device
    high-water per rank)``."""
    for pd, host in state.items():
        pd.from_host(host)
    devices = [rank.device for rank in comm.ranks]
    for device in devices:
        device.metrics.gauge("device.peak_bytes").set(device.bytes_allocated)
    with _recording() as (launches, messages):
        if recorded:
            gb = GraphBuilder(comm)
            sched.emit_tasks(gb)
            GraphExecutor(comm).execute(gb.graph)
        else:
            sched.coarsen()
    frames = [patch.data(spec.var.name).to_host()
              for patch in sched.coarse_level for spec in sched.specs]
    return (frames, launches, messages,
            [d.peak_bytes for d in devices])


@pytest.mark.parametrize("nranks", [1, 4])
@settings(max_examples=5, deadline=None)
@given(nx=st.integers(16, 26), ny=st.integers(12, 22),
       max_patch=st.integers(5, 9), seed=st.integers(0, 2**31 - 1))
def test_compiled_syncs_are_the_per_transaction_program(nranks, nx, ny,
                                                        max_patch, seed):
    """Every fine-to-coarse sync of a random ragged three-level hierarchy,
    and of its fine levels dealt to random owners (many cross-rank
    transactions onto one coarse patch), with all four coarsen operators,
    per transaction and level-wide, executed now and recorded into a
    graph: the compiled sync leaves exactly the per-transaction program's
    bits, launch sequence, messages and device high-water."""
    sim = build_simulation(RunConfig(
        problem=SodProblem((nx, ny)), nranks=nranks, max_levels=3,
        max_patch_size=max_patch, execution=ExecutionPolicy(batch=False)))
    sim.initialise()
    hier, comm, var = sim.hierarchy, sim.comm, sim.variables
    assume(hier.num_levels == 3)
    assume(any(len({tuple(p.box.shape()) for p in level}) > 1
               for level in hier))
    specs = [CoarsenSpec(var["energy0"], CellMassWeightedCoarsen(),
                         weight_name="density0"),
             CoarsenSpec(var["density0"], CellVolumeWeightedCoarsen()),
             CoarsenSpec(var["xvel0"], NodeInjectionCoarsen()),
             CoarsenSpec(var["yvel0"], NodeInjectionCoarsen()),
             CoarsenSpec(var["vol_flux_x"], SideSumCoarsen()),
             CoarsenSpec(var["vol_flux_y"], SideSumCoarsen())]
    rng = np.random.default_rng(seed)
    dealt = [hier.make_level(n, [p.box for p in hier.level(n)], rng.integers(
        0, nranks, len(hier.level(n).patches)).tolist()) for n in (1, 2)]
    for made in dealt:
        made.allocate_all(sim.variables, sim.factory, comm)
    state = _state([*hier, *dealt], [s.var.name for s in specs], seed)
    for fine in (hier.level(1), hier.level(2), *dealt):
        levels = (fine, hier.level(fine.level_number - 1), specs, comm)
        for batch in (False, True):
            oracle = PerTransactionSync(*levels, factory=sim.factory,
                                        batch=batch)
            compiled = CoarsenSchedule(*levels, batch=batch)
            for recorded in (False, True):
                want = _sync_outcome(oracle, state, comm, recorded)
                got = _sync_outcome(compiled, state, comm, recorded)
                assert all(np.array_equal(a, b)
                           for a, b in zip(got[0], want[0]))
                assert got[1:] == want[1:], (fine.level_number, batch,
                                             recorded)
    for made in dealt:
        made.free_all()
