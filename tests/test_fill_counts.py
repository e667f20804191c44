"""Exact counts of what the first use of a fill schedule builds, and
the declarations it builds them from.

On the ``sod_small_patches`` end-to-end workload at seed 0 (Sod 64x64,
three levels of 8-cell patches, one rank, batched, regridding before
step 5) every regrid throws the fill schedules away, so the step after
it builds each schedule's geometry and plan again.  The geometry is
arrays and the plan's cuts are made once per geometry and grouping, so
that first use builds few ``Box`` objects, compiles no per-patch plan
(a regrid's per-patch fills charge rows read off sizes) and cuts
nothing twice.  What a recorded copy or stream declares it reads and
writes comes from the geometry's patch-index arrays, and is what walking
its items declares.

On all four workloads no fill stamps a time, the overlap workload's step
graphs hold only data motion, kernels, the reduction and frees (an exact
task count), and a level a regrid drops is freed by reference counting.
Tagging a level launches nothing per patch: exact ``Device.launch``
counts on the three AMR workloads, charges equal to per-patch tagging's.
"""

from __future__ import annotations

import gc
from collections import Counter
from dataclasses import replace

import pytest
from tag_oracle import per_patch_tagging

import repro.xfer.fill_plan as fill_plan
import repro.xfer.refine_schedule as refine_schedule
from repro.api import (
    ExecutionPolicy,
    RegridPolicy,
    RunConfig,
    RunSession,
    SodProblem,
    TriplePointProblem,
    build_simulation,
    run,
)
from repro.exec.plan import Scratch
from repro.gpu.device import Device
from repro.hydro.fields import FIELD_GROUPS, PRIMARY_FIELDS
from repro.mesh.box import Box
from repro.mesh.box_array import BoxArray
from repro.mesh.patch import Patch
from repro.mesh.patch_level import PatchLevel
from repro.pdat.patch_data import PatchData
from repro.pdat.space import HOST
from repro.sched.task import TaskGraph, TaskKind
from repro.xfer.refine_schedule import RefineSchedule

#: ``benchmarks/e2e/workloads.sod_small_patches`` at seed 0
CONFIG = RunConfig(problem=SodProblem((64, 64)), max_levels=3,
                   max_patch_size=8, nranks=1,
                   execution=ExecutionPolicy(batch=True), max_steps=6)


@pytest.fixture
def counted(monkeypatch):
    """Counts: ``compile_fill`` calls by grouping, ``per_patch_rows`` and
    ``emit_tasks`` calls, and ``Box`` constructions inside geometry
    builds and plan compiles (``Box``)."""
    counts: Counter = Counter()
    depth = [0]

    def inside(module, name, key=None):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            if key is not None:
                counts[key(*args, **kwargs)] += 1
            depth[0] += 1
            try:
                return original(*args, **kwargs)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(module, name, wrapper)

    inside(refine_schedule, "build_fill_geometry")
    inside(refine_schedule, "compile_fill",
           lambda sched, fused: f"compile_fill(fused={fused})")
    inside(refine_schedule, "per_patch_rows", lambda *_: "per_patch_rows")
    inside(refine_schedule.RefineSchedule, "emit_tasks",
           lambda *_, **__: "emit_tasks")
    init = Box.__init__

    def box_init(self, *args, **kwargs):
        counts["Box"] += bool(depth[0])
        init(self, *args, **kwargs)
    monkeypatch.setattr(Box, "__init__", box_init)
    return counts


def test_a_run_without_task_recording_compiles_no_per_patch_plan(counted):
    """Set-up fills nothing per patch; the step-5 regrid fills per patch
    (four schedules), charged from sizes: not one per-patch plan is
    compiled."""
    session = RunSession(CONFIG)
    assert counted["per_patch_rows"] == 0
    while not session.done:
        session.advance(1)
    session.close()
    assert counted["per_patch_rows"] == 4
    assert counted["compile_fill(fused=True)"] > 0
    assert counted["compile_fill(fused=False)"] == 0
    assert counted["emit_tasks"] == 0


def test_the_first_step_builds_few_boxes(counted):
    """Step 1 builds six geometries and compiles eighteen plans with at
    most 310 ``Box`` constructions between them (the transactions,
    regions and halo walls as objects were 3,100)."""
    session = RunSession(CONFIG)
    counted.clear()
    session.advance(1)
    session.close()
    assert counted["compile_fill(fused=True)"] == 18
    assert counted["Box"] <= 310


def test_a_second_schedule_over_a_geometry_recomputes_no_cut(monkeypatch):
    """Two step-fill schedules of one level share their geometries and
    grouping: the second one's compile binds the first one's cuts and
    units, making none."""
    session = RunSession(CONFIG)
    sim = session.sim
    level = sim.hierarchy.level(2)
    first = sim._fill_schedule_for(level, PRIMARY_FIELDS)
    first.fill()
    cuts = Counter()
    for cls, name in ((fill_plan._FlatCopies, "cut"),
                      (fill_plan._FlatGeometry, "_units")):
        original = getattr(cls, name)

        def counting(*args, original=original, name=name):
            cuts[name] += 1
            return original(*args)
        monkeypatch.setattr(cls, name, counting)
    second = sim._fill_schedule_for(level, FIELD_GROUPS["step_start"])
    assert second is not first and second.batch == first.batch
    shared = {id(g) for _, g in first.items} & {id(g) for _, g in second.items}
    assert shared == {id(g) for _, g in second.items}
    second.fill()
    assert second._plan is not None
    assert not cuts
    session.close()


def _plans(plan) -> list:
    """Every copy and stream plan of a compiled fill (the gathers bound
    to a scratch of their own)."""
    out = [copy for _, copy in plan.copies]
    out += [p for *_, pack, unpack in plan.streams for p in (pack, unpack)]
    for unit in plan.interps:
        out += [p for *_, pack, unpack in unit.gathers for p in (pack, unpack)]
        out += [ri.gather(Scratch(HOST, ri.size))
                for ri in unit.ranks.values()]
    return [p for p in out if p.count]


def _copied(sched, plan) -> list:
    """``(variable, src patch, dst patch, region)`` of every same-level
    copy a compiled fill's items name, sorted."""
    patch_of = {id(p.data(n)): (p.global_id, n)
                for p in sched.dst_level for n in p.data_names()}
    pairs = [(dst, src, region) for _, copy in plan.copies
             for dst, src, region in copy]
    pairs += [(dst, src, region) for *_, pack, unpack in plan.streams
              for (src, region), (dst, _) in zip(pack, unpack)]
    return sorted((patch_of[id(dst)][1], patch_of[id(src)][0],
                   patch_of[id(dst)][0], tuple(region.lower),
                   tuple(region.upper)) for dst, src, region in pairs)


def test_declared_operands_are_the_items_distinct_operands():
    """Two ranks, three ragged levels, both groupings: every plan's
    declared operands, taken from the patch-index arrays, are the
    distinct operands of its items in first-use order, and the items are
    the geometry's transactions, variable by variable."""
    sim = build_simulation(RunConfig(
        problem=TriplePointProblem((28, 12)), nranks=2, max_levels=3,
        max_patch_size=8, execution=ExecutionPolicy(batch=True)))
    sim.initialise()
    kinds = Counter()
    for level in list(sim.hierarchy)[1:]:
        coarse = sim.hierarchy.level(level.level_number - 1)
        specs = sim._fill_schedule_for(level, PRIMARY_FIELDS).specs
        for batch in (True, False):
            sched = RefineSchedule(level, coarse, specs, sim.comm,
                                   boundary=sim.boundary, batch=batch)
            compiled = fill_plan.compile_fill(sched, batch)
            assert _copied(sched, compiled) == sorted(
                (spec.var.name, src.global_id, dst.global_id,
                 tuple(region.lower), tuple(region.upper))
                for spec, geom in sched.items
                for src, dst, region in geom.copies)
            for plan in _plans(compiled):
                items = list(plan)
                kinds[type(plan).__name__, len(items[0])] += 1
                for k in range(len(items[0]) - 1):
                    assert plan.column(k) == tuple(dict.fromkeys(
                        item[k] for item in items))
    assert kinds["CopyPlan", 3] and kinds["StreamPlan", 2]


# -- what the four end-to-end workloads record and leave behind -------------------

#: the four ``benchmarks/e2e/workloads.py`` configurations at seed 0
WORKLOADS = {
    "sod_small_patches": CONFIG,
    "sod_uniform": RunConfig(
        problem=SodProblem((384, 384)), max_levels=1, max_patch_size=192,
        nranks=1, execution=ExecutionPolicy(batch=True), max_steps=12),
    "tp_regrid_every_step": RunConfig(
        problem=TriplePointProblem((56, 24)), max_levels=3,
        max_patch_size=16, nranks=1, execution=ExecutionPolicy(batch=True),
        regrid=RegridPolicy(interval=1), max_steps=6),
    "sod_multirank_overlap": RunConfig(
        problem=SodProblem((64, 64)), max_levels=3, max_patch_size=16,
        nranks=4, execution=ExecutionPolicy(batch=True, overlap=True),
        max_steps=6),
}


@pytest.fixture
def stamps(monkeypatch):
    """Calls of ``PatchData.set_time`` (a restart database's time field
    is all that still writes one)."""
    calls = []
    set_time = PatchData.set_time

    def counting(self, time):
        calls.append(time)
        return set_time(self, time)

    monkeypatch.setattr(PatchData, "set_time", counting)
    return calls


@pytest.mark.parametrize("name", WORKLOADS)
def test_no_fill_stamps_a_time(name, stamps):
    """Every level advances with the one global dt, so no fill — of a
    step, of a regrid, recorded or replayed — stamps a time on the data
    it fills."""
    res = run(replace(WORKLOADS[name], max_steps=2))
    assert res.steps == 2
    assert stamps == []


def test_the_overlap_step_graphs_hold_only_data_motion_kernels_and_frees(
        monkeypatch, stamps):
    """The captured step graphs of ``sod_multirank_overlap`` hold kernels,
    copies, the six stages of a message stream, the dt reduction and
    scratch frees — nothing else — and 11,746 tasks execute in the
    6-step pass."""
    kinds = Counter()
    add = TaskGraph.add

    def recording(self, kind, *args, **kwargs):
        kinds[kind] += 1
        return add(self, kind, *args, **kwargs)

    monkeypatch.setattr(TaskGraph, "add", recording)
    res = run(WORKLOADS["sod_multirank_overlap"])
    assert set(kinds) == {
        TaskKind.KERNEL, TaskKind.COPY, TaskKind.PACK, TaskKind.D2H,
        TaskKind.H2D, TaskKind.UNPACK, TaskKind.SEND, TaskKind.RECV,
        TaskKind.REDUCE, TaskKind.FREE}
    assert res.metrics["counters"]["sched.tasks"] == 11_746
    assert stamps == []


def test_a_dropped_level_is_freed_without_the_cycle_collector():
    """A patch refers to its level weakly, so a level a regrid drops —
    its patches, boxes and box arrays — is freed by reference counting:
    a ``tp_regrid_every_step`` step (one regrid) leaves no ``Patch``,
    ``PatchLevel`` or ``BoxArray`` for the cycle collector."""
    session = RunSession(WORKLOADS["tp_regrid_every_step"])
    session.advance(1)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        session.advance(1)
        gc.collect()
        found = [o for o in gc.garbage
                 if isinstance(o, (Patch, PatchLevel, BoxArray))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    regrids = session.sim.comm.rank(0).metrics.value("regrid.regrids")
    session.close()
    assert regrids >= 2
    assert not found, found[:5]


def test_set_up_initialises_each_built_level_once(monkeypatch):
    """Set-up initialises a level only through the regridder's hook,
    once per level each refinement pass builds: ``sod_small_patches``
    calls ``initialise_level`` four times (level 0, then level 1, then
    levels 1 and 2), on 128 fine-level patches."""
    from repro.hydro.patch_integrator import CleverleafPatchIntegrator

    levels = []
    initialise = CleverleafPatchIntegrator.initialise_level

    def counting(self, level, *args):
        levels.append((level.level_number, len(level.patches)))
        return initialise(self, level, *args)

    monkeypatch.setattr(CleverleafPatchIntegrator, "initialise_level",
                        counting)
    build_simulation(CONFIG).initialise()
    assert [lnum for lnum, _ in levels] == [0, 1, 1, 2]
    assert sum(n for lnum, n in levels if lnum) == 128


def test_set_up_builds_only_the_tagging_fills(monkeypatch):
    """Set-up writes each built level from the initial conditions, so it
    transfers and ghost-fills nothing it would then overwrite: on
    ``sod_small_patches`` its only fills are the error estimation's
    (level 0, then levels 0-1, then levels 0-2): four schedules built,
    six fills, and no per-patch rows read."""
    counts: Counter = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    count(RefineSchedule, "__init__")
    count(RefineSchedule, "fill")
    count(refine_schedule, "per_patch_rows")
    build_simulation(CONFIG).initialise()
    assert counts == {"__init__": 4, "fill": 6}


#: ``Device.launch`` calls of set-up and of the step loop at seed 0:
#: tagging patch by patch, and a level per shape bucket
LAUNCHES = {
    "sod_small_patches": ((347, 933), (27, 741)),
    "tp_regrid_every_step": ((95, 1128), (27, 816)),
    "sod_multirank_overlap": ((328, 5704), (248, 5656)),
}


def _counted_run(monkeypatch, cfg) -> tuple:
    """``((set-up launches, step launches), RunResult)`` of one run."""
    calls = [0]
    launch = Device.launch

    def counting(self, *args, **kwargs):
        calls[0] += 1
        return launch(self, *args, **kwargs)

    monkeypatch.setattr(Device, "launch", counting)
    session = RunSession(cfg)
    setup = calls[0]
    session.advance()
    return (setup, calls[0] - setup), session.result()


def _charged(res) -> tuple:
    """Everything a run charges and computes, but its wall clock."""
    counters = {k: v for k, v in res.metrics["counters"].items()
                if not k.startswith("batch.host_seconds")}
    return (counters, res.metrics["gauges"], res.final_fields,
            res.dt_history, res.runtime,
            [(r.clock.time, r.device.default_stream.clock.time)
             for r in res.sim.comm.ranks])


@pytest.mark.parametrize("name", LAUNCHES)
def test_levels_are_tagged_per_bucket_and_charged_per_patch(name,
                                                           monkeypatch):
    """A level is tagged one stacked sweep per shape bucket, so set-up's
    ``Device.launch`` calls fall 347 -> 27 on ``sod_small_patches`` (and
    the step loop's 933 -> 741, its step-5 regrid tagging too), while
    every counter (``regrid.*`` and ``device.*`` among them), gauge,
    rank clock, field and dt stays the per-patch tagging program's."""
    with per_patch_tagging(monkeypatch):
        ref_counts, ref = _counted_run(monkeypatch, WORKLOADS[name])
    counts, got = _counted_run(monkeypatch, WORKLOADS[name])
    assert (ref_counts, counts) == LAUNCHES[name]
    assert _charged(got) == _charged(ref)
