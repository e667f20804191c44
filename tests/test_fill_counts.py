"""Exact counts of what the first use of a fill schedule builds, and
the declarations it builds them from.

On the ``sod_small_patches`` end-to-end workload at seed 0 (Sod 64x64,
three levels of 8-cell patches, one rank, batched, regridding before
step 5) every regrid throws the fill schedules away, so the step after
it builds each schedule's geometry and plan again.  The geometry is
arrays and the plan's cuts are made once per geometry and grouping, so
that first use builds few ``Box`` objects, compiles no per-patch plan
(the regridder's per-patch fills charge rows read off sizes) and cuts
nothing twice.  What a recorded copy or stream declares it reads and
writes comes from the geometry's patch-index arrays, and is what walking
its items declares.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.xfer.fill_plan as fill_plan
import repro.xfer.refine_schedule as refine_schedule
from repro.api import (
    ExecutionPolicy,
    RunConfig,
    RunSession,
    SodProblem,
    TriplePointProblem,
    build_simulation,
)
from repro.exec.plan import Scratch
from repro.hydro.fields import FIELD_GROUPS, PRIMARY_FIELDS
from repro.mesh.box import Box
from repro.pdat.space import HOST
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
    """Set-up and the regrid fill per patch (six schedules, then four),
    charged from sizes: not one per-patch plan is compiled."""
    session = RunSession(CONFIG)
    assert counted["per_patch_rows"] == 6
    while not session.done:
        session.advance(1)
    session.close()
    assert counted["per_patch_rows"] == 10
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
    first.fill(time=0.0)
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
    second.fill(time=0.0)
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
