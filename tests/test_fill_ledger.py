"""Per-patch fills executed level-wide, charged from ledger rows.

A per-patch :class:`~repro.xfer.refine_schedule.RefineSchedule` (the
step regrid's solution transfer and ghost fill, the serial
driver's step fills without ``batch``) executes the level-wide twin of
its plan uncharged and charges the per-patch plan from
:class:`~repro.gpu.ledger.ChargeLedger` rows read once off its
geometry's sizes, without compiling that plan; the construction and
post-regrid EOS runs one
stacked sweep per shape bucket and is charged one launch per patch.
The reference is the per-patch execution itself
(:func:`fill_oracle.per_patch_fills`, :func:`init_oracle.per_patch`):
every clock, counter, the device high-water mark, every field and,
under a tracer, every span must match it; and each schedule's rows must
be what a recording sink collects walking the compiled per-patch plan.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from fill_oracle import RecordingSink, execute_per_patch, per_patch_fills
from init_oracle import per_patch, per_patch_construction

from repro.comm.simcomm import make_communicator
from repro.gpu.ledger import ChargeLedger
from repro.hydro.fields import FIELD_GROUPS, PRIMARY_FIELDS
from repro.hydro.integrator import LagrangianEulerianIntegrator, SimulationConfig
from repro.hydro.patch_integrator import (
    CleverleafPatchIntegrator,
    NonResidentGpuPatchIntegrator,
)
from repro.hydro.problems import SodProblem, TriplePointProblem
from repro.mesh.variables import CudaDataFactory, HostDataFactory
from repro.obs.context import activate_tracer, deactivate_tracer
from repro.obs.trace import Tracer
from repro.regrid.load_balance import chop_boxes
from repro.regrid.regridder import RegridConfig
from repro.sched.builder import GraphBuilder
from repro.xfer.fill_plan import compile_fill
from repro.xfer.refine_schedule import RefineSchedule

#: problem, resolution, ranks, regrid interval
CASES = {
    "sod_1rank": (SodProblem, (24, 23), 1, 2),
    "triple_point_2rank": (TriplePointProblem, (28, 12), 2, 1),
}
#: where the patch data lives and which backend runs the kernels
SPACES = ("resident", "cpu", "nonresident")
STEPS = 3


def _sim(case: str, space: str, oracle: bool):
    problem_cls, resolution, nranks, interval = CASES[case]
    return _simulation(problem_cls(resolution), nranks, space, oracle,
                       max_patch=8, interval=interval)


def _simulation(problem, nranks: int, space: str, oracle: bool,
                max_patch: int, interval: int):
    comm = make_communicator("IPA", nranks, gpus=space != "cpu")
    factory = CudaDataFactory() if space == "resident" else HostDataFactory()
    pi = (NonResidentGpuPatchIntegrator() if space == "nonresident"
          else CleverleafPatchIntegrator())
    return LagrangianEulerianIntegrator(
        problem, comm, factory,
        SimulationConfig(max_levels=3, max_patch_size=max_patch,
                         regrid=RegridConfig(regrid_interval=interval)),
        patch_integrator=per_patch(pi) if oracle else pi)


def _run(case: str, space: str, oracle: bool, monkeypatch, steps=STEPS):
    sim = _sim(case, space, oracle)
    if oracle:
        with per_patch_construction(monkeypatch), per_patch_fills(monkeypatch):
            sim.initialise()
            sim.run(max_steps=steps)
    else:
        sim.initialise()
        sim.run(max_steps=steps)
    return sim


@pytest.fixture(scope="module")
def runs():
    """``run(case, space, oracle, traced)`` -> ``(simulation, spans)``
    after ``STEPS`` steps, each made once per module and shared by the
    tests that read it (none of them changes a run).  The oracle, the
    per-patch execution, runs traced: what it charges does not depend on
    the tracer, so one run is the reference of traced and untraced runs
    alike."""
    made: dict = {}

    def run(case: str, space: str, oracle: bool, traced: bool):
        key = (case, space, oracle, traced or oracle)
        if key not in made:
            tracer = Tracer() if key[3] else None
            if tracer is not None:
                activate_tracer(tracer)
            try:
                with pytest.MonkeyPatch.context() as mp:
                    sim = _run(case, space, oracle, mp)
            finally:
                if tracer is not None:
                    deactivate_tracer()
            made[key] = (sim, None if tracer is None else [
                (s.name, s.rank, s.lane, s.t0, s.t1) for s in tracer.spans])
        return made[key]

    return run


def _fields(sim):
    out = []
    for level in sim.hierarchy:
        for patch in level:
            for name in patch.data_names():
                pd = patch.data(name)
                space = pd.space
                if space.resident:
                    with space._memcpy_scope():
                        out.append(pd.data.array.copy())
                else:
                    out.append(pd.data.array.copy())
    return out


def _charges(sim):
    """Each rank's CPU clock, its device's host and default-stream
    clocks, and its whole metrics registry (``kernel``, ``stream``,
    ``transfer``, ``stack``, ``comm`` and ``batch`` families,
    ``device.peak_bytes``, phase seconds)."""
    return [(r.clock.time,
             r.device.host_clock.time if r.device else None,
             r.device.default_stream.clock.time if r.device else None,
             r.metrics.snapshot()) for r in sim.comm.ranks]


def _compare(ref, got) -> None:
    assert _charges(got) == _charges(ref)
    for a, b in zip(_fields(ref), _fields(got), strict=True):
        assert np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("space", SPACES)
def test_per_patch_fills_charge_what_executing_them_charged(case, space,
                                                            runs):
    """A ragged three-level run regridding as it goes: every clock,
    counter, ``device.peak_bytes`` and field match the per-patch
    execution."""
    ref, _ = runs(case, space, oracle=True, traced=False)
    got, _ = runs(case, space, oracle=False, traced=False)
    assert got.hierarchy.num_levels == 3
    assert any(len({p.box.shape() for p in level}) > 1
               for level in got.hierarchy)
    _compare(ref, got)
    snapshot = got.comm.rank(0).metrics.snapshot()["counters"]
    assert any(k.startswith("stack.regions{kernel=pdat.copy")
               for k in snapshot), "fills copied"
    if space == "resident":
        assert snapshot["kernel.launches{kernel=geom.refine,on=gpu}"] > 0


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("space", ("resident", "cpu"))
def test_per_patch_fills_emit_the_per_patch_spans(case, space, runs):
    """Under an active tracer the span lists (name, rank, track, t0, t1)
    are identical."""
    ref_sim, ref = runs(case, space, oracle=True, traced=True)
    got_sim, got = runs(case, space, oracle=False, traced=True)
    assert any(name == "geom.refine" for name, *_ in got)
    if CASES[case][2] > 1:
        assert any(name.startswith("send->") for name, *_ in got)
    assert got == ref
    _compare(ref_sim, got_sim)


def _per_patch_schedules(sim):
    """Per-patch schedules of every kind on every fine level: the
    regrid's ghost fill, an interior fill, and the step's fills."""
    out = []
    for level in list(sim.hierarchy)[1:]:
        coarse = sim.hierarchy.level(level.level_number - 1)
        out.append(sim._fill_schedule_for(level, PRIMARY_FIELDS,
                                          "regrid_ghost"))
        out.append(RefineSchedule(level, coarse, sim._specs_for(PRIMARY_FIELDS),
                                  sim.comm, src_level=level, interior=True))
        for names in (PRIMARY_FIELDS, FIELD_GROUPS["step_start"]):
            out.append(sim._fill_schedule_for(level, names))
    assert not any(sched.batch for sched in out)
    return out


def _walked(sched) -> tuple:
    """The rows a recording sink collects walking the schedule's
    per-patch plan verb by verb."""
    plan = compile_fill(sched, False)
    walked, walked_finish = ChargeLedger(), ChargeLedger()
    plan.transfer(RecordingSink(walked), not sched.interior, False)
    plan.finish(RecordingSink(walked_finish))
    return walked.rows, walked_finish.rows


@pytest.mark.parametrize("space", SPACES)
def test_a_schedules_rows_are_what_walking_its_per_patch_plan_records(space):
    """The rows a schedule reads off its geometry's sizes equal the rows
    a recording sink collects walking the same per-patch plan verb by
    verb — launches, copies, staging, scratch, messages and ``stack``
    counts, in order."""
    sim = _sim("triple_point_2rank", space, oracle=False)
    sim.initialise()
    kinds = set()
    for sched in _per_patch_schedules(sim):
        sched.fill()
        transfer, finish = sched._charges
        assert (transfer.rows, finish.rows) == _walked(sched)
        kinds.update(kind for kind, *_ in transfer.rows)
    want = {"cpu"} if space != "resident" else {"launch", "alloc", "free",
                                                "h2d", "d2h"}
    assert want | {"stack", "message"} <= kinds


@pytest.mark.parametrize("space", SPACES)
@settings(max_examples=4, deadline=None)
@given(nx=st.integers(16, 26), ny=st.integers(12, 22),
       max_patch=st.integers(5, 9), nranks=st.integers(1, 3),
       seed=st.integers(0, 2**31 - 1))
def test_rows_from_sizes_are_the_walked_plan_on_drawn_meshes(
        space, nx, ny, max_patch, nranks, seed):
    """On a random ragged three-level hierarchy over 1-3 ranks: every
    per-patch schedule's rows — ghost, interior and step fills of each
    fine level, and interior fills of a re-tiled fine level with random
    owners, from an old level or from nothing — equal its per-patch plan
    walked by a recording sink."""
    sim = _simulation(SodProblem((nx, ny)), nranks, space, oracle=False,
                      max_patch=max_patch, interval=2)
    sim.initialise()
    hier, comm = sim.hierarchy, sim.comm
    assume(hier.num_levels == 3)
    assume(any(len({tuple(p.box.shape()) for p in level}) > 1
               for level in hier))
    scheds = _per_patch_schedules(sim)
    rng = np.random.default_rng(seed)
    for lnum in (1, 2):
        boxes = [p.box for p in hier.level(lnum)]
        chopped, halved = chop_boxes(boxes, max_patch - 2), boxes[::2]
        new = hier.make_level(lnum, chopped,
                              rng.integers(0, nranks, len(chopped)).tolist())
        old = hier.make_level(lnum, halved,
                              rng.integers(0, nranks, len(halved)).tolist())
        for made in (new, old):
            made.allocate_all(sim.variables, sim.factory, comm)
        scheds.extend(RefineSchedule(new, hier.level(lnum - 1),
                                     sim._specs_for(PRIMARY_FIELDS), comm,
                                     src_level=src, interior=True)
                      for src in (old, None))
    for sched in scheds:
        sched.fill()
        transfer, finish = sched._charges
        assert (transfer.rows, finish.rows) == _walked(sched)


@pytest.mark.parametrize("space", ("resident", "cpu"))
def test_kept_rows_replayed_twice_equal_two_per_patch_fills(space,
                                                            monkeypatch):
    """A schedule records its rows once and replays the same rows on
    every fill; two fills charge and leave what two per-patch executions
    did.  The per-patch plan itself is not kept unless the schedule is
    recorded as tasks."""
    sims = [_run("triple_point_2rank", space, oracle, monkeypatch, steps=0)
            for oracle in (True, False)]
    scheds = [sim._fill_schedule_for(sim.hierarchy.level(2), PRIMARY_FIELDS)
              for sim in sims]
    for _ in range(2):
        execute_per_patch(scheds[0])
        scheds[1].fill()
        rows = scheds[1]._charges
        assert scheds[1]._tasks is None
    assert scheds[1]._charges is rows
    _compare(*sims)
    scheds[1].emit_tasks(GraphBuilder(sims[1].comm))
    assert scheds[1]._tasks is not None
