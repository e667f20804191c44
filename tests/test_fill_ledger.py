"""Per-patch fills executed level-wide, charged from ledger rows.

A per-patch :class:`~repro.xfer.refine_schedule.RefineSchedule` (the
regridder's solution transfer and ghost fill in every run, the serial
driver's step fills without ``batch``) executes the level-wide twin of
its plan uncharged and charges the per-patch plan from
:class:`~repro.gpu.ledger.ChargeLedger` rows recorded once from the
plan's compiled sizes; the construction and post-regrid EOS runs one
stacked sweep per shape bucket and is charged one launch per patch.
The reference is the per-patch execution itself
(:func:`fill_oracle.per_patch_fills`, :func:`init_oracle.per_patch`):
every clock, counter, the device high-water mark, every field and,
under a tracer, every span must match it.
"""

from __future__ import annotations

import numpy as np
import pytest
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
    comm = make_communicator("IPA", nranks, gpus=space != "cpu")
    factory = CudaDataFactory() if space == "resident" else HostDataFactory()
    pi = (NonResidentGpuPatchIntegrator() if space == "nonresident"
          else CleverleafPatchIntegrator())
    return LagrangianEulerianIntegrator(
        problem_cls(resolution), comm, factory,
        SimulationConfig(max_levels=3, max_patch_size=8,
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
                                                            monkeypatch):
    """A ragged three-level run regridding as it goes: every clock,
    counter, ``device.peak_bytes`` and field match the per-patch
    execution."""
    ref = _run(case, space, True, monkeypatch)
    got = _run(case, space, False, monkeypatch)
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
def test_per_patch_fills_emit_the_per_patch_spans(case, space, monkeypatch):
    """Under an active tracer the span lists (name, rank, track, t0, t1)
    are identical."""
    def spans(oracle):
        tracer = Tracer()
        activate_tracer(tracer)
        try:
            sim = _run(case, space, oracle, monkeypatch)
        finally:
            deactivate_tracer()
        return sim, [(s.name, s.rank, s.lane, s.t0, s.t1)
                     for s in tracer.spans]

    ref_sim, ref = spans(True)
    got_sim, got = spans(False)
    assert any(name == "geom.refine" for name, *_ in got)
    if CASES[case][2] > 1:
        assert any(name.startswith("send->") for name, *_ in got)
    assert got == ref
    _compare(ref_sim, got_sim)


def _per_patch_schedules(sim):
    """Per-patch schedules of every kind on every fine level: the
    regridder's ghost fill, an interior fill, and the step's fills."""
    out = []
    for level in list(sim.hierarchy)[1:]:
        coarse = sim.hierarchy.level(level.level_number - 1)
        out.append(sim.regridder._ghost_schedule(level, coarse))
        out.append(RefineSchedule(level, coarse, sim.regridder.primary_specs,
                                  sim.comm, src_level=level, interior=True))
        for names in (PRIMARY_FIELDS, FIELD_GROUPS["step_start"]):
            out.append(sim._fill_schedule_for(level, names))
    assert not any(sched.batch for sched in out)
    return out


@pytest.mark.parametrize("space", SPACES)
def test_a_schedules_rows_are_what_walking_its_per_patch_plan_records(space):
    """The rows a schedule records from its plan's compiled sizes equal
    the rows a recording sink collects walking the same per-patch plan
    verb by verb — launches, copies, staging, scratch, messages and
    ``stack`` counts, in order."""
    sim = _sim("triple_point_2rank", space, oracle=False)
    sim.initialise()
    kinds = set()
    for sched in _per_patch_schedules(sim):
        sched.fill(time=0.0)
        transfer, finish = sched._charges
        plan = compile_fill(sched, False)
        walked, walked_finish = ChargeLedger(), ChargeLedger()
        plan.transfer(RecordingSink(walked), not sched.interior, False)
        plan.finish(RecordingSink(walked_finish), None)
        assert transfer.rows == walked.rows
        assert finish.rows == walked_finish.rows
        kinds.update(kind for kind, *_ in transfer.rows)
    want = {"cpu"} if space != "resident" else {"launch", "alloc", "free",
                                                "h2d", "d2h"}
    assert want | {"stack", "message"} <= kinds


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
        execute_per_patch(scheds[0], time=0.5)
        scheds[1].fill(time=0.5)
        rows = scheds[1]._charges
        assert scheds[1]._tasks is None
    assert scheds[1]._charges is rows
    _compare(*sims)
    scheds[1].emit_tasks(GraphBuilder(sims[1].comm))
    assert scheds[1]._tasks is not None
