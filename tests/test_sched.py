"""Tests for the task-graph scheduler (``repro.sched``).

The subsystem's load-bearing claim is that scheduling is a *timing* choice,
never a *numerics* choice: task bodies run in a deterministic topological
order, dependencies are derived from declared patch-data accesses, and any
valid topological order — including the compute-first order used for
overlap — produces bitwise-identical fields.  Hypothesis drives the
tie-break key through random priorities to exercise many valid orders.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExecutionPolicy, RegridPolicy, RunConfig, \
    build_simulation, run
from repro.gpu.device import K20X, Device
from repro.gpu.stream import Event
from repro.hydro.diagnostics import gather_level_field
from repro.hydro.problems import SodProblem
from repro.obs.metrics import MetricsRegistry
from repro.sched import GraphBuilder, Task, TaskGraph, TaskKind
from repro.sched.driver import StepScheduler
from repro.sched.executor import GraphExecutor
from repro.util.clock import VirtualClock
from counts import gpu_launches

FIELDS = ("density0", "energy0", "pressure", "xvel0", "yvel0")


def _config(**overrides) -> RunConfig:
    base = dict(
        problem=SodProblem((24, 24)),
        nranks=2,
        max_levels=2,
        max_patch_size=12,
        regrid=RegridPolicy(interval=3),
        max_steps=3,
    )
    base.update(overrides)
    return RunConfig(**base)


def _phases(sim) -> dict:
    """Step phases recorded and replayed (rank 0's ``sched`` counters)."""
    metrics = sim.comm.rank(0).metrics
    return {"captures": metrics.value("sched.captures"),
            "replays": metrics.value("sched.replays")}


def _fields(sim):
    return {
        (lnum, f): gather_level_field(sim.hierarchy.level(lnum), f)
        for lnum in range(sim.hierarchy.num_levels)
        for f in FIELDS
    }


@pytest.fixture(scope="module")
def serial_run():
    """The legacy (non-scheduler) path: the bitwise ground truth."""
    res = run(_config())
    return res.steps, _fields(res.sim)


# -- order independence (the DAG invariant) ---------------------------------


@pytest.mark.parametrize("batch", (False, True))
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_any_topological_order_is_bitwise_identical(serial_run, batch, seed):
    """Random tie-break priorities explore different valid topological
    orders; every one of them must reproduce the serial fields exactly —
    batched too, where a level-wide fused fill is one node whose operands
    are the union of the whole level's."""
    steps, want = serial_run
    cfg = _config(execution=ExecutionPolicy(batch=batch))
    sim = build_simulation(cfg)
    sim.initialise()
    sim._step_scheduler = StepScheduler(
        sim, overlap=False,
        order_key=lambda t: (t.tid * 2654435761 + seed * 97) % 1000003)
    sim.run(max_steps=cfg.max_steps)
    assert sim.step_count == steps
    got = _fields(sim)
    assert set(got) == set(want)
    for key in want:
        assert np.array_equal(want[key], got[key], equal_nan=True), (
            f"{key} diverged under reordered dispatch (seed {seed})")


def test_overlap_mode_is_bitwise_identical(serial_run):
    steps, want = serial_run
    res = run(_config(execution=ExecutionPolicy(overlap=True)))
    assert res.steps == steps
    got = _fields(res.sim)
    for key in want:
        assert np.array_equal(want[key], got[key], equal_nan=True), key


# -- one step program ---------------------------------------------------------

_KERNEL_METHODS = ("ideal_gas", "viscosity", "calc_dt", "pdv", "accelerate",
                   "flux_calc", "advec_cell", "advec_mom", "reset_field")


def _launch_sequence(monkeypatch, batch: bool, overlap: bool):
    """The ``(operation, level)`` sequence a run executes, in program
    order: patch-integrator kernel launches, halo fills (their
    timestamps) and syncs (their coarsen launches), whichever driver ran
    them — recorded, replayed or inline — with consecutive repeats
    collapsed: how many units a level's sweep visits (patches, or shape
    buckets under ``batch``) is not the contract.

    The probes sit where work executes, not where it is issued, so a
    replayed step, which issues nothing, is in the sequence too.  Under
    ``overlap`` the graphs dispatch in emission order: the compute-first
    tie-break moves only the modelled clocks, which the order tests
    above cover."""
    from repro.exec.backend import Backend
    from repro.pdat.patch_data import PatchData

    sim = build_simulation(_config(
        execution=ExecutionPolicy(batch=batch, overlap=overlap)))
    sim.initialise()
    if overlap:
        sim._step_scheduler = StepScheduler(sim, overlap=True,
                                            order_key=lambda t: t.tid)
    owner: dict = {}   # id(patch data) -> level number, per hierarchy

    def level_of(pds) -> int:
        if owner.get("levels") != tuple(sim.hierarchy):
            owner.clear()
            owner["levels"] = tuple(sim.hierarchy)
            for level in sim.hierarchy:
                for patch in level:
                    for name in patch.data_names():
                        owner[id(patch.data(name))] = level.level_number
        return next(owner[id(pd)] for pd in pds if id(pd) in owner)

    seq = []

    def note(entry):
        if seq[-1:] != [entry]:
            seq.append(entry)

    run_batched, set_time = Backend.run_batched, PatchData.set_time

    def launched(self, kernel, members, *args, **kwargs):
        members = list(members)
        op = kernel.split(".", 1)[-1]
        if kernel.startswith("hydro.") and op in _KERNEL_METHODS:
            note((op, level_of([pd for m in members
                                for pd in (*m.reads, *m.writes)])))
        elif kernel == "geom.coarsen":
            note(("coarsen", level_of([pd for m in members
                                       for pd in m.reads])))
        return run_batched(self, kernel, members, *args, **kwargs)

    def stamped(self, time):
        note(("fill", level_of([self])))
        return set_time(self, time)

    with monkeypatch.context() as patches:
        patches.setattr(Backend, "run_batched", launched)
        patches.setattr(PatchData, "set_time", stamped)
        sim.run(max_steps=3)
    if overlap:  # steps 2 and 3 replayed what step 1 (and 2) recorded
        assert _phases(sim) == {"captures": 5, "replays": 7}
    return seq


@pytest.mark.parametrize("batch", (False, True))
@pytest.mark.parametrize("overlap", (False, True))
def test_drivers_launch_the_identical_sequence(monkeypatch, batch, overlap):
    """The timestep is one program: the inline driver and the graph
    recorder — recording or replaying — execute the same (kernel, level)
    launches and the same per-level fills and syncs in the same order,
    batched or not."""
    want = _launch_sequence(monkeypatch, False, False)
    assert {op for op, _ in want} == {*_KERNEL_METHODS, "fill", "coarsen"}
    assert _launch_sequence(monkeypatch, batch, overlap) == want


def test_one_transfer_program_batched_or_recorded():
    """A schedule's work is written once, so executing it and recording
    it issue the same launches: on one rank ``batch`` and
    ``batch, overlap`` report equal launch / fusion / stacked-copy
    counters, and recording is not modelled slower than executing."""
    def counters(res):
        mc = res.metrics["counters"]
        return {name: sum(v for k, v in mc.items()
                          if k == name or k.startswith(name + "{"))
                for name in ("kernel.launches", "batch.launches",
                             "batch.members", "slab_fused", "slab_fallback",
                             "stack.regions", "stack.ops")}

    batched = run(_config(nranks=1, execution=ExecutionPolicy(batch=True)))
    recorded = run(_config(nranks=1, execution=ExecutionPolicy(
        batch=True, overlap=True)))
    assert counters(batched)["batch.launches"] > 0
    assert counters(recorded) == counters(batched)
    assert recorded.runtime <= 1.05 * batched.runtime


def test_kernel_raising_mid_graph_leaks_no_transfer_scratch(monkeypatch):
    """Fault matrix: transfer scratch is allocated when a fill is
    *recorded* and released by tasks of the graph, so a kernel raising
    mid-graph used to strand every not-yet-run release.  The executor now
    runs a graph's remaining FREE tasks before the error propagates."""
    from repro.geom import interp_math

    sim = build_simulation(_config(
        nranks=1, execution=ExecutionPolicy(batch=True, overlap=True)))
    sim.initialise()
    device = sim.comm.rank(0).device
    before = device.bytes_allocated
    calls = []
    limited = interp_math._mc_slopes

    def failing(*args):
        calls.append(None)
        if len(calls) == 2:
            raise FloatingPointError("non-physical state")
        return limited(*args)

    monkeypatch.setattr(interp_math, "_mc_slopes", failing)
    with pytest.raises(FloatingPointError) as caught:
        sim.step()
    # while the traceback still pins the graph, its tasks and their
    # closures (so no garbage collector is doing the executor's job)
    assert caught.traceback and len(calls) == 2
    assert device.bytes_allocated == before


# -- captured step graphs ----------------------------------------------------


def _replay_config() -> RunConfig:
    """2 ranks, overlap, a regrid every 3 steps: 8 steps capture, replay,
    drop the captures at two regrids and capture again."""
    return _config(max_steps=8, execution=ExecutionPolicy(overlap=True))


def _scheduled(cfg, order_key=None):
    sim = build_simulation(cfg)
    sim.initialise()
    sim._step_scheduler = StepScheduler(sim, overlap=True,
                                        order_key=order_key)
    return sim


#: real-clock bookkeeping, and the two counters that tell replay apart
_NOT_MODELLED = ("batch.host_seconds", "sched.captures", "sched.replays")


def _hidden(metrics) -> float:
    """A rank's ``overlap.hidden_seconds`` gauge (0 if never set)."""
    return metrics.snapshot()["gauges"].get("overlap.hidden_seconds", 0.0)


def _observables(sim, dts) -> dict:
    from repro.obs.metrics import registry_from_run

    snap = registry_from_run(sim).snapshot()
    return {
        "fields": _fields(sim),
        "dts": dts,
        "metrics": {kind: {k: v for k, v in snap[kind].items()
                           if not k.startswith(_NOT_MODELLED)}
                    for kind in ("counters", "gauges")},
        "timers": [r.metrics.levels("phase.seconds") for r in sim.comm.ranks],
        "clocks": [r.clock.time for r in sim.comm.ranks],
        "peaks": [r.device.peak_bytes
                  for r in sim.comm.ranks],
        "overlap": [(r.metrics.value("overlap.exposed_seconds"),
                     _hidden(r.metrics))
                    for r in sim.comm.ranks],
    }


@pytest.mark.parametrize("order", ("default", "reversed", "scrambled"))
def test_replay_is_bitwise_a_re_record(monkeypatch, order):
    """A replayed phase is the phase recorded again: against a run whose
    capture store is emptied before every phase (so every phase
    re-records), fields, dt history, every modelled counter, gauge and
    timer, every rank's clock, device high-water and overlap accounting
    agree exactly — under the default dispatch order and two injected
    ones, which the captured order must follow."""
    keys = {"default": None,
            "reversed": lambda t: -t.tid,
            "scrambled": lambda t: (t.tid * 2654435761) % 1000003}
    cfg = _replay_config()

    def observed():
        sim = _scheduled(cfg, keys[order])
        dts = [sim.step() for _ in range(cfg.max_steps)]
        return sim, _observables(sim, dts)

    sim, replayed = observed()
    assert _phases(sim) == {"captures": 15, "replays": 17}
    with monkeypatch.context() as patches:
        check = StepScheduler._check_generation

        def forget(self):
            check(self)
            self._captures.clear()

        patches.setattr(StepScheduler, "_check_generation", forget)
        sim, recorded = observed()
    assert _phases(sim) == {"captures": 32, "replays": 0}
    assert set(recorded["fields"]) == set(replayed["fields"])
    for key, want in recorded["fields"].items():
        assert np.array_equal(want, replayed["fields"][key],
                              equal_nan=True), key
    del recorded["fields"], replayed["fields"]
    assert replayed == recorded


def test_replayed_phases_record_nothing(monkeypatch):
    """Between regrids a phase is recorded once: a replayed one adds no
    task, and every phase of every step still executes a graph."""
    cfg = _replay_config()
    adds = []
    add = GraphBuilder.add

    def counted(self, *args, **kwargs):
        adds.append(None)
        return add(self, *args, **kwargs)

    monkeypatch.setattr(GraphBuilder, "add", counted)
    sim = _scheduled(cfg)
    per_step = []
    for _ in range(cfg.max_steps):
        before = len(adds)
        sim.step()
        per_step.append(len(adds) - before)
    # steps 1, 4 and 7 (after each regrid) record all four phases;
    # steps 2, 5 and 8 only the advection-order variant they are the
    # first to run; steps 3 and 6 replay everything
    full, variant = per_step[0], per_step[1]
    assert 0 < variant < full
    assert per_step[2] == per_step[5] == 0
    assert all(0 < per_step[i] < per_step[i - 1] for i in (4, 7))
    assert _phases(sim) == {"captures": 15, "replays": 17}
    assert sim.comm.rank(0).metrics.value("sched.graphs") == 32


def test_step_graphs_leave_nothing_for_the_cycle_collector():
    """Recorded graphs hold no reference cycles — closures bind the
    communicator, not the builder, and a task's result slot is not a
    reference to itself — so captures dropped at a regrid are freed by
    reference counting, and steady steps make no cyclic garbage at all.
    (A dropped level's ``Patch``/``PatchLevel`` cycle is not the
    scheduler's, and not covered here.)"""
    import gc

    from repro.sched.builder import GraphBuilder as Builder

    cfg = _replay_config()
    sim = _scheduled(cfg)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(cfg.max_steps):
            sim.step()
        gc.collect()
        found = [o for o in gc.garbage
                 if isinstance(o, (Task, TaskGraph, Builder, Event))
                 or getattr(o, "__qualname__", "").startswith(
                     ("GraphBuilder.", "StepScheduler."))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert _phases(sim) == {"captures": 15, "replays": 17}
    assert not found, found[:5]

    # three steps that only replay (no regrid among them): nothing cyclic
    sim = _scheduled(_config(max_steps=5, regrid=RegridPolicy(interval=6),
                             execution=ExecutionPolicy(overlap=True)))
    sim.step()
    sim.step()
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            sim.step()
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert _phases(sim)["replays"] == 3 + 12


def test_a_replay_that_diverges_from_its_capture_raises(monkeypatch):
    """A replayed phase checks each operation against the capture: a
    program that issues a different sequence (here one fill group
    skipped) raises instead of running a stale graph, and the capture is
    dropped."""
    from repro.hydro.fields import FIELD_GROUPS
    from repro.sched.driver import ReplayDivergence

    sim = _scheduled(_config(nranks=1, execution=ExecutionPolicy(
        overlap=True)))
    sim.step()
    sim.step()
    fill_group = type(sim)._fill_group

    def skipping(self, ex, names):
        if names != FIELD_GROUPS["pre_advec"]:
            fill_group(self, ex, names)

    monkeypatch.setattr(type(sim), "_fill_group", skipping)
    with pytest.raises(ReplayDivergence, match="is sweep where the "
                                               "capture recorded fill"):
        sim.step()
    assert (2, 0) not in sim._step_scheduler._captures


def test_kernel_raising_mid_replay_leaks_no_scratch_and_drops_the_capture(
        monkeypatch):
    """Fault matrix, replayed: a replayed phase renews its transfer
    scratch before it runs; a kernel raising mid-graph still releases all
    of it, and the phase's capture is discarded (the next step records
    it afresh)."""
    from repro.geom import interp_math

    sim = _scheduled(_config(nranks=1, execution=ExecutionPolicy(
        batch=True, overlap=True)))
    sim.step()
    sim.step()   # both advection orders captured
    captures = sim._step_scheduler._captures
    assert set(captures) == {(0, 0), (1, 0), (2, 0), (2, 1), (3, 0)}
    device = sim.comm.rank(0).device
    before = device.bytes_allocated
    calls = []
    limited = interp_math._mc_slopes

    def failing(*args):
        calls.append(None)
        if len(calls) == 2:
            raise FloatingPointError("non-physical state")
        return limited(*args)

    monkeypatch.setattr(interp_math, "_mc_slopes", failing)
    with pytest.raises(FloatingPointError):
        sim.step()
    assert len(calls) == 2
    assert device.bytes_allocated == before
    assert _phases(sim) == {"captures": 5, "replays": 4}
    assert set(captures) == {(1, 0), (2, 0), (2, 1), (3, 0)}


# -- overlap accounting ------------------------------------------------------


def test_overlap_accounting_is_sane(serial_run):
    steps, _ = serial_run
    res = run(_config(execution=ExecutionPolicy(overlap=True)))
    stats = MetricsRegistry.merged(r.metrics for r in res.sim.comm.ranks)
    async_s = stats.value("overlap.async_seconds")
    exposed = stats.value("overlap.exposed_seconds")
    assert async_s > 0.0
    assert 0.0 <= exposed <= async_s + 1e-15
    for r in res.sim.comm.ranks:
        assert _hidden(r.metrics) == pytest.approx(
            r.metrics.value("overlap.async_seconds")
            - r.metrics.value("overlap.exposed_seconds"))


def test_exposed_wait_high_water_mark():
    """Overlapping waits on the same lane interval are charged once."""
    rank = SimpleNamespace(index=0, metrics=MetricsRegistry())
    s = rank.metrics
    s.record_overlap(1.0, 0.0)
    ex = GraphExecutor(SimpleNamespace(rank=lambda index: rank))
    ex._charge_exposed(rank, "d2h", 0.0, 0.4)
    assert s.value("overlap.exposed_seconds") == pytest.approx(0.4)
    ex._charge_exposed(rank, "d2h", 0.2, 0.4)  # inside the charged span
    assert s.value("overlap.exposed_seconds") == pytest.approx(0.4)
    ex._charge_exposed(rank, "d2h", 0.3, 0.6)  # only the new part counts
    assert s.value("overlap.exposed_seconds") == pytest.approx(0.6)
    ex._charge_exposed(rank, "h2d", 0.0, 10.0)  # other lane, clamped
    assert s.value("overlap.exposed_seconds") == pytest.approx(1.0)
    assert _hidden(s) == 0.0


# -- event-based cross-stream ordering (paper Fig. 5a) -----------------------


def test_event_ordering_fig5a():
    """Dependent work on another stream waits for the recorded event."""
    device = Device(K20X, VirtualClock())
    fine = device.create_stream("fine")
    coarse = device.create_stream("coarse")
    device.launch("geom.refine", 10**6, lambda: None, stream=fine)
    ev = Event()
    ev.record(fine)
    assert ev.stream is fine
    before = coarse.clock.time
    coarse.wait_event(ev)
    device.launch("geom.coarsen", 10, lambda: None, stream=coarse)
    assert coarse.clock.time >= ev.timestamp >= before


def test_stream_ids_scoped_per_device():
    """Stream ids number per device, not globally (regression: a shared
    class counter used to leak across Device instances)."""
    d1 = Device(K20X, VirtualClock())
    d2 = Device(K20X, VirtualClock())
    a1, a2 = d1.create_stream(), d1.create_stream()
    b1, b2 = d2.create_stream(), d2.create_stream()
    assert (a1.id, a2.id) == (b1.id, b2.id)
    assert a1.id != a2.id


# -- DAG construction --------------------------------------------------------


def test_builder_derives_raw_war_waw_edges():
    gb = GraphBuilder(comm=None)
    a = object()
    w1 = gb.add(TaskKind.KERNEL, 0, "w1", lambda s: None, writes=[a])
    r1 = gb.add(TaskKind.KERNEL, 0, "r1", lambda s: None, reads=[a])
    w2 = gb.add(TaskKind.KERNEL, 0, "w2", lambda s: None, writes=[a])
    r2 = gb.add(TaskKind.KERNEL, 0, "r2", lambda s: None, reads=[a])
    assert w1 in r1.deps                     # RAW
    assert w1 in w2.deps and r1 in w2.deps   # WAW and WAR
    assert w2 in r2.deps and w1 not in r2.deps  # reads see the latest writer


@pytest.mark.parametrize("gpus", [False, True])
def test_recorded_stream_is_payload_plus_header_and_charges_both_ranks(
        gpus, monkeypatch):
    """The recorded twin of ``ImmediateSink.stream_batch``: six typed
    stages, one message of payload + ``MESSAGE_HEADER_BYTES``, time charged
    on the sending and the receiving rank, no staging buffer left over."""
    from fig3 import CellData

    from repro.comm.simcomm import SimCommunicator
    from repro.mesh.box import Box
    from repro.pdat import HOST
    from repro.perf.machines import FDR_INFINIBAND, IPA_CPU_NODE
    from repro.sched.executor import GraphExecutor
    from repro.xfer.message import MESSAGE_HEADER_BYTES

    comm = SimCommunicator(2, IPA_CPU_NODE, FDR_INFINIBAND,
                           K20X if gpus else None)
    r0, r1 = comm.rank(0), comm.rank(1)
    box, region = Box([0, 0], [7, 7]), Box([2, 2], [5, 5])
    src = CellData(box, 2, r0.device if gpus else HOST, fill=7.0)
    dst = CellData(box, 2, r1.device if gpus else HOST, fill=0.0)
    live = [r.device.bytes_allocated for r in (r0, r1)] if gpus else None
    sent = []
    isend = comm.isend
    monkeypatch.setattr(
        comm, "isend", lambda m: (sent.append(m), isend(m))[1])

    gb = GraphBuilder(comm)
    unpack = gb.stream_batch(r0, r1, [(src, region)], [(dst, region)], "halo")
    assert [t.kind for t in gb.graph.tasks] == [
        TaskKind.PACK, TaskKind.D2H, TaskKind.SEND, TaskKind.RECV,
        TaskKind.H2D, TaskKind.UNPACK]
    assert unpack is gb.graph.tasks[-1]
    t0 = (r0.clock.time, r1.clock.time)
    GraphExecutor(comm).execute(gb.graph)

    assert [(m.src, m.dst, m.nbytes) for m in sent] == [
        (0, 1, region.size() * 8 + MESSAGE_HEADER_BYTES)]
    assert r0.clock.time > t0[0] and r1.clock.time > t0[1]
    assert dst.to_host()[region.slices_in(dst.get_ghost_box())].sum() == 7.0 * 16
    assert dst.to_host().sum() == 7.0 * 16
    if gpus:
        assert [r.device.bytes_allocated for r in (r0, r1)] == live
        assert gpu_launches(r0.device, "pdat.pack") == 1
        assert gpu_launches(r1.device, "pdat.unpack") == 1


def test_topological_order_respects_deps_under_any_key():
    g = TaskGraph()
    a = g.add(TaskKind.HOST, 0, "a", lambda s: None)
    b = g.add(TaskKind.HOST, 0, "b", lambda s: None, deps=[a])
    c = g.add(TaskKind.HOST, 0, "c", lambda s: None, deps=[a])
    d = g.add(TaskKind.HOST, 0, "d", lambda s: None, deps=[b, c])
    for key in (None, lambda t: -t.tid, lambda t: (t.tid * 7919) % 13):
        order = g.topological_order(key)
        pos = {t.tid: i for i, t in enumerate(order)}
        assert len(order) == 4
        for t in (b, c):
            assert pos[a.tid] < pos[t.tid] < pos[d.tid]


def test_cycle_is_detected():
    g = TaskGraph()
    a = g.add(TaskKind.HOST, 0, "a", lambda s: None)
    b = g.add(TaskKind.HOST, 0, "b", lambda s: None, deps=[a])
    a.deps.append(b)
    with pytest.raises(ValueError, match="cycle"):
        g.topological_order()
