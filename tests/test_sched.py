"""Tests for the task-graph scheduler (``repro.sched``).

The subsystem's load-bearing claim is that scheduling is a *timing* choice,
never a *numerics* choice: task bodies run in a deterministic topological
order, dependencies are derived from declared patch-data accesses, and any
valid topological order — including the compute-first order used for
overlap — produces bitwise-identical fields.  Hypothesis drives the
tie-break key through random priorities to exercise many valid orders.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExecutionPolicy, RegridPolicy, RunConfig, \
    build_simulation, run
from repro.exec.stats import ExecStats, combined_stats
from repro.gpu.device import K20X, Device
from repro.gpu.stream import Event
from repro.hydro.diagnostics import gather_level_field
from repro.hydro.problems import SodProblem
from repro.sched import GraphBuilder, TaskGraph, TaskKind
from repro.sched.driver import StepScheduler
from repro.util.clock import VirtualClock

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
    """The ``(operation, level)`` sequence a run issues, in program order:
    patch-integrator kernel calls and halo-fill / sync schedule
    invocations, whichever driver (inline or recording) made them, with
    consecutive repeats collapsed — how many units a level's sweep visits
    (patches, or shape buckets under ``batch``) is not the contract."""
    from repro.hydro.patch_integrator import CleverleafPatchIntegrator
    from repro.xfer.coarsen_schedule import CoarsenSchedule
    from repro.xfer.refine_schedule import RefineSchedule

    seq = []

    def record(cls, method, label, level_of):
        orig = getattr(cls, method)

        def wrapper(self, *args, **kwargs):
            entry = (label, level_of(self, *args))
            if seq[-1:] != [entry]:
                seq.append(entry)
            return orig(self, *args, **kwargs)
        patches.setattr(cls, method, wrapper)

    with monkeypatch.context() as patches:
        for name in _KERNEL_METHODS:
            record(CleverleafPatchIntegrator, name, name,
                   lambda self, unit, *a: unit.patches[0].level.level_number)
        for method in ("fill", "emit_tasks"):
            record(RefineSchedule, method, "fill",
                   lambda self, *a: self.dst_level.level_number)
        for method in ("coarsen", "emit_tasks"):
            record(CoarsenSchedule, method, "coarsen",
                   lambda self, *a: self.fine_level.level_number)
        run(_config(execution=ExecutionPolicy(batch=batch, overlap=overlap)))
    return seq


@pytest.mark.parametrize("batch", (False, True))
@pytest.mark.parametrize("overlap", (False, True))
def test_drivers_launch_the_identical_sequence(monkeypatch, batch, overlap):
    """The timestep is one program: the inline driver and the graph
    recorder issue the same (kernel, level) launches and the same
    per-level fills and syncs in the same order, batched or not."""
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


# -- overlap accounting ------------------------------------------------------


def test_overlap_accounting_is_sane(serial_run):
    steps, _ = serial_run
    res = run(_config(execution=ExecutionPolicy(overlap=True)))
    stats = combined_stats(r.exec_stats for r in res.sim.comm.ranks)
    o = stats.overlap
    assert o.async_seconds > 0.0
    assert 0.0 <= o.exposed_seconds <= o.async_seconds + 1e-15
    assert o.hidden_seconds == pytest.approx(
        o.async_seconds - o.exposed_seconds)


def test_exposed_wait_high_water_mark():
    """Overlapping waits on the same lane interval are charged once."""
    s = ExecStats()
    s.overlap.async_seconds = 1.0
    s.record_exposed_wait("d2h", 0.0, 0.4)
    assert s.overlap.exposed_seconds == pytest.approx(0.4)
    s.record_exposed_wait("d2h", 0.2, 0.4)  # fully inside the charged span
    assert s.overlap.exposed_seconds == pytest.approx(0.4)
    s.record_exposed_wait("d2h", 0.3, 0.6)  # only the new part counts
    assert s.overlap.exposed_seconds == pytest.approx(0.6)
    s.record_exposed_wait("h2d", 0.0, 10.0)  # other lane, clamped to async
    assert s.overlap.exposed_seconds == pytest.approx(1.0)
    assert s.overlap.hidden_seconds == 0.0


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
        assert r0.device.stats.launches_by_name["pdat.pack"] == 1
        assert r1.device.stats.launches_by_name["pdat.unpack"] == 1


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
