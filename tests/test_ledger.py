"""Level construction from whole slabs, charged from a ChargeLedger.

A new level executes one zero-fill per arena slab and one
initial-condition write per owner's primary slabs, while the modelled
clock is charged what the per-patch program (``tests/init_oracle.py``)
issued: one ``pdat.fill`` per (patch, variable) and one synchronous H2D
per primary field of a patch, replayed by a
:class:`~repro.gpu.ledger.ChargeLedger` through the routines
``Device.launch`` and ``Device._charge_transfer`` charge with.  Both
programs must agree on every clock, counter, the device high-water mark,
every field and, under a tracer, every span.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from init_oracle import cell_centers, per_patch, per_patch_construction
from init_oracle import zero_level as per_patch_zero

from repro.comm.simcomm import Message, make_communicator
from repro.exec.backend import zero_level
from repro.gpu.device import Device
from repro.gpu.ledger import ChargeLedger
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
from repro.xfer.message import ImmediateSink

# -- the ledger against sequential charges ------------------------------------------

#: an event: (rank, kind, patch frame shape); "fill"/"copy" launch on the
#: rank's device and "cpu" runs a CPU pass over the frame's elements,
#: "h2d"/"d2h" copy its bytes synchronously, "alloc" allocates them on
#: the device and "free" frees the rank's latest allocation, "message"
#: posts them to the next rank
KINDS = ("fill", "copy", "cpu", "h2d", "d2h", "alloc", "free", "message")
EVENTS = st.lists(
    st.tuples(st.integers(0, 2), st.sampled_from(KINDS),
              st.tuples(st.integers(1, 40), st.integers(1, 40))),
    max_size=40)
#: each rank's host and default-stream clocks before the events (a
#: stream ahead of the host makes a sync copy wait for it)
STARTS = st.lists(st.tuples(st.floats(0, 1e-3), st.floats(0, 2e-3)),
                  min_size=3, max_size=3)

KERNEL = {"fill": "pdat.fill", "copy": "pdat.copy"}


def _ranks(starts):
    comm = make_communicator("IPA", len(starts))
    for rank, (host, stream) in zip(comm.ranks, starts):
        rank.clock.advance(host)
        rank.device.default_stream.clock.advance(stream)
    return comm


def _state(comm):
    return [(r.clock.time, r.device.default_stream.clock.time,
             r.device.bytes_allocated, r.metrics.snapshot())
            for r in comm.ranks]


def _traced(fn):
    tracer = Tracer()
    activate_tracer(tracer)
    try:
        fn()
    finally:
        deactivate_tracer()
    return [(s.name, s.category, s.rank, s.lane, s.t0, s.t1, s.payload)
            for s in tracer.spans]


@settings(max_examples=60, deadline=None)
@given(EVENTS, STARTS, st.integers(0, 40), st.booleans())
def test_replay_equals_sequential_charges(events, starts, cut, traced):
    """Replay does the float operations of the sequential calls in their
    order — launches, CPU passes, sync copies, allocations and frees,
    messages exchanged when the sink closes: clocks, counters, the
    device high-water mark and spans compare ``==``.  A charge part way
    through (``cut``) changes nothing."""
    seq, led = _ranks(starts), _ranks(starts)
    held = [[] for _ in seq.ranks]  # live until the states are compared

    def sequential():
        sink = ImmediateSink(seq)
        for owner, kind, shape in events:
            rank = seq.rank(owner)
            device = rank.device
            n = (shape[0] + 4) * (shape[1] + 4)
            if kind in KERNEL:
                device.launch(KERNEL[kind], n, lambda: None)
            elif kind == "cpu":
                rank.cpu_run("pdat.copy", n, lambda: None)
            elif kind in ("h2d", "d2h"):
                device._charge_transfer(8 * n, None, kind)
            elif kind == "alloc":
                held[owner].append(device.empty((n,)))
            elif kind == "free":
                if held[owner]:
                    held[owner].pop().free()
            else:
                sink.post(Message(owner, (owner + 1) % 3, 8 * n))
        sink.close()

    def replayed():
        sink = ImmediateSink(led)
        ledger = ChargeLedger()
        sizes = [[] for _ in led.ranks]
        for i, (owner, kind, shape) in enumerate(events):
            if i == cut:
                ledger.replay(sink.post)
                ledger = ChargeLedger()
            rank = led.rank(owner)
            device = rank.device
            n = (shape[0] + 4) * (shape[1] + 4)
            if kind in KERNEL:
                ledger.launch(device, KERNEL[kind], n)
            elif kind == "cpu":
                ledger.cpu(rank, "pdat.copy", n)
            elif kind in ("h2d", "d2h"):
                getattr(ledger, kind)(device, 8 * n)
            elif kind == "alloc":
                sizes[owner].append(8 * n)
                ledger.alloc(device, 8 * n)
            elif kind == "free":
                if sizes[owner]:
                    ledger.free(device, sizes[owner].pop())
            else:
                ledger.message(Message(owner, (owner + 1) % 3, 8 * n))
        ledger.replay(sink.post)
        sink.close()

    if traced:
        assert _traced(sequential) == _traced(replayed)
    else:
        sequential()
        replayed()
    assert _state(seq) == _state(led)


def test_replay_keeps_its_rows():
    """A kept row set replayed twice charges what two sequential passes
    charge (``charge`` is a replay that forgets)."""
    seq, led = _ranks([(0.0, 0.0)] * 3), _ranks([(0.0, 0.0)] * 3)
    ledger = ChargeLedger()
    for rank in led.ranks:
        ledger.launch(rank.device, "pdat.fill", 64, 100)
        ledger.alloc(rank.device, 800)
        ledger.h2d(rank.device, 800)
        ledger.free(rank.device, 800)
        ledger.cpu(rank, "pdat.copy", 10)
    for _ in range(2):
        ledger.replay()
        for rank in seq.ranks:
            for n in (64, 100):
                rank.device.launch("pdat.fill", n, lambda: None)
            rank.device.empty((100,)).free()
            rank.device._charge_transfer(800, None, "h2d")
            rank.cpu_run("pdat.copy", 10, lambda: None)
    assert len(ledger.rows) == 15
    assert _state(seq) == _state(led)


def test_an_allocation_over_capacity_raises_and_releases_what_the_replay_held():
    """An over-capacity row raises the device's own error, and what the
    replay allocated before it is released, as executing calls release
    their scratch."""
    from repro.gpu.errors import DeviceOutOfMemory

    device = Device()
    ledger = ChargeLedger()
    ledger.alloc(device, 1000)
    ledger.alloc(device, device.spec.memory_bytes)
    with pytest.raises(DeviceOutOfMemory):
        ledger.replay()
    assert device.bytes_allocated == 0
    assert device.peak_bytes == 1000


def test_charge_forgets_what_it_charged():
    device = Device()
    ledger = ChargeLedger()
    ledger.launch(device, "pdat.fill", 64, 100)
    ledger.charge()
    ledger.charge()
    assert device.metrics.value("kernel.launches", kernel="pdat.fill",
                                on="gpu") == 2


# -- the slab program against the per-patch oracle ------------------------------------

#: problem, resolution, incremental regrid (kept levels run the
#: step hook's kept-level path)
CASES = {
    "sod": (SodProblem, (24, 23), True),
    "triple_point": (TriplePointProblem, (27, 13), False),
}
#: where the patch data lives and which backend runs the kernels
SPACES = ("resident", "cpu", "nonresident")


def _sim(case: str, space: str, oracle: bool):
    problem_cls, resolution, incremental = CASES[case]
    comm = make_communicator("IPA", 2, gpus=space != "cpu")
    factory = CudaDataFactory() if space == "resident" else HostDataFactory()
    pi = (NonResidentGpuPatchIntegrator() if space == "nonresident"
          else CleverleafPatchIntegrator())
    return LagrangianEulerianIntegrator(
        problem_cls(resolution), comm, factory,
        SimulationConfig(max_levels=3, max_patch_size=8,
                         regrid=RegridConfig(regrid_interval=1,
                                             incremental=incremental)),
        patch_integrator=per_patch(pi) if oracle else pi)


def _run(sim, steps: int = 2):
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
    return [(r.clock.time,
             r.device.default_stream.clock.time if r.device else None,
             r.metrics.snapshot()) for r in sim.comm.ranks]


def _compare(ref, got) -> None:
    assert _charges(got) == _charges(ref)
    for a, b in zip(_fields(ref), _fields(got), strict=True):
        assert np.array_equal(a, b, equal_nan=True)


@pytest.fixture(scope="module")
def runs():
    """``run(case, space, oracle, traced)`` -> ``(simulation, spans)``
    after two steps, each made once per module and shared by the tests
    that read it (none of them changes a run).  The oracle, the
    per-patch program, runs traced: what it charges does not depend on
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
                    if oracle:
                        with per_patch_construction(mp):
                            sim = _run(_sim(case, space, oracle=True))
                    else:
                        sim = _run(_sim(case, space, oracle=False))
            finally:
                if tracer is not None:
                    deactivate_tracer()
            made[key] = (sim, None if tracer is None else [
                (s.name, s.rank, s.lane, s.t0, s.t1) for s in tracer.spans])
        return made[key]

    return run


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("space", SPACES)
def test_slab_construction_matches_the_per_patch_program(case, space, runs):
    """A 2-rank ragged hierarchy regridded every step: every clock,
    counter (the ``kernel``, ``stream`` and ``transfer`` families
    included), ``device.peak_bytes`` and field array match."""
    ref, _ = runs(case, space, oracle=True, traced=False)
    got, _ = runs(case, space, oracle=False, traced=False)
    assert got.hierarchy.num_levels == 3
    _compare(ref, got)


def _built_level(case: str, space: str, oracle: bool):
    """A simulation holding one freshly built ragged level 0: allocated,
    zeroed and initialised, nothing else."""
    sim = _sim(case, space, oracle)
    boxes = chop_boxes([sim.geometry.domain_box], 8)
    level = sim.hierarchy.make_level(0, boxes, [i % 2 for i in range(len(boxes))])
    level.allocate_all(sim.variables, sim.factory, sim.comm)
    sim.hierarchy.set_level(level)
    names = [var.name for var in sim.variables]
    (per_patch_zero if oracle else zero_level)(level, names)
    sim._init_level_data(level)
    return sim


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("space", SPACES)
def test_a_built_level_matches_the_per_patch_program(case, space):
    """Straight after construction — before any halo fill overwrites the
    ghosts — every frame (ghost values included), clock and counter
    match."""
    ref = _built_level(case, space, True)
    got = _built_level(case, space, False)
    assert len({p.box.shape() for p in got.hierarchy.level(0)}) > 1
    _compare(ref, got)


@pytest.mark.parametrize("case", CASES)
def test_slab_construction_emits_the_per_patch_spans(case, runs):
    """Under an active tracer the span lists (name, rank, track, t0, t1)
    are identical."""
    ref_sim, ref = runs(case, "resident", oracle=True, traced=True)
    got_sim, got = runs(case, "resident", oracle=False, traced=True)
    assert any(name == "memcpy_h2d" for name, *_ in got)
    assert got == ref
    _compare(ref_sim, got_sim)


def test_sod_case_keeps_levels(runs):
    """The Sod case keeps levels, so the comparisons above cover the
    refresh path's zero-fill (the non-primary arenas only) too."""
    sim, _ = runs("sod", "resident", oracle=False, traced=False)
    assert sim.comm.rank(0).metrics.value("regrid.levels_kept") > 0


def test_stacked_cell_centres_are_each_patch_s():
    """Level initialisation evaluates the problem over a bucket's stacked
    cell centres: each row is bitwise the patch's own."""
    sim = _sim("triple_point", "cpu", oracle=False)
    sim.initialise()
    for level in sim.hierarchy:
        geometry, ratio = level.geometry, level.ratio_to_base
        for bucket in level.buckets:
            boxes = level.box_array.take([p.global_id for p in bucket.patches])
            xs, ys = geometry.cell_centers(boxes, ratio)
            for i, patch in enumerate(bucket.patches):
                xc, yc = cell_centers(patch)
                assert xs[i].shape == xc.shape and ys[i].shape == yc.shape
                assert xs[i].tobytes() == xc.tobytes()
                assert ys[i].tobytes() == yc.tobytes()
                px, py = geometry.cell_centers(patch.box, ratio)
                assert px.tobytes() == xc.tobytes()
                assert py.tobytes() == yc.tobytes()
