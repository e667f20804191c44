"""Tests for the samrcheck subsystem (``repro.check``).

Covers the three parts of the checker: the happens-before replay over
declared + observed accesses, the residency/poison/stale-halo sanitizers,
and the static seam lint — plus the load-bearing guarantee that running
under ``--sanitize`` never changes a single field bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExecutionPolicy, RegridPolicy, RunConfig, \
    build_simulation, run
from repro.check import (
    DeclaredAccessError,
    RaceError,
    ResidencyViolation,
    SanitizeChecker,
    StaleHaloError,
    activate,
    deactivate,
    seam_scope,
)
from repro.check.static import run_checks
from repro.gpu.device import K20X, Device
from repro.hydro.diagnostics import gather_level_field
from repro.hydro.problems import SodProblem
from repro.mesh.box import Box
from repro.pdat import ArrayData
from repro.sched import GraphBuilder, TaskKind
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


class Datum:
    """Minimal stand-in for patch data: a named array the checker tracks."""

    def __init__(self, name: str, n: int = 8):
        self.var_name = name
        self.arr = np.zeros(n)


def _touch(chk: SanitizeChecker, reads=(), writes=()):
    """A task body that fetches arrays through the checker like
    ``array_of`` does, reading some and writing others."""

    def fn(stream):
        for d in reads:
            float(chk.on_handout(d, d.arr).sum())
        for d in writes:
            chk.on_handout(d, d.arr)[...] += 1.0

    return fn


def _run_graph(chk: SanitizeChecker, graph) -> None:
    """Execute every task under the checker's scopes, then replay."""
    for t in graph.topological_order():
        chk.begin_task(t)
        try:
            t.fn(None)
        finally:
            chk.end_task(t)
    chk.check_graph(graph)


# -- happens-before replay ---------------------------------------------------


def test_correctly_declared_dag_passes():
    chk = SanitizeChecker()
    gb = GraphBuilder(comm=None)
    x = Datum("density0")
    y = Datum("energy0")
    gb.add(TaskKind.KERNEL, 0, "hydro.writer", _touch(chk, writes=[x]),
           writes=[x])
    gb.add(TaskKind.KERNEL, 0, "hydro.reader", _touch(chk, reads=[x]),
           reads=[x])
    gb.add(TaskKind.KERNEL, 0, "hydro.other", _touch(chk, writes=[y]),
           writes=[y])
    _run_graph(chk, gb.graph)  # must not raise
    assert chk.tasks_checked == 3 and chk.graphs_checked == 1


def test_dropped_write_declaration_is_caught_naming_both_tasks():
    """The acceptance scenario: one task forgets its ``writes=`` entry, the
    builder therefore derives no edge, and the replay names the racing
    pair, the variable, and the missing edge."""
    chk = SanitizeChecker()
    gb = GraphBuilder(comm=None)
    x = Datum("energy0")
    a = gb.add(TaskKind.KERNEL, 0, "hydro.pdv", _touch(chk, writes=[x]),
               writes=[x])
    b = gb.add(TaskKind.KERNEL, 0, "hydro.flux_calc", _touch(chk, writes=[x]))
    assert a not in b.deps  # nothing declared, so no edge was derived
    with pytest.raises(RaceError) as exc:
        _run_graph(chk, gb.graph)
    msg = str(exc.value)
    assert "energy0" in msg
    assert "hydro.pdv" in msg and "hydro.flux_calc" in msg
    assert "missing edge" in msg
    assert "undeclared write" in msg


def test_declared_read_handout_is_read_only_and_shares_memory():
    chk = SanitizeChecker()
    gb = GraphBuilder(comm=None)
    x = Datum("pressure")
    x.arr[...] = 3.0
    seen = {}

    def fn(stream):
        view = chk.on_handout(x, x.arr)
        seen["shared"] = np.shares_memory(view, x.arr)
        with pytest.raises(ValueError):
            view[0] = 1.0

    t = gb.add(TaskKind.KERNEL, 0, "hydro.reader", fn, reads=[x])
    chk.begin_task(t)
    t.fn(None)
    chk.end_task(t)
    chk.check_graph(gb.graph)
    assert seen["shared"]
    assert np.all(x.arr == 3.0)


def test_untouched_undeclared_handout_reported_as_read():
    chk = SanitizeChecker()
    gb = GraphBuilder(comm=None)
    x = Datum("viscosity")
    t = gb.add(TaskKind.KERNEL, 0, "hydro.peek",
               _touch(chk, reads=[x]))  # handed out, never declared
    chk.begin_task(t)
    t.fn(None)
    chk.end_task(t)
    with pytest.raises(DeclaredAccessError, match="undeclared read of viscosity"):
        chk.check_graph(gb.graph)


# -- stale-halo stamping -----------------------------------------------------


def test_stale_halo_flagged_after_foreign_write_tolerated_within_sweep():
    chk = SanitizeChecker()
    src = Datum("density1")  # the neighbour's interior
    dst = Datum("density1")  # this patch's ghosts mirror src
    chk.note_emission("fill.copy", ghost_only=True,
                      marks=[("stamp", dst, (src,))])
    # A Jacobi sweep: the neighbour's advec_cell writes its interior, then
    # this patch's advec_cell reads its pre-sweep ghosts — legal.
    chk.note_emission("hydro.advec_cell", writes=(src,))
    chk.note_emission("hydro.advec_cell", ghost_reads=(dst,))
    # A *different* kernel reading the same ghosts without a fresh fill
    # sees a neighbour interior newer than its stamp: stale.
    with pytest.raises(StaleHaloError, match="stale halo"):
        chk.note_emission("hydro.advec_mom", ghost_reads=(dst,))
    # Refilling republished the halo; the read is clean again.
    chk.note_emission("fill.copy", ghost_only=True,
                      marks=[("stamp", dst, (src,))])
    chk.note_emission("hydro.advec_mom", ghost_reads=(dst,))


# -- residency sanitizer -----------------------------------------------------


def test_host_touch_of_device_data_outside_seam_raises():
    device = Device(K20X, VirtualClock())
    ad = ArrayData(Box([0, 0], [3, 3]), device, fill=1.0)
    assert np.all(ad.to_host_array() == 1.0)  # checker inactive: permitted
    activate(SanitizeChecker())
    try:
        with pytest.raises(ResidencyViolation, match="backend seam"):
            ad.to_host_array()
        with pytest.raises(ResidencyViolation, match="backend seam"):
            ad.from_host_array(np.zeros((4, 4)))
        with seam_scope():  # how exec/backend.py routes legal transfers
            assert np.all(ad.to_host_array() == 1.0)
    finally:
        deactivate()


# -- seam lint ---------------------------------------------------------------


def lint_paths(paths):
    """The lint's unwaived findings (``repro check --lint``)."""
    return run_checks(paths, do_static=False)[0]


def test_lint_clean_on_repo():
    import repro

    assert lint_paths([repro.__path__[0]]) == []


def test_lint_flags_seeded_violations(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def f(pd, backend):\n"
        "    raw = pd.data.array\n"
        "    backend.run('hydro.ideal_gas', 10, lambda: None)\n"
        "    return raw\n"
    )
    assert sorted(v.rule for v in lint_paths([bad])) == ["decl", "seam"]
    # the waiver comment suppresses a finding without silencing the rule
    bad.write_text("def f(pd):\n    return pd.data.array  # samrcheck: ok\n")
    assert lint_paths([bad]) == []


# -- sanitize mode is bitwise-inert ------------------------------------------


@pytest.fixture(scope="module")
def plain_run():
    """Scheduler+overlap run without sanitize: the bit-for-bit baseline."""
    res = run(_config(execution=ExecutionPolicy(overlap=True)))
    return res.steps, _fields(res.sim)


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_sanitize_never_changes_field_bits(plain_run, seed):
    """Instrumented handouts, poisons and replay must be pure observers:
    every field bit matches the uninstrumented run under any valid
    topological order."""
    steps, want = plain_run
    cfg = _config(sanitize=True)
    sim = build_simulation(cfg)
    activate(SanitizeChecker())
    try:
        sim.initialise()
        sim._step_scheduler = StepScheduler(
            sim, overlap=False,
            order_key=lambda t: (t.tid * 2654435761 + seed * 97) % 1000003)
        sim.run(max_steps=cfg.max_steps)
    finally:
        deactivate()
    assert sim.step_count == steps
    got = _fields(sim)
    assert set(got) == set(want)
    for key in want:
        assert np.array_equal(want[key], got[key], equal_nan=True), (
            f"{key} diverged under --sanitize (seed {seed})")


def test_underdeclared_batch_member_is_caught():
    """Fusion declares the union of its members' operands; a member that
    under-declares is still caught, because the replay compares observed
    handouts against the *fused* declarations."""
    from repro.exec.backend import UNCHARGED_HOST
    from repro.exec.batch import BatchMember, LaunchBatcher

    class Rank0:
        index = 0

    chk = SanitizeChecker()
    gb = GraphBuilder(comm=None)
    batcher = LaunchBatcher(fuse=True)
    x, y = Datum("density0"), Datum("energy0")

    def write(d):
        def body():
            chk.on_handout(d, d.arr)[...] += 1.0
        return body

    batcher.collect(UNCHARGED_HOST, Rank0(), "hydro.pdv",
                    BatchMember(8, write(x), [], [x]), level=0)
    # second member "forgets" writes=[y]; fusion cannot re-derive it
    batcher.collect(UNCHARGED_HOST, Rank0(), "hydro.pdv",
                    BatchMember(8, write(y), [], []), level=0)
    gb.flush_fusion(batcher)
    assert len(list(gb.graph.topological_order())) == 1  # genuinely fused
    with pytest.raises((DeclaredAccessError, RaceError), match="energy0"):
        _run_graph(chk, gb.graph)


def test_sanitize_batched_run_is_clean_and_identical():
    """``--batch --sanitize`` stays clean under both drivers: fused
    launches declare the union of their members' operands and stacked
    slab handouts are instrumented like per-patch ones, so the checker
    sees every access — and observing changes no bits."""
    from repro.obs.metrics import MetricsRegistry

    plain = run(_config())
    want = _fields(plain.sim)
    for extra in ({}, {"overlap": True}):
        sane = run(_config(execution=ExecutionPolicy(batch=True, **extra),
                           sanitize=True))
        assert sane.steps == plain.steps
        assert sane.sanitize_counters is not None
        assert sane.sanitize_counters["kernels"] > 0 or \
            sane.sanitize_counters["tasks"] > 0
        stats = MetricsRegistry.merged(r.metrics for r in sane.sim.comm.ranks)
        assert stats.total("slab_fused") > 0, \
            "sanitized run never slab-fused"
        got = _fields(sane.sim)
        for key in want:
            assert np.array_equal(want[key], got[key], equal_nan=True), (
                f"{key} diverged under --batch --sanitize ({extra})"
            )


def test_slab_handout_enforces_uniform_declared_role():
    """Stacked handouts are instrumented like per-patch ones: all-writes
    stays live, all-reads is a read-only aliasing view, and a mixed or
    undeclared stack is an invariant violation (the slab planner refuses
    such groups before launch — this is the backstop)."""
    chk = SanitizeChecker()
    x, y = Datum("density0"), Datum("energy0")
    arr = np.zeros((2, 4))

    scope = chk.begin_kernel("hydro.pdv", reads=[x], writes=[y])
    try:
        ro = chk.on_slab_handout((x, x), arr)
        assert ro.base is arr and not ro.flags.writeable
        rw = chk.on_slab_handout((y, y), arr)
        assert rw is arr and rw.flags.writeable
        with pytest.raises(DeclaredAccessError, match="slab"):
            chk.on_slab_handout((x, y), arr)  # mixed roles
        with pytest.raises(DeclaredAccessError, match="slab"):
            chk.on_slab_handout((Datum("undeclared"),), arr)
    finally:
        chk.abort_kernel(scope)


def test_sanitize_end_to_end_run_is_clean_and_identical():
    plain = run(_config(execution=ExecutionPolicy(overlap=True)))
    sane = run(_config(execution=ExecutionPolicy(overlap=True),
                       sanitize=True))
    assert sane.sanitize_counters is not None
    assert sane.sanitize_counters["tasks"] > 0
    assert sane.sanitize_counters["graphs"] > 0
    want, got = _fields(plain.sim), _fields(sane.sim)
    for key in want:
        assert np.array_equal(want[key], got[key], equal_nan=True)
