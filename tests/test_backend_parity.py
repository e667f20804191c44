"""One differential oracle for every (backend x execution policy) cell.

The paper's residency claim only works because the device build runs the
*same numerics* in a different memory space (§III), and the execution
policy (``batch`` x ``overlap``) only chooses how launches are fused and
which timeline a transfer lands on.  So every cell of
(host / resident / non-resident) x (batch, overlap) must reproduce the
single serial, per-patch, host reference **bitwise**: final field
summary, dt sequence and every gathered field.  Small patches make the
fusion groups (and the whole-slab stacks) hold many members; two ranks
make the overlap cells cross the network.  The oracle has three rows: a
uniformly tiled mesh, a *ragged* one (a 23-cell side does not divide
into 8-cell patches, so every level mixes patch shapes) — compiled
transfers and per-shape-bucket slab sweeps must not care — and the
ragged mesh on four ranks, where up to twelve rank pairs communicate and
every level syncs across ranks, so a batched message carries many patch
pairs' transactions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ExecutionPolicy, RegridPolicy, RunConfig, run
from repro.exec.stats import combined_stats
from repro.hydro.diagnostics import gather_level_field
from repro.hydro.problems import SodProblem

FIELDS = ("density0", "energy0", "pressure", "soundspeed",
          "viscosity", "xvel0", "yvel0")

#: backend label -> (use_gpu, resident)
BACKENDS = {"host": (False, True), "resident": (True, True),
            "nonresident": (True, False)}
CELLS = [(backend, batch, overlap) for backend in BACKENDS
         for batch in (False, True) for overlap in (False, True)]

HYDRO_KERNELS = ("hydro.ideal_gas", "hydro.viscosity", "hydro.calc_dt",
                 "hydro.pdv", "hydro.accelerate", "hydro.flux_calc",
                 "hydro.advec_cell", "hydro.advec_mom", "hydro.reset_field")

_RUNS: dict = {}

#: mesh rows of the oracle: problem + hierarchy depth + ranks
MESHES = {"uniform": dict(problem=SodProblem((32, 32)), max_levels=2, nranks=2),
          "ragged": dict(problem=SodProblem((24, 23)), max_levels=3, nranks=2),
          "ragged4": dict(problem=SodProblem((24, 23)), max_levels=3, nranks=4)}


def _cell(backend: str, batch: bool, overlap: bool, mesh: str = "uniform"):
    """The (memoised) run of one oracle cell."""
    key = (backend, batch, overlap, mesh)
    if key not in _RUNS:
        use_gpu, resident = BACKENDS[backend]
        _RUNS[key] = run(RunConfig(
            use_gpu=use_gpu,
            resident=resident,
            max_patch_size=8,
            regrid=RegridPolicy(interval=3),
            max_steps=6,
            execution=ExecutionPolicy(batch=batch, overlap=overlap),
            **MESHES[mesh],
        ))
    return _RUNS[key]


@pytest.mark.parametrize("backend,batch,overlap", CELLS)
def test_cell_matches_the_serial_per_patch_reference(backend, batch, overlap):
    """Same steps, dt sequence, conserved summary and hierarchy layout."""
    ref = _cell("host", False, False)
    got = _cell(backend, batch, overlap)
    assert got.steps == ref.steps
    assert got.dt_history == ref.dt_history
    assert got.final_fields == ref.final_fields
    assert got.sim.hierarchy.num_levels == ref.sim.hierarchy.num_levels
    for lnum in range(ref.sim.hierarchy.num_levels):
        assert [(tuple(p.box.lower), tuple(p.box.upper), p.owner)
                for p in got.sim.hierarchy.level(lnum)] == \
            [(tuple(p.box.lower), tuple(p.box.upper), p.owner)
             for p in ref.sim.hierarchy.level(lnum)]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("backend,batch,overlap", CELLS)
def test_cell_field_is_bitwise_the_reference(backend, batch, overlap, field):
    ref = _cell("host", False, False)
    got = _cell(backend, batch, overlap)
    for lnum in range(ref.sim.hierarchy.num_levels):
        a = gather_level_field(ref.sim.hierarchy.level(lnum), field)
        b = gather_level_field(got.sim.hierarchy.level(lnum), field)
        assert np.array_equal(a, b, equal_nan=True), (
            f"{field} diverged on level {lnum}: max |diff| = "
            f"{np.nanmax(np.abs(a - b))}")


def _assert_ragged_bitwise(mesh: str, backend: str, batch: bool,
                           overlap: bool) -> None:
    """Every level mixes patch shapes, and every cell of every field
    equals the serial per-patch host reference of the same mesh row."""
    ref = _cell("host", False, False, mesh)
    got = _cell(backend, batch, overlap, mesh)
    assert ref.sim.hierarchy.num_levels == 3
    for level in ref.sim.hierarchy:
        assert len({tuple(p.box.shape()) for p in level}) > 1, "ragged"
    assert got.steps == ref.steps
    assert got.dt_history == ref.dt_history
    assert got.final_fields == ref.final_fields
    for lnum in range(3):
        for field in FIELDS:
            a = gather_level_field(ref.sim.hierarchy.level(lnum), field)
            b = gather_level_field(got.sim.hierarchy.level(lnum), field)
            assert np.array_equal(a, b, equal_nan=True), (
                f"{field} diverged on {mesh} level {lnum}")
    if batch:
        stats = combined_stats(r.exec_stats for r in got.sim.comm.ranks)
        for kernel in HYDRO_KERNELS:  # one stacked op per shape bucket
            assert stats.slab[kernel].fallback == 0, kernel


@pytest.mark.parametrize("backend,batch,overlap", CELLS)
def test_ragged_cell_is_bitwise_the_reference(backend, batch, overlap):
    """The ragged row, on two ranks."""
    _assert_ragged_bitwise("ragged", backend, batch, overlap)


@pytest.mark.parametrize("backend,batch,overlap", CELLS)
def test_four_rank_ragged_cell_is_bitwise_the_reference(backend, batch,
                                                        overlap):
    """The ragged row on four ranks: a batched message carries every
    transaction of its rank pair, and fine-to-coarse syncs cross ranks
    on every level."""
    _assert_ragged_bitwise("ragged4", backend, batch, overlap)
    sim = _cell(backend, batch, overlap, "ragged4").sim
    for fine in range(1, sim.hierarchy.num_levels):
        assert any(t.fine_patch.owner != t.coarse_patch.owner
                   for t in sim._coarsen_schedule_for(fine).transactions)


def test_gpu_cells_actually_used_the_device():
    for backend in ("resident", "nonresident"):
        dev = _cell(backend, False, False).sim.comm.rank(0).device
        assert dev is not None and dev.stats.kernel_launches > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_batched_run_is_not_slower(backend):
    """Fusing launches can only remove modelled overhead."""
    assert _cell(backend, True, False).runtime <= \
        _cell(backend, False, False).runtime


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("overlap", (False, True))
def test_batch_fuses_and_runs_whole_slab(backend, overlap):
    """Batching is whole-slab execution: every uniform-level hydro sweep
    runs as one stacked op (halo/geometry work falls back, counted), and
    an unbatched run records neither fusion nor slab counters."""
    stats = combined_stats(
        r.exec_stats for r in _cell(backend, True, overlap).sim.comm.ranks)
    launches = sum(b.launches for b in stats.batches.values())
    members = sum(b.members for b in stats.batches.values())
    assert members > launches > 0  # genuinely fused
    assert sum(b.overhead_saved_seconds
               for b in stats.batches.values()) > 0.0
    for kernel in HYDRO_KERNELS:
        assert stats.slab[kernel].fused > 0, (
            f"{kernel} never slab-fused ({backend})")
    plain = combined_stats(
        r.exec_stats for r in _cell(backend, False, overlap).sim.comm.ranks)
    assert not plain.batches and not plain.slab


# -- property: any fusion grouping preserves bits -----------------------------

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.exec.backend import UNCHARGED_HOST  # noqa: E402
from repro.exec.batch import BatchMember  # noqa: E402


@st.composite
def _grouping(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    assignment = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return n, assignment, seed


def _make_members(arrays):
    """Per-'patch' kernels with non-commutative float work on private
    data — the same shape as a hydro sweep's members."""
    members = []
    for i, a in enumerate(arrays):
        def body(a=a, i=i):
            np.multiply(a, 1.0 + 1e-7 * (i + 1), out=a)
            np.add(a, 0.125 * i, out=a)
            a[0, :] = a[-1, :] * 2.0 - a[0, :]
        members.append(BatchMember(a.size, body, reads=(a,), writes=(a,)))
    return members


@given(_grouping())
@settings(max_examples=30, deadline=None)
def test_any_fusion_grouping_preserves_bits(case):
    """Partitioning per-patch launches into *arbitrary* fused groups —
    any sizes, any interleaving — never changes a single field bit,
    because members touch disjoint data and run in order within a
    launch."""
    n, assignment, seed = case
    rng = np.random.default_rng(seed)
    base = [rng.standard_normal((3, 4)) for _ in range(n)]

    ref = [a.copy() for a in base]
    for m in _make_members(ref):
        UNCHARGED_HOST.run("hydro.ideal_gas", m.elements, m.body,
                           reads=m.reads, writes=m.writes)

    fused = [a.copy() for a in base]
    groups: dict[int, list] = {}
    for m, g in zip(_make_members(fused), assignment):
        groups.setdefault(g, []).append(m)
    for g in sorted(groups):
        UNCHARGED_HOST.run_batched("hydro.ideal_gas", groups[g])

    for a, b in zip(ref, fused):
        assert np.array_equal(a, b)


@given(_grouping())
@settings(max_examples=30, deadline=None)
def test_any_fusion_grouping_preserves_reduction(case):
    """A reduction fused under any grouping selects the exact scalar the
    per-member chain would (min of mins, no re-rounding)."""
    n, assignment, seed = case
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n)

    members = [BatchMember(1, lambda v=v: float(v)) for v in values]
    per_member = min(
        UNCHARGED_HOST.run("hydro.calc_dt", m.elements, m.body)
        for m in members
    )
    groups: dict[int, list] = {}
    for m, g in zip(members, assignment):
        groups.setdefault(g, []).append(m)
    grouped = min(
        UNCHARGED_HOST.run_batched("hydro.calc_dt", groups[g], combine=min)
        for g in sorted(groups)
    )
    assert grouped == per_member
