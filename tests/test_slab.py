"""Whole-slab vectorized kernel execution (what ``--batch`` runs).

Three layers of evidence that a bucket sweep is a pure host-side
restatement of the per-patch sweeps:

* kernel level — every hydro kernel is slab-polymorphic: applied to a
  stacked ``(P, f0, f1)`` view it produces bit-for-bit the same values
  as P per-patch applications, and the stacked CFL ``min`` selects the
  exact same scalar (property-tested over random states, and for all
  nine patch-integrator kernels through a ``PatchBucket`` of a ragged
  level);
* unit level — level allocation hands out one ``PatchBucket`` per
  (owner, patch shape) tiling one arena bucket of every variable; a
  bucket is one batch member running one stacked op; ``stacked_of``
  refuses anything but exactly a bucket's members, in order, before a
  kernel can write;
* run level — a ragged hierarchy (mixed patch shapes on one level) runs
  one stacked op per shape, records no hydro-sweep fallback, and the
  fields stay bitwise identical to the per-patch path.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExecutionPolicy, RegridPolicy, RunConfig, RunSession, run
from repro.check import (
    DeclaredAccessError,
    SanitizeChecker,
    activate,
    deactivate,
)
from repro.comm.simcomm import make_communicator
from repro.exec.backend import stacked_of
from repro.exec.batch import BatchMember, LaunchBatcher
from repro.obs.metrics import MetricsRegistry
from repro.gpu.device import K20X, Device
from repro.hydro import kernels as K
from repro.hydro.diagnostics import gather_level_field
from repro.hydro.fields import declare_fields
from repro.hydro import patch_integrator as PI
from repro.hydro.patch_integrator import CleverleafPatchIntegrator
from repro.hydro.problems import SodProblem, TriplePointProblem
from repro.mesh.box import Box
from repro.mesh.geometry import CartesianGridGeometry
from repro.mesh.patch_level import PatchLevel
from repro.mesh.variables import CudaDataFactory, HostDataFactory
from repro.pdat import HOST, Arena
from repro.xfer.message import ImmediateSink

FIELDS = ("density0", "energy0", "pressure", "soundspeed",
          "viscosity", "xvel0", "yvel0")


def _slab(metrics, kernel):
    """(fused, fallback) launches ``metrics`` counted for ``kernel``."""
    return (metrics.value("slab_fused", kernel=kernel),
            metrics.value("slab_fallback", kernel=kernel))


# -- arena stacked views -------------------------------------------------------


def _spaces():
    """(space, access scope) for the host space and a simulated device."""
    device = Device(K20X)
    return [(HOST, nullcontext), (device, device._memcpy_scope)]


def _check_stacked_view_aliases_members(space, scope):
    arena = Arena(space, 3 * 4 * 5)
    members = [arena.place((4, 5)) for _ in range(3)]
    assert len(arena.buckets) == 1 and len(arena.offsets) == 3
    with scope():
        stacked = arena.stacked_view()
        assert stacked.shape == (3, 4, 5)
        stacked[1, 2, 3] = 42.0
        assert members[1].kernel_view()[2, 3] == 42.0  # same memory, no copy
        assert np.shares_memory(stacked, arena.slab.kernel_view())


def test_uniform_arena_stacked_view_aliases_members():
    _check_stacked_view_aliases_members(HOST, nullcontext)


def test_uniform_device_arena_stacked_view_aliases_members():
    _check_stacked_view_aliases_members(*_spaces()[1])


def test_ragged_arena_refuses_stacked_view():
    """Non-uniform ⇒ no whole-arena stacked view, but one stacked
    view per shape bucket; members still alias the slab and the whole
    slab still round-trips through the host."""
    for space, scope in _spaces():
        arena = Arena(space, 4 * 5 + 3 * 5)
        a, b = arena.place((4, 5)), arena.place((3, 5))
        assert len(arena.buckets) == 2
        assert arena.buckets == [(0, 1, (4, 5)), (1, 1, (3, 5))]
        with pytest.raises(ValueError, match="uniform"), scope():
            arena.stacked_view()
        with scope():
            assert arena.stacked_view(1).shape == (1, 3, 5)
            assert np.shares_memory(arena.stacked_view(1), b.kernel_view())
        with scope():
            a.kernel_view()[...] = 1.0
            b.kernel_view()[...] = 2.0
        slab = arena.to_host_slab()
        assert np.array_equal(slab, [1.0] * 20 + [2.0] * 15)
        arena.from_host_slab(slab[::-1].copy())
        with scope():
            assert np.all(a.kernel_view() == [[2.0] * 5] * 3 + [[1.0] * 5])
            assert np.all(b.kernel_view() == 1.0)


# -- property: stacked kernels are bitwise the per-patch kernels ---------------


def _stacked_state(rng, n, nx, ny, g):
    """n random patch states laid out in per-variable uniform arenas."""
    cell = (nx + 2 * g, ny + 2 * g)
    node = (nx + 2 * g + 1, ny + 2 * g + 1)
    state = {}
    for name, shape in (("density", cell), ("energy", cell),
                        ("pressure", cell), ("soundspeed", cell),
                        ("visc", cell), ("xvel", node), ("yvel", node)):
        arena = Arena(HOST, n * shape[0] * shape[1])
        members = [arena.place(shape).kernel_view() for _ in range(n)]
        for m in members:
            m[...] = rng.uniform(0.1, 2.0, size=shape)
        state[name] = (arena, members)
    state["visc"][0].stacked_view()[...] = np.abs(
        state["visc"][0].stacked_view()) * 0.01
    return state


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       n=st.integers(min_value=1, max_value=5),
       nx=st.integers(min_value=3, max_value=9),
       ny=st.integers(min_value=3, max_value=9))
def test_stacked_ideal_gas_matches_per_patch(seed, n, nx, ny):
    rng = np.random.default_rng(seed)
    g = 2
    s = _stacked_state(rng, n, nx, ny, g)
    want_p = [np.empty_like(m) for m in s["pressure"][1]]
    want_cs = [np.empty_like(m) for m in s["soundspeed"][1]]
    for i in range(n):
        K.ideal_gas(s["density"][1][i], s["energy"][1][i],
                    want_p[i], want_cs[i], nx, ny, g, gamma=1.4, ext=1)
    K.ideal_gas(s["density"][0].stacked_view(), s["energy"][0].stacked_view(),
                s["pressure"][0].stacked_view(),
                s["soundspeed"][0].stacked_view(), nx, ny, g,
                gamma=1.4, ext=1)
    for i in range(n):
        o = g - 1
        sl = (slice(o, o + nx + 2), slice(o, o + ny + 2))
        assert np.array_equal(s["pressure"][1][i][sl], want_p[i][sl])
        assert np.array_equal(s["soundspeed"][1][i][sl], want_cs[i][sl])


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       n=st.integers(min_value=1, max_value=5),
       nx=st.integers(min_value=3, max_value=9),
       ny=st.integers(min_value=3, max_value=9))
def test_stacked_calc_dt_is_min_of_per_patch_dts(seed, n, nx, ny):
    """The fused CFL reduction over the stacked axis selects the exact
    scalar ``min`` of the per-patch reductions — no reassociation."""
    rng = np.random.default_rng(seed)
    g = 2
    s = _stacked_state(rng, n, nx, ny, g)
    args = ("density", "soundspeed", "visc", "xvel", "yvel")
    per_patch = [
        K.calc_dt(*(s[a][1][i] for a in args), nx, ny, g, 0.1, 0.1)
        for i in range(n)
    ]
    fused = K.calc_dt(*(s[a][0].stacked_view() for a in args),
                      nx, ny, g, 0.1, 0.1)
    assert fused == min(per_patch)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       n=st.integers(min_value=1, max_value=5),
       nx=st.integers(min_value=3, max_value=9),
       ny=st.integers(min_value=3, max_value=9))
def test_stacked_viscosity_matches_per_patch(seed, n, nx, ny):
    rng = np.random.default_rng(seed)
    g = 2
    s = _stacked_state(rng, n, nx, ny, g)
    want = [np.empty_like(m) for m in s["visc"][1]]
    for i in range(n):
        K.viscosity(s["density"][1][i], s["pressure"][1][i], want[i],
                    s["xvel"][1][i], s["yvel"][1][i], nx, ny, g, 0.1, 0.1)
    K.viscosity(s["density"][0].stacked_view(), s["pressure"][0].stacked_view(),
                s["visc"][0].stacked_view(), s["xvel"][0].stacked_view(),
                s["yvel"][0].stacked_view(), nx, ny, g, 0.1, 0.1)
    sl = (slice(g, g + nx), slice(g, g + ny))
    for i in range(n):
        assert np.array_equal(s["visc"][1][i][sl], want[i][sl])


# -- property: a bucket sweep is bitwise the per-patch sweeps --------------------


def _ragged_level(widths, ny, gpus=False, nranks=1):
    """One level of ``len(widths)`` patches side by side in x (patch ``i``
    is ``widths[i]`` x ``ny`` cells, owners round-robin), every hydro field
    allocated from arena-pooled storage.  Returns (level, comm)."""
    comm = make_communicator("IPA", nranks, gpus=gpus)
    edges = np.concatenate([[0], np.cumsum(widths)])
    boxes = [Box([int(lo), 0], [int(hi) - 1, ny - 1])
             for lo, hi in zip(edges, edges[1:])]
    geometry = CartesianGridGeometry(
        Box([0, 0], [int(edges[-1]) - 1, ny - 1]), (0.0, 0.0), (1.0, 1.0))
    level = PatchLevel(0, boxes, [i % nranks for i in range(len(boxes))],
                       geometry, 1, None)
    factory = (CudaDataFactory if gpus else HostDataFactory)()
    level.allocate_all(declare_fields(), factory, comm)
    return level, comm


def _randomise(level, seed):
    """The same pseudo-random positive state on every call with ``seed``."""
    rng = np.random.default_rng(seed)
    for patch in level:
        for name in patch.data_names():
            pd = patch.data(name)
            scale = 0.01 if name == "viscosity" else 1.0
            pd.from_host(scale * rng.uniform(
                0.5, 2.0, size=tuple(pd.get_ghost_box().shape())))


#: one hydro step's sweeps in program order, each kernel at least once
_STEP = (
    ("ideal_gas", dict(ext=2)), ("viscosity", {}), ("calc_dt", {}),
    ("pdv", dict(predict=True, dt=1e-3)), ("ideal_gas", dict(predict=True)),
    ("accelerate", dict(dt=1e-3)), ("pdv", dict(predict=False, dt=1e-3)),
    ("flux_calc", dict(dt=1e-3)),
    ("advec_cell", dict(direction=0, sweep_number=1)),
    ("advec_mom", dict(direction=0, sweep_number=1, which_vel=0)),
    ("advec_mom", dict(direction=0, sweep_number=1, which_vel=1)),
    ("advec_cell", dict(direction=1, sweep_number=2)),
    ("advec_mom", dict(direction=1, sweep_number=2, which_vel=0)),
    ("advec_mom", dict(direction=1, sweep_number=2, which_vel=1)),
    ("reset_field", {}),
)
_KERNELS = tuple(dict.fromkeys(name for name, _ in _STEP))


@pytest.mark.parametrize("kernel", _KERNELS)
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       nx=st.integers(min_value=3, max_value=7),
       mx=st.integers(min_value=3, max_value=7),
       ny=st.integers(min_value=3, max_value=7))
def test_bucket_sweep_matches_per_patch_sweep(kernel, seed, nx, mx, ny):
    """Every patch-integrator kernel, swept once per :class:`PatchBucket`
    of a ragged level (shapes interleaved in level order), leaves every
    frame of every field bitwise as sweeping it once per patch does — and
    the buckets' CFL results reduce to the per-patch minimum."""
    if nx == mx:
        mx += 1
    widths = (nx, mx, nx, nx, mx)
    per_patch, comm_a = _ragged_level(widths, ny)
    bucketed, comm_b = _ragged_level(widths, ny)
    assert sorted(len(b.patches) for b in bucketed.buckets) == [2, 3]
    _randomise(per_patch, seed)
    _randomise(bucketed, seed)
    pi = CleverleafPatchIntegrator()
    last = max(i for i, (name, _) in enumerate(_STEP) if name == kernel)
    for name, kwargs in _STEP[:last + 1]:
        a = [getattr(pi, name)(p, comm_a.rank(0), **kwargs) for p in per_patch]
        b = [getattr(pi, name)(u, comm_b.rank(0), **kwargs)
             for u in bucketed.buckets]
        if name == "calc_dt":
            assert min(a) == min(b)
    for pa, pb in zip(per_patch, bucketed):
        for field in pa.data_names():
            assert np.array_equal(pa.data(field).data.array,
                                  pb.data(field).data.array,
                                  equal_nan=True), (kernel, field)


# -- the bucket as the sweep unit ---------------------------------------------------
#
# What used to be decided per launch by a planner is now a property of the
# units level allocation hands out (``PatchBucket``), the operand handout
# (``stacked_of``) and ``run_batched``'s member counts.


def _add_one(hits):
    """A test kernel over one operand: records the shape it is handed."""
    def fn(d):
        hits.append(d.shape)
        d += 1.0
        return float(d.shape[0])
    return fn


def _zero(level):
    for patch in level:
        patch.data("density0").fill(0.0)


def test_slab_plan_fuses_uniform_group_without_replaying_bodies():
    """A bucket is one member: one stacked op, zero per-patch bodies."""
    level, comm = _ragged_level((4, 4, 4), 4)
    _zero(level)
    (bucket,) = level.buckets
    rank = comm.rank(0)
    pi = CleverleafPatchIntegrator()
    pi.sink = LaunchBatcher(fuse=True)
    hits = []
    pi._run(bucket, rank, "hydro.reset_field", 64, _add_one(hits),
            ("density0",), writes=("density0",))
    ImmediateSink(comm).flush_fusion(pi.sink)
    assert hits == [(3, 8, 8)]
    for patch in level:
        assert np.array_equal(patch.data("density0").data.array,
                              np.ones((8, 8)))
    assert _slab(rank.metrics, "hydro.reset_field") == (1, 0)
    assert rank.metrics.value("batch.members",
                              kernel="hydro.reset_field") == 3


def test_slab_plan_key_mismatch_falls_back_whole_group():
    """Two patch shapes never share a unit: allocation forms one bucket
    per (owner, shape), each tiling one arena bucket of every variable,
    and together they are the level."""
    level, _ = _ragged_level((4, 5, 4, 5, 4, 4), 4, nranks=2)
    keys = [(b.owner, {tuple(p.box.shape()) for p in b.patches})
            for b in level.buckets]
    assert all(len(shapes) == 1 for _, shapes in keys)
    assert len(keys) == len({(o, *s) for o, s in keys}) == 3
    assert sorted(p.global_id for b in level.buckets for p in b.patches) \
        == list(range(6))
    for bucket in level.buckets:
        assert all(p.owner == bucket.owner for p in bucket.patches)
        for name in ("density0", "xvel0", "vol_flux_x"):
            pds = bucket.fields(name)
            frame = tuple(pds[0].get_ghost_box().shape())
            # (n, f0, f1); a bucket of one is its patch's own frame array
            assert stacked_of(pds).shape == ((len(pds),) * (len(pds) > 1)
                                             + frame)
    # first-seen order: a bucket sweep meets ranks and shapes in the order
    # the per-patch sweep first does
    assert [b.patches[0].global_id for b in level.buckets] == [0, 1, 5]


def test_slab_plan_members_without_spec_replay_bodies():
    """``count == 1`` members (halo bodies, per-region temps) replay
    their bodies in member order, counted as a slab fallback."""
    comm = make_communicator("IPA", 1, gpus=False)
    rank = comm.rank(0)
    hits = []
    members = [BatchMember(4, lambda i=i: hits.append(i)) for i in (2, 0, 1)]
    rank.host_backend.run_batched("hydro.update_halo", members)
    assert hits == [2, 0, 1]
    assert _slab(rank.metrics, "hydro.update_halo") == (0, 1)


def test_slab_plan_partial_arena_coverage_falls_back():
    """A stacked operand must be exactly one arena bucket's members in
    placement order; a strict subset or a permutation raises at the
    handout, before the kernel writes anything."""
    level, comm = _ragged_level((4, 4, 4), 4)
    _zero(level)
    pds = level.buckets[0].fields("density0")

    def member(operand):
        def body():
            stacked_of(operand)[...] = 1.0
        return BatchMember(48, body, writes=operand, count=len(operand))

    for operand in (pds[:2], pds[1:], (pds[1], pds[0], pds[2]),
                    (pds[0], pds[2], pds[1])):
        with pytest.raises(ValueError, match="tile its arena bucket"):
            comm.rank(0).host_backend.run_batched(
                "hydro.reset_field", [member(operand)])
    assert not pds[0]._arena.flat().any()
    loose = [HostDataFactory().allocate(pds[0].var, p.box, None)
             for p in level.patches]
    with pytest.raises(ValueError, match="one arena"):
        stacked_of(loose)


def test_slab_plan_fuses_each_shape_bucket_of_a_ragged_group():
    """Two patch shapes interleaved in level order: one member and one
    stacked op per bucket in a single fused launch, and the reduction
    combines the buckets' results."""
    level, comm = _ragged_level((5, 4, 5, 4, 5), 4)
    _zero(level)
    rank = comm.rank(0)
    pi = CleverleafPatchIntegrator()
    pi.sink = LaunchBatcher(fuse=True)
    hits = []
    for bucket in level.buckets:
        pi._run(bucket, rank, "hydro.reset_field", 1, _add_one(hits),
                ("density0",), writes=("density0",), combine=min)
    [(owner, handle)] = ImmediateSink(comm).flush_fusion(pi.sink)
    assert (owner, handle.result) == (0, 2.0)
    assert hits == [(3, 9, 8), (2, 8, 8)]
    assert np.array_equal(level.patches[0].data("density0")._arena.flat(),
                          np.ones(3 * 72 + 2 * 64))
    assert _slab(rank.metrics, "hydro.reset_field") == (1, 0)
    launched = tuple(rank.metrics.value(name, kernel="hydro.reset_field",
                                        on="cpu")
                     for name in ("kernel.launches", "kernel.elements"))
    assert launched == (1, 5)


def test_slab_plan_mixed_roles_fall_back():
    """One stacked operand declared write for some of its patches and
    read for others is refused under an active checker: the sanitizer
    could not instrument the handout with one role."""
    level, comm = _ragged_level((4, 4, 4), 4)
    _zero(level)
    pds = level.buckets[0].fields("density0")

    def body():
        stacked_of(pds)[...] = 1.0

    member = BatchMember(48, body, reads=pds[2:], writes=pds[:2], count=3)
    activate(SanitizeChecker())
    try:
        with pytest.raises(DeclaredAccessError, match="mixed or undeclared"):
            comm.rank(0).host_backend.run_batched(
                "hydro.reset_field", [member])
    finally:
        deactivate()
    assert not pds[0]._arena.flat().any()


# -- end-to-end: ragged fallback stays bitwise ---------------------------------


def _cfg(batch=True, **overrides):
    base = dict(
        problem=SodProblem((24, 24)),
        nranks=1,
        use_gpu=False,
        max_levels=2,
        max_patch_size=10,   # 24/10 -> ragged refined level (9x9 + 9x10)
        regrid=RegridPolicy(interval=3),
        max_steps=4,
        execution=ExecutionPolicy(batch=batch),
    )
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def ragged_runs():
    """The per-patch reference and the batched (whole-slab) run."""
    return run(_cfg(batch=False)), run(_cfg())


def _slab_counters(res):
    stats = MetricsRegistry.merged(r.metrics for r in res.sim.comm.ranks)
    return {k: _slab(stats, k) for (k,) in stats.variants("slab_fused")}


def test_ragged_level_counts_fallbacks_and_fusions(ragged_runs):
    _, slab = ragged_runs
    level1 = slab.sim.hierarchy.level(1)
    assert len({tuple(p.box.shape()) for p in level1}) > 1, "level 1 is ragged"
    counters = _slab_counters(slab)
    # every hydro sweep ran one stacked op per shape bucket, on the
    # uniform level 0 and the ragged level 1 alike: no fallback at all
    for kernel in ("hydro.pdv", "hydro.ideal_gas", "hydro.advec_cell",
                   "hydro.calc_dt"):
        fused, fallback = counters[kernel]
        assert fused > 0 and fallback == 0, (kernel, fused, fallback)
    # compiled ghost fills count as fused too; what still replays
    # per-region bodies is counted as such (halo bodies, sync blocks)
    assert counters["geom.refine"][0] > 0
    assert counters["hydro.update_halo"][1] > 0


def test_per_patch_run_records_no_slab_counters(ragged_runs):
    patch, _ = ragged_runs
    assert _slab_counters(patch) == {}


def test_ragged_slab_run_is_bitwise_identical(ragged_runs):
    patch, slab = ragged_runs
    assert slab.steps == patch.steps
    assert slab.dt_history == patch.dt_history
    for lnum in range(patch.sim.hierarchy.num_levels):
        for field in FIELDS:
            a = gather_level_field(patch.sim.hierarchy.level(lnum), field)
            b = gather_level_field(slab.sim.hierarchy.level(lnum), field)
            assert np.array_equal(a, b, equal_nan=True), (
                f"{field} diverged on level {lnum} under --batch")


def test_slab_counters_surface_in_metrics_manifest(ragged_runs):
    _, slab = ragged_runs
    counters = slab.metrics["counters"]
    assert any(k.startswith("slab_fused{") for k in counters)
    assert any(k.startswith("slab_fallback{") for k in counters)


def test_run_calls_per_step_are_sweeps_times_buckets(monkeypatch):
    """The funnel is entered once per sweep per *bucket* under ``batch``
    (once per patch without, on the same arena-allocated levels): 15
    sweeps in a steady step."""
    calls = []
    orig = CleverleafPatchIntegrator._run

    def counted(self, unit, *args, **kwargs):
        calls.append(unit)
        return orig(self, unit, *args, **kwargs)

    monkeypatch.setattr(CleverleafPatchIntegrator, "_run", counted)
    for batch in (True, False):
        session = RunSession(_cfg(batch=batch, max_steps=2,
                                  regrid=RegridPolicy(interval=100)))
        try:
            session.advance(1)
            calls.clear()
            session.advance(1)   # a steady step: no regrid
            levels = list(session.sim.hierarchy)
        finally:
            session.close()
        patches = sum(len(level.patches) for level in levels)
        buckets = sum(len(level.buckets) for level in levels)
        assert 0 < buckets < patches
        assert len(calls) == 15 * (buckets if batch else patches)


# -- chunked bucket sweeps --------------------------------------------------------

#: the small-patch benchmark configurations (and their other-seed
#: resolutions): many small patches, kernels a small share of the step
_SMALL_PATCH_RUNS = {
    "sod_small_patches": lambda ny: RunConfig(
        problem=SodProblem((64, ny)), max_levels=3, max_patch_size=8,
        execution=ExecutionPolicy(batch=True), max_steps=6),
    "tp_regrid_every_step": lambda nx: RunConfig(
        problem=TriplePointProblem((nx, 24)), max_levels=3,
        max_patch_size=16, execution=ExecutionPolicy(batch=True),
        regrid=RegridPolicy(interval=1), max_steps=6),
}


@pytest.mark.parametrize("name, size", [
    ("sod_small_patches", 64), ("sod_small_patches", 63),
    ("tp_regrid_every_step", 56), ("tp_regrid_every_step", 55),
    ("tp_regrid_every_step", 57)])
def test_small_patch_buckets_are_swept_in_one_chunk(name, size, monkeypatch):
    """Chunking a bucket costs a NumPy call per operand per chunk, which
    small patches cannot repay: every sweep launch of these runs, across
    their regrids, is exactly one chunk."""
    chunks = []
    chunk_patches = PI._chunk_patches

    def counting(operands, count):
        chunk = chunk_patches(operands, count)
        chunks.append((count, -(-count // chunk)))
        return chunk

    monkeypatch.setattr(PI, "_chunk_patches", counting)
    session = RunSession(_SMALL_PATCH_RUNS[name](size))
    try:
        session.advance(6)
    finally:
        session.close()
    assert {n for _, n in chunks} == {1}
    assert max(count for count, _ in chunks) > 8   # buckets were stacked
