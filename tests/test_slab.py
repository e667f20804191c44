"""Whole-slab vectorized kernel execution (what ``--batch`` runs).

Three layers of evidence that the slab fast path is a pure host-side
rewrite of the fused launch:

* kernel level — every hydro kernel is slab-polymorphic: applied to a
  stacked ``(P, f0, f1)`` view it produces bit-for-bit the same values
  as P per-patch applications, and the stacked CFL ``min`` selects the
  exact same scalar (property-tested over random states);
* planner level — ``Backend._slab_plan`` partitions a group by slab key
  (one partition per patch shape) and fuses each partition over the
  arena *bucket* its members tile; a partition that does not tile its
  bucket sends the whole group down the per-patch path (never
  half-executes);
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

from repro.api import ExecutionPolicy, RegridPolicy, RunConfig, run
from repro.exec.backend import UNCHARGED_HOST
from repro.exec.batch import BatchMember, SlabSpec
from repro.exec.stats import combined_stats
from repro.hydro import kernels as K
from repro.hydro.diagnostics import gather_level_field
from repro.hydro.problems import SodProblem
from repro.gpu.device import K20X, Device
from repro.pdat import HOST, Arena

FIELDS = ("density0", "energy0", "pressure", "soundspeed",
          "viscosity", "xvel0", "yvel0")


# -- arena stacked views -------------------------------------------------------


def _spaces():
    """(space, access scope) for the host space and a simulated device."""
    device = Device(K20X)
    return [(HOST, nullcontext), (device, device._memcpy_scope)]


def _check_stacked_view_aliases_members(space, scope):
    arena = Arena(space, 3 * 4 * 5)
    members = [arena.place((4, 5)) for _ in range(3)]
    assert arena.uniform and arena.member_count == 3
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
    """Non-uniform ⇒ no whole-arena stacked view or mask, but one stacked
    view per shape bucket; members still alias the slab and the whole
    slab still round-trips through the host."""
    for space, scope in _spaces():
        arena = Arena(space, 4 * 5 + 3 * 5)
        a, b = arena.place((4, 5)), arena.place((3, 5))
        assert not arena.uniform
        assert arena.buckets == [(0, 1, (4, 5)), (1, 1, (3, 5))]
        with pytest.raises(ValueError, match="uniform"), scope():
            arena.stacked_view()
        with pytest.raises(ValueError, match="uniform"):
            arena.interior_mask(1)
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


def test_interior_mask_masks_ghost_frame():
    for space, _ in _spaces():
        arena = Arena(space, 2 * 6 * 6)
        arena.place((6, 6))
        arena.place((6, 6))
        mask = arena.interior_mask(2)
        assert mask.shape == (2, 6, 6)
        assert mask.sum() == 2 * 2 * 2  # 2 members x (6-4) x (6-4)
        assert mask[:, 2:4, 2:4].all() and not mask[:, :2, :].any()


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


# -- planner eligibility -------------------------------------------------------


class _Pd:
    """Patch data stand-in with the arena backlinks the planner reads."""

    def __init__(self, arena, index, view):
        self._arena = arena
        self._arena_index = index
        self.view = view


def _slab_group(n=3, shape=(4, 4), key=("k", 4, 4)):
    """n members whose single operand tiles one uniform arena."""
    arena = Arena(HOST, n * shape[0] * shape[1])
    pds = [_Pd(arena, i, arena.place(shape).kernel_view()) for i in range(n)]
    arena.slab.kernel_view()[:] = 0.0
    hits = []

    def fn(stacked):
        hits.append(stacked.shape)
        stacked += 1.0

    members = []
    for i, pd in enumerate(pds):
        def body(pd=pd):
            hits.append("per-patch")
            pd.view += 1.0
        members.append(BatchMember(
            shape[0] * shape[1], body, writes=(pd,),
            slab=SlabSpec(key, fn, (pd,))))
    return arena, pds, members, hits


def test_slab_plan_fuses_uniform_group_without_replaying_bodies():
    arena, pds, members, hits = _slab_group()
    UNCHARGED_HOST.run_batched("k", members)
    assert hits == [(3, 4, 4)]  # one stacked op, zero per-patch bodies
    assert np.array_equal(arena.stacked_view(),
                          np.ones((3, 4, 4)))


def test_slab_plan_key_mismatch_falls_back_whole_group():
    """A single mismatched key (e.g. a ragged member's nx/ny) sends the
    *entire* group down the per-patch path — never half-executes."""
    arena, pds, members, hits = _slab_group()
    members[1].slab = SlabSpec(("k", 9, 9), members[1].slab.fn,
                               members[1].slab.operands)
    UNCHARGED_HOST.run_batched("k", members)
    assert hits == ["per-patch"] * 3
    assert np.array_equal(arena.stacked_view(), np.ones((3, 4, 4)))


def test_slab_plan_members_without_spec_replay_bodies():
    arena, pds, members, hits = _slab_group()
    for m in members:
        m.slab = None
    UNCHARGED_HOST.run_batched("k", members)
    assert hits == ["per-patch"] * 3


def test_slab_plan_partial_arena_coverage_falls_back():
    """Members must tile the whole arena in stacked order; a group over
    a strict subset (or out of order) cannot use the stacked view."""
    arena, pds, members, hits = _slab_group()
    UNCHARGED_HOST.run_batched("k", members[:2])  # covers 2 of 3 members
    assert hits == ["per-patch"] * 2
    hits.clear()
    UNCHARGED_HOST.run_batched("k", [members[1], members[0], members[2]])
    assert hits == ["per-patch"] * 3  # out of stacked order


def test_slab_plan_fuses_each_shape_bucket_of_a_ragged_group():
    """Two patch shapes placed shape by shape: one stacked op per bucket,
    whatever order the members arrive in, and the reduction combines the
    buckets' results."""
    arena = Arena(HOST, 2 * 16 + 3 * 12)
    shapes = [(4, 4)] * 2 + [(3, 4)] * 3
    pds = [_Pd(arena, i, arena.place(shape).kernel_view())
           for i, shape in enumerate(shapes)]
    arena.slab.kernel_view()[:] = 0.0
    hits = []

    def fn(stacked):
        hits.append(stacked.shape)
        stacked += 1.0
        return float(stacked.shape[0])

    members = [BatchMember(pd.view.size, lambda: hits.append("per-patch"),
                           writes=(pd,),
                           slab=SlabSpec(("k", *pd.view.shape), fn, (pd,)))
               for pd in pds]
    interleaved = [members[i] for i in (2, 0, 3, 1, 4)]  # level order
    assert UNCHARGED_HOST.run_batched("k", interleaved, combine=min) == 2.0
    assert sorted(hits) == [(2, 4, 4), (3, 3, 4)]
    assert np.array_equal(arena.slab.kernel_view(), np.ones(68))


def test_slab_plan_mixed_roles_fall_back():
    """One operand position declared write by some members and read by
    others is not a slab: the sanitizer could not instrument it."""
    arena, pds, members, hits = _slab_group()
    members[2].writes = ()
    members[2].reads = (pds[2],)
    UNCHARGED_HOST.run_batched("k", members)
    assert hits == ["per-patch"] * 3


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
    stats = combined_stats(r.exec_stats for r in res.sim.comm.ranks)
    return {k: (c.fused, c.fallback) for k, c in stats.slab.items()}


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
    # per-region bodies is counted as such (halo bodies, sync temps)
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
