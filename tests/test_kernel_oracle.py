"""The hydro kernels are bitwise their expression form.

``repro.hydro.kernels`` evaluates every stencil one ufunc at a time into
buffers carved from a workspace, selecting donor, upwind and downwind
windows with masked copies; the form it replaced, which made one
temporary per term (and gathered by sorting offsets), is frozen in
``tests/kernel_oracle.py``.  Both are run on the same random states —
stacked slabs of one or more patches, fluxes of either sign, exact
zeros of both signs, values below ``G_SMALL`` — and every operand frame
(and ``calc_dt``'s scalar) must come out identical bit for bit.  The
rewritten kernels share one workspace across a sequence of calls, which
starts out filled with NaN, so a buffer read before it is written would
show.  A ragged level (buckets of two patch shapes) swept through the
patch integrator checks the same through the path ``--batch`` runs, and
a bucket split into chunks (``CHUNK_BYTES``) must match it unsplit.
``advec_mom`` for the second velocity component, reusing the node terms
the first one wrote, must match two recomputing calls.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracle as oracle
from repro.comm.simcomm import make_communicator
from repro.hydro import kernels as K
from repro.hydro import patch_integrator as PI
from repro.hydro.fields import declare_fields
from repro.hydro.patch_integrator import CleverleafPatchIntegrator
from repro.mesh.box import Box
from repro.mesh.geometry import CartesianGridGeometry
from repro.mesh.patch_level import PatchLevel
from repro.mesh.variables import HostDataFactory

G = 2
DX, DY = 0.1, 0.07

CELL_OPERANDS = ("density1", "energy1", "vol_flux_x", "vol_flux_y",
                 "mass_flux_x", "mass_flux_y", "pre_vol", "post_vol",
                 "ener_flux")
MOM_OPERANDS = ("vel1", "density1", "vol_flux_x", "vol_flux_y",
                "mass_flux_x", "mass_flux_y", "node_flux", "node_mass_post",
                "node_mass_pre", "mom_flux", "pre_vol", "post_vol")

#: how the volume and mass fluxes are drawn: both signs, one sign only, or
#: mostly exact zeros of either sign (the donor choice at ``vf == 0``)
FLUX_SIGNS = ("mixed", "positive", "negative", "zero")

#: the Lagrangian-phase kernels, by the name the tests draw
LAGRANGIAN = ("ideal_gas", "ideal_gas_ext", "viscosity", "calc_dt",
              "pdv_predict", "pdv_correct", "accelerate", "flux_calc",
              "reset_field")


def _shapes(stack, nx, ny):
    lead = (stack,) if stack else ()
    return dict(
        cell=lead + (nx + 2 * G, ny + 2 * G),
        node=lead + (nx + 1 + 2 * G, ny + 1 + 2 * G),
        side_x=lead + (nx + 1 + 2 * G, ny + 2 * G),
        side_y=lead + (nx + 2 * G, ny + 1 + 2 * G),
    )


def _state(seed, stack, nx, ny, signs):
    """Random remap operand frames for ``stack`` stacked patches."""
    rng = np.random.default_rng(seed)
    s = _shapes(stack, nx, ny)

    def positive(shape):
        return rng.uniform(0.5, 2.0, shape)

    def flux(shape):
        f = rng.uniform(-0.02, 0.02, shape)
        if signs == "positive":
            f = np.abs(f)
        elif signs == "negative":
            f = -np.abs(f)
        zeros = rng.random(shape) < (0.8 if signs == "zero" else 0.1)
        f[zeros] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zeros]
        return f

    return dict(
        density1=positive(s["cell"]), energy1=positive(s["cell"]),
        vol_flux_x=flux(s["side_x"]), vol_flux_y=flux(s["side_y"]),
        mass_flux_x=flux(s["side_x"]), mass_flux_y=flux(s["side_y"]),
        pre_vol=positive(s["cell"]), post_vol=positive(s["cell"]),
        ener_flux=rng.standard_normal(s["cell"]),
        vel1=rng.standard_normal(s["node"]),
        node_flux=rng.standard_normal(s["node"]),
        node_mass_post=positive(s["node"]), node_mass_pre=positive(s["node"]),
        mom_flux=rng.standard_normal(s["node"]),
    )


def _lagrangian_state(seed, stack, nx, ny):
    """Random Lagrangian-phase frames with the awkward values mixed in.

    A fifth of every field is exact zeros of both signs or magnitudes
    below ``G_SMALL``: densities and ``max(...)`` arguments under the
    floor, and pressure differences of exactly +0.0 and -0.0 (the
    viscosity's sign select).
    """
    rng = np.random.default_rng(seed)
    s = _shapes(stack, nx, ny)

    def draw(shape, lo, hi, signed=False):
        v = rng.uniform(lo, hi, shape)
        if signed:
            v *= np.where(rng.random(shape) < 0.5, -1.0, 1.0)
        kind = rng.random(shape)
        v[kind < 0.08] = 0.0
        v[(kind >= 0.08) & (kind < 0.16)] = -0.0
        tiny = (kind >= 0.16) & (kind < 0.2)
        v[tiny] = rng.uniform(-1e-17, 1e-17, shape)[tiny]
        return v

    cell = {n: draw(s["cell"], 0.1, 2.0) for n in (
        "density0", "density1", "energy0", "energy1", "pressure",
        "viscosity", "soundspeed")}
    node = {n: draw(s["node"], 0.0, 1.0, signed=True) for n in (
        "xvel0", "yvel0", "xvel1", "yvel1")}
    return dict(cell, **node,
                vol_flux_x=draw(s["side_x"], 0.0, 0.02, signed=True),
                vol_flux_y=draw(s["side_y"], 0.0, 0.02, signed=True))


def _lagrangian_call(module, kernel, a, nx, ny, ws):
    """Run one Lagrangian kernel of ``module`` on the frames ``a``."""
    kw = {} if module is oracle else {"ws": ws}
    if kernel in ("ideal_gas", "ideal_gas_ext"):
        return module.ideal_gas(a["density0"], a["energy0"], a["pressure"],
                                a["soundspeed"], nx, ny, G, 1.4,
                                2 if kernel == "ideal_gas_ext" else 0, **kw)
    if kernel == "viscosity":
        return module.viscosity(a["density0"], a["pressure"], a["viscosity"],
                                a["xvel0"], a["yvel0"], nx, ny, G, DX, DY,
                                **kw)
    if kernel == "calc_dt":
        return module.calc_dt(a["density0"], a["soundspeed"], a["viscosity"],
                              a["xvel0"], a["yvel0"], nx, ny, G, DX, DY, **kw)
    if kernel in ("pdv_predict", "pdv_correct"):
        return module.pdv(kernel == "pdv_predict", 0.013, *(a[n] for n in (
            "density0", "density1", "energy0", "energy1", "pressure",
            "viscosity", "xvel0", "yvel0", "xvel1", "yvel1")),
            nx, ny, G, DX, DY, **kw)
    if kernel == "accelerate":
        return module.accelerate(0.013, *(a[n] for n in (
            "density0", "pressure", "viscosity", "xvel0", "yvel0", "xvel1",
            "yvel1")), nx, ny, G, DX, DY, **kw)
    if kernel == "flux_calc":
        return module.flux_calc(0.013, *(a[n] for n in (
            "xvel0", "yvel0", "xvel1", "yvel1", "vol_flux_x", "vol_flux_y")),
            nx, ny, G, DX, DY, **kw)
    assert kernel == "reset_field"
    return module.reset_field(*(a[n] for n in (
        "density0", "density1", "energy0", "energy1", "xvel0", "xvel1",
        "yvel0", "yvel1")), nx, ny, G)


def _poisoned_workspace():
    """A workspace whose memory holds NaN wherever a carve lands first."""
    ws = K.Workspace()
    (buf,) = ws.carve((4096,), 1)
    buf[...] = np.nan
    return ws


def _assert_bitwise(want, got, context):
    for name in want:
        assert np.array_equal(np.asarray(want[name]).view(np.int64),
                              np.asarray(got[name]).view(np.int64)), \
            (context, name)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), stack=st.integers(0, 3),
       nx=st.integers(1, 9), ny=st.integers(1, 9),
       direction=st.sampled_from((0, 1)), sweep=st.sampled_from((1, 2)),
       signs=st.sampled_from(FLUX_SIGNS),
       kernel=st.sampled_from(("advec_cell", "advec_mom")))
def test_advection_kernels_are_their_expression_form(
        seed, stack, nx, ny, direction, sweep, signs, kernel):
    """``stack == 0`` is one bare patch frame, else a ``(stack, f0, f1)``
    slab; ``nx``/``ny`` down to 1 cell exercise the narrowest windows."""
    state = _state(seed, stack, nx, ny, signs)
    want = {k: v.copy() for k, v in state.items()}
    got = {k: v.copy() for k, v in state.items()}
    names = CELL_OPERANDS if kernel == "advec_cell" else MOM_OPERANDS
    ws = _poisoned_workspace()
    for _ in range(2):  # the second call reuses the first call's buffers
        oracle_fn = getattr(oracle, kernel)
        oracle_fn(direction, sweep, *(want[n] for n in names),
                  nx, ny, G, DX, DY)
        getattr(K, kernel)(direction, sweep, *(got[n] for n in names),
                           nx, ny, G, DX, DY, ws=ws)
        _assert_bitwise(want, got, (kernel, direction, sweep))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), stack=st.integers(0, 3),
       nx=st.integers(1, 9), ny=st.integers(1, 9),
       kernels=st.lists(st.sampled_from(LAGRANGIAN), min_size=1,
                        max_size=6))
def test_lagrangian_kernels_are_their_expression_form(
        seed, stack, nx, ny, kernels):
    """A random sequence of Lagrangian kernels on one state, the
    rewritten ones carving from one shared (NaN-poisoned) workspace."""
    state = _lagrangian_state(seed, stack, nx, ny)
    want = {k: v.copy() for k, v in state.items()}
    got = {k: v.copy() for k, v in state.items()}
    ws = _poisoned_workspace()
    for kernel in kernels:
        # negative and signed-zero inputs make NaN and inf on purpose
        with np.errstate(invalid="ignore", divide="ignore"):
            dt_want = _lagrangian_call(oracle, kernel, want, nx, ny, None)
            dt_got = _lagrangian_call(K, kernel, got, nx, ny, ws)
        _assert_bitwise(want, got, kernel)
        if kernel == "calc_dt":
            assert np.float64(dt_want).view(np.int64) \
                == np.float64(dt_got).view(np.int64), kernel


def test_states_reach_the_sign_select_and_the_floors():
    """The drawn states hold what the hypothesis tests claim: pressure
    differences of both signed zeros, and sub-``G_SMALL`` densities."""
    s = _lagrangian_state(7, 3, 9, 9)
    p = s["pressure"]
    diff = (K.win(p, G + 1, G, 9, 9) - K.win(p, G - 1, G, 9, 9)) / (2 * DX)
    zeros = diff[diff == 0.0]
    assert np.signbit(zeros).any() and (~np.signbit(zeros)).any()
    assert (np.abs(s["density0"]) < K.G_SMALL).any()


def test_viscosity_signed_zero_gradients():
    """Pressure gradients of exactly -0.0 and +0.0, the edge of the sign
    select (``pgradx < 0`` is false at both), leave the viscosity as the
    expression form does."""
    shapes = _shapes(2, 6, 5)
    rng = np.random.default_rng(3)
    p = rng.uniform(0.5, 1.0, shapes["cell"])
    p[:, ::2, :] = -0.0
    p[:, 1::2, :] = 0.0
    p[1] = rng.uniform(0.5, 1.0, shapes["cell"][1:])
    a = dict(density0=rng.uniform(0.5, 1.0, shapes["cell"]), pressure=p,
             viscosity=np.zeros(shapes["cell"]),
             xvel0=rng.standard_normal(shapes["node"]),
             yvel0=rng.standard_normal(shapes["node"]))
    want = {k: v.copy() for k, v in a.items()}
    oracle.viscosity(*(want[n] for n in ("density0", "pressure", "viscosity",
                                         "xvel0", "yvel0")),
                     6, 5, G, DX, DY)
    K.viscosity(*(a[n] for n in ("density0", "pressure", "viscosity",
                                 "xvel0", "yvel0")),
                6, 5, G, DX, DY, ws=_poisoned_workspace())
    _assert_bitwise(want, a, "viscosity")


def _ragged_level(widths, ny):
    """One host level of patches side by side in x, arena-allocated."""
    comm = make_communicator("IPA", 1, gpus=False)
    edges = np.concatenate([[0], np.cumsum(widths)])
    boxes = [Box([int(lo), 0], [int(hi) - 1, ny - 1])
             for lo, hi in zip(edges, edges[1:])]
    geometry = CartesianGridGeometry(
        Box([0, 0], [int(edges[-1]) - 1, ny - 1]), (0.0, 0.0), (1.0, 1.0))
    level = PatchLevel(0, boxes, [0] * len(boxes), geometry, 1, None)
    level.allocate_all(declare_fields(), HostDataFactory(), comm)
    return level, comm


#: the kernel sweeps of one step, in program order (halo fills aside)
_STEP = (
    ("ideal_gas", dict(ext=2)),
    ("viscosity", {}),
    ("calc_dt", {}),
    ("pdv", dict(predict=True, dt=0.011)),
    ("ideal_gas", dict(predict=True)),
    ("accelerate", dict(dt=0.011)),
    ("pdv", dict(predict=False, dt=0.011)),
    ("flux_calc", dict(dt=0.011)),
    ("advec_cell", dict(direction=0, sweep_number=1)),
    ("advec_mom", dict(direction=0, sweep_number=1, which_vel=0)),
    ("advec_mom", dict(direction=0, sweep_number=1, which_vel=1)),
    ("advec_cell", dict(direction=1, sweep_number=2)),
    ("advec_mom", dict(direction=1, sweep_number=2, which_vel=0)),
    ("advec_mom", dict(direction=1, sweep_number=2, which_vel=1)),
    ("reset_field", {}),
)

_KERNELS = ("ideal_gas", "viscosity", "calc_dt", "pdv", "accelerate",
            "flux_calc", "advec_cell", "advec_mom", "reset_field")


def _without_ws(fn):
    """``fn`` called as the kernels are, minus the execution-only keywords:
    the oracle recomputes everything on every call."""
    def call(*args, ws=None, reuse=False, **kwargs):
        return fn(*args, **kwargs)
    return call


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ragged_bucket_sweeps_match_the_oracle(seed, monkeypatch):
    """A level of two patch shapes, swept bucket by bucket (stacked
    slabs) through one integrator's workspace, leaves every field (and
    every dt) as the oracle kernels do."""
    widths = (5, 7, 5, 5, 7)
    levels = [_ragged_level(widths, 6) for _ in range(2)]
    for level, _comm in levels:
        assert sorted(len(b.patches) for b in level.buckets) == [2, 3]
        _randomise(level, seed)
    dts = []
    for (level, comm), module in zip(levels, (oracle, K)):
        if module is oracle:
            _use_oracle_kernels(monkeypatch)
        dts.append(_sweep_step(level, comm))
        monkeypatch.undo()
    assert dts[0] == dts[1]
    _assert_levels_bitwise(levels[0][0], levels[1][0])


def _randomise(level, seed):
    """The same pseudo-random frames on every call with ``seed``."""
    rng = np.random.default_rng(seed)
    for patch in level:
        for name in patch.data_names():
            pd = patch.data(name)
            shape = tuple(pd.get_ghost_box().shape())
            values = rng.uniform(0.5, 2.0, size=shape)
            if "flux" in name or "vel" in name:
                values = rng.uniform(-0.02, 0.02, size=shape)
            pd.from_host(values)


def _use_oracle_kernels(monkeypatch):
    for name in _KERNELS:
        monkeypatch.setattr(K, name, _without_ws(getattr(oracle, name)))


def _sweep_step(level, comm):
    """Sweep ``_STEP`` bucket by bucket through one integrator; the CFL
    results, in order."""
    pi = CleverleafPatchIntegrator()
    dts = []
    for name, kwargs in _STEP:
        for bucket in level.buckets:
            out = getattr(pi, name)(bucket, comm.rank(0), **kwargs)
            if name == "calc_dt":
                dts.append(out)
    return dts


def _assert_levels_bitwise(want, got):
    for pa, pb in zip(want, got):
        for field in pa.data_names():
            assert np.array_equal(pa.data(field).data.array.view(np.int64),
                                  pb.data(field).data.array.view(np.int64)), field


# -- chunked bucket sweeps ----------------------------------------------------------

def _split_in_pairs(monkeypatch, level):
    """Set the chunk budget to two of ``level``'s largest patch frames,
    which every kernel's operands split into chunks of two patches."""
    patch = level.patches[0]
    frames = [patch.data(name).nbytes for name in patch.data_names()]
    assert 3 * min(frames) > 2 * max(frames)
    monkeypatch.setattr(PI, "CHUNK_BYTES", 2 * max(frames))


def _recording(fn, sizes):
    """``fn``, noting how many patches each call's operands stack."""
    def call(*args, **kwargs):
        sizes.append(next(a.shape[0] for a in args
                          if isinstance(a, np.ndarray)))
        return fn(*args, **kwargs)
    return call


@pytest.mark.parametrize("seed", [0, 1])
def test_chunked_sweeps_match_one_chunk_and_the_oracle(seed, monkeypatch):
    """A bucket of five patches swept in chunks of 2 + 2 + 1 leaves every
    field, and every dt, bitwise as the one-chunk sweep and the oracle
    kernels do."""
    levels = [_ragged_level((5,) * 5, 6) for _ in range(3)]
    for level, _comm in levels:
        assert [len(b.patches) for b in level.buckets] == [5]
        _randomise(level, seed)
    (oracle_level, oracle_comm), (whole, whole_comm), (split, split_comm) \
        = levels
    _use_oracle_kernels(monkeypatch)
    want = _sweep_step(oracle_level, oracle_comm)
    monkeypatch.undo()
    assert _sweep_step(whole, whole_comm) == want
    _split_in_pairs(monkeypatch, split)
    sizes = []
    for name in _KERNELS:
        monkeypatch.setattr(K, name, _recording(getattr(K, name), sizes))
    assert _sweep_step(split, split_comm) == want
    assert sizes == [2, 2, 1] * len(_STEP)
    _assert_levels_bitwise(oracle_level, whole)
    _assert_levels_bitwise(oracle_level, split)


def test_chunked_calc_dt_is_the_exact_min_and_keeps_a_nan(monkeypatch):
    """``calc_dt`` over chunks is exactly the one-chunk minimum, and a NaN
    in the last chunk alone -- where Python's ``min`` would drop it --
    is the result."""
    level, comm = _ragged_level((5,) * 5, 6)
    _randomise(level, 3)
    (bucket,) = level.buckets
    pi = CleverleafPatchIntegrator()
    whole = pi.calc_dt(bucket, comm.rank(0))
    _split_in_pairs(monkeypatch, level)
    assert pi.calc_dt(bucket, comm.rank(0)) == whole
    per_patch = [pi.calc_dt(p, comm.rank(0)) for p in level]
    assert whole == min(per_patch)
    pd = level.patches[-1].data("density0")
    frame = pd.to_host()
    frame[G + 1, G + 1] = np.nan
    pd.from_host(frame)
    with np.errstate(invalid="ignore"):
        assert math.isnan(pi.calc_dt(bucket, comm.rank(0)))


# -- advec_mom's shared terms --------------------------------------------------------

@pytest.mark.parametrize("signs", ("mixed", "zero"))
@pytest.mark.parametrize("stack", [0, 3])
@pytest.mark.parametrize("sweep", [1, 2])
@pytest.mark.parametrize("direction", [0, 1])
def test_second_velocity_reuses_the_first_ones_terms(direction, sweep, stack,
                                                     signs):
    """Advecting x then y velocity, the second call reusing the volumes,
    node fluxes and node masses the first one wrote, leaves every frame
    bitwise as two fully recomputing calls (and the oracle) do -- on one
    patch and on a stacked bucket."""
    state = _state(direction + 2 * sweep, stack, 7, 5, signs)
    state["yvel1"] = np.random.default_rng(stack).standard_normal(
        state["vel1"].shape)
    runs = {mode: {k: v.copy() for k, v in state.items()}
            for mode in ("oracle", "full", "reuse")}
    for mode, a in runs.items():
        ws = _poisoned_workspace()
        for which, vel in enumerate(("vel1", "yvel1")):
            operands = [a[vel]] + [a[n] for n in MOM_OPERANDS[1:]]
            if mode == "oracle":
                oracle.advec_mom(direction, sweep, *operands,
                                 7, 5, G, DX, DY)
            else:
                K.advec_mom(direction, sweep, *operands, 7, 5, G, DX, DY,
                            ws=ws, reuse=mode == "reuse" and which == 1)
    _assert_bitwise(runs["oracle"], runs["full"], "full")
    _assert_bitwise(runs["oracle"], runs["reuse"], "reuse")
