"""The advection kernels are bitwise their expression form.

``repro.hydro.kernels.advec_cell`` / ``advec_mom`` select donor, upwind
and downwind windows and evaluate each stencil into scratch buffers; the
form they replaced, which gathered by sorting offsets and made one
temporary per term, is frozen in ``tests/kernel_oracle.py``.  Both are
run on the same random states — stacked slabs of one or more patches,
fluxes of either sign, exact zeros of both signs — and every operand
frame must come out identical bit for bit.  A ragged level (buckets of
two patch shapes) swept through the patch integrator checks the same
through the path ``--batch`` runs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracle as oracle
from repro.comm.simcomm import make_communicator
from repro.hydro import kernels as K
from repro.hydro.fields import declare_fields
from repro.hydro.patch_integrator import CleverleafPatchIntegrator
from repro.mesh.box import Box
from repro.mesh.geometry import CartesianGridGeometry
from repro.mesh.patch_level import PatchLevel
from repro.mesh.variables import HostDataFactory

G = 2

CELL_OPERANDS = ("density1", "energy1", "vol_flux_x", "vol_flux_y",
                 "mass_flux_x", "mass_flux_y", "pre_vol", "post_vol",
                 "ener_flux")
MOM_OPERANDS = ("vel1", "density1", "vol_flux_x", "vol_flux_y",
                "mass_flux_x", "mass_flux_y", "node_flux", "node_mass_post",
                "node_mass_pre", "mom_flux", "pre_vol", "post_vol")

#: how the volume and mass fluxes are drawn: both signs, one sign only, or
#: mostly exact zeros of either sign (the donor choice at ``vf == 0``)
FLUX_SIGNS = ("mixed", "positive", "negative", "zero")


def _state(seed, stack, nx, ny, signs):
    """Random operand frames for ``stack`` stacked ``nx`` x ``ny`` patches."""
    rng = np.random.default_rng(seed)
    lead = (stack,) if stack else ()
    cell = lead + (nx + 2 * G, ny + 2 * G)
    node = lead + (nx + 1 + 2 * G, ny + 1 + 2 * G)
    side_x = lead + (nx + 1 + 2 * G, ny + 2 * G)
    side_y = lead + (nx + 2 * G, ny + 1 + 2 * G)

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
        density1=positive(cell), energy1=positive(cell),
        vol_flux_x=flux(side_x), vol_flux_y=flux(side_y),
        mass_flux_x=flux(side_x), mass_flux_y=flux(side_y),
        pre_vol=positive(cell), post_vol=positive(cell),
        ener_flux=rng.standard_normal(cell),
        vel1=rng.standard_normal(node),
        node_flux=rng.standard_normal(node),
        node_mass_post=positive(node), node_mass_pre=positive(node),
        mom_flux=rng.standard_normal(node),
    )


def _assert_bitwise(want, got, context):
    for name in want:
        assert np.array_equal(want[name].view(np.int64),
                              got[name].view(np.int64)), (context, name)


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
    for module, arrays in ((oracle, want), (K, got)):
        getattr(module, kernel)(direction, sweep, *(arrays[n] for n in names),
                                nx, ny, G, 0.1, 0.07)
    _assert_bitwise(want, got, (kernel, direction, sweep))


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


#: the remap sweeps of one step, in program order
_REMAP = (
    ("advec_cell", dict(direction=0, sweep_number=1)),
    ("advec_mom", dict(direction=0, sweep_number=1, which_vel=0)),
    ("advec_mom", dict(direction=0, sweep_number=1, which_vel=1)),
    ("advec_cell", dict(direction=1, sweep_number=2)),
    ("advec_mom", dict(direction=1, sweep_number=2, which_vel=0)),
    ("advec_mom", dict(direction=1, sweep_number=2, which_vel=1)),
)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ragged_bucket_sweeps_match_the_oracle(seed, monkeypatch):
    """A level of two patch shapes, swept bucket by bucket (stacked
    slabs), leaves every field as the oracle kernels do."""
    widths = (5, 7, 5, 5, 7)
    levels = [_ragged_level(widths, 6) for _ in range(2)]
    for level, _comm in levels:
        assert sorted(len(b.patches) for b in level.buckets) == [2, 3]
        rng = np.random.default_rng(seed)
        for patch in level:
            for name in patch.data_names():
                pd = patch.data(name)
                shape = tuple(pd.get_ghost_box().shape())
                values = rng.uniform(0.5, 2.0, size=shape)
                if "flux" in name:
                    values = rng.uniform(-0.02, 0.02, size=shape)
                pd.from_host(values)
    pi = CleverleafPatchIntegrator()
    for (level, comm), module in zip(levels, (oracle, K)):
        monkeypatch.setattr(K, "advec_cell", module.advec_cell)
        monkeypatch.setattr(K, "advec_mom", module.advec_mom)
        for name, kwargs in _REMAP:
            for bucket in level.buckets:
                getattr(pi, name)(bucket, comm.rank(0), **kwargs)
        monkeypatch.undo()
    want, got = (levels[0][0], levels[1][0])
    for pa, pb in zip(want, got):
        for field in pa.data_names():
            assert np.array_equal(pa.data(field).data.array.view(np.int64),
                                  pb.data(field).data.array.view(np.int64)), field
