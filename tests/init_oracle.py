"""The per-patch level-construction program, kept as the reference.

Until level construction executed whole arena slabs, this is how a new
level was set up: the regridder zeroed every (patch, variable) with one
``pdat.fill`` launch, and initialisation visited each patch in turn —
its cell centres, the problem's initial state, one host frame per
primary field copied up with one synchronous H2D, one ``pdat.fill`` per
work array, then the patch's EOS launch; after a regrid's transfer, the
EOS ran once more on every patch of a level, one launch each.

``tests/test_ledger.py`` asserts the slab program (one fill and one
initial-condition write per arena slab, the per-patch launches and
copies charged from a :class:`~repro.gpu.ledger.ChargeLedger`) leaves
the same bits, clocks, counters, device high-water and trace spans as
this one.  :func:`per_patch_construction` swaps it in for a run.
"""

from contextlib import contextmanager

import numpy as np

import repro.regrid.regridder as regridder_module
from repro.check.context import seam_scope
from repro.hydro.fields import GHOSTS

WORK_FIELDS = ("density1", "energy1", "pressure", "viscosity", "soundspeed",
               "xvel1", "yvel1", "vol_flux_x", "vol_flux_y", "mass_flux_x",
               "mass_flux_y", "pre_vol", "post_vol", "ener_flux",
               "node_flux", "node_mass_post", "node_mass_pre", "mom_flux")


def cell_centers(patch):
    """One patch's cell-centre coordinate arrays, as patches computed
    them (``Patch.cell_centers``)."""
    level = patch.level
    geometry, ratio = level.geometry, level.ratio_to_base
    dx = geometry.level_dx(ratio)
    domain = geometry.level_domain(ratio)
    coords = []
    for axis in range(geometry.dim):
        idx = np.arange(patch.box.lower[axis], patch.box.upper[axis] + 1,
                        dtype=np.float64)
        c = geometry.x_lo[axis] + (idx - domain.lower[axis] + 0.5) * dx[axis]
        shape = [1] * geometry.dim
        shape[axis] = -1
        coords.append(c.reshape(shape))
    return tuple(coords)


def initialise_patch(pi, patch, rank, problem) -> None:
    """Set initial density/energy/velocity on one patch, then its EOS."""
    xc, yc = cell_centers(patch)
    d, e = problem.initial_state(xc, yc)
    nx, ny, g, _, _ = pi._geom(patch)

    def fill_field(name, interior, fill_value):
        pd = patch.data(name)
        frame_shape = tuple(pd.get_ghost_box().shape())
        host = np.full(frame_shape, fill_value, dtype=np.float64)
        sl = tuple(slice(g, g + s) for s in interior.shape)
        host[sl] = interior
        with seam_scope():
            pd.from_host(host)

    assert g == GHOSTS
    dens = np.broadcast_to(d, (nx, ny)).astype(np.float64)
    ener = np.broadcast_to(e, (nx, ny)).astype(np.float64)
    fill_field("density0", dens, 1.0)
    fill_field("energy0", ener, 1.0e-6)
    zeros_n = np.zeros((nx + 1, ny + 1))
    fill_field("xvel0", zeros_n, 0.0)
    fill_field("yvel0", zeros_n, 0.0)
    for name in WORK_FIELDS:
        patch.data(name).fill(0.0)
    pi.ideal_gas(patch, rank, predict=False, ext=0)


def per_patch(pi):
    """Patch integrator ``pi``, initialising levels and recomputing a
    regridded level's EOS patch by patch."""
    def initialise_level(level, comm, problem):
        for patch in level:
            initialise_patch(pi, patch, comm.rank(patch.owner), problem)

    def reset_eos(level, comm):
        for patch in level:
            pi.ideal_gas(patch, comm.rank(patch.owner), ext=0)

    pi.initialise_level = initialise_level
    pi.reset_eos = reset_eos
    return pi


def zero_level(level, names) -> None:
    """The regridder's per-patch zero-fill loop."""
    for patch in level:
        for name in patch.data_names():
            if name in names:
                patch.data(name).fill(0.0)


@contextmanager
def per_patch_construction(monkeypatch):
    """Regrids inside the block zero-fill patch by patch."""
    with monkeypatch.context() as m:
        m.setattr(regridder_module, "zero_level", zero_level)
        yield
