"""CloverLeaf hydrodynamics kernels (2-D compressible Euler).

These are the numerical kernels of CleverLeaf's patch integrator: ideal-gas
EOS, artificial viscosity, CFL timestep, predictor/corrector PdV, nodal
acceleration, face flux calculation, and the van-Leer advective remap for
cells and momentum.  Each function is pure NumPy over plain arrays plus
geometry scalars, shared verbatim by the CPU and (simulated) GPU patch
integrators so their results agree bit-for-bit.

Array layout for a patch of ``nx`` x ``ny`` cells with ghost width ``g``
(g >= 2 required by the advection stencils):

=============  ======================  =========================
centring        shape                  interior slice
=============  ======================  =========================
cell           (nx + 2g, ny + 2g)      [g : g+nx,   g : g+ny]
node           (nx+1+2g, ny+1+2g)      [g : g+nx+1, g : g+ny+1]
side-x         (nx+1+2g, ny + 2g)      [g : g+nx+1, g : g+ny]
side-y         (nx + 2g, ny+1+2g)      [g : g+nx,   g : g+ny+1]
=============  ======================  =========================

Cell indices run -g .. nx-1+g (interior 0 .. nx-1); face f is the lower
face of cell f; node n is the lower corner of cell n.

``win(arr, i0, j0, n0, n1)`` extracts an (n0, n1) window starting at array
offsets (i0, j0); every kernel states its stencil through these windows, so
a stencil reaching outside allocated ghosts fails loudly with an index
error instead of silently reading garbage.

Windows index the *trailing two axes*, so every kernel here is
slab-polymorphic: handed stacked arrays of shape ``(P, f0, f1)`` — one
whole-arena view covering P same-shaped patches (``--batch``) —
the same code runs one vectorized NumPy op over all P patches at once.
All per-element arithmetic is elementwise IEEE (the only reduction,
``calc_dt``'s min, is an exact selection), so the stacked results are
bitwise identical to P per-patch invocations.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "win", "ideal_gas", "viscosity", "calc_dt", "pdv", "accelerate",
    "flux_calc", "advec_cell", "advec_mom", "reset_field", "G_SMALL", "G_BIG",
]

G_SMALL = 1.0e-16
G_BIG = 1.0e21


def win(arr: np.ndarray, i0: int, j0: int, n0: int, n1: int) -> np.ndarray:
    """Window of shape (..., n0, n1) at offsets (i0, j0); bounds-checked.

    Indexes the trailing two axes, so a 2-D patch frame yields the classic
    (n0, n1) window while a stacked (P, f0, f1) slab yields a (P, n0, n1)
    window covering every patch at once.
    """
    if i0 < 0 or j0 < 0 or i0 + n0 > arr.shape[-2] or j0 + n1 > arr.shape[-1]:
        raise IndexError(
            f"window ({i0}:{i0+n0}, {j0}:{j0+n1}) outside array {arr.shape}"
        )
    return arr[..., i0:i0 + n0, j0:j0 + n1]


# ---------------------------------------------------------------------------
# equation of state
# ---------------------------------------------------------------------------

def ideal_gas(density, energy, pressure, soundspeed, nx, ny, g, gamma=1.4, ext=0):
    """gamma-law EOS: p = (gamma-1) rho e; cs = sqrt(gamma p / rho).

    ``ext`` extends the computed region into the ghost layers (CloverLeaf
    recomputes the EOS on halo cells rather than exchanging p separately).
    """
    n0, n1 = nx + 2 * ext, ny + 2 * ext
    o = g - ext
    d = win(density, o, o, n0, n1)
    e = win(energy, o, o, n0, n1)
    p = (gamma - 1.0) * d * e
    win(pressure, o, o, n0, n1)[...] = p
    v = 1.0 / np.maximum(d, G_SMALL)
    cs2 = gamma * np.maximum(p, G_SMALL) * v
    win(soundspeed, o, o, n0, n1)[...] = np.sqrt(cs2)


# ---------------------------------------------------------------------------
# artificial viscosity
# ---------------------------------------------------------------------------

def viscosity(density0, pressure, visc, xvel0, yvel0, nx, ny, g, dx, dy):
    """CloverLeaf's edge-detected quadratic artificial viscosity.

    Stencil: pressure +-1 cell, velocities at the cell's four nodes.
    """
    n0, n1 = nx, ny

    u00 = win(xvel0, g, g, n0, n1)          # node (i, j)
    u01 = win(xvel0, g, g + 1, n0, n1)      # node (i, j+1)
    u10 = win(xvel0, g + 1, g, n0, n1)      # node (i+1, j)
    u11 = win(xvel0, g + 1, g + 1, n0, n1)
    v00 = win(yvel0, g, g, n0, n1)
    v01 = win(yvel0, g, g + 1, n0, n1)
    v10 = win(yvel0, g + 1, g, n0, n1)
    v11 = win(yvel0, g + 1, g + 1, n0, n1)

    ugrad = 0.5 * ((u10 + u11) - (u00 + u01))          # du across the cell
    vgrad = 0.5 * ((v01 + v11) - (v00 + v10))          # dv across the cell
    div = dy * ugrad + dx * vgrad                      # area-weighted divergence
    strain2 = 0.5 * ((u01 + u11) - (u00 + u10)) / dy \
        + 0.5 * ((v10 + v11) - (v00 + v01)) / dx

    pgradx = (win(pressure, g + 1, g, n0, n1) - win(pressure, g - 1, g, n0, n1)) / (2.0 * dx)
    pgrady = (win(pressure, g, g + 1, n0, n1) - win(pressure, g, g - 1, n0, n1)) / (2.0 * dy)
    pgradx2 = pgradx * pgradx
    pgrady2 = pgrady * pgrady

    limiter = ((0.5 * ugrad / dx) * pgradx2
               + (0.5 * vgrad / dy) * pgrady2
               + strain2 * pgradx * pgrady) / np.maximum(pgradx2 + pgrady2, G_SMALL)

    sx = np.where(pgradx < 0, -1.0, 1.0)
    sy = np.where(pgrady < 0, -1.0, 1.0)
    pgx = sx * np.maximum(G_SMALL, np.abs(pgradx))
    pgy = sy * np.maximum(G_SMALL, np.abs(pgrady))
    pgrad = np.sqrt(pgx * pgx + pgy * pgy)
    xgrad = np.abs(dx * pgrad / pgx)
    ygrad = np.abs(dy * pgrad / pgy)
    grad = np.minimum(xgrad, ygrad)
    grad2 = grad * grad

    q = 2.0 * win(density0, g, g, n0, n1) * grad2 * limiter * limiter
    q = np.where((limiter > 0.0) | (div >= 0.0), 0.0, q)
    win(visc, g, g, n0, n1)[...] = q


# ---------------------------------------------------------------------------
# timestep control
# ---------------------------------------------------------------------------

def calc_dt(density0, soundspeed, visc, xvel0, yvel0, nx, ny, g, dx, dy,
            dtc_safe=0.7, dtu_safe=0.5, dtv_safe=0.5, dtdiv_safe=0.7):
    """CFL timestep: minimum over the patch of the four CloverLeaf limits."""
    n0, n1 = nx, ny
    d = win(density0, g, g, n0, n1)
    cs = win(soundspeed, g, g, n0, n1)
    q = win(visc, g, g, n0, n1)
    cc = cs * cs + 2.0 * q / np.maximum(d, G_SMALL)
    cc = np.maximum(np.sqrt(cc), G_SMALL)

    u00 = win(xvel0, g, g, n0, n1)
    u01 = win(xvel0, g, g + 1, n0, n1)
    u10 = win(xvel0, g + 1, g, n0, n1)
    u11 = win(xvel0, g + 1, g + 1, n0, n1)
    v00 = win(yvel0, g, g, n0, n1)
    v01 = win(yvel0, g, g + 1, n0, n1)
    v10 = win(yvel0, g + 1, g, n0, n1)
    v11 = win(yvel0, g + 1, g + 1, n0, n1)

    dtct = dtc_safe * np.minimum(dx, dy) / cc
    du = 0.5 * np.maximum(np.abs(u00 + u01), np.abs(u10 + u11))
    dv = 0.5 * np.maximum(np.abs(v00 + v10), np.abs(v01 + v11))
    dtut = dtu_safe * dx / np.maximum(du, G_SMALL)
    dtvt = dtv_safe * dy / np.maximum(dv, G_SMALL)
    divergence = (0.5 * ((u10 + u11) - (u00 + u01)) / dx
                  + 0.5 * ((v01 + v11) - (v00 + v10)) / dy)
    dtdivt = dtdiv_safe / np.maximum(np.abs(divergence), G_SMALL)

    return float(np.min(np.minimum(np.minimum(dtct, dtut), np.minimum(dtvt, dtdivt))))


# ---------------------------------------------------------------------------
# Lagrangian step
# ---------------------------------------------------------------------------

def pdv(predict, dt, density0, density1, energy0, energy1, pressure, visc,
        xvel0, yvel0, xvel1, yvel1, nx, ny, g, dx, dy):
    """PdV work: volume change and energy update (predictor or corrector).

    The predictor advances a half step using the old velocities only; the
    corrector advances the full step with the time-averaged velocities.
    """
    n0, n1 = nx, ny
    volume = dx * dy
    xarea = dy
    yarea = dx

    def face_sum(vel0, vel1, di, dj, tdi, tdj):
        a = win(vel0, g + di, g + dj, n0, n1) + win(vel0, g + di + tdi, g + dj + tdj, n0, n1)
        if predict:
            return 2.0 * a
        b = win(vel1, g + di, g + dj, n0, n1) + win(vel1, g + di + tdi, g + dj + tdj, n0, n1)
        return a + b

    scale = 0.25 * dt * (0.5 if predict else 1.0)
    left_flux = xarea * face_sum(xvel0, xvel1, 0, 0, 0, 1) * scale
    right_flux = xarea * face_sum(xvel0, xvel1, 1, 0, 0, 1) * scale
    bottom_flux = yarea * face_sum(yvel0, yvel1, 0, 0, 1, 0) * scale
    top_flux = yarea * face_sum(yvel0, yvel1, 0, 1, 1, 0) * scale
    total_flux = right_flux - left_flux + top_flux - bottom_flux

    volume_change = volume / (volume + total_flux)
    d0 = win(density0, g, g, n0, n1)
    e0 = win(energy0, g, g, n0, n1)
    p = win(pressure, g, g, n0, n1)
    q = win(visc, g, g, n0, n1)
    recip_volume = 1.0 / volume
    energy_change = (p + q) / np.maximum(d0, G_SMALL) * total_flux * recip_volume
    win(energy1, g, g, n0, n1)[...] = e0 - energy_change
    win(density1, g, g, n0, n1)[...] = d0 * volume_change


def accelerate(dt, density0, pressure, visc, xvel0, yvel0, xvel1, yvel1,
               nx, ny, g, dx, dy):
    """Nodal acceleration from pressure and viscosity gradients."""
    n0, n1 = nx + 1, ny + 1  # all interior nodes
    volume = dx * dy
    xarea = dy
    yarea = dx
    halfdt = 0.5 * dt

    # Average mass of the 4 cells around node (i, j): cells (i-1..i, j-1..j).
    d = lambda di, dj: win(density0, g + di, g + dj, n0, n1)
    nodal_mass = 0.25 * volume * (d(-1, -1) + d(0, -1) + d(0, 0) + d(-1, 0))
    step = halfdt / np.maximum(nodal_mass, G_SMALL)

    p = lambda di, dj: win(pressure, g + di, g + dj, n0, n1)
    q = lambda di, dj: win(visc, g + di, g + dj, n0, n1)
    u0 = win(xvel0, g, g, n0, n1)
    v0 = win(yvel0, g, g, n0, n1)

    u1 = u0 - step * (xarea * ((p(0, 0) - p(-1, 0)) + (p(0, -1) - p(-1, -1))))
    v1 = v0 - step * (yarea * ((p(0, 0) - p(0, -1)) + (p(-1, 0) - p(-1, -1))))
    u1 = u1 - step * (xarea * ((q(0, 0) - q(-1, 0)) + (q(0, -1) - q(-1, -1))))
    v1 = v1 - step * (yarea * ((q(0, 0) - q(0, -1)) + (q(-1, 0) - q(-1, -1))))

    win(xvel1, g, g, n0, n1)[...] = u1
    win(yvel1, g, g, n0, n1)[...] = v1


def flux_calc(dt, xvel0, yvel0, xvel1, yvel1, vol_flux_x, vol_flux_y,
              nx, ny, g, dx, dy):
    """Volume fluxes through faces from time-averaged face velocities."""
    xarea = dy
    yarea = dx
    # x faces: (nx+1, ny)
    n0, n1 = nx + 1, ny
    fx = 0.25 * dt * xarea * (
        win(xvel0, g, g, n0, n1) + win(xvel0, g, g + 1, n0, n1)
        + win(xvel1, g, g, n0, n1) + win(xvel1, g, g + 1, n0, n1)
    )
    win(vol_flux_x, g, g, n0, n1)[...] = fx
    # y faces: (nx, ny+1)
    n0, n1 = nx, ny + 1
    fy = 0.25 * dt * yarea * (
        win(yvel0, g, g, n0, n1) + win(yvel0, g + 1, g, n0, n1)
        + win(yvel1, g, g, n0, n1) + win(yvel1, g + 1, g, n0, n1)
    )
    win(vol_flux_y, g, g, n0, n1)[...] = fy


# ---------------------------------------------------------------------------
# advective remap
# ---------------------------------------------------------------------------
#
# A face's donor, upwind and downwind cells (a dual face's nodes, for
# momentum) sit at one of two fixed offsets, picked by the sign of the
# face's flux, so each is a select between two windows (``np.where``) --
# the data-parallel form of CloverLeaf's donor/upwind index arithmetic.
# Terms are evaluated one ufunc at a time into scratch arrays (``out=``),
# in the order the expression form evaluates them
# (``tests/kernel_oracle.py``): every value is the same IEEE operation on
# the same operands, so the bits do not depend on which form ran.

def _scratch(n, shape):
    """``n`` work arrays of ``shape``, carved from one allocation."""
    return np.empty((n,) + shape)


def _cell_limiter(don, upw, dwn, courant, sigma3, sigma4, lim, uw, dw):
    """CloverLeaf's limited cell-remap slope, into ``lim``.

    ``(1 - courant) * wind * min(|uw|, |dw|, (sigma3 |uw| + sigma4 |dw|) / 6)``
    where the upwind difference ``uw = don - upw`` and the downwind
    difference ``dw = dwn - don`` agree in sign, else 0; ``wind`` is -1
    where ``dw <= 0``, else 1.  ``uw`` and ``dw`` are scratch.
    """
    np.subtract(don, upw, out=uw)
    np.subtract(dwn, don, out=dw)
    wind = np.where(dw <= 0.0, -1.0, 1.0)
    np.multiply(uw, dw, out=lim)
    flat = ~(lim > 0.0)
    np.abs(uw, out=uw)
    np.abs(dw, out=dw)
    np.multiply(sigma3, uw, out=lim)
    np.minimum(uw, dw, out=uw)
    np.multiply(sigma4, dw, out=dw)
    np.add(lim, dw, out=lim)
    np.multiply(1.0 / 6.0, lim, out=lim)
    np.minimum(uw, lim, out=uw)
    np.subtract(1.0, courant, out=lim)
    np.multiply(lim, wind, out=lim)
    np.multiply(lim, uw, out=lim)
    np.copyto(lim, 0.0, where=flat)


def advec_cell(direction, sweep_number, density1, energy1,
               vol_flux_x, vol_flux_y, mass_flux_x, mass_flux_y,
               pre_vol, post_vol, ener_flux, nx, ny, g, dx, dy):
    """Cell-centred advection sweep (density and energy) in one direction.

    ``direction`` is 0 for x, 1 for y; ``sweep_number`` is 1 or 2 within
    the step.  Ghost mass fluxes are *not* produced here — they arrive by
    halo exchange before the momentum advection, as in CloverLeaf.
    """
    volume = dx * dy
    e = 2  # volume work arrays cover the interior extended by 2 ghosts
    m0, m1 = nx + 2 * e, ny + 2 * e
    o = g - e

    fxl = win(vol_flux_x, o, o, m0, m1)          # face f (lower x face of cell f)
    fxr = win(vol_flux_x, o + 1, o, m0, m1)      # face f+1
    fyb = win(vol_flux_y, o, o, m0, m1)
    fyt = win(vol_flux_y, o, o + 1, m0, m1)

    # Sweep 1: pre = volume + x then y flux difference, post = pre - swept
    # difference.  Sweep 2: pre = volume + swept difference, post = volume.
    pv = win(pre_vol, o, o, m0, m1)
    sv = win(post_vol, o, o, m0, m1)
    xdiff, ydiff = _scratch(2, pv.shape)
    if sweep_number == 1 or direction == 0:
        np.subtract(fxr, fxl, out=xdiff)
    if sweep_number == 1 or direction == 1:
        np.subtract(fyt, fyb, out=ydiff)
    swept = xdiff if direction == 0 else ydiff
    if sweep_number == 1:
        np.add(volume, xdiff, out=pv)
        np.add(pv, ydiff, out=pv)
        np.subtract(pv, swept, out=sv)
    else:
        np.add(volume, swept, out=pv)
        sv[...] = volume

    if direction == 0:
        _advec_cell_flux(density1, energy1, vol_flux_x, mass_flux_x,
                         pre_vol, ener_flux, nx, ny, g, axis=0)
        mf, vf = mass_flux_x, vol_flux_x
        vfl_d, vfr_d = (g, g), (g + 1, g)
    else:
        _advec_cell_flux(density1, energy1, vol_flux_y, mass_flux_y,
                         pre_vol, ener_flux, nx, ny, g, axis=1)
        mf, vf = mass_flux_y, vol_flux_y
        vfl_d, vfr_d = (g, g), (g, g + 1)

    # Conservative update of density and energy on interior cells.
    n0, n1 = nx, ny
    d1 = win(density1, g, g, n0, n1)
    e1 = win(energy1, g, g, n0, n1)
    pvc = win(pre_vol, g, g, n0, n1)
    mass, ener, vol = _scratch(3, d1.shape)
    np.multiply(d1, pvc, out=mass)                              # pre-sweep
    np.multiply(e1, mass, out=ener)
    np.add(mass, win(mf, vfl_d[0], vfl_d[1], n0, n1), out=mass)  # post-sweep
    np.subtract(mass, win(mf, vfr_d[0], vfr_d[1], n0, n1), out=mass)
    np.add(ener, win(ener_flux, vfl_d[0], vfl_d[1], n0, n1), out=ener)
    np.subtract(ener, win(ener_flux, vfr_d[0], vfr_d[1], n0, n1), out=ener)
    np.maximum(mass, G_SMALL, out=vol)
    np.divide(ener, vol, out=e1)
    np.add(pvc, win(vf, vfl_d[0], vfl_d[1], n0, n1), out=vol)    # advected
    np.subtract(vol, win(vf, vfr_d[0], vfr_d[1], n0, n1), out=vol)
    np.maximum(vol, G_SMALL, out=vol)
    np.divide(mass, vol, out=d1)


def _advec_cell_flux(density1, energy1, vol_flux, mass_flux,
                     pre_vol, ener_flux, nx, ny, g, axis):
    """Limited donor-cell mass and energy fluxes through interior faces.

    Computes faces f = 0 .. n (plus the full transverse interior); the
    donor/upwind stencil reaches cells f-2 .. f+1, which exactly fits the
    2-ghost frames.
    """
    if axis == 0:
        n0, n1 = nx + 1, ny
    else:
        n0, n1 = nx, ny + 1

    def cell(field, off):
        """The cell ``off`` places along ``axis`` from each face."""
        return win(field, g + (off if axis == 0 else 0),
                   g + (off if axis == 1 else 0), n0, n1)

    vf = win(vol_flux, g, g, n0, n1)
    mf = win(mass_flux, g, g, n0, n1)
    # Inflow from below (vf > 0): donor f-1, upwind f-2, downwind f.
    # Otherwise: donor f, upwind f+1, downwind f-1.
    pos = vf > 0.0
    d_don = np.where(pos, cell(density1, -1), cell(density1, 0))
    d_upw = np.where(pos, cell(density1, -2), cell(density1, 1))
    d_dwn = np.where(pos, cell(density1, 0), cell(density1, -1))
    m_don = np.where(pos, cell(pre_vol, -1), cell(pre_vol, 0))

    sigma, sigma3, sigma4, lim, uw, dw = _scratch(6, vf.shape)
    np.abs(vf, out=sigma)
    np.maximum(m_don, G_SMALL, out=sigma3)
    np.divide(sigma, sigma3, out=sigma)
    np.add(1.0, sigma, out=sigma3)   # uniform grid: vertexdx ratio == 1
    np.subtract(2.0, sigma, out=sigma4)
    _cell_limiter(d_don, d_upw, d_dwn, sigma, sigma3, sigma4, lim, uw, dw)
    np.add(d_don, lim, out=lim)
    np.multiply(vf, lim, out=mf)

    # Energy rides the mass flux: its Courant number is the donor's mass
    # fraction, its sigma3/sigma4 stay the volume ones.
    np.multiply(d_don, m_don, out=m_don)
    np.maximum(m_don, G_SMALL, out=m_don)
    np.abs(mf, out=sigma)
    np.divide(sigma, m_don, out=sigma)
    e_don = np.where(pos, cell(energy1, -1), cell(energy1, 0))
    e_upw = np.where(pos, cell(energy1, -2), cell(energy1, 1))
    e_dwn = np.where(pos, cell(energy1, 0), cell(energy1, -1))
    _cell_limiter(e_don, e_upw, e_dwn, sigma, sigma3, sigma4, lim, uw, dw)
    np.add(e_don, lim, out=lim)
    np.multiply(mf, lim, out=win(ener_flux, g, g, n0, n1))


def advec_mom(direction, sweep_number,
              vel1, density1, vol_flux_x, vol_flux_y, mass_flux_x, mass_flux_y,
              node_flux, node_mass_post, node_mass_pre, mom_flux,
              pre_vol, post_vol, nx, ny, g, dx, dy):
    """Momentum advection for one velocity component in one direction.

    ``vel1`` is the component being advected (x- or y-velocity); the
    stencil depends solely on ``direction``.  Requires halo-exchanged
    ``mass_flux`` (depth 2) and ``density1`` (depth 2).
    """
    volume = dx * dy
    e = 2
    m0, m1 = nx + 2 * e, ny + 2 * e
    o = g - e

    fxl = win(vol_flux_x, o, o, m0, m1)
    fxr = win(vol_flux_x, o + 1, o, m0, m1)
    fyb = win(vol_flux_y, o, o, m0, m1)
    fyt = win(vol_flux_y, o, o + 1, m0, m1)
    pv = win(pre_vol, o, o, m0, m1)
    sv = win(post_vol, o, o, m0, m1)

    # post = volume (+ the other direction's flux difference in sweep 1);
    # pre = post + the swept difference.
    if direction == 0:
        lo, hi, other_lo, other_hi = fxl, fxr, fyb, fyt
    else:
        lo, hi, other_lo, other_hi = fyb, fyt, fxl, fxr
    if sweep_number == 1:
        np.subtract(other_hi, other_lo, out=sv)
        np.add(volume, sv, out=sv)
    else:
        sv[...] = volume
    np.subtract(hi, lo, out=pv)
    np.add(sv, pv, out=pv)

    if direction == 0:
        _advec_mom_dir(vel1, density1, mass_flux_x, node_flux, node_mass_post,
                       node_mass_pre, mom_flux, post_vol, nx, ny, g, axis=0)
    else:
        _advec_mom_dir(vel1, density1, mass_flux_y, node_flux, node_mass_post,
                       node_mass_pre, mom_flux, post_vol, nx, ny, g, axis=1)


def _advec_mom_dir(vel1, density1, mass_flux, node_flux, node_mass_post,
                   node_mass_pre, mom_flux, post_vol, nx, ny, g, axis):
    """Momentum advection stencil along one axis.

    node_flux(n) is the mass flux through the staggered (dual-cell) face
    between nodes n and n+1; the work arrays live on the node frame with
    that interpretation along ``axis``.
    """
    # Sizes along the advection axis (a) and the transverse axis (t):
    #   node_flux:       dual faces  -2 .. n_a+1   (n_a + 4)
    #   node_mass_*:     nodes       -1 .. n_a+1   (n_a + 3)
    #   mom_flux:        dual faces  -1 .. n_a     (n_a + 2)
    #   update:          nodes        0 .. n_a     (n_a + 1)
    # transverse extent: interior nodes 0 .. n_t   (n_t + 1)
    na = nx if axis == 0 else ny
    nt = ny if axis == 0 else nx

    def w(arr, a0, t0, sa, st):
        """Window with (advection-axis, transverse-axis) offsets/sizes."""
        if axis == 0:
            return win(arr, a0, t0, sa, st)
        return win(arr, t0, a0, st, sa)

    st = nt + 1
    t0 = g

    # -- node_flux on dual faces -2 .. na+1 ------------------------------------
    # The mean of mass_flux faces n and n+1 over cell rows t-1 and t.
    sa = na + 4
    a0 = g - 2
    nf = w(node_flux, a0, t0, sa, st)
    np.add(w(mass_flux, a0, t0 - 1, sa, st), w(mass_flux, a0, t0, sa, st), out=nf)
    np.add(nf, w(mass_flux, a0 + 1, t0 - 1, sa, st), out=nf)
    np.add(nf, w(mass_flux, a0 + 1, t0, sa, st), out=nf)
    np.multiply(0.25, nf, out=nf)

    # -- node masses on nodes -1 .. na+1 -----------------------------------------
    # The mean post-sweep mass of the four cells around each node.
    sa = na + 3
    a0 = g - 1

    def cell_mass(da, dt, out):
        return np.multiply(w(density1, a0 + da, t0 + dt, sa, st),
                           w(post_vol, a0 + da, t0 + dt, sa, st), out=out)

    nmp = w(node_mass_post, a0, t0, sa, st)
    cell_mass(-1, -1, nmp)
    tmp = np.empty(nmp.shape)
    np.add(nmp, cell_mass(0, -1, tmp), out=nmp)
    np.add(nmp, cell_mass(-1, 0, tmp), out=nmp)
    np.add(nmp, cell_mass(0, 0, tmp), out=nmp)
    np.multiply(0.25, nmp, out=nmp)
    nmpre = w(node_mass_pre, a0, t0, sa, st)
    np.subtract(nmp, w(node_flux, a0 - 1, t0, sa, st), out=nmpre)
    np.add(nmpre, w(node_flux, a0, t0, sa, st), out=nmpre)

    # -- limited advected velocity and momentum flux on dual faces -1 .. na ------
    sa = na + 2
    a0 = g - 1

    def node(field, off):
        """The node ``off`` places along ``axis`` from each dual face."""
        return w(field, a0 + off, t0, sa, st)

    nfw = w(node_flux, a0, t0, sa, st)
    # Flow towards -axis (nfw < 0): donor n+1, upwind n+2, downwind n.
    # Otherwise: donor n, upwind n-1, downwind n+1.
    neg = nfw < 0.0
    v_don = np.where(neg, node(vel1, 1), node(vel1, 0))
    v_upw = np.where(neg, node(vel1, 2), node(vel1, -1))
    v_dwn = np.where(neg, node(vel1, 0), node(vel1, 1))
    m_don = np.where(neg, node(node_mass_pre, 1), node(node_mass_pre, 0))

    sigma, uw, dw, lim, tmp = _scratch(5, nfw.shape)
    np.abs(nfw, out=sigma)
    np.maximum(m_don, G_SMALL, out=tmp)
    np.divide(sigma, tmp, out=sigma)
    # limiter = wind * min(((2 - sigma)|dw| + (1 + sigma)|uw|) / 6, |uw|, |dw|)
    # where the differences agree in sign, else 0
    np.subtract(v_don, v_upw, out=uw)
    np.subtract(v_dwn, v_don, out=dw)
    wind = np.where(dw <= 0.0, -1.0, 1.0)
    np.multiply(uw, dw, out=lim)
    flat = ~(lim > 0.0)
    np.abs(uw, out=uw)
    np.abs(dw, out=dw)
    np.subtract(2.0, sigma, out=lim)
    np.multiply(lim, dw, out=lim)
    np.add(1.0, sigma, out=tmp)
    np.multiply(tmp, uw, out=tmp)
    np.add(lim, tmp, out=lim)
    np.divide(lim, 6.0, out=lim)
    np.minimum(lim, uw, out=lim)
    np.minimum(lim, dw, out=lim)
    np.multiply(wind, lim, out=lim)
    np.copyto(lim, 0.0, where=flat)
    # mom_flux = (v_don + (1 - sigma) * limiter) * node_flux
    np.subtract(1.0, sigma, out=tmp)
    np.multiply(tmp, lim, out=tmp)
    np.add(v_don, tmp, out=tmp)
    np.multiply(tmp, nfw, out=w(mom_flux, a0, t0, sa, st))

    # -- momentum update on interior nodes 0 .. na -------------------------------
    sa = na + 1
    a0 = g
    v = w(vel1, a0, t0, sa, st)
    mom, mass = _scratch(2, v.shape)
    np.multiply(v, w(node_mass_pre, a0, t0, sa, st), out=mom)
    np.add(mom, w(mom_flux, a0 - 1, t0, sa, st), out=mom)
    np.subtract(mom, w(mom_flux, a0, t0, sa, st), out=mom)
    np.maximum(w(node_mass_post, a0, t0, sa, st), G_SMALL, out=mass)
    np.divide(mom, mass, out=v)


def reset_field(density0, density1, energy0, energy1,
                xvel0, xvel1, yvel0, yvel1, nx, ny, g):
    """End of step: copy the advanced fields back to the time-0 slots."""
    n0, n1 = nx, ny
    win(density0, g, g, n0, n1)[...] = win(density1, g, g, n0, n1)
    win(energy0, g, g, n0, n1)[...] = win(energy1, g, g, n0, n1)
    m0, m1 = nx + 1, ny + 1
    win(xvel0, g, g, m0, m1)[...] = win(xvel1, g, g, m0, m1)
    win(yvel0, g, g, m0, m1)[...] = win(yvel1, g, g, m0, m1)
