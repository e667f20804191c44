"""The hydro kernels in their expression form, kept as the reference.

Until the kernels were restated as ufuncs into workspace buffers
(:mod:`repro.hydro.kernels`), this is how they computed: every term a
fresh temporary, each donor/upwind/downwind value of the remap kernels
gathered by sorting its offset array with ``np.unique`` (or by one
masked copy per candidate offset).  ``tests/test_kernel_oracle.py``
asserts the rewritten kernels leave every operand bitwise as these do.
Same signatures as the kernels they freeze, less the workspace.
"""

from __future__ import annotations

import numpy as np

from repro.hydro.kernels import G_SMALL, win


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


def reset_field(density0, density1, energy0, energy1,
                xvel0, xvel1, yvel0, yvel1, nx, ny, g):
    """End of step: copy the advanced fields back to the time-0 slots."""
    n0, n1 = nx, ny
    win(density0, g, g, n0, n1)[...] = win(density1, g, g, n0, n1)
    win(energy0, g, g, n0, n1)[...] = win(energy1, g, g, n0, n1)
    m0, m1 = nx + 1, ny + 1
    win(xvel0, g, g, m0, m1)[...] = win(xvel1, g, g, m0, m1)
    win(yvel0, g, g, m0, m1)[...] = win(yvel1, g, g, m0, m1)


def _gather(field, base0, base1, n0, n1, off_arr, axis):
    out = np.empty(off_arr.shape, dtype=np.float64)
    for off in np.unique(off_arr):
        o = int(off)
        v = win(field, base0 + (o if axis == 0 else 0),
                base1 + (o if axis == 1 else 0), n0, n1)
        np.copyto(out, v, where=(off_arr == o))
    return out


def advec_cell(direction, sweep_number, density1, energy1,
               vol_flux_x, vol_flux_y, mass_flux_x, mass_flux_y,
               pre_vol, post_vol, ener_flux, nx, ny, g, dx, dy):
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
    if sweep_number == 1:
        pv[...] = volume + (fxr - fxl) + (fyt - fyb)
        if direction == 0:
            sv[...] = pv - (fxr - fxl)
        else:
            sv[...] = pv - (fyt - fyb)
    else:
        if direction == 0:
            pv[...] = volume + (fxr - fxl)
        else:
            pv[...] = volume + (fyt - fyb)
        sv[...] = volume

    if direction == 0:
        _advec_cell_flux(density1, energy1, vol_flux_x, mass_flux_x,
                         pre_vol, ener_flux, nx, ny, g, axis=0)
        mf = mass_flux_x
        vfl_d, vfr_d = (g, g), (g + 1, g)
    else:
        _advec_cell_flux(density1, energy1, vol_flux_y, mass_flux_y,
                         pre_vol, ener_flux, nx, ny, g, axis=1)
        mf = mass_flux_y
        vfl_d, vfr_d = (g, g), (g, g + 1)

    n0, n1 = nx, ny
    d1 = win(density1, g, g, n0, n1)
    e1 = win(energy1, g, g, n0, n1)
    pvc = win(pre_vol, g, g, n0, n1)
    mfl = win(mf, vfl_d[0], vfl_d[1], n0, n1)
    mfr = win(mf, vfr_d[0], vfr_d[1], n0, n1)
    efl = win(ener_flux, vfl_d[0], vfl_d[1], n0, n1)
    efr = win(ener_flux, vfr_d[0], vfr_d[1], n0, n1)
    vf = vol_flux_x if direction == 0 else vol_flux_y
    vfl = win(vf, vfl_d[0], vfl_d[1], n0, n1)
    vfr = win(vf, vfr_d[0], vfr_d[1], n0, n1)

    pre_mass = d1 * pvc
    post_mass = pre_mass + mfl - mfr
    post_ener = (e1 * pre_mass + efl - efr) / np.maximum(post_mass, G_SMALL)
    advec_vol = pvc + vfl - vfr
    d1[...] = post_mass / np.maximum(advec_vol, G_SMALL)
    e1[...] = post_ener


def _advec_cell_flux(density1, energy1, vol_flux, mass_flux,
                     pre_vol, ener_flux, nx, ny, g, axis):
    if axis == 0:
        n0, n1 = nx + 1, ny
    else:
        n0, n1 = nx, ny + 1

    vf = win(vol_flux, g, g, n0, n1)
    upw = np.where(vf > 0.0, -2, 1)
    don = np.where(vf > 0.0, -1, 0)
    dwn = np.where(vf > 0.0, 0, -1)

    d_don = _gather(density1, g, g, n0, n1, don, axis)
    d_upw = _gather(density1, g, g, n0, n1, upw, axis)
    d_dwn = _gather(density1, g, g, n0, n1, dwn, axis)
    pv_don = _gather(pre_vol, g, g, n0, n1, don, axis)

    sigmat = np.abs(vf) / np.maximum(pv_don, G_SMALL)
    sigma3 = 1.0 + sigmat
    sigma4 = 2.0 - sigmat
    one_by_six = 1.0 / 6.0

    diffuw = d_don - d_upw
    diffdw = d_dwn - d_don
    wind = np.where(diffdw <= 0.0, -1.0, 1.0)
    limiter = np.where(
        diffuw * diffdw > 0.0,
        (1.0 - sigmat) * wind * np.minimum(
            np.minimum(np.abs(diffuw), np.abs(diffdw)),
            one_by_six * (sigma3 * np.abs(diffuw) + sigma4 * np.abs(diffdw)),
        ),
        0.0,
    )
    mf = vf * (d_don + limiter)
    win(mass_flux, g, g, n0, n1)[...] = mf

    e_don = _gather(energy1, g, g, n0, n1, don, axis)
    e_upw = _gather(energy1, g, g, n0, n1, upw, axis)
    e_dwn = _gather(energy1, g, g, n0, n1, dwn, axis)
    sigmam = np.abs(mf) / np.maximum(d_don * pv_don, G_SMALL)
    diffuw = e_don - e_upw
    diffdw = e_dwn - e_don
    wind = np.where(diffdw <= 0.0, -1.0, 1.0)
    limiter = np.where(
        diffuw * diffdw > 0.0,
        (1.0 - sigmam) * wind * np.minimum(
            np.minimum(np.abs(diffuw), np.abs(diffdw)),
            one_by_six * (sigma3 * np.abs(diffuw) + sigma4 * np.abs(diffdw)),
        ),
        0.0,
    )
    win(ener_flux, g, g, n0, n1)[...] = mf * (e_don + limiter)


def advec_mom(direction, sweep_number,
              vel1, density1, vol_flux_x, vol_flux_y, mass_flux_x, mass_flux_y,
              node_flux, node_mass_post, node_mass_pre, mom_flux,
              pre_vol, post_vol, nx, ny, g, dx, dy):
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

    dflux = (fxr - fxl) if direction == 0 else (fyt - fyb)
    oflux = (fyt - fyb) if direction == 0 else (fxr - fxl)
    if sweep_number == 1:
        sv[...] = volume + oflux
        pv[...] = sv + dflux
    else:
        sv[...] = volume
        pv[...] = sv + dflux

    if direction == 0:
        _advec_mom_dir(vel1, density1, mass_flux_x, node_flux, node_mass_post,
                       node_mass_pre, mom_flux, post_vol, nx, ny, g, axis=0)
    else:
        _advec_mom_dir(vel1, density1, mass_flux_y, node_flux, node_mass_post,
                       node_mass_pre, mom_flux, post_vol, nx, ny, g, axis=1)


def _advec_mom_dir(vel1, density1, mass_flux, node_flux, node_mass_post,
                   node_mass_pre, mom_flux, post_vol, nx, ny, g, axis):
    na = nx if axis == 0 else ny
    nt = ny if axis == 0 else nx

    def w(arr, a0, t0, sa, st):
        if axis == 0:
            return win(arr, a0, t0, sa, st)
        return win(arr, t0, a0, st, sa)

    st = nt + 1
    t0 = g

    sa = na + 4
    a0 = g - 2
    nf = w(node_flux, a0, t0, sa, st)
    nf[...] = 0.25 * (
        w(mass_flux, a0, t0 - 1, sa, st) + w(mass_flux, a0, t0, sa, st)
        + w(mass_flux, a0 + 1, t0 - 1, sa, st) + w(mass_flux, a0 + 1, t0, sa, st)
    )

    sa = na + 3
    a0 = g - 1

    def dpv(da, dt):
        return (w(density1, a0 + da, t0 + dt, sa, st)
                * w(post_vol, a0 + da, t0 + dt, sa, st))

    nmp = w(node_mass_post, a0, t0, sa, st)
    nmp[...] = 0.25 * (dpv(-1, -1) + dpv(0, -1) + dpv(-1, 0) + dpv(0, 0))
    nmpre = w(node_mass_pre, a0, t0, sa, st)
    nmpre[...] = nmp - w(node_flux, a0 - 1, t0, sa, st) + w(node_flux, a0, t0, sa, st)

    sa = na + 2
    a0 = g - 1
    nfw = w(node_flux, a0, t0, sa, st)
    upw = np.where(nfw < 0.0, 2, -1)
    don = np.where(nfw < 0.0, 1, 0)
    dwn = np.where(nfw < 0.0, 0, 1)

    def gather_nodes(field, off_arr):
        out = np.empty_like(nfw)
        for off in (-1, 0, 1, 2):
            v = w(field, a0 + off, t0, sa, st)
            np.copyto(out, v, where=(off_arr == off))
        return out

    v_don = gather_nodes(vel1, don)
    v_upw = gather_nodes(vel1, upw)
    v_dwn = gather_nodes(vel1, dwn)
    m_don = gather_nodes(node_mass_pre, don)

    sigma = np.abs(nfw) / np.maximum(m_don, G_SMALL)
    vdiffuw = v_don - v_upw
    vdiffdw = v_dwn - v_don
    auw = np.abs(vdiffuw)
    adw = np.abs(vdiffdw)
    wind = np.where(vdiffdw <= 0.0, -1.0, 1.0)
    limiter = np.where(
        vdiffuw * vdiffdw > 0.0,
        wind * np.minimum(
            np.minimum(((2.0 - sigma) * adw + (1.0 + sigma) * auw) / 6.0, auw),
            adw,
        ),
        0.0,
    )
    advec_vel = v_don + (1.0 - sigma) * limiter
    w(mom_flux, a0, t0, sa, st)[...] = advec_vel * nfw

    sa = na + 1
    a0 = g
    v = w(vel1, a0, t0, sa, st)
    mf_lo = w(mom_flux, a0 - 1, t0, sa, st)
    mf_hi = w(mom_flux, a0, t0, sa, st)
    pre = w(node_mass_pre, a0, t0, sa, st)
    post = w(node_mass_post, a0, t0, sa, st)
    v[...] = (v * pre + mf_lo - mf_hi) / np.maximum(post, G_SMALL)
