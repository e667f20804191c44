"""The advection kernels in their expression form, kept as the reference.

Until the remap kernels were restated as window selections over scratch
buffers (:mod:`repro.hydro.kernels`), this is how ``advec_cell`` and
``advec_mom`` computed: each donor/upwind/downwind value was gathered by
sorting its offset array with ``np.unique`` (or by one masked copy per
candidate offset) and every term was a fresh temporary.
``tests/test_kernel_oracle.py`` asserts the rewritten kernels leave every
operand bitwise as these do.  Same signatures as the kernels they freeze.
"""

from __future__ import annotations

import numpy as np

from repro.hydro.kernels import G_SMALL, win


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
