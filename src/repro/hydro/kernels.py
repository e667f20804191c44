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

**Temporaries come from a workspace.**  No kernel call allocates an
array the size of its operands.  Every term is one ufunc writing
``out=`` into a buffer carved from a :class:`Workspace`; a select
between two windows is a copy and a masked copy, and its mask is a
carved boolean buffer too.  The patch integrator owns one workspace per
session and hands it to every kernel (``ws=``); it is released before
each regrid (the patch shapes it was sized for change) and when the
session closes.  Nothing lives at module level, and a call without
``ws`` carves from a private workspace of its own.  A carve's views
are valid until the next carve on the same workspace, so a kernel
carves once per phase and never holds a view across kernels.

Intermediates live in the *contiguous* workspace buffers; a frame
window (strided) is read where the stencil needs it and written only
by its output's final operation, never updated in place.  Each value
is the same IEEE operation on the same operands, in the same order, as
the expression form these kernels replaced (``tests/kernel_oracle.py``),
so the bits do not depend on which form ran.  Where the expression form
multiplies by a sign select of -1.0 or 1.0, the kernels multiply the
-1.0 lanes only (``where=``): a product with 1.0 is its other operand,
bit for bit.
"""

from __future__ import annotations

import math
import mmap

import numpy as np

__all__ = [
    "win", "Workspace", "ideal_gas", "viscosity", "calc_dt", "pdv",
    "accelerate", "flux_calc", "advec_cell", "advec_mom", "reset_field",
    "G_SMALL", "G_BIG",
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


#: workspaces at least this large are mapped from the OS, not the heap
_MAP_BYTES = 1 << 20


def _allocate(nbytes: int) -> np.ndarray:
    """``nbytes`` of uninitialised memory for a workspace, as a byte array.

    A small workspace comes from the heap, where the free blocks a regrid
    leaves behind can serve it.  A large one is mapped from the OS: the
    allocator's adaptive mmap threshold would otherwise place it in the
    heap, where a released or outgrown workspace leaves a hole that the
    next one grows around.  Dropping the last view unmaps it.
    """
    if nbytes < _MAP_BYTES:
        return np.empty(nbytes, dtype=np.uint8)
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype=np.uint8)


class Workspace:
    """One byte buffer that kernel temporaries are carved from.

    :meth:`carve` lays its float64 buffers and then its boolean masks end
    to end from the start of the buffer, so every carve reuses the same
    memory.  The buffer grows to exactly the largest carve made so far —
    the largest single kernel phase's need, never rounded up — and
    :meth:`release` gives it back.  Views are cached per request, so a
    steady sweep neither allocates nor builds views.
    """

    def __init__(self):
        self._buf = _allocate(0)
        self._views: dict = {}

    @property
    def nbytes(self) -> int:
        """Current size of the buffer in bytes."""
        return self._buf.nbytes

    def carve(self, shape, floats: int, masks: int = 0) -> tuple:
        """``floats`` float64 arrays, then ``masks`` bool arrays, of
        ``shape``: contiguous, uninitialised, valid until the next carve."""
        key = (tuple(shape), floats, masks)
        views = self._views.get(key)
        if views is None:
            count = math.prod(key[0])
            width = 8 * count
            need = width * floats + count * masks
            if need > self._buf.nbytes:
                # drop the old buffer and its cached views first: it is
                # freed as soon as no caller holds a view of it
                self._views.clear()
                self._buf = None
                self._buf = _allocate(need)
            buf = self._buf
            views = tuple(
                buf[i * width:(i + 1) * width].view(np.float64).reshape(key[0])
                for i in range(floats)
            ) + tuple(
                buf[floats * width + i * count:floats * width + (i + 1) * count]
                .view(np.bool_).reshape(key[0])
                for i in range(masks)
            )
            self._views[key] = views
        return views

    def release(self) -> None:
        """Give the buffer back; a later carve allocates afresh."""
        self._views.clear()
        self._buf = _allocate(0)


def _carve(ws, shape, floats, masks=0):
    """Carve from ``ws``, or from a private workspace when there is none."""
    return (ws if ws is not None else Workspace()).carve(shape, floats, masks)


# ---------------------------------------------------------------------------
# equation of state
# ---------------------------------------------------------------------------

def ideal_gas(density, energy, pressure, soundspeed, nx, ny, g, gamma=1.4,
              ext=0, ws=None):
    """gamma-law EOS: p = (gamma-1) rho e; cs = sqrt(gamma p / rho).

    ``ext`` extends the computed region into the ghost layers (CloverLeaf
    recomputes the EOS on halo cells rather than exchanging p separately).
    """
    n0, n1 = nx + 2 * ext, ny + 2 * ext
    o = g - ext
    d = win(density, o, o, n0, n1)
    e = win(energy, o, o, n0, n1)
    p = win(pressure, o, o, n0, n1)
    t, v = _carve(ws, d.shape, 2)
    np.multiply(gamma - 1.0, d, out=t)
    np.multiply(t, e, out=p)
    np.maximum(d, G_SMALL, out=v)
    np.divide(1.0, v, out=v)
    np.maximum(p, G_SMALL, out=t)
    np.multiply(gamma, t, out=t)
    np.multiply(t, v, out=t)
    np.sqrt(t, out=win(soundspeed, o, o, n0, n1))


# ---------------------------------------------------------------------------
# artificial viscosity
# ---------------------------------------------------------------------------

def viscosity(density0, pressure, visc, xvel0, yvel0, nx, ny, g, dx, dy,
              ws=None):
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
    ug, vg, strain, px, py, a, b, quiet, neg = _carve(ws, u00.shape, 7, 2)

    # du, dv across the cell; ``quiet`` where the area-weighted
    # divergence dy du + dx dv is >= 0 (no compression, no viscosity)
    np.add(u10, u11, out=ug)
    np.add(u00, u01, out=a)
    np.subtract(ug, a, out=ug)
    np.multiply(0.5, ug, out=ug)
    np.add(v01, v11, out=vg)
    np.add(v00, v10, out=a)
    np.subtract(vg, a, out=vg)
    np.multiply(0.5, vg, out=vg)
    np.multiply(dy, ug, out=a)
    np.multiply(dx, vg, out=b)
    np.add(a, b, out=a)
    np.greater_equal(a, 0.0, out=quiet)

    # strain2 = 0.5 ((u01 + u11) - (u00 + u10)) / dy
    #         + 0.5 ((v10 + v11) - (v00 + v01)) / dx
    np.add(u01, u11, out=strain)
    np.add(u00, u10, out=a)
    np.subtract(strain, a, out=strain)
    np.multiply(0.5, strain, out=strain)
    np.divide(strain, dy, out=strain)
    np.add(v10, v11, out=a)
    np.add(v00, v01, out=b)
    np.subtract(a, b, out=a)
    np.multiply(0.5, a, out=a)
    np.divide(a, dx, out=a)
    np.add(strain, a, out=strain)

    np.subtract(win(pressure, g + 1, g, n0, n1),
                win(pressure, g - 1, g, n0, n1), out=px)
    np.divide(px, 2.0 * dx, out=px)
    np.subtract(win(pressure, g, g + 1, n0, n1),
                win(pressure, g, g - 1, n0, n1), out=py)
    np.divide(py, 2.0 * dy, out=py)

    # limiter = ((0.5 du / dx) px^2 + (0.5 dv / dy) py^2 + strain2 px py)
    #           / max(px^2 + py^2, G_SMALL), into ``ug``
    np.multiply(0.5, ug, out=ug)
    np.divide(ug, dx, out=ug)
    np.multiply(px, px, out=a)
    np.multiply(ug, a, out=ug)
    np.multiply(0.5, vg, out=vg)
    np.divide(vg, dy, out=vg)
    np.multiply(py, py, out=b)
    np.multiply(vg, b, out=vg)
    np.add(ug, vg, out=ug)
    np.multiply(strain, px, out=strain)
    np.multiply(strain, py, out=strain)
    np.add(ug, strain, out=ug)
    np.add(a, b, out=a)
    np.maximum(a, G_SMALL, out=a)
    np.divide(ug, a, out=ug)
    limiter = ug

    # pgx = sx max(G_SMALL, |px|), sx = -1 where px < 0 (not at -0.0)
    np.less(px, 0.0, out=neg)
    np.abs(px, out=px)
    np.maximum(G_SMALL, px, out=px)
    np.multiply(-1.0, px, out=px, where=neg)
    np.less(py, 0.0, out=neg)
    np.abs(py, out=py)
    np.maximum(G_SMALL, py, out=py)
    np.multiply(-1.0, py, out=py, where=neg)
    # grad2 = min(|dx pgrad / pgx|, |dy pgrad / pgy|)^2
    np.multiply(px, px, out=a)
    np.multiply(py, py, out=b)
    np.add(a, b, out=a)
    np.sqrt(a, out=a)
    np.multiply(dx, a, out=b)
    np.divide(b, px, out=b)
    np.abs(b, out=b)
    np.multiply(dy, a, out=a)
    np.divide(a, py, out=a)
    np.abs(a, out=a)
    np.minimum(b, a, out=b)
    np.multiply(b, b, out=b)

    # q = 2 rho grad2 limiter^2, zero where limiter > 0 or div >= 0
    np.multiply(2.0, win(density0, g, g, n0, n1), out=a)
    np.multiply(a, b, out=a)
    np.multiply(a, limiter, out=a)
    np.multiply(a, limiter, out=a)
    np.greater(limiter, 0.0, out=neg)
    np.logical_or(neg, quiet, out=neg)
    np.copyto(a, 0.0, where=neg)
    win(visc, g, g, n0, n1)[...] = a


# ---------------------------------------------------------------------------
# timestep control
# ---------------------------------------------------------------------------

def calc_dt(density0, soundspeed, visc, xvel0, yvel0, nx, ny, g, dx, dy,
            dtc_safe=0.7, dtu_safe=0.5, dtv_safe=0.5, dtdiv_safe=0.7,
            ws=None):
    """CFL timestep: minimum over the patch of the four CloverLeaf limits.

    A NaN anywhere in the limits is the result (``np.min`` propagates it).
    """
    n0, n1 = nx, ny
    d = win(density0, g, g, n0, n1)
    cs = win(soundspeed, g, g, n0, n1)
    q = win(visc, g, g, n0, n1)
    u00 = win(xvel0, g, g, n0, n1)
    u01 = win(xvel0, g, g + 1, n0, n1)
    u10 = win(xvel0, g + 1, g, n0, n1)
    u11 = win(xvel0, g + 1, g + 1, n0, n1)
    v00 = win(yvel0, g, g, n0, n1)
    v01 = win(yvel0, g, g + 1, n0, n1)
    v10 = win(yvel0, g + 1, g, n0, n1)
    v11 = win(yvel0, g + 1, g + 1, n0, n1)
    dt, lim, a, b = _carve(ws, d.shape, 4)

    # sound: dtc_safe min(dx, dy) / max(sqrt(cs^2 + 2 q / rho), G_SMALL)
    np.multiply(cs, cs, out=dt)
    np.multiply(2.0, q, out=a)
    np.maximum(d, G_SMALL, out=b)
    np.divide(a, b, out=a)
    np.add(dt, a, out=dt)
    np.sqrt(dt, out=dt)
    np.maximum(dt, G_SMALL, out=dt)
    np.divide(dtc_safe * np.minimum(dx, dy), dt, out=dt)
    # x advection: dtu_safe dx / max(0.5 max(|u00 + u01|, |u10 + u11|), G_SMALL)
    np.add(u00, u01, out=lim)
    np.abs(lim, out=lim)
    np.add(u10, u11, out=a)
    np.abs(a, out=a)
    np.maximum(lim, a, out=lim)
    np.multiply(0.5, lim, out=lim)
    np.maximum(lim, G_SMALL, out=lim)
    np.divide(dtu_safe * dx, lim, out=lim)
    np.minimum(dt, lim, out=dt)
    # divergence: dtdiv_safe / max(|0.5 du / dx + 0.5 dv / dy|, G_SMALL)
    np.add(u10, u11, out=lim)
    np.add(u00, u01, out=a)
    np.subtract(lim, a, out=lim)
    np.multiply(0.5, lim, out=lim)
    np.divide(lim, dx, out=lim)
    np.add(v01, v11, out=a)
    np.add(v00, v10, out=b)
    np.subtract(a, b, out=a)
    np.multiply(0.5, a, out=a)
    np.divide(a, dy, out=a)
    np.add(lim, a, out=lim)
    np.abs(lim, out=lim)
    np.maximum(lim, G_SMALL, out=lim)
    np.divide(dtdiv_safe, lim, out=lim)
    # y advection: dtv_safe dy / max(0.5 max(|v00 + v10|, |v01 + v11|), G_SMALL)
    np.add(v00, v10, out=a)
    np.abs(a, out=a)
    np.add(v01, v11, out=b)
    np.abs(b, out=b)
    np.maximum(a, b, out=a)
    np.multiply(0.5, a, out=a)
    np.maximum(a, G_SMALL, out=a)
    np.divide(dtv_safe * dy, a, out=a)
    np.minimum(a, lim, out=a)
    np.minimum(dt, a, out=dt)

    return float(np.min(dt))


# ---------------------------------------------------------------------------
# Lagrangian step
# ---------------------------------------------------------------------------

def pdv(predict, dt, density0, density1, energy0, energy1, pressure, visc,
        xvel0, yvel0, xvel1, yvel1, nx, ny, g, dx, dy, ws=None):
    """PdV work: volume change and energy update (predictor or corrector).

    The predictor advances a half step using the old velocities only; the
    corrector advances the full step with the time-averaged velocities.
    """
    n0, n1 = nx, ny
    volume = dx * dy
    xarea = dy
    yarea = dx
    d0 = win(density0, g, g, n0, n1)
    flux, side, t = _carve(ws, d0.shape, 3)
    scale = 0.25 * dt * (0.5 if predict else 1.0)

    def face_flux(vel0, vel1, area, di, dj, tdi, tdj, out):
        """area * (the face's two node velocities, summed) * scale.

        The predictor doubles the old velocities' sum; the corrector adds
        the new velocities' sum to it.
        """
        np.add(win(vel0, g + di, g + dj, n0, n1),
               win(vel0, g + di + tdi, g + dj + tdj, n0, n1), out=out)
        if predict:
            np.multiply(2.0, out, out=out)
        else:
            np.add(win(vel1, g + di, g + dj, n0, n1),
                   win(vel1, g + di + tdi, g + dj + tdj, n0, n1), out=t)
            np.add(out, t, out=out)
        np.multiply(area, out, out=out)
        np.multiply(out, scale, out=out)

    # total flux = right - left + top - bottom
    face_flux(xvel0, xvel1, xarea, 1, 0, 0, 1, flux)
    face_flux(xvel0, xvel1, xarea, 0, 0, 0, 1, side)
    np.subtract(flux, side, out=flux)
    face_flux(yvel0, yvel1, yarea, 0, 1, 1, 0, side)
    np.add(flux, side, out=flux)
    face_flux(yvel0, yvel1, yarea, 0, 0, 1, 0, side)
    np.subtract(flux, side, out=flux)

    # density1 = density0 * volume / (volume + total flux)
    np.add(volume, flux, out=side)
    np.divide(volume, side, out=side)
    np.multiply(d0, side, out=win(density1, g, g, n0, n1))
    # energy1 = energy0 - (p + q) / max(density0, G_SMALL) * flux / volume
    np.add(win(pressure, g, g, n0, n1), win(visc, g, g, n0, n1), out=t)
    np.maximum(d0, G_SMALL, out=side)
    np.divide(t, side, out=t)
    np.multiply(t, flux, out=t)
    np.multiply(t, 1.0 / volume, out=t)
    np.subtract(win(energy0, g, g, n0, n1), t, out=win(energy1, g, g, n0, n1))


def accelerate(dt, density0, pressure, visc, xvel0, yvel0, xvel1, yvel1,
               nx, ny, g, dx, dy, ws=None):
    """Nodal acceleration from pressure and viscosity gradients."""
    n0, n1 = nx + 1, ny + 1  # all interior nodes
    volume = dx * dy
    xarea = dy
    yarea = dx
    halfdt = 0.5 * dt

    d = lambda di, dj: win(density0, g + di, g + dj, n0, n1)
    p = lambda di, dj: win(pressure, g + di, g + dj, n0, n1)
    q = lambda di, dj: win(visc, g + di, g + dj, n0, n1)
    step, vel, a, b = _carve(ws, d(0, 0).shape, 4)

    # Average mass of the 4 cells around node (i, j): cells (i-1..i, j-1..j);
    # step = dt / 2 / max(mass, G_SMALL).
    np.add(d(-1, -1), d(0, -1), out=step)
    np.add(step, d(0, 0), out=step)
    np.add(step, d(-1, 0), out=step)
    np.multiply(0.25 * volume, step, out=step)
    np.maximum(step, G_SMALL, out=step)
    np.divide(halfdt, step, out=step)

    def kick(f, area, ai, aj, bi, bj):
        """step * (area * ((f(0, 0) - f(a)) + (f(b) - f(-1, -1)))), into a."""
        np.subtract(f(0, 0), f(ai, aj), out=a)
        np.subtract(f(bi, bj), f(-1, -1), out=b)
        np.add(a, b, out=a)
        np.multiply(area, a, out=a)
        np.multiply(step, a, out=a)

    kick(p, xarea, -1, 0, 0, -1)
    np.subtract(win(xvel0, g, g, n0, n1), a, out=vel)
    kick(q, xarea, -1, 0, 0, -1)
    np.subtract(vel, a, out=win(xvel1, g, g, n0, n1))
    kick(p, yarea, 0, -1, -1, 0)
    np.subtract(win(yvel0, g, g, n0, n1), a, out=vel)
    kick(q, yarea, 0, -1, -1, 0)
    np.subtract(vel, a, out=win(yvel1, g, g, n0, n1))


def flux_calc(dt, xvel0, yvel0, xvel1, yvel1, vol_flux_x, vol_flux_y,
              nx, ny, g, dx, dy, ws=None):
    """Volume fluxes through faces from time-averaged face velocities."""
    xarea = dy
    yarea = dx
    # x faces: (nx+1, ny)
    n0, n1 = nx + 1, ny
    lo = win(xvel0, g, g, n0, n1)
    (t,) = _carve(ws, lo.shape, 1)
    np.add(lo, win(xvel0, g, g + 1, n0, n1), out=t)
    np.add(t, win(xvel1, g, g, n0, n1), out=t)
    np.add(t, win(xvel1, g, g + 1, n0, n1), out=t)
    np.multiply(0.25 * dt * xarea, t, out=win(vol_flux_x, g, g, n0, n1))
    # y faces: (nx, ny+1)
    n0, n1 = nx, ny + 1
    lo = win(yvel0, g, g, n0, n1)
    (t,) = _carve(ws, lo.shape, 1)
    np.add(lo, win(yvel0, g + 1, g, n0, n1), out=t)
    np.add(t, win(yvel1, g, g, n0, n1), out=t)
    np.add(t, win(yvel1, g + 1, g, n0, n1), out=t)
    np.multiply(0.25 * dt * yarea, t, out=win(vol_flux_y, g, g, n0, n1))


# ---------------------------------------------------------------------------
# advective remap
# ---------------------------------------------------------------------------
#
# A face's donor, upwind and downwind cells (a dual face's nodes, for
# momentum) sit at one of two fixed offsets, picked by the sign of the
# face's flux, so each is a select between two windows -- a copy of one
# and a masked copy of the other, the data-parallel form of CloverLeaf's
# donor/upwind index arithmetic.  The upwind and downwind values are
# selected straight into the buffers their differences overwrite.

def _cell_limiter(don, upw, dwn, courant, sigma3, sigma4, lim, uw, dw,
                  flat, down):
    """CloverLeaf's limited cell-remap slope, into ``lim``.

    ``(1 - courant) * wind * min(|uw|, |dw|, (sigma3 |uw| + sigma4 |dw|) / 6)``
    where the upwind difference ``uw = don - upw`` and the downwind
    difference ``dw = dwn - don`` agree in sign, else 0; ``wind`` is -1
    where ``dw <= 0``, else 1.  ``uw`` and ``dw`` are scratch (``upw`` and
    ``dwn`` may be them), ``flat`` and ``down`` scratch masks.
    """
    np.subtract(don, upw, out=uw)
    np.subtract(dwn, don, out=dw)
    np.less_equal(dw, 0.0, out=down)
    np.multiply(uw, dw, out=lim)
    np.greater(lim, 0.0, out=flat)
    np.logical_not(flat, out=flat)
    np.abs(uw, out=uw)
    np.abs(dw, out=dw)
    np.multiply(sigma3, uw, out=lim)
    np.minimum(uw, dw, out=uw)
    np.multiply(sigma4, dw, out=dw)
    np.add(lim, dw, out=lim)
    np.multiply(1.0 / 6.0, lim, out=lim)
    np.minimum(uw, lim, out=uw)
    np.subtract(1.0, courant, out=lim)
    np.multiply(lim, -1.0, out=lim, where=down)
    np.multiply(lim, uw, out=lim)
    np.copyto(lim, 0.0, where=flat)


def advec_cell(direction, sweep_number, density1, energy1,
               vol_flux_x, vol_flux_y, mass_flux_x, mass_flux_y,
               pre_vol, post_vol, ener_flux, nx, ny, g, dx, dy, ws=None):
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
    xdiff, ydiff, t = _carve(ws, fxl.shape, 3)
    if sweep_number == 1 or direction == 0:
        np.subtract(fxr, fxl, out=xdiff)
    if sweep_number == 1 or direction == 1:
        np.subtract(fyt, fyb, out=ydiff)
    swept = xdiff if direction == 0 else ydiff
    if sweep_number == 1:
        np.add(volume, xdiff, out=t)
        np.add(t, ydiff, out=pv)
        np.subtract(pv, swept, out=sv)
    else:
        np.add(volume, swept, out=pv)
        sv[...] = volume

    if direction == 0:
        _advec_cell_flux(density1, energy1, vol_flux_x, mass_flux_x,
                         pre_vol, ener_flux, nx, ny, g, 0, ws)
        mf, vf = mass_flux_x, vol_flux_x
        vfl_d, vfr_d = (g, g), (g + 1, g)
    else:
        _advec_cell_flux(density1, energy1, vol_flux_y, mass_flux_y,
                         pre_vol, ener_flux, nx, ny, g, 1, ws)
        mf, vf = mass_flux_y, vol_flux_y
        vfl_d, vfr_d = (g, g), (g, g + 1)

    # Conservative update of density and energy on interior cells.
    n0, n1 = nx, ny
    d1 = win(density1, g, g, n0, n1)
    e1 = win(energy1, g, g, n0, n1)
    pvc = win(pre_vol, g, g, n0, n1)
    mass, ener, vol = _carve(ws, d1.shape, 3)
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
                     pre_vol, ener_flux, nx, ny, g, axis, ws):
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
    (don, m_don, sigma, sigma3, sigma4, lim, uw, dw,
     pos, flat, down) = _carve(ws, vf.shape, 8, 3)
    # Inflow from below (vf > 0): donor f-1, upwind f-2, downwind f.
    # Otherwise: donor f, upwind f+1, downwind f-1.
    np.greater(vf, 0.0, out=pos)

    def select(field, inflow, outflow, out):
        """``out`` = the cell ``inflow`` away where vf > 0, else ``outflow``."""
        np.copyto(out, cell(field, outflow))
        np.copyto(out, cell(field, inflow), where=pos)

    select(density1, -1, 0, don)
    select(density1, -2, 1, uw)
    select(density1, 0, -1, dw)
    select(pre_vol, -1, 0, m_don)

    np.abs(vf, out=sigma)
    np.maximum(m_don, G_SMALL, out=sigma3)
    np.divide(sigma, sigma3, out=sigma)
    np.add(1.0, sigma, out=sigma3)   # uniform grid: vertexdx ratio == 1
    np.subtract(2.0, sigma, out=sigma4)
    _cell_limiter(don, uw, dw, sigma, sigma3, sigma4, lim, uw, dw, flat, down)
    np.add(don, lim, out=lim)
    np.multiply(vf, lim, out=mf)

    # Energy rides the mass flux: its Courant number is the donor's mass
    # fraction, its sigma3/sigma4 stay the volume ones.
    np.multiply(don, m_don, out=m_don)
    np.maximum(m_don, G_SMALL, out=m_don)
    np.abs(mf, out=sigma)
    np.divide(sigma, m_don, out=sigma)
    select(energy1, -1, 0, don)
    select(energy1, -2, 1, uw)
    select(energy1, 0, -1, dw)
    _cell_limiter(don, uw, dw, sigma, sigma3, sigma4, lim, uw, dw, flat, down)
    np.add(don, lim, out=lim)
    np.multiply(mf, lim, out=win(ener_flux, g, g, n0, n1))


def advec_mom(direction, sweep_number,
              vel1, density1, vol_flux_x, vol_flux_y, mass_flux_x, mass_flux_y,
              node_flux, node_mass_post, node_mass_pre, mom_flux,
              pre_vol, post_vol, nx, ny, g, dx, dy, ws=None, reuse=False):
    """Momentum advection for one velocity component in one direction.

    ``vel1`` is the component being advected (x- or y-velocity); the
    stencil depends solely on ``direction``.  Requires halo-exchanged
    ``mass_flux`` (depth 2) and ``density1`` (depth 2).

    The volumes, ``node_flux`` and the node masses depend on the direction
    and the sweep only, not on the component.  With ``reuse`` they are
    read as the previous call wrote them -- the other component's, over
    the same direction and sweep, with none of their inputs written in
    between -- and only the component's own flux and update run.
    """
    if not reuse:
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

        # post = volume (+ the other direction's flux difference in sweep
        # 1); pre = post + the swept difference.
        if direction == 0:
            lo, hi, other_lo, other_hi = fxl, fxr, fyb, fyt
        else:
            lo, hi, other_lo, other_hi = fyb, fyt, fxl, fxr
        (t,) = _carve(ws, fxl.shape, 1)
        if sweep_number == 1:
            np.subtract(other_hi, other_lo, out=t)
            np.add(volume, t, out=sv)
        else:
            sv[...] = volume
        np.subtract(hi, lo, out=t)
        np.add(sv, t, out=pv)

        if direction == 0:
            _node_terms(density1, mass_flux_x, node_flux, node_mass_post,
                        node_mass_pre, post_vol, nx, ny, g, 0, ws)
        else:
            _node_terms(density1, mass_flux_y, node_flux, node_mass_post,
                        node_mass_pre, post_vol, nx, ny, g, 1, ws)

    if direction == 0:
        _advec_mom_dir(vel1, node_flux, node_mass_post, node_mass_pre,
                       mom_flux, nx, ny, g, 0, ws)
    else:
        _advec_mom_dir(vel1, node_flux, node_mass_post, node_mass_pre,
                       mom_flux, nx, ny, g, 1, ws)


# Momentum work arrays live on the node frame.  node_flux(n) is the mass
# flux through the staggered (dual-cell) face between nodes n and n+1
# along the advection axis (a); their sizes along it, and across it (t):
#   node_flux:       dual faces  -2 .. n_a+1   (n_a + 4)
#   node_mass_*:     nodes       -1 .. n_a+1   (n_a + 3)
#   mom_flux:        dual faces  -1 .. n_a     (n_a + 2)
#   update:          nodes        0 .. n_a     (n_a + 1)
# transverse extent: interior nodes 0 .. n_t   (n_t + 1)

def _node_terms(density1, mass_flux, node_flux, node_mass_post,
                node_mass_pre, post_vol, nx, ny, g, axis, ws):
    """The node fluxes and masses of a momentum sweep along ``axis``:
    shared by both velocity components."""
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
    first = w(mass_flux, a0, t0 - 1, sa, st)
    (t,) = _carve(ws, first.shape, 1)
    np.add(first, w(mass_flux, a0, t0, sa, st), out=t)
    np.add(t, w(mass_flux, a0 + 1, t0 - 1, sa, st), out=t)
    np.add(t, w(mass_flux, a0 + 1, t0, sa, st), out=t)
    np.multiply(0.25, t, out=w(node_flux, a0, t0, sa, st))

    # -- node masses on nodes -1 .. na+1 -----------------------------------------
    # The mean post-sweep mass of the four cells around each node.
    sa = na + 3
    a0 = g - 1

    def cell_mass(da, dt, out):
        np.multiply(w(density1, a0 + da, t0 + dt, sa, st),
                    w(post_vol, a0 + da, t0 + dt, sa, st), out=out)

    nmp = w(node_mass_post, a0, t0, sa, st)
    mass, t = _carve(ws, nmp.shape, 2)
    cell_mass(-1, -1, mass)
    cell_mass(0, -1, t)
    np.add(mass, t, out=mass)
    cell_mass(-1, 0, t)
    np.add(mass, t, out=mass)
    cell_mass(0, 0, t)
    np.add(mass, t, out=mass)
    np.multiply(0.25, mass, out=nmp)
    np.subtract(nmp, w(node_flux, a0 - 1, t0, sa, st), out=mass)
    np.add(mass, w(node_flux, a0, t0, sa, st),
           out=w(node_mass_pre, a0, t0, sa, st))


def _advec_mom_dir(vel1, node_flux, node_mass_post, node_mass_pre, mom_flux,
                   nx, ny, g, axis, ws):
    """One velocity component's limited momentum flux and update along
    ``axis``, from the node fluxes and masses."""
    na = nx if axis == 0 else ny
    nt = ny if axis == 0 else nx

    def w(arr, a0, t0, sa, st):
        """Window with (advection-axis, transverse-axis) offsets/sizes."""
        if axis == 0:
            return win(arr, a0, t0, sa, st)
        return win(arr, t0, a0, st, sa)

    st = nt + 1
    t0 = g

    # -- limited advected velocity and momentum flux on dual faces -1 .. na ------
    sa = na + 2
    a0 = g - 1

    def node(field, off):
        """The node ``off`` places along ``axis`` from each dual face."""
        return w(field, a0 + off, t0, sa, st)

    nfw = w(node_flux, a0, t0, sa, st)
    don, sigma, uw, dw, lim, tmp, neg, flat, down = _carve(ws, nfw.shape, 6, 3)
    # Flow towards -axis (nfw < 0): donor n+1, upwind n+2, downwind n.
    # Otherwise: donor n, upwind n-1, downwind n+1.
    np.less(nfw, 0.0, out=neg)

    def select(field, backward, forward, out):
        """``out`` = the node ``backward`` away where nfw < 0, else ``forward``."""
        np.copyto(out, node(field, forward))
        np.copyto(out, node(field, backward), where=neg)

    select(vel1, 1, 0, don)
    select(vel1, 2, -1, uw)
    select(vel1, 0, 1, dw)
    select(node_mass_pre, 1, 0, tmp)

    np.abs(nfw, out=sigma)
    np.maximum(tmp, G_SMALL, out=tmp)
    np.divide(sigma, tmp, out=sigma)
    # limiter = wind * min(((2 - sigma)|dw| + (1 + sigma)|uw|) / 6, |uw|, |dw|)
    # where the differences agree in sign, else 0
    np.subtract(don, uw, out=uw)
    np.subtract(dw, don, out=dw)
    np.less_equal(dw, 0.0, out=down)
    np.multiply(uw, dw, out=lim)
    np.greater(lim, 0.0, out=flat)
    np.logical_not(flat, out=flat)
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
    np.multiply(-1.0, lim, out=lim, where=down)
    np.copyto(lim, 0.0, where=flat)
    # mom_flux = (v_don + (1 - sigma) * limiter) * node_flux
    np.subtract(1.0, sigma, out=tmp)
    np.multiply(tmp, lim, out=tmp)
    np.add(don, tmp, out=tmp)
    np.multiply(tmp, nfw, out=w(mom_flux, a0, t0, sa, st))

    # -- momentum update on interior nodes 0 .. na -------------------------------
    sa = na + 1
    a0 = g
    v = w(vel1, a0, t0, sa, st)
    mom, mass = _carve(ws, v.shape, 2)
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
