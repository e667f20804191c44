"""Pure interpolation/averaging math for the refine and coarsen operators.

Every operator is stated as data: a :class:`RefineStencil` (the coarse
neighbours a fine point reads, its weights, their combination) or a
:class:`CoarsenStencil` (the fine children a coarse point reads, their
reduction).  Each is evaluated either over one region of frame-explicit
arrays (arrays cover an index *frame* box, regions are boxes in the same
index space) or over the concatenated points of many regions at once,
gathered by flat index from arena slabs — the form compiled fills and
syncs use for one launch per level.  All loops over fine indices are the
dependency-free index algebra the paper derives for its data-parallel
kernels (Fig. 5b, Fig. 8), and the two forms give the same bits.

These functions are shared verbatim by the CPU operators and by the
simulated-GPU operators (which execute them inside kernel launches), so a
CPU/GPU comparison test can demand exact agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..mesh.box import Box, IntVector

__all__ = [
    "RefineStencil",
    "NODE_LINEAR",
    "CELL_CONSERVATIVE_LINEAR",
    "SIDE_CONSERVATIVE_LINEAR",
    "refine_region",
    "flat_refine_terms",
    "refine_flat",
    "CoarsenStencil",
    "CELL_VOLUME_MEAN",
    "CELL_MASS_MEAN",
    "NODE_INJECTION",
    "SIDE_SUM",
    "coarsen_children",
    "coarsen_values",
    "coarsen_region",
]


def _coarse_and_fraction(f: np.ndarray, ratio: int):
    """Fine indices → (coarse indices, fractional offsets in [0,1))."""
    ic = np.floor_divide(f, ratio)
    frac = (f - ic * ratio) / float(ratio)
    return ic, frac


def _mc_slopes(center: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Monotonised-central limited slope per coarse cell.

    ``lo``/``hi`` are the neighbouring values in the slope direction.  The
    returned slope is per unit coarse cell width.
    """
    fwd = hi - center
    bwd = center - lo
    cen = 0.5 * (hi - lo)
    slope = np.sign(cen) * np.minimum(
        np.abs(cen), 2.0 * np.minimum(np.abs(fwd), np.abs(bwd))
    )
    return np.where(fwd * bwd > 0.0, slope, 0.0)


# -- the refine operators, as data ---------------------------------------------
#
# A refine operator is three things: which coarse neighbours of the coarse
# index under a fine point it reads (``offsets``), the weights it derives
# from the point's fractional position (``weights``), and the arithmetic
# combining them (``combine``).  ``combine`` is elementwise in the gathered
# values and the weights, so it gives the same bits whether it is handed
# one region's 2-D gathers with broadcast 1-D weights (:func:`refine_region`)
# or the concatenated points of many regions (:func:`refine_flat`).


@dataclass(frozen=True)
class RefineStencil:
    """One refine operator: neighbour offsets, weights, combination."""

    #: ``(d0, d1)`` coarse-index offsets of the gathered values, in
    #: ``combine`` argument order
    offsets: tuple[tuple[int, int], ...]
    #: ``(x0, x1, ratio)`` → the weight arrays ``combine`` takes after the
    #: values; ``x0``/``x1`` are the fractional offsets along each axis
    weights: Callable
    #: ``(*values, *weights)`` → the interpolated values, elementwise
    combine: Callable


def _bilinear(c00, c10, c01, c11, x, y):
    return (c00 * (1.0 - x) + c10 * x) * (1.0 - y) + (c01 * (1.0 - x) + c11 * x) * y


def _centre_offsets(x0, x1, ratio):
    # Centre offset of the fine cell within the coarse cell, in [-0.5, 0.5).
    return x0 + 0.5 / ratio[0] - 0.5, x1 + 0.5 / ratio[1] - 0.5


def _limited_linear(c, x_lo, x_hi, y_lo, y_hi, ox, oy):
    return c + _mc_slopes(c, x_lo, x_hi) * ox + _mc_slopes(c, y_lo, y_hi) * oy


def _face_blend(lo_c, lo_m, lo_p, hi_c, hi_m, hi_p, ot, w):
    lo_face = lo_c + _mc_slopes(lo_c, lo_m, lo_p) * ot
    hi_face = hi_c + _mc_slopes(hi_c, hi_m, hi_p) * ot
    return lo_face * (1.0 - w) + hi_face * w


#: bilinear node-centred refine (the paper's Fig. 5b kernel): the blend of
#: the four surrounding coarse nodes; fine nodes coincident with coarse
#: nodes (x == y == 0) receive the coarse value exactly
NODE_LINEAR = RefineStencil(
    ((0, 0), (1, 0), (0, 1), (1, 1)), lambda x0, x1, ratio: (x0, x1), _bilinear)

#: conservative linear cell-centred refine with MC-limited slopes:
#: value(f) = C[ic] + sx * ox + sy * oy.  Offsets within a coarse cell sum
#: to zero, so the volume-weighted mean of the fine values equals the
#: coarse value — the operator conserves mass for any slope choice
CELL_CONSERVATIVE_LINEAR = RefineStencil(
    ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)), _centre_offsets, _limited_linear)


def _side_stencil(axis: int) -> RefineStencil:
    trans = 1 - axis

    def at(normal: int, transverse: int) -> tuple[int, int]:
        return (normal, transverse) if axis == 0 else (transverse, normal)

    def weights(x0, x1, ratio):
        xn, xt = (x0, x1) if axis == 0 else (x1, x0)
        return xt + 0.5 / ratio[trans] - 0.5, xn

    return RefineStencil(
        (at(0, 0), at(0, -1), at(0, 1), at(1, 0), at(1, -1), at(1, 1)),
        weights, _face_blend)


#: side-centred refine by face normal axis: linear in the normal,
#: limited-linear transverse.  Fine faces aligned with a coarse face take
#: the (transversely reconstructed) coarse-face value; unaligned fine
#: faces blend the two bracketing coarse faces linearly in the normal
SIDE_CONSERVATIVE_LINEAR = (_side_stencil(0), _side_stencil(1))


def refine_region(stencil: RefineStencil, coarse: np.ndarray,
                  coarse_frame: Box, fine: np.ndarray, fine_frame: Box,
                  region: Box, ratio: IntVector) -> None:
    """Fill ``region`` of ``fine`` from ``coarse`` (arrays over their
    frames): one 2-D gather per stencil offset, 1-D weights broadcast."""
    ic0, x0 = _coarse_and_fraction(
        np.arange(region.lower[0], region.upper[0] + 1), ratio[0])
    ic1, x1 = _coarse_and_fraction(
        np.arange(region.lower[1], region.upper[1] + 1), ratio[1])
    i0 = ic0 - coarse_frame.lower[0]
    i1 = ic1 - coarse_frame.lower[1]
    values = [coarse[np.ix_(i0 + d0, i1 + d1)] for d0, d1 in stencil.offsets]
    fine[region.slices_in(fine_frame)] = stencil.combine(
        *values, *stencil.weights(x0[:, None], x1[None, :], ratio))


def flat_refine_terms(stencil: RefineStencil, f0: np.ndarray, f1: np.ndarray,
                      ratio: IntVector, origin: np.ndarray,
                      width: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The per-point form of a refine: ``(gather, weights)``.

    ``f0``/``f1`` are the fine indices of any number of points (of any
    number of regions, concatenated).  Point ``p``'s coarse data is a
    C-order block of row length ``width[p]`` inside one flat array, with
    coarse index ``(i, j)`` at ``origin[p] + i * width[p] + j``;
    ``gather[k, p]`` is then the flat index of its ``k``-th stencil value.
    """
    ic0, x0 = _coarse_and_fraction(f0, ratio[0])
    ic1, x1 = _coarse_and_fraction(f1, ratio[1])
    base = origin + ic0 * width + ic1
    gather = np.stack([base + (d0 * width + d1) for d0, d1 in stencil.offsets])
    return gather, stencil.weights(x0, x1, ratio)


def refine_flat(stencil: RefineStencil, coarse_flat: np.ndarray,
                gather: np.ndarray, weights: tuple, fine_flat: np.ndarray,
                fine_index: np.ndarray) -> None:
    """Interpolate all points of :func:`flat_refine_terms` at once:
    ``fine_flat[fine_index[p]]`` from ``coarse_flat[gather[:, p]]``."""
    fine_flat[fine_index] = stencil.combine(*coarse_flat[gather], *weights)


# -- the coarsen operators, as data --------------------------------------------
#
# A coarsen operator is two things: which fine children of a coarse point
# it reads (``children``: offsets from the coarse index times the ratio)
# and the reduction combining them (``reduce``).  The reduction takes a
# ``(points, children)`` gather, so it gives the same bits for one
# region's points (:func:`coarsen_region`) as for the concatenated points
# of every block a compiled sync coarsens in one launch.
#
# The averages keep the bits of ``sum(axis=(1, 3))`` over a region's
# ``(m0, r0, m1, r1)`` block view, whose order NumPy picks by shape.  For
# a region wider than one coarse cell along axis 1 (``wide``): each fine
# row of a block added left to right, then the row sums left to right
# onto the identity +0.0.  For a region one coarse cell wide along axis 1:
# ``np.add.reduce`` over the children flattened row-major.  Both orders
# are written out here; a multi-axis ``sum`` or ``mean`` is never trusted
# with them.


@dataclass(frozen=True)
class CoarsenStencil:
    """One coarsen operator: the children it reads, their reduction."""

    #: ``ratio`` -> the ``(d0, d1)`` offsets from ``(i * r0, j * r1)`` of
    #: coarse point ``(i, j)``'s fine children, in gather order
    children: Callable
    #: ``(values, weights, ratio, wide)`` -> the coarse values: ``values``
    #: (and ``weights``, or None) is ``(points, children)``, ``wide`` whether
    #: the points' regions are wider than one coarse cell along axis 1
    reduce: Callable


def _block_sum(values, ratio, wide: bool) -> np.ndarray:
    """The bits of a region's ``blocks.sum(axis=(1, 3))``, per point."""
    if not wide:
        return np.add.reduce(values, axis=1)
    blocks = values.reshape(len(values), ratio[0], ratio[1])
    rows = blocks[:, :, 0].copy()
    for b in range(1, ratio[1]):
        rows += blocks[:, :, b]
    out = np.zeros(len(values))
    for a in range(ratio[0]):
        out += rows[:, a]
    return out


def _all_children(ratio):
    return [(a, b) for a in range(ratio[0]) for b in range(ratio[1])]


def _volume_mean(values, weights, ratio, wide):  # noqa: ARG001 — reduce signature
    return _block_sum(values, ratio, wide) / (ratio[0] * ratio[1])


def _mass_mean(values, weights, ratio, wide):
    return (_block_sum(values * weights, ratio, wide)
            / _block_sum(weights, ratio, wide))


def _sum_in_order(values, weights, ratio, wide):  # noqa: ARG001 — reduce signature
    out = values[:, 0].copy()
    for k in range(1, values.shape[1]):
        out += values[:, k]
    return out


def _coincident(ratio):  # noqa: ARG001 — children signature
    return [(0, 0)]


def _injected(values, weights, ratio, wide):  # noqa: ARG001 — reduce signature
    return values[:, 0]


#: volume-weighted coarsen (paper Fig. 7/8): c_i = sum_j f_j vol(j) / vol(i),
#: with uniform spacing the mean of the ratio[0] x ratio[1] fine children
CELL_VOLUME_MEAN = CoarsenStencil(_all_children, _volume_mean)

#: mass-weighted coarsen: c_i = sum(f_j w_j) / sum(w_j).  Used for specific
#: internal energy with density as the weight, so that total internal
#: energy (mass x specific energy) is conserved exactly
CELL_MASS_MEAN = CoarsenStencil(_all_children, _mass_mean)

#: node injection: a coarse node takes its coincident fine node (exact)
NODE_INJECTION = CoarsenStencil(_coincident, _injected)

#: side-centred coarsen by face normal axis: fluxes are extensive, so a
#: coarse face sums the ratio[transverse] aligned fine faces tiling it, in
#: order; normal-direction children at unaligned positions do not count
SIDE_SUM = (
    CoarsenStencil(lambda ratio: [(0, k) for k in range(ratio[1])],
                   _sum_in_order),
    CoarsenStencil(lambda ratio: [(k, 0) for k in range(ratio[0])],
                   _sum_in_order),
)


def coarsen_children(stencil: CoarsenStencil, c0: np.ndarray, c1: np.ndarray,
                     ratio: IntVector) -> tuple[np.ndarray, np.ndarray]:
    """Fine indices ``(f0, f1)``, each ``(points, children)``, of the
    children of the coarse points ``(c0, c1)`` (of any number of
    regions, concatenated)."""
    d = np.array(stencil.children(ratio), dtype=np.intp).reshape(-1, 2)
    return (c0[:, None] * ratio[0] + d[:, 0],
            c1[:, None] * ratio[1] + d[:, 1])


def coarsen_values(stencil: CoarsenStencil, fine: np.ndarray, index,
                   ratio: IntVector, wide: bool,
                   weight: np.ndarray | None = None) -> np.ndarray:
    """The coarse values of the points whose children ``fine[index]``
    gathers, ``(points, children)``; ``weight`` is gathered alike."""
    return stencil.reduce(fine[index],
                          None if weight is None else weight[index],
                          ratio, wide)


def coarsen_region(stencil: CoarsenStencil, fine: np.ndarray, fine_frame: Box,
                   coarse: np.ndarray, coarse_frame: Box, region: Box,
                   ratio: IntVector, weight: np.ndarray | None = None) -> None:
    """Fill ``region`` of ``coarse`` from ``fine`` (and ``weight``, over the
    fine frame too): the stencil over one region's points."""
    n0, n1 = region.shape()
    c0 = np.repeat(np.arange(region.lower[0], region.upper[0] + 1), n1)
    c1 = np.tile(np.arange(region.lower[1], region.upper[1] + 1), n0)
    f0, f1 = coarsen_children(stencil, c0, c1, ratio)
    i0, i1 = f0 - fine_frame.lower[0], f1 - fine_frame.lower[1]
    if (i0.min() < 0 or i1.min() < 0 or i0.max() >= fine.shape[0]
            or i1.max() >= fine.shape[1]):
        raise IndexError("coarsen children outside the fine frame")
    coarse[region.slices_in(coarse_frame)] = coarsen_values(
        stencil, fine, (i0, i1), ratio, n1 > 1, weight).reshape(n0, n1)
