"""Pure interpolation/averaging math for the refine and coarsen operators.

Every function here is a frame-explicit NumPy routine: arrays cover an
index *frame* box, regions are boxes in the same index space, and all
loops over fine indices are replaced by the dependency-free index algebra
the paper derives for its data-parallel kernels (Fig. 5b, Fig. 8).

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
    "refine_node_linear",
    "refine_cell_conservative_linear",
    "refine_side_conservative_linear",
    "coarsen_cell_volume_weighted",
    "coarsen_cell_mass_weighted",
    "coarsen_node_injection",
    "coarsen_side_sum",
    "block_reduce",
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


def refine_node_linear(
    coarse: np.ndarray,
    coarse_frame: Box,
    fine: np.ndarray,
    fine_frame: Box,
    region: Box,
    ratio: IntVector,
) -> None:
    """Bilinear node-centred refine (:data:`NODE_LINEAR`) of one region."""
    refine_region(NODE_LINEAR, coarse, coarse_frame, fine, fine_frame,
                  region, ratio)


def refine_cell_conservative_linear(
    coarse: np.ndarray,
    coarse_frame: Box,
    fine: np.ndarray,
    fine_frame: Box,
    region: Box,
    ratio: IntVector,
) -> None:
    """Conservative linear cell-centred refine
    (:data:`CELL_CONSERVATIVE_LINEAR`) of one region."""
    refine_region(CELL_CONSERVATIVE_LINEAR, coarse, coarse_frame, fine,
                  fine_frame, region, ratio)


def refine_side_conservative_linear(
    coarse: np.ndarray,
    coarse_frame: Box,
    fine: np.ndarray,
    fine_frame: Box,
    region: Box,
    ratio: IntVector,
    axis: int,
) -> None:
    """Side-centred refine (:data:`SIDE_CONSERVATIVE_LINEAR`) of one
    region, for faces normal to ``axis``."""
    refine_region(SIDE_CONSERVATIVE_LINEAR[axis], coarse, coarse_frame, fine,
                  fine_frame, region, ratio)


def block_reduce(fine_region: np.ndarray, ratio: IntVector, op: str) -> np.ndarray:
    """Reduce each ratio[0] x ratio[1] block of a fine region array."""
    m0 = fine_region.shape[0] // ratio[0]
    m1 = fine_region.shape[1] // ratio[1]
    blocks = fine_region.reshape(m0, ratio[0], m1, ratio[1])
    if op == "sum":
        return blocks.sum(axis=(1, 3))
    if op == "mean":
        return blocks.mean(axis=(1, 3))
    raise ValueError(f"unknown block op {op!r}")


def coarsen_cell_volume_weighted(
    fine: np.ndarray,
    fine_frame: Box,
    coarse: np.ndarray,
    coarse_frame: Box,
    region: Box,
    ratio: IntVector,
) -> None:
    """Volume-weighted coarsen (paper Fig. 7/8).

    c_i = sum_j f_j * vol(j) / vol(i); with uniform spacing this is the
    block mean over the ratio[0] x ratio[1] fine children.
    """
    fine_region = region.refine(ratio)
    f = fine[fine_region.slices_in(fine_frame)]
    coarse[region.slices_in(coarse_frame)] = block_reduce(f, ratio, "mean")


def coarsen_cell_mass_weighted(
    fine: np.ndarray,
    fine_weight: np.ndarray,
    fine_frame: Box,
    coarse: np.ndarray,
    coarse_frame: Box,
    region: Box,
    ratio: IntVector,
) -> None:
    """Mass-weighted coarsen: c_i = sum(f_j w_j vol) / sum(w_j vol).

    Used for specific internal energy with density as the weight, so that
    total internal energy (mass x specific energy) is conserved exactly.
    """
    fine_region = region.refine(ratio)
    sl = fine_region.slices_in(fine_frame)
    f = fine[sl]
    w = fine_weight[sl]
    num = block_reduce(f * w, ratio, "sum")
    den = block_reduce(w, ratio, "sum")
    coarse[region.slices_in(coarse_frame)] = num / den


def coarsen_node_injection(
    fine: np.ndarray,
    fine_frame: Box,
    coarse: np.ndarray,
    coarse_frame: Box,
    region: Box,
    ratio: IntVector,
) -> None:
    """Node injection: coarse node <- coincident fine node (exact)."""
    i0 = np.arange(region.lower[0], region.upper[0] + 1) * ratio[0] - fine_frame.lower[0]
    i1 = np.arange(region.lower[1], region.upper[1] + 1) * ratio[1] - fine_frame.lower[1]
    coarse[region.slices_in(coarse_frame)] = fine[np.ix_(i0, i1)]


def coarsen_side_sum(
    fine: np.ndarray,
    fine_frame: Box,
    coarse: np.ndarray,
    coarse_frame: Box,
    region: Box,
    ratio: IntVector,
    axis: int,
) -> None:
    """Side-centred coarsen: each coarse face sums its aligned fine faces.

    Fluxes are extensive, so the coarse-face flux is the sum over the
    ratio[transverse] fine faces tiling it; normal-direction children at
    unaligned positions do not contribute.
    """
    trans = 1 - axis
    in_ = np.arange(region.lower[axis], region.upper[axis] + 1) * ratio[axis] - fine_frame.lower[axis]
    out = None
    for k in range(ratio[trans]):
        it = (
            np.arange(region.lower[trans], region.upper[trans] + 1) * ratio[trans]
            + k
            - fine_frame.lower[trans]
        )
        idx = np.ix_(in_, it) if axis == 0 else np.ix_(it, in_)
        contrib = fine[idx]
        out = contrib.copy() if out is None else out + contrib
    coarse[region.slices_in(coarse_frame)] = out
