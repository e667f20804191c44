"""Patch chopping and load balancing.

Cluster boxes can be arbitrarily large; before distribution they are
chopped so no patch exceeds the configured maximum extent (which also
bounds per-patch GPU memory), then assigned to ranks along a
space-filling curve (:mod:`repro.regrid.sfc`) — the patch is the paper's
"basic unit of work" shared between processes (§II).
"""

from __future__ import annotations

import numpy as np

from ..mesh.box import Box
from ..mesh.box_array import BoxArray, box_points
from .sfc import assign_owners_lpt, imbalance, morton_key, partition

__all__ = ["chop_box", "chop_boxes", "assign_owners", "assign_owners_lpt",
           "imbalance"]


def chop_box(box: Box, max_size: int) -> list[Box]:
    """Split a box into tiles of at most ``max_size`` per dimension.

    Tiles are as equal as possible, so a box of 2N x N with max N yields
    two N x N tiles rather than an N and an N-1/1 sliver.
    """
    return chop_boxes([box], max_size)


def chop_boxes(boxes: list[Box], max_size: int) -> list[Box]:
    """:func:`chop_box` of every box, in order -- all boxes at once: a
    box's tiles are the row-major points of its grid of tile counts."""
    if not boxes:
        return []
    whole = BoxArray.from_boxes(boxes)
    extent = whole.shape()
    parts = np.maximum(-(-extent // max_size), 1)  # ceil division
    which, tile = box_points(np.stack([np.zeros_like(parts), parts - 1], 1))
    tile = np.stack(tile, axis=1)
    base, rem = np.divmod(extent, parts)
    base, rem = base[which], rem[which]
    # the first ``rem`` tiles along an axis are one cell wider
    lower = whole.lower[which] + tile * base + np.minimum(tile, rem)
    upper = lower + base + (tile < rem) - 1
    return BoxArray(np.stack([lower, upper], axis=1)).boxes()


def _morton_key(box: Box) -> int:
    """Morton (Z-order) code of the box centre, for locality ordering."""
    return morton_key(box)


def assign_owners(boxes: list[Box], nranks: int, method: str = "sfc",
                  imbalance_threshold: float | None = None) -> list[int]:
    """Space-filling-curve partition: balanced *and* spatially local.

    ``method`` selects the distribution map: ``"sfc"`` (Morton curve,
    the default), ``"hilbert"`` (Hilbert curve), or ``"lpt"`` (greedy
    longest-processing-time binning, locality-blind).  A non-None
    ``imbalance_threshold`` arms the SFC→LPT fallback of
    :func:`repro.regrid.sfc.partition`.
    """
    if method == "lpt":
        return assign_owners_lpt(boxes, nranks)
    curve = "hilbert" if method == "hilbert" else "morton"
    return partition(boxes, nranks, curve=curve,
                     imbalance_threshold=imbalance_threshold)
