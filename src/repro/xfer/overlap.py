"""Overlap geometry helpers for the communication schedules.

Computes, in the index space of each data centring, which regions of a
destination patch's ghost frame must be filled and where each piece can
come from: a same-level neighbour, the next coarser level, or the physical
boundary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..mesh.box import Box
from ..mesh.box_container import BoxContainer

if TYPE_CHECKING:  # pragma: no cover
    from ..mesh.patch import Patch
    from ..mesh.variables import Variable

__all__ = ["index_box_for", "frame_box_for", "ghost_fill_pieces", "clamp_extend"]


def index_box_for(var: "Variable", box: Box) -> Box:
    """Interior index box of ``box`` in the centring space of ``var``."""
    return var.index_box(box)


def frame_box_for(var: "Variable", box: Box) -> Box:
    """Full storage frame (interior + ghosts) in centring index space."""
    return var.frame(box)


def ghost_fill_pieces(var: "Variable", patch: "Patch") -> BoxContainer:
    """Disjoint regions of the ghost frame outside the patch interior."""
    frame = frame_box_for(var, patch.box)
    interior = index_box_for(var, patch.box)
    return BoxContainer(frame.remove_intersection(interior))


def clamp_extend(arr, frame: Box, valid: Box) -> None:
    """Fill every element outside ``valid`` from the nearest valid element.

    Zero-gradient extension used as the fallback for interpolation-stencil
    cells that poke outside the physical domain; the fine patch's physical
    boundary routine overwrites anything that actually matters afterwards.
    """
    import numpy as np

    v = frame.intersection(valid)
    if v.is_empty():
        raise ValueError("no valid region to extend from")
    idx = []
    for axis in range(frame.dim):
        i = np.arange(frame.lower[axis], frame.upper[axis] + 1)
        idx.append(np.clip(i, v.lower[axis], v.upper[axis]) - frame.lower[axis])
    arr[...] = arr[np.ix_(*idx)]
