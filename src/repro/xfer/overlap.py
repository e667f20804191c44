"""Index-space helpers for the communication schedules.

The interior index box and the storage frame of a cell box in a data
centring's index space, and the zero-gradient extension interpolation
temporaries need at the domain edge.  Which regions of a level must be
filled, and from where, is computed for a whole level at once in
:func:`repro.xfer.refine_schedule.build_fill_geometry`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..mesh.box import Box

if TYPE_CHECKING:  # pragma: no cover
    from ..mesh.variables import Variable

__all__ = ["index_box_for", "frame_box_for", "clamp_extend"]


def index_box_for(var: "Variable", box: Box) -> Box:
    """Interior index box of ``box`` in the centring space of ``var``."""
    return var.index_box(box)


def frame_box_for(var: "Variable", box: Box) -> Box:
    """Full storage frame (interior + ghosts) in centring index space."""
    return var.frame(box)


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
