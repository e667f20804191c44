"""Index-space helpers for the communication schedules.

The interior index box and the storage frame of a cell box in a data
centring's index space.  Which regions of a level must be filled, and
from where, is computed for a whole level at once in
:func:`repro.xfer.refine_schedule.build_fill_geometry`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..mesh.box import Box

if TYPE_CHECKING:  # pragma: no cover
    from ..mesh.variables import Variable

__all__ = ["index_box_for", "frame_box_for"]


def index_box_for(var: "Variable", box: Box) -> Box:
    """Interior index box of ``box`` in the centring space of ``var``."""
    return var.index_box(box)


def frame_box_for(var: "Variable", box: Box) -> Box:
    """Full storage frame (interior + ghosts) in centring index space."""
    return var.frame(box)

