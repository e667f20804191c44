"""Utilities: virtual clocks, checkpoint/restart, VTK output."""

from __future__ import annotations

import math

__all__ = ["nan_min"]


def nan_min(values) -> float:
    """The least of ``values``, or NaN if any of them is NaN.

    Python's ``min`` keeps or drops a NaN depending on where it sits (it
    compares with ``<``); a reduction of CFL limits must not lose one.
    Finite inputs give exactly ``min``: it is a selection.
    """
    values = list(values)
    if any(math.isnan(v) for v in values):
        return math.nan
    return min(values)
