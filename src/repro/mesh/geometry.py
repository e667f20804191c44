"""Cartesian grid geometry: physical domain, per-level spacing, coordinates.

Mirrors SAMRAI's ``geom::CartesianGridGeometry``.  The base (level-0) index
box together with the physical extent of the domain determine the mesh
spacing at every refinement level; boundary detection compares boxes against
the periodically-or-physically bounded domain box.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .box import Box, IntVector
from .box_array import BoxArray

__all__ = ["CartesianGridGeometry"]


class CartesianGridGeometry:
    """Uniform Cartesian geometry for a rectangular 2-D domain."""

    def __init__(
        self,
        domain_box: Box,
        x_lo: Sequence[float],
        x_hi: Sequence[float],
    ):
        if domain_box.is_empty():
            raise ValueError("domain box must be nonempty")
        self.domain_box = domain_box
        self.x_lo = tuple(float(v) for v in x_lo)
        self.x_hi = tuple(float(v) for v in x_hi)
        shape = domain_box.shape()
        self.base_dx = tuple(
            (hi - lo) / n for lo, hi, n in zip(self.x_lo, self.x_hi, shape)
        )
        self._level_domains: dict = {}  # ratio to base -> domain box

    @property
    def dim(self) -> int:
        return self.domain_box.dim

    def level_domain(self, ratio_to_base: IntVector | int) -> Box:
        """The domain box in the index space of a level with this ratio."""
        domain = self._level_domains.get(ratio_to_base)
        if domain is None:
            domain = self._level_domains[ratio_to_base] = (
                self.domain_box.refine(ratio_to_base))
        return domain

    def level_dx(self, ratio_to_base: IntVector | int) -> tuple[float, ...]:
        """Mesh spacing on a level refined by ``ratio_to_base`` from level 0."""
        if isinstance(ratio_to_base, int):
            ratio_to_base = IntVector.uniform(ratio_to_base, self.dim)
        return tuple(d / r for d, r in zip(self.base_dx, ratio_to_base))

    def cell_centers(self, box: "Box | BoxArray",
                     ratio_to_base: IntVector | int):
        """Coordinate arrays (one per axis, broadcastable) of cell centers.

        Over a :class:`~repro.mesh.box_array.BoxArray` of equal-shape
        boxes (a shape bucket) the arrays are stacked, one box per row of
        a leading axis, and each row holds bitwise what its box alone
        gives: the same operations, elementwise.
        """
        dx = self.level_dx(ratio_to_base)
        domain = self.level_domain(ratio_to_base)
        lower = np.reshape(box.lower, (-1, self.dim))
        extent = np.reshape(box.shape(), (-1, self.dim))[0]
        lead = (len(lower),) if isinstance(box, BoxArray) else ()
        coords = []
        for axis in range(self.dim):
            idx = (lower[:, axis, None]
                   + np.arange(extent[axis])).astype(np.float64)
            c = self.x_lo[axis] + (idx - domain.lower[axis] + 0.5) * dx[axis]
            shape = [1] * self.dim
            shape[axis] = -1
            coords.append(c.reshape(lead + tuple(shape)))
        return tuple(coords)

    def touches_boundary(self, box: Box, ratio_to_base: IntVector | int) -> list[tuple[int, int]]:
        """Which physical boundaries ``box`` touches.

        Returns a list of (axis, side) pairs where side is 0 for the lower
        face and 1 for the upper face.
        """
        domain = self.level_domain(ratio_to_base)
        touches = []
        for axis in range(self.dim):
            if box.lower[axis] <= domain.lower[axis]:
                touches.append((axis, 0))
            if box.upper[axis] >= domain.upper[axis]:
                touches.append((axis, 1))
        return touches
