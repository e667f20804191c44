"""Patch arenas: one pooled allocation per (level, rank, variable).

The per-patch allocation style gives every field of every patch its own
buffer; a level with hundreds of small boxes means hundreds of small
allocations, and fused launches over them still hop between scattered
buffers.  An arena instead lays out one variable's storage for *every
local patch of a level* contiguously in a single slab, with per-patch
offsets — AMReX's MultiFab layout, and the substrate the fused-launch
path in :mod:`repro.exec.batch` runs over.

:class:`HostArena` is the host flavour: members are NumPy views into one
slab, handed to :class:`~repro.pdat.array_data.ArrayData` as
preallocated storage.  The device twin lives in
:mod:`repro.cupdat.arena`.
"""

from __future__ import annotations

import math

import numpy as np

from ..mesh.box import Box
from .patch_data import cell_frame, node_frame, side_frame

__all__ = ["HostArena", "frame_box_of"]


def frame_box_of(var, box: Box) -> Box:
    """The storage frame a variable's patch data will cover on ``box``."""
    if var.centring == "cell":
        return cell_frame(box, var.ghosts)
    if var.centring == "node":
        return node_frame(box, var.ghosts)
    return side_frame(box, var.ghosts, var.axis)


class HostArena:
    """One host slab holding many patch frames back-to-back."""

    def __init__(self, total_elements: int, dtype=np.float64):
        self.slab = np.empty(int(total_elements), dtype=dtype)
        self.offsets: list[int] = []
        self.shapes: list[tuple[int, ...]] = []
        self._used = 0
        self._uniform: bool | None = None

    def place(self, shape) -> np.ndarray:
        """Carve the next member off the slab as a shaped view."""
        n = math.prod(int(s) for s in shape)
        if self._used + n > self.slab.size:
            raise ValueError(
                f"arena overflow: {self._used} + {n} > {self.slab.size}")
        view = self.slab[self._used:self._used + n].reshape(tuple(shape))
        self.offsets.append(self._used)
        self.shapes.append(tuple(int(s) for s in shape))
        self._used += n
        self._uniform = None
        return view

    # -- whole-slab access (--batch) -------------------------------------------

    @property
    def member_count(self) -> int:
        return len(self.offsets)

    @property
    def uniform(self) -> bool:
        """True when every placed member has the same frame shape, so the
        slab admits a stacked (P, f0, f1) view.  Ragged levels (mixed
        patch sizes) are non-uniform and fall back to the per-patch path.
        Cached: membership only changes through :meth:`place`, and the
        stacked transfer planner asks per region."""
        if self._uniform is None:
            self._uniform = bool(self.shapes) and all(
                s == self.shapes[0] for s in self.shapes[1:])
        return self._uniform

    def stacked_view(self) -> np.ndarray:
        """The whole slab as one (P, f0, f1) array, members on axis 0.

        Member ``i`` of the stack aliases exactly the view ``place``
        returned for member ``i`` — a free reshape of the contiguous
        slab prefix, no copy.
        """
        if not self.uniform:
            raise ValueError("stacked view needs a uniform arena")
        shape = self.shapes[0]
        n = self.member_count
        return self.slab[:n * math.prod(shape)].reshape((n,) + shape)

    def interior_mask(self, ghosts: int) -> np.ndarray:
        """Boolean (P, f0, f1) mask, True on each member's interior.

        The interior is the frame minus ``ghosts`` layers on every edge
        of the trailing two axes — the region masked reductions and
        diagnostics over a stacked view should consider.
        """
        mask = np.zeros(self.stacked_view().shape, dtype=bool)
        g = int(ghosts)
        mask[:, g:mask.shape[1] - g, g:mask.shape[2] - g] = True
        return mask
