"""Patch arenas: one pooled allocation per (level, rank, variable).

The per-patch allocation style gives every field of every patch its own
buffer; a level with hundreds of small boxes means hundreds of small
allocations, and fused launches over them still hop between scattered
buffers.  An :class:`Arena` instead lays out one variable's storage for
*every local patch of a level* contiguously in a single slab of its memory
space, with per-patch offsets — AMReX's MultiFab layout, and the substrate
the fused-launch path in :mod:`repro.exec.batch` runs over.

Each member is an :class:`ArenaSlice` exposing the buffer protocol over
its segment, so ``ArrayData`` and every kernel body work unchanged on
arena-backed storage.  Lifetime: patches free their data individually
(regrid calls ``Patch.free_all`` per patch), so the slab is released only
when the last live slice is freed; freed slices raise on access.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Arena", "ArenaSlice"]


class Arena:
    """One slab in ``space`` holding many patch frames back-to-back."""

    def __init__(self, space, total_elements: int, dtype=np.float64):
        self.space = space
        self.slab = space.empty((int(total_elements),), dtype=dtype)
        self.offsets: list[int] = []
        self.shapes: list[tuple[int, ...]] = []
        self._used = 0
        self._live = 0
        self._uniform: bool | None = None

    def place(self, shape) -> "ArenaSlice":
        """Carve the next member off the slab as an :class:`ArenaSlice`."""
        n = math.prod(int(s) for s in shape)
        if self._used + n > self.slab.size:
            raise ValueError(
                f"arena overflow: {self._used} + {n} > {self.slab.size}")
        s = ArenaSlice(self, self._used, shape, index=len(self.offsets))
        self.offsets.append(self._used)
        self.shapes.append(s.shape)
        self._used += n
        self._live += 1
        self._uniform = None
        return s

    def _release(self) -> None:
        self._live -= 1
        if self._live == 0:
            self.slab.free()

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
        """The whole slab as one (P, f0, f1) array, members on axis 0:
        member ``i`` aliases slice ``i``'s ``kernel_view()`` (a free
        reshape of the contiguous slab prefix) under the same access
        discipline (on a device: only inside a launch or memcpy)."""
        if not self.uniform:
            raise ValueError("stacked view needs a uniform arena")
        shape = self.shapes[0]
        n = self.member_count
        flat = self.slab.kernel_view()
        return flat[:n * math.prod(shape)].reshape((n,) + shape)

    def interior_mask(self, ghosts: int) -> np.ndarray:
        """Boolean (P, f0, f1) host mask, True on each member's interior.

        The interior is the frame minus ``ghosts`` layers on every edge
        of the trailing two axes — the region masked reductions and
        diagnostics over a stacked view should consider.
        """
        if not self.uniform:
            raise ValueError("interior mask needs a uniform arena")
        mask = np.zeros((self.member_count,) + self.shapes[0], dtype=bool)
        g = int(ghosts)
        mask[:, g:mask.shape[1] - g, g:mask.shape[2] - g] = True
        return mask

    # -- whole-slab host staging (restart fast path) ---------------------------

    def to_host_slab(self) -> np.ndarray:
        """A host copy of the entire slab, flat (one charged D2H on a
        device); member ``i`` occupies ``[offsets[i], offsets[i] +
        prod(shapes[i]))``.  Works for ragged arenas too, unlike
        :meth:`stacked_view`: the restart layer checkpoints a whole
        (level, variable) arena in one transfer instead of one per patch."""
        return self.space.to_host(self.slab)

    def from_host_slab(self, host: np.ndarray) -> None:
        """Overwrite the entire slab from a flat host array (one H2D)."""
        self.space.memcpy_htod(self.slab, host)


class ArenaSlice:
    """A member segment of an :class:`Arena` slab.

    Same buffer protocol as the slab's own type: same attributes, same
    ``kernel_view`` access discipline, idempotent ``free``.
    """

    __slots__ = ("arena", "offset", "shape", "dtype", "nbytes", "size",
                 "index", "_freed")

    def __init__(self, arena: Arena, offset: int, shape, index: int = 0):
        self.arena = arena
        self.offset = int(offset)
        self.shape = tuple(int(s) for s in shape)
        self.dtype = arena.slab.dtype
        self.size = math.prod(self.shape)
        self.nbytes = self.size * self.dtype.itemsize
        #: position of this member on the stacked view's leading axis
        self.index = int(index)
        self._freed = False

    def kernel_view(self) -> np.ndarray:
        if self._freed:
            raise RuntimeError("use after free of ArenaSlice")
        flat = self.arena.slab.kernel_view()
        return flat[self.offset:self.offset + self.size].reshape(self.shape)

    def free(self) -> None:
        if not self._freed:
            self._freed = True
            self.arena._release()
