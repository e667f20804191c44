"""Patch arenas: one pooled allocation per (level, rank, variable).

Every level is allocated this way: rather than one buffer per field per
patch (hundreds of small allocations on a level of small boxes), an
:class:`Arena` lays out one variable's storage for *every local patch of
a level* contiguously in a single slab of its memory space, with
per-patch offsets — AMReX's MultiFab layout, and the substrate the fused
launches of :mod:`repro.exec.batch` and the compiled transfers of
:mod:`repro.exec.plan` run over.

Each member is an :class:`ArenaSlice` exposing the buffer protocol over
its segment, so ``ArrayData`` and every kernel body work unchanged on
arena-backed storage.  Consecutive members of one frame shape form a
*bucket* with its own stacked ``(n, f0, f1)`` view, so a level of mixed
patch sizes placed shape by shape runs one stacked op per shape; and
because a member is just ``offset + C-order ravel`` of the flat slab, any
region of any member is a flat index array (:mod:`repro.exec.plan`),
whatever the shapes.  Lifetime: patches free their data individually
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
        #: equal-shape runs of members, in placement order:
        #: ``(first member, member count, frame shape)``
        self.buckets: list[tuple[int, int, tuple[int, ...]]] = []
        #: member index -> position of its bucket in :attr:`buckets`
        self.bucket_of: list[int] = []
        self._used = 0
        self._live = 0
        self._layout: tuple | None = None

    def place(self, shape) -> "ArenaSlice":
        """Carve the next member off the slab as an :class:`ArenaSlice`."""
        n = math.prod(int(s) for s in shape)
        if self._used + n > self.slab.size:
            raise ValueError(
                f"arena overflow: {self._used} + {n} > {self.slab.size}")
        s = ArenaSlice(self, self._used, shape, index=len(self.offsets))
        if self.buckets and self.buckets[-1][2] == s.shape:
            first, count, _ = self.buckets[-1]
            self.buckets[-1] = (first, count + 1, s.shape)
        else:
            self.buckets.append((s.index, 1, s.shape))
        self.bucket_of.append(len(self.buckets) - 1)
        self.offsets.append(self._used)
        self.shapes.append(s.shape)
        self._used += n
        self._live += 1
        self._layout = None
        return s

    def _release(self) -> None:
        self._live -= 1
        if self._live == 0:
            self.slab.free()

    # -- whole-slab access ------------------------------------------------------

    @property
    def member_count(self) -> int:
        return len(self.offsets)

    @property
    def uniform(self) -> bool:
        """True when every placed member has the same frame shape: one
        bucket, so the whole slab is one stacked (P, f0, f1) view."""
        return len(self.buckets) == 1

    @property
    def layout(self) -> tuple:
        """Hashable member offsets and shapes: arenas with equal layouts
        share every flat index (one variable's compiled transfer indices
        serve all variables of its centring)."""
        if self._layout is None:
            self._layout = (tuple(self.offsets), tuple(self.shapes))
        return self._layout

    def flat(self) -> np.ndarray:
        """The slab as the flat array compiled transfers index, under the
        slab's access discipline (on a device: only inside a launch or
        memcpy; a released slab raises)."""
        return self.slab.kernel_view()

    def stacked_view(self, bucket: int | None = None) -> np.ndarray:
        """One bucket as an (n, f0, f1) array, members on axis 0: member
        ``i`` of the bucket aliases its slice's ``kernel_view()`` (a free
        reshape of a contiguous slab segment) under the same access
        discipline (on a device: only inside a launch or memcpy).
        Without ``bucket``: the whole slab, which needs a uniform arena."""
        if bucket is None:
            if not self.uniform:
                raise ValueError("stacked view needs a uniform arena")
            bucket = 0
        first, n, shape = self.buckets[bucket]
        lo = self.offsets[first]
        return self.flat()[lo:lo + n * math.prod(shape)].reshape(
            (n,) + shape)

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
