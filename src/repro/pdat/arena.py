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
from functools import partial

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
        return self.place_all(((tuple(int(s) for s in shape), 1),))[0]

    def place_all(self, runs) -> list["ArenaSlice"]:
        """Carve ``count`` members of each ``(shape, count)`` run off the
        slab (``shape`` a tuple of ints), in order, in one pass: each run
        is one bucket, or extends the last one if it has its shape."""
        members = []
        used = self._used
        for shape, count in runs:
            size = math.prod(shape)
            if used + size * count > self.slab.size:
                raise ValueError(f"arena overflow: {used} + {size * count}"
                                 f" > {self.slab.size}")
            first = len(self.offsets)
            if self.buckets and self.buckets[-1][2] == shape:
                start, n, _ = self.buckets[-1]
                self.buckets[-1] = (start, n + count, shape)
            else:
                self.buckets.append((first, count, shape))
            self.bucket_of += [len(self.buckets) - 1] * count
            offsets = range(used, used + size * count, size)
            self.offsets += offsets
            self.shapes += [shape] * count
            members += map(partial(ArenaSlice, self, shape=shape, size=size),
                           offsets, range(first, first + count))
            self._used = used = used + size * count
            self._live += count
        self._layout = None
        return members

    def _release(self) -> None:
        self._live -= 1
        if self._live == 0:
            self.slab.free()

    # -- whole-slab access ------------------------------------------------------

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
        Without ``bucket``: the whole slab, which needs a uniform arena
        (one bucket: every member has the same frame shape)."""
        if bucket is None:
            if len(self.buckets) != 1:
                raise ValueError("stacked view needs a uniform arena")
            bucket = 0
        first, n, shape = self.buckets[bucket]
        lo = self.offsets[first]
        return self.flat()[lo:lo + n * math.prod(shape)].reshape(
            (n,) + shape)

    def fill(self, value: float) -> None:
        """Set every member to ``value``: one uncharged host write over
        the whole slab (:meth:`~repro.pdat.space.HostSpace.host_write`).
        Level construction charges the per-member ``pdat.fill`` launches
        this stands for from a :class:`~repro.gpu.ledger.ChargeLedger`."""
        self.space.host_write(lambda: self.slab.kernel_view().fill(value))

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

    def __init__(self, arena: Arena, offset: int, index: int, *,
                 shape: tuple, size: int):
        self.arena = arena
        self.offset = offset
        self.shape = shape
        self.dtype = arena.slab.dtype
        self.size = size
        self.nbytes = size * self.dtype.itemsize
        #: position of this member on the stacked view's leading axis
        self.index = index
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
