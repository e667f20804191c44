"""Compiled transfers: lists of regions as flat indices into arena slabs.

An arena member is ``offset + C-order ravel`` of its arena's flat slab
(:mod:`repro.pdat.arena`), so a region of a member — any region, of a
member of any shape — is an integer index array into that slab.  A batch
of region copies between two arenas is then one assignment
``dst_flat[dst_index] = src_flat[src_index]``, and a batch packed into or
unpacked from a message stream one gather or scatter, however ragged the
level.  Patch data allocated on its own (a hand-built item list) is a
one-member store of its own buffer, so every transfer runs by flat index.

:func:`compile_copies` / :func:`compile_stream` turn item lists into
:class:`CopyPlan` / :class:`StreamPlan`; the transfer bodies in
:mod:`repro.exec.backend` run plans only.  An ad-hoc caller's list is
compiled on the way in and dropped; a transfer schedule compiles once,
keeps the plan, and hands the same object in on every replay
(:mod:`repro.xfer.fill_plan`, :mod:`repro.xfer.coarsen_schedule`).
Plans reach storage only through a store's ``flat()`` (an arena, a
``Scratch`` slab, a buffer) inside a launch, so the memory-space and
use-after-free checks of a slab apply to every replay.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from ..mesh.box_array import box_points

__all__ = ["CopyPlan", "StreamPlan", "Scratch", "ScratchBlock", "Lazy",
           "declared",
           "compile_copies", "compile_stream", "flat_index", "ravel_index",
           "store_of", "level_arenas", "member_frames", "UnpooledLevelError"]


class Lazy:
    """A re-iterable over ``make(*args)``: an item list or a declaration
    (scratch tokens, patch data) generated only when something — the
    sanitizer, the graph recorder, a backend charging its operands —
    walks it.  The first item, what selects a transfer's backend, is
    kept once asked for."""

    __slots__ = ("make", "args", "_first")

    def __init__(self, make, *args):
        self.make = make
        self.args = args
        self._first = None

    def __iter__(self):
        return self.make(*self.args)

    def __getitem__(self, i):
        if i:
            return next(islice(iter(self), i, None))
        if self._first is None:
            self._first = next(iter(self))
        return self._first


def ravel_index(offsets, lowers, shapes, which, coords) -> np.ndarray:
    """Flat index of points inside C-order blocks of one flat array.

    Block ``b`` starts at ``offsets[b]`` and covers the index box with
    lower corner ``lowers[b]`` and extents ``shapes[b]``; point ``p`` lies
    in block ``which[p]`` at ``coords[axis][p]``.  Raises ``IndexError``
    when a point leaves its block — out-of-frame access is always a bug.
    """
    lowers = np.asarray(lowers, dtype=np.intp).reshape(len(offsets), -1)
    shapes = np.asarray(shapes, dtype=np.intp).reshape(len(offsets), -1)
    index = np.asarray(offsets, dtype=np.intp)[which]
    stride = 1
    for axis in range(lowers.shape[1] - 1, -1, -1):
        extent = shapes[which, axis]
        rel = coords[axis] - lowers[which, axis]
        if ((rel < 0) | (rel >= extent)).any():
            raise IndexError("region not contained in its storage frame")
        index += rel * stride
        stride = stride * extent
    return index


def flat_index(pds, which, coords) -> np.ndarray:
    """Flat index into :func:`store_of` of points of patch data: point
    ``p`` is index ``coords[:, p]`` of ``pds[which[p]]``."""
    return ravel_index([0 if pd._arena is None else pd.data.buf.offset
                        for pd in pds],
                       [pd.data.frame.lower for pd in pds],
                       [pd.data.buf.shape for pd in pds], which, coords)


def member_frames(level, var) -> tuple:
    """``(offsets, lowers, shapes)``: per patch of an arena-pooled
    ``level``, where its data of ``var`` starts in its owner's arena and
    the frame it covers -- the blocks :func:`ravel_index` takes, so any
    points of any patches of the level are one call."""
    frames = level.frames(var)
    offsets = np.fromiter((p.data(var.name).data.buf.offset
                           for p in level.patches), np.intp, len(level))
    return offsets, frames.lower, frames.shape()


def store_of(pd):
    """The store ``pd`` is a member of: its arena, or, for patch data
    allocated on its own, its own buffer (the one member, at offset 0)."""
    return pd._arena if pd._arena is not None else pd.data.buf


class UnpooledLevelError(ValueError):
    """A compiled transfer was asked of a level allocated per patch."""


def level_arenas(level, name: str) -> dict:
    """``{owner: arena}`` of one variable on a level (kept in the level's
    ``arena_cache`` until a patch's data is set or freed).  Raises
    :class:`UnpooledLevelError` unless every patch's data is a member of
    its owner's one arena (what level allocation gives)."""
    arenas = level.arena_cache.get(name)
    if arenas is not None:
        return arenas
    arenas = {}
    for patch in level:
        arena = patch.data(name)._arena
        if arena is None or arenas.setdefault(patch.owner, arena) is not arena:
            raise UnpooledLevelError(
                f"level {level.level_number} holds {name!r} on patch "
                f"{patch.global_id} outside its owner's arena: a compiled "
                f"transfer needs levels allocated by PatchLevel.allocate_all")
    level.arena_cache[name] = arenas
    return arenas


class _Plan:
    """An item list in compiled form.  Iterates and indexes as the items
    it was compiled from, so the sink verbs that declare reads, writes
    and halo marks from an item list take a plan unchanged."""

    __slots__ = ("items", "count", "total", "groups", "_columns")

    def __init__(self, items, count: int, total: int, groups, operands=None):
        #: the items, re-iterable (a schedule passes a lazy view: nothing
        #: but the sanitizer and the graph recorder ever walks them)
        self.items = items
        #: number of items / of elements they cover
        self.count = count
        self.total = total
        #: flat-index work, one entry per store (pair)
        self.groups = groups
        #: the items without their regions to take :meth:`column` from
        #: (None: the items), then the columns
        self._columns = operands

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, i):
        return self.items[i]

    def column(self, i: int) -> tuple:
        """The distinct operands at item position ``i`` (a copy's
        destinations 0 and sources 1; a stream's patch data 0), in first
        use order: what the transfer declares it writes or reads.  Made
        once, from the operands a schedule hands in (items whose regions
        are None, no box built) or else from the items."""
        if not isinstance(self._columns, tuple):
            seen: list = []
            for item in self.items if self._columns is None else self._columns:
                seen = seen or [{} for _ in item[:-1]]
                for k, operand in enumerate(item[:-1]):
                    seen[k][operand] = None
            self._columns = tuple(tuple(col) for col in seen)
        return self._columns[i]


class CopyPlan(_Plan):
    """``(dst_pd, src_pd, region)`` copies: ``groups`` holds
    ``(dst store, src store, dst_index, src_index)``, a store being
    anything with ``flat()`` (an arena, a scratch segment)."""

    __slots__ = ()


class StreamPlan(_Plan):
    """``(pd, region)`` items packed back to back: ``groups`` holds
    ``(store, index, where)`` with ``where`` the slice (or index array)
    of the contiguous stream the store's elements occupy."""

    __slots__ = ()


def declared(items, position: int):
    """What a transfer of ``items`` declares at item ``position``: a
    plan's distinct operands (:meth:`_Plan.column`), or every item's of a
    plain list."""
    if isinstance(items, _Plan):
        return items.column(position)
    return [item[position] for item in items]


def compile_copies(items) -> CopyPlan:
    """The plan of a ``(dst_pd, src_pd, region)`` list (or the plan
    itself, if handed one)."""
    if isinstance(items, CopyPlan):
        return items
    items = list(items)
    pairs: dict = {}
    for item in items:
        pairs.setdefault((store_of(item[0]), store_of(item[1])),
                         []).append(item)
    groups = []
    for (dst, src), members in pairs.items():
        which, coords = box_points([region for _, _, region in members])
        groups.append((dst, src,
                       flat_index([d for d, _, _ in members], which, coords),
                       flat_index([s for _, s, _ in members], which, coords)))
    return CopyPlan(items, len(items),
                    sum(region.size() for _, _, region in items), groups)


def compile_stream(items) -> StreamPlan:
    """The plan of a ``(pd, region)`` pack/unpack list (or the plan
    itself, if handed one); stream offsets follow item order."""
    if isinstance(items, StreamPlan):
        return items
    items = list(items)
    stores: dict = {}
    offset = 0
    for pd, region in items:
        pds, regions, offsets = stores.setdefault(store_of(pd), ([], [], []))
        pds.append(pd)
        regions.append(region)
        offsets.append(offset)
        offset += region.size()
    groups = []
    for store, (pds, regions, offsets) in stores.items():
        which, coords = box_points(regions)
        index = flat_index(pds, which, coords)
        sizes = np.bincount(which, minlength=len(regions))
        starts = np.asarray(offsets, dtype=np.intp)
        if np.array_equal(starts[1:], starts[:-1] + sizes[:-1]):
            where = slice(offsets[0], offsets[0] + len(index))
        else:
            where = (np.arange(len(index), dtype=np.intp)
                     + (starts - (np.cumsum(sizes) - sizes))[which])
        groups.append((store, index, where))
    return StreamPlan(items, len(items), offset, groups)


class ScratchBlock:
    """One (region, variable) coarse block of a :class:`Scratch` slab, as
    a dependency and declaration token: what tasks read and write, what
    the sanitizer names, what selects the backend, what the non-resident
    ablation charges per launch."""

    __slots__ = ("var_name", "nbytes", "space")

    def __init__(self, var_name: str, nbytes: int, space):
        self.var_name = var_name
        self.nbytes = nbytes
        self.space = space


class Scratch:
    """Coarse blocks back to back in one allocation, ``slab``: one rank's
    interpolation scratch for one fill unit, or the coarsened blocks one
    sync ship carries.

    A scratch is a store, and so are its segments; both reach the slab
    only when a launch asks for ``flat()``.  So a recorded graph binds
    the scratch, not an allocation: :meth:`renew` gives it a fresh slab
    of the same size, and every task that uses it runs on that slab."""

    __slots__ = ("space", "size", "slab")

    def __init__(self, space, size: int):
        self.space = space
        self.size = int(size)
        self.slab = None
        self.renew()

    def renew(self) -> None:
        """Allocate the slab (again: the last one must have been freed)."""
        self.slab = self.space.empty((self.size,))

    def flat(self) -> np.ndarray:
        return self.slab.flat()

    def segment(self, lo: int, hi: int) -> "_Segment":
        return _Segment(self, lo, hi)

    def free(self) -> None:
        self.slab.free()


class _Segment:
    """A contiguous element range of a scratch, as a store."""

    __slots__ = ("scratch", "lo", "hi")

    def __init__(self, scratch: Scratch, lo: int, hi: int):
        self.scratch = scratch
        self.lo = lo
        self.hi = hi

    def flat(self) -> np.ndarray:
        return self.scratch.slab.kernel_view()[self.lo:self.hi]
