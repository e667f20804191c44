"""Many boxes at once: :class:`BoxArray`, its spatial index, and the
list-of-rows kernels :func:`claim` / :func:`coalesce`.

A :class:`~repro.mesh.box.Box` is one Python object per box, which is
the right value type at an API edge and the wrong one for anything done
to every patch of a level: schedule construction, nesting checks and
level allocation used to build tens of thousands of ``Box`` /
``IntVector`` temporaries per regrid.  A ``BoxArray`` holds ``N`` boxes
as one ``(N, 2, dim)`` integer array -- ``[:, 0]`` the lower corners,
``[:, 1]`` the upper, both inclusive -- with the box calculus as
whole-array operations, and answers "which boxes meet this one?" from a
uniform-bin spatial hash instead of a scan (AMReX's ``BoxArray`` and
``BoxArray::intersections``, arXiv:2009.12009).

Every operation matches the per-``Box`` method of the same name row for
row, including how empty boxes propagate (``tests/test_box_array.py``
pins it), and every query returns indices in ascending order: code that
walks the results visits boxes in the order a scan over ``Box`` objects
would have, which is what keeps the transfer schedules built from them
identical.  A ``BoxArray`` is immutable; the hash, the list of ``Box``
objects and the corner rows are each built on first use and kept.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .box import Box, cells, cut, meet

__all__ = ["BoxArray", "box_points", "claim", "coalesce"]


# -- lists of corner rows ---------------------------------------------------------
#
# The order-dependent part of the calculus -- subtract a sequence of
# boxes from a region, keeping what each one took -- runs on rows
# (:mod:`repro.mesh.box`), so it builds no ``Box`` until a result is
# handed out.


def claim(rows: list, takers, claimed: list | None = None) -> list:
    """What is left of ``rows`` after each taker, in order, has removed
    its overlap with every remaining row.

    ``takers`` yields ``(key, lower, upper)``; every overlap removed is
    appended to ``claimed`` as ``(key, lower, upper)`` -- taker by taker,
    and for one taker in the order of the rows it met.
    """
    for key, tlo, thi in takers:
        if not rows:
            break
        nxt = []
        for lo, hi in rows:
            overlap = meet(lo, hi, tlo, thi)
            if overlap is None:
                nxt.append((lo, hi))
            else:
                if claimed is not None:
                    claimed.append((key, *overlap))
                nxt.extend(cut(lo, hi, *overlap))
        rows = nxt
    return rows


def coalesce(rows: list) -> list:
    """Greedily merge rows that tile a larger box exactly: repeatedly the
    first pair (in list order) whose bounding box has the pair's cell
    count, the merged box taking the first one's place."""
    rows = list(rows)
    while True:
        for i, j in itertools.combinations(range(len(rows)), 2):
            (alo, ahi), (blo, bhi) = rows[i], rows[j]
            lo, hi = tuple(map(min, alo, blo)), tuple(map(max, ahi, bhi))
            if cells(lo, hi) == cells(alo, ahi) + cells(blo, bhi):
                rows[i] = (lo, hi)
                del rows[j]
                break
        else:
            return rows


class BoxArray:
    """``N`` boxes of one dimension, struct-of-arrays."""

    __slots__ = ("corners", "pair_tests", "_boxes", "_rows", "_hash")

    def __init__(self, corners):
        """``corners``: anything ``(N, 2, dim)``-shaped of integers (copied)."""
        corners = np.array(corners, dtype=np.int64)
        if corners.ndim != 3 or corners.shape[1] != 2 or corners.shape[2] < 1:
            raise ValueError(
                f"BoxArray needs (N, 2, dim) corners, got {corners.shape}")
        self._adopt(corners)

    def _adopt(self, corners: np.ndarray) -> "BoxArray":
        self.corners = corners
        #: candidate pairs the spatial index has tested exactly, so far
        #: (what a scan would count as ``len(self)`` per query)
        self.pair_tests = 0
        self._boxes = self._rows = self._hash = None
        return self

    @classmethod
    def _of(cls, corners: np.ndarray) -> "BoxArray":
        """Wrap a fresh, well-formed corner array without copying it."""
        return cls.__new__(cls)._adopt(corners)

    @classmethod
    def from_boxes(cls, boxes: Sequence[Box], dim: int = 2) -> "BoxArray":
        """The array form of a sequence of boxes of one dimension
        (``dim`` only matters when there are none)."""
        boxes = list(boxes)
        if not boxes:
            return cls._of(np.zeros((0, 2, dim), dtype=np.int64))
        if any(b.dim != boxes[0].dim for b in boxes):
            raise ValueError("boxes of different dimension in one BoxArray")
        out = cls._of(np.array([(b.lower, b.upper) for b in boxes],
                               dtype=np.int64))
        out._boxes = boxes
        return out

    # -- the boxes, one at a time -----------------------------------------------

    def __len__(self) -> int:
        return len(self.corners)

    @property
    def dim(self) -> int:
        return self.corners.shape[2]

    @property
    def lower(self) -> np.ndarray:
        return self.corners[:, 0]

    @property
    def upper(self) -> np.ndarray:
        return self.corners[:, 1]

    def boxes(self) -> list[Box]:
        """Every row as a :class:`Box` (built once; do not mutate)."""
        if self._boxes is None:
            self._boxes = [Box(lo, hi) for lo, hi in self.rows()]
        return self._boxes

    def rows(self) -> list[tuple[tuple, tuple]]:
        """Every row as ``(lower, upper)`` tuples of ints, for the
        corner-row kernels of :mod:`repro.mesh.box` (built once)."""
        if self._rows is None:
            self._rows = [(tuple(lo), tuple(hi))
                          for lo, hi in self.corners.tolist()]
        return self._rows

    def take(self, index) -> "BoxArray":
        """The rows ``index`` selects (an index array or a mask)."""
        return BoxArray._of(self.corners[index])

    # -- whole-array calculus (each matches the ``Box`` method, per row) ---------

    def is_empty(self) -> np.ndarray:
        return (self.upper < self.lower).any(axis=1)

    def _canonical(self, corners: np.ndarray, empty: np.ndarray) -> "BoxArray":
        """``corners`` with the rows ``empty`` marks replaced by the
        canonical empty box, as the ``Box`` methods return it."""
        if empty.any():
            corners[empty, 0] = 0
            corners[empty, 1] = -1
        return BoxArray._of(corners)

    def shape(self) -> np.ndarray:
        """``(N, dim)`` extents; all zero for an empty row."""
        extent = self.upper - self.lower + 1
        extent[self.is_empty()] = 0
        return extent

    def grow(self, width) -> "BoxArray":
        width = np.broadcast_to(np.asarray(width, dtype=np.int64), self.dim)
        return BoxArray._of(self.corners + np.stack([-width, width]))

    def grow_upper(self, width) -> "BoxArray":
        corners = self.corners.copy()
        corners[:, 1] += np.asarray(width, dtype=np.int64)
        return BoxArray._of(corners)

    def coarsen(self, ratio) -> "BoxArray":
        return self._canonical(
            self.corners // np.asarray(ratio, dtype=np.int64), self.is_empty())

    def _other(self, other) -> np.ndarray:
        """Corners of a ``Box`` (one row, broadcasting) or a ``BoxArray``."""
        corners = (other.corners if isinstance(other, BoxArray)
                   else np.array([[other.lower, other.upper]], dtype=np.int64))
        if corners.shape[2] != self.dim:
            raise ValueError(
                f"dimension mismatch: {self.dim} vs {corners.shape[2]}")
        return corners

    def intersect(self, other: "Box | BoxArray") -> "BoxArray":
        """Row-wise intersection with a box, or with the same row of
        another array."""
        theirs = self._other(other)
        corners = np.stack([np.maximum(self.lower, theirs[:, 0]),
                            np.minimum(self.upper, theirs[:, 1])], axis=1)
        return self._canonical(corners,
                               (corners[:, 1] < corners[:, 0]).any(axis=1))

    def intersects(self, other: "Box | BoxArray") -> np.ndarray:
        theirs = self._other(other)
        return ((np.maximum(self.lower, theirs[:, 0])
                 <= np.minimum(self.upper, theirs[:, 1])).all(axis=1))

    def contains(self, other: "Box | BoxArray") -> np.ndarray:
        """Does each row contain ``other`` (its row of it)?  An empty box
        is contained in anything (``Box.contains_box``)."""
        theirs = self._other(other)
        return ((theirs[:, 1] < theirs[:, 0]).any(axis=1)
                | ((self.lower <= theirs[:, 0]).all(axis=1)
                   & (theirs[:, 1] <= self.upper).all(axis=1)))

    def subtract(self, other: "Box | BoxArray") -> tuple[np.ndarray, "BoxArray"]:
        """Row-wise set difference (:func:`~repro.mesh.box.cut`'s sweep
        decomposition) for every row at once: ``(which, pieces)`` with
        the pieces of row ``which[k]`` in sweep order and rows in order."""
        inter = self.intersect(other)
        hit = ~inter.is_empty()
        n, dim = len(self), self.dim
        lo, hi = self.lower.copy(), self.upper.copy()
        # slot 0: the row itself when nothing is taken from it; then per
        # axis the slab below and the slab above the overlap
        slabs = np.empty((n, 1 + 2 * dim, 2, dim), dtype=np.int64)
        keep = np.zeros((n, 1 + 2 * dim), dtype=bool)
        slabs[:, 0] = self.corners
        keep[:, 0] = ~hit & ~self.is_empty()
        for axis in range(dim):
            ilo, ihi = inter.lower[:, axis], inter.upper[:, axis]
            below, above = slabs[:, 1 + 2 * axis], slabs[:, 2 + 2 * axis]
            below[:, 0], below[:, 1] = lo, hi
            below[:, 1, axis] = ilo - 1
            keep[:, 1 + 2 * axis] = hit & (lo[:, axis] < ilo)
            lo[hit, axis] = ilo[hit]
            above[:, 0], above[:, 1] = lo, hi
            above[:, 0, axis] = ihi + 1
            keep[:, 2 + 2 * axis] = hit & (hi[:, axis] > ihi)
            hi[hit, axis] = ihi[hit]
        which, slot = np.nonzero(keep)
        return which, BoxArray._of(slabs[which, slot])

    # -- the spatial index ---------------------------------------------------------

    def _bins(self):
        """The uniform-bin hash, built once: every nonempty row is filed
        under the bin of its lower corner, bins being as wide as the
        widest row -- so a row can only meet a query from the bins the
        query touches and their lower neighbours.  Rows are kept sorted
        by (bin, row); only occupied bins cost memory."""
        if self._hash is None:
            rows = np.flatnonzero(~self.is_empty())
            lower = self.lower[rows]
            if len(rows):
                width = (self.upper[rows] - lower + 1).max(axis=0)
                origin = lower.min(axis=0)
                cell = (lower - origin) // width
                grid = cell.max(axis=0) + 1
                key = np.ravel_multi_index(tuple(cell.T), tuple(grid))
                order = np.argsort(key, kind="stable")
                rows, key = rows[order], key[order]
            else:
                width = origin = grid = np.ones(self.dim, dtype=np.int64)
                key = rows
            self._hash = (width, origin, grid, key, rows)
        return self._hash

    def pairs(self, queries: "BoxArray") -> tuple[np.ndarray, np.ndarray]:
        """Every (query, row) pair that intersects, as two index arrays
        sorted by query, then row."""
        if queries.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {queries.dim}")
        width, origin, grid, keys, rows = self._bins()
        # the bins a row meeting the query can have been filed under
        reach = np.stack(
            [np.maximum((queries.lower - origin - width + 1) // width, 0),
             np.minimum((queries.upper - origin) // width, grid - 1)], axis=1)
        reach[queries.is_empty(), 1] = -1
        query, cell = box_points(reach)
        probe = np.ravel_multi_index(tuple(cell), tuple(grid))
        first = np.searchsorted(keys, probe, side="left")
        count = np.searchsorted(keys, probe, side="right") - first
        query = np.repeat(query, count)
        ends = np.cumsum(count)
        row = rows[np.arange(len(query)) - np.repeat(ends - count, count)
                   + np.repeat(first, count)]
        self.pair_tests += len(query)
        hit = queries.take(query).intersects(self.take(row))
        query, row = query[hit], row[hit]
        order = np.lexsort((row, query))
        return query[order], row[order]

    def neighbours(self, queries: "BoxArray") -> list[list[int]]:
        """For every query box, the rows that intersect it, ascending."""
        query, row = self.pairs(queries)
        ends = np.cumsum(np.bincount(query, minlength=len(queries))).tolist()
        row = row.tolist()
        return [row[lo:hi] for lo, hi in zip([0] + ends, ends)]

    def claims(self, queries: "BoxArray") -> list[tuple[list, list]]:
        """For every query box, ``(taken, left)``: the rows that meet it
        take their overlap in ascending order, each from what the earlier
        ones left (:func:`claim`).  ``taken`` lists
        ``(row index, lower, upper)`` per overlap, ``left`` the corner
        rows nobody took.  The order-dependent step of schedule
        construction, run over each query's few neighbours only."""
        rows = self.rows()
        out = []
        for row, near, empty in zip(queries.rows(), self.neighbours(queries),
                                    queries.is_empty().tolist()):
            taken: list = []
            left = [] if empty else claim(
                [row], [(i, *rows[i]) for i in near], taken)
            out.append((taken, left))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BoxArray({self.corners.tolist()})"


def box_points(boxes) -> tuple[np.ndarray, list[np.ndarray]]:
    """Every index of every box as arrays: ``(which, coords)``.

    ``boxes`` is a sequence of :class:`Box` or an ``(N, 2, dim)`` corner
    array (a ``BoxArray``'s).  Boxes in order, row-major within a box
    (the order a C-order ravel of ``slices_in`` visits); ``which[p]`` is
    the position in ``boxes`` of the box point ``p`` belongs to and
    ``coords[axis][p]`` its index along ``axis``.
    Empty boxes contribute nothing.  This is the one place a list of
    regions turns into its points, for code that then works on all
    regions at once.
    """
    if isinstance(boxes, np.ndarray):
        corners = boxes.astype(np.intp, copy=False)
    elif not boxes:
        none = np.zeros(0, dtype=np.intp)
        return none, [none, none]
    else:
        corners = np.array([(b.lower, b.upper) for b in boxes], dtype=np.intp)
    lower = corners[:, 0]
    shape = np.maximum(corners[:, 1] - lower + 1, 0)
    sizes = shape.prod(axis=1)
    which = np.repeat(np.arange(len(corners), dtype=np.intp), sizes)
    ends = np.cumsum(sizes)
    rest = np.arange(sizes.sum(), dtype=np.intp) - (ends - sizes)[which]
    coords = [None] * corners.shape[2]
    for axis in range(len(coords) - 1, -1, -1):
        extent = shape[which, axis]
        coords[axis] = lower[which, axis] + rest % extent
        rest = rest // extent
    return which, coords
