"""Many boxes at once: :class:`BoxArray`, its spatial index, and the
list-of-rows kernel :func:`coalesce`.

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

from .box import Box, cells

__all__ = ["BoxArray", "box_points", "coalesce"]


# -- a list of corner rows ----------------------------------------------------------


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
        """Row-wise set difference for every row at once (:func:`_cut`):
        ``(which, pieces)`` with the pieces of row ``which[k]`` in sweep
        order and rows in order."""
        inter = self.intersect(other)
        hit = ~inter.is_empty()
        which, pieces = _cut(self.corners, inter.corners, hit)
        keep = hit[which] | ~self.is_empty()[which]
        return which[keep], BoxArray._of(pieces[keep])

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

    def claims(self, queries: "BoxArray") -> tuple[tuple, tuple]:
        """For every query box, the rows that meet it take their overlap in
        ascending order, each from what the earlier ones left -- the
        order-dependent step of schedule construction, run for all queries
        at once, one pass per candidate rank over each query's few
        neighbours only.

        Returns ``((query, row, taken), (query, left))``: per overlap taken
        the query, the taking row and its corners, sorted by query, then
        taker, then the order of the pieces it met (a sequential scan's
        order); per piece nobody took its query and corners, in the order
        the scan leaves them.  Pieces are ``(K, 2, dim)`` corner arrays."""
        query, row = self.pairs(queries)
        count = np.bincount(query, minlength=len(queries))
        first = np.cumsum(count) - count
        # what is left of each query still to meet a candidate: its
        # pieces, grouped by query in order; a query's pieces are done
        # together, once it has met all its candidates
        live = np.flatnonzero(~queries.is_empty())
        active = count[live] > 0
        done = [(live[~active], queries.corners[live[~active]])]
        left_q, left = live[active], queries.corners[live[active]]
        got = []  # per candidate rank: (query, row, corners)
        k = 0
        while len(left_q):
            taker = row[first[left_q] + k]
            other = self.corners[taker]
            overlap = np.stack([np.maximum(left[:, 0], other[:, 0]),
                                np.minimum(left[:, 1], other[:, 1])], axis=1)
            hit = (overlap[:, 0] <= overlap[:, 1]).all(axis=1)
            if hit.any():
                got.append((left_q[hit], taker[hit], overlap[hit]))
                which, left = _cut(left, overlap, hit)
                left_q = left_q[which]
            k += 1
            finished = count[left_q] <= k
            if finished.any():
                done.append((left_q[finished], left[finished]))
                left_q, left = left_q[~finished], left[~finished]
        if got:  # grouped by query, each query's overlaps kept in turn
            tq, trow, taken = (np.concatenate(col) for col in zip(*got))
            order = np.argsort(tq, kind="stable")
            tq, trow, taken = tq[order], trow[order], taken[order]
        else:
            tq = trow = np.zeros(0, dtype=np.intp)
            taken = np.zeros((0, 2, self.dim), dtype=np.int64)
        left_q, left = (np.concatenate(col) for col in zip(*done))
        order = np.argsort(left_q, kind="stable")
        return (tq, trow, taken), (left_q[order], left[order])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BoxArray({self.corners.tolist()})"


def _cut(corners: np.ndarray, overlap: np.ndarray,
         hit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``corners`` minus its row of ``overlap`` where ``hit``
    (a nonempty overlap inside the row), else the row itself:
    ``(which, pieces)``, the pieces of row ``which[k]`` in sweep order
    -- slabs peeled off axis by axis, the one below the overlap before
    the one above it -- and rows in order."""
    n, dim = len(corners), corners.shape[2]
    lo, hi = corners[:, 0].copy(), corners[:, 1].copy()
    # slot 0: the row itself when nothing is taken from it; then per
    # axis the slab below and the slab above the overlap
    slabs = np.empty((n, 1 + 2 * dim, 2, dim), dtype=np.int64)
    keep = np.zeros((n, 1 + 2 * dim), dtype=bool)
    slabs[:, 0] = corners
    keep[:, 0] = ~hit
    for axis in range(dim):
        ilo, ihi = overlap[:, 0, axis], overlap[:, 1, axis]
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
    return which, slabs[which, slot]


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
