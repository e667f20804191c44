"""Integer index-space calculus: :class:`IntVector` and :class:`Box`.

These are the fundamental geometric primitives of block-structured AMR,
modelled on SAMRAI's ``hier::IntVector`` and ``hier::Box``.  A box is an
axis-aligned rectangle of *cell* indices with inclusive lower and upper
corners, living in the index space of one refinement level.

All operations are pure: boxes are immutable value types, cheap to hash and
compare, so they can be used as dictionary keys in overlap computations.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

__all__ = ["IntVector", "Box", "box_points"]


class IntVector(tuple):
    """A small integer vector used for ghost widths, ratios, and shifts.

    Behaves like a tuple but supports elementwise arithmetic, which keeps
    index manipulation in the schedules short and obviously correct.
    """

    __slots__ = ()

    def __new__(cls, *components: int | Iterable[int]) -> "IntVector":
        if len(components) == 1 and not isinstance(components[0], int):
            components = tuple(components[0])
        for c in components:
            if type(c) is not int:  # slow path: coerce numpy ints, etc.
                components = tuple(int(c) for c in components)
                break
        if not components:
            raise ValueError("IntVector needs at least one component")
        return super().__new__(cls, components)

    @classmethod
    def uniform(cls, value: int, dim: int = 2) -> "IntVector":
        """An IntVector with every component equal to ``value``."""
        return cls(*([value] * dim))

    @property
    def dim(self) -> int:
        return len(self)

    def _binary(self, other, op) -> "IntVector":
        if isinstance(other, int):
            other = (other,) * len(self)
        if len(other) != len(self):
            raise ValueError(f"dimension mismatch: {self} vs {other}")
        return IntVector(*(op(a, int(b)) for a, b in zip(self, other)))

    def __add__(self, other) -> "IntVector":
        return self._binary(other, lambda a, b: a + b)

    def __radd__(self, other) -> "IntVector":
        return self.__add__(other)

    def __sub__(self, other) -> "IntVector":
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other) -> "IntVector":
        return self._binary(other, lambda a, b: b - a)

    def __mul__(self, other) -> "IntVector":
        return self._binary(other, lambda a, b: a * b)

    def __rmul__(self, other) -> "IntVector":
        return self.__mul__(other)

    def __floordiv__(self, other) -> "IntVector":
        return self._binary(other, lambda a, b: a // b)

    def __neg__(self) -> "IntVector":
        return IntVector(*(-a for a in self))

    def min(self) -> int:
        return min(self)

    def max(self) -> int:
        return max(self)

    def product(self) -> int:
        out = 1
        for a in self:
            out *= a
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"IntVector{tuple(self)}"


def _coarsen_index(i: int, ratio: int) -> int:
    """Coarsen a single cell index (floor division valid for negatives)."""
    return i // ratio


class Box:
    """An axis-aligned box of cell indices, inclusive at both corners.

    An *empty* box is represented by any box with ``upper < lower`` in some
    direction; :meth:`empty` constructs a canonical one.  Empty boxes
    propagate sanely through intersections.
    """

    __slots__ = ("lower", "upper", "_empty")

    def __init__(self, lower: Sequence[int], upper: Sequence[int]):
        self.lower = lower if type(lower) is IntVector else IntVector(lower)
        self.upper = upper if type(upper) is IntVector else IntVector(upper)
        if len(self.lower) != len(self.upper):
            raise ValueError("lower/upper dimension mismatch")
        self._empty = any(u < l for l, u in zip(self.lower, self.upper))

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, dim: int = 2) -> "Box":
        return cls([0] * dim, [-1] * dim)

    @classmethod
    def from_shape(cls, shape: Sequence[int], origin: Sequence[int] | None = None) -> "Box":
        """A box of ``shape`` cells with its lower corner at ``origin``."""
        origin = IntVector(origin) if origin is not None else IntVector.uniform(0, len(shape))
        return cls(origin, origin + IntVector(shape) - IntVector.uniform(1, len(shape)))

    # -- basic queries -----------------------------------------------------

    @property
    def dim(self) -> int:
        return self.lower.dim

    def is_empty(self) -> bool:
        return self._empty

    def shape(self) -> IntVector:
        if self._empty:
            return IntVector.uniform(0, self.dim)
        return IntVector(*(u - l + 1 for l, u in zip(self.lower, self.upper)))

    def size(self) -> int:
        """Number of cells in the box (0 if empty)."""
        if self._empty:
            return 0
        return math.prod(u - l + 1 for l, u in zip(self.lower, self.upper))

    def contains(self, index: Sequence[int]) -> bool:
        return all(l <= i <= u for l, i, u in zip(self.lower, index, self.upper))

    def contains_box(self, other: "Box") -> bool:
        if other.is_empty():
            return True
        return all(
            sl <= ol and ou <= su
            for sl, su, ol, ou in zip(self.lower, self.upper, other.lower, other.upper)
        )

    def indices(self) -> Iterator[Tuple[int, ...]]:
        """Iterate all cell indices in the box (row-major, for tests)."""
        if self.is_empty():
            return iter(())
        ranges = [range(l, u + 1) for l, u in zip(self.lower, self.upper)]
        return itertools.product(*ranges)

    # -- algebra -----------------------------------------------------------

    def intersection(self, other: "Box") -> "Box":
        if self._empty or other._empty:
            return Box.empty(self.dim)
        lo = IntVector(*map(max, self.lower, other.lower))
        hi = IntVector(*map(min, self.upper, other.upper))
        box = Box(lo, hi)
        return box if not box._empty else Box.empty(self.dim)

    __mul__ = intersection

    def intersects(self, other: "Box") -> bool:
        # Compared directly (no intersection box built): the all-pairs
        # scans of schedule construction ask this far more often than
        # the answer is yes.
        return not (self._empty or other._empty) and all(
            sl <= ou and ol <= su for sl, su, ol, ou
            in zip(self.lower, self.upper, other.lower, other.upper))

    def grow(self, width: int | Sequence[int]) -> "Box":
        """Grow (or shrink, for negative widths) the box in all directions."""
        w = IntVector(width) if not isinstance(width, int) else IntVector.uniform(width, self.dim)
        return Box(self.lower - w, self.upper + w)

    def grow_dir(self, axis: int, lower: int, upper: int) -> "Box":
        """Grow only along one axis, independently at each face."""
        lo = list(self.lower)
        hi = list(self.upper)
        lo[axis] -= lower
        hi[axis] += upper
        return Box(lo, hi)

    def shift(self, offset: Sequence[int]) -> "Box":
        off = IntVector(offset)
        return Box(self.lower + off, self.upper + off)

    def coarsen(self, ratio: int | Sequence[int]) -> "Box":
        """Coarsen the box by a refinement ratio (SAMRAI semantics).

        The coarse box covers every coarse cell touched by this box.
        """
        r = IntVector(ratio) if not isinstance(ratio, int) else IntVector.uniform(ratio, self.dim)
        if self.is_empty():
            return Box.empty(self.dim)
        lo = IntVector(*(_coarsen_index(i, k) for i, k in zip(self.lower, r)))
        hi = IntVector(*(_coarsen_index(i, k) for i, k in zip(self.upper, r)))
        return Box(lo, hi)

    def refine(self, ratio: int | Sequence[int]) -> "Box":
        """Refine the box: the fine box covering exactly the same region."""
        r = IntVector(ratio) if not isinstance(ratio, int) else IntVector.uniform(ratio, self.dim)
        if self.is_empty():
            return Box.empty(self.dim)
        lo = IntVector(*(i * k for i, k in zip(self.lower, r)))
        hi = IntVector(*((i + 1) * k - 1 for i, k in zip(self.upper, r)))
        return Box(lo, hi)

    def bounding(self, other: "Box") -> "Box":
        """Smallest box containing both boxes."""
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        lo = IntVector(*(min(a, b) for a, b in zip(self.lower, other.lower)))
        hi = IntVector(*(max(a, b) for a, b in zip(self.upper, other.upper)))
        return Box(lo, hi)

    def remove_intersection(self, other: "Box") -> list["Box"]:
        """Return disjoint boxes covering ``self`` minus ``other``.

        Standard sweep decomposition: peel off slabs axis by axis.  The
        result boxes are disjoint and their union is exactly the set
        difference.
        """
        inter = self.intersection(other)
        if inter.is_empty():
            return [] if self.is_empty() else [self]
        if inter == self:
            return []
        pieces: list[Box] = []
        remaining = self
        for axis in range(self.dim):
            lo = list(remaining.lower)
            hi = list(remaining.upper)
            if remaining.lower[axis] < inter.lower[axis]:
                cut_hi = hi.copy()
                cut_hi[axis] = inter.lower[axis] - 1
                pieces.append(Box(lo, cut_hi))
                lo = lo.copy()
                lo[axis] = inter.lower[axis]
                remaining = Box(lo, hi)
            lo = list(remaining.lower)
            hi = list(remaining.upper)
            if remaining.upper[axis] > inter.upper[axis]:
                cut_lo = lo.copy()
                cut_lo[axis] = inter.upper[axis] + 1
                pieces.append(Box(cut_lo, hi))
                hi = hi.copy()
                hi[axis] = inter.upper[axis]
                remaining = Box(lo, hi)
        return pieces

    # -- slicing helpers ---------------------------------------------------

    def slices_in(self, frame: "Box") -> tuple[slice, ...]:
        """Numpy slices selecting this box inside an array covering ``frame``.

        The array is assumed to have one element per cell of ``frame`` with
        element (0, 0, ...) at ``frame.lower``.  Raises if the box is not
        contained in the frame — out-of-frame access is always a bug.
        """
        slices = []
        for l, u, fl, fu in zip(self.lower, self.upper, frame.lower, frame.upper):
            if (l < fl or u > fu) and not self._empty:
                raise IndexError(f"{self} not contained in frame {frame}")
            slices.append(slice(l - fl, u - fl + 1))
        return tuple(slices)

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        if self.is_empty() and other.is_empty():
            return True
        return self.lower == other.lower and self.upper == other.upper

    def __hash__(self) -> int:
        if self.is_empty():
            return hash(("Box", "empty", self.dim))
        return hash(("Box", self.lower, self.upper))

    def __repr__(self) -> str:
        return f"Box({tuple(self.lower)}, {tuple(self.upper)})"


def box_points(boxes: Sequence[Box]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Every index of every box as arrays: ``(which, coords)``.

    Boxes in order, row-major within a box (the order ``Box.indices`` and
    a C-order ravel of ``slices_in`` visit); ``which[p]`` is the position
    in ``boxes`` of the box point ``p`` belongs to and ``coords[axis][p]``
    its index along ``axis``.  Empty boxes contribute nothing.  This is
    the one place a list of regions turns into array form, for code that
    then works on all regions at once.
    """
    if not boxes:
        none = np.zeros(0, dtype=np.intp)
        return none, [none, none]
    corners = np.array([(*b.lower, *b.upper) for b in boxes], dtype=np.intp)
    dim = corners.shape[1] // 2
    lower = corners[:, :dim]
    shape = np.maximum(corners[:, dim:] - lower + 1, 0)
    sizes = shape.prod(axis=1)
    which = np.repeat(np.arange(len(boxes), dtype=np.intp), sizes)
    ends = np.cumsum(sizes)
    rest = np.arange(ends[-1], dtype=np.intp) - (ends - sizes)[which]
    coords = [None] * dim
    for axis in range(dim - 1, -1, -1):
        extent = shape[which, axis]
        coords[axis] = lower[which, axis] + rest % extent
        rest = rest // extent
    return which, coords
