"""Integer index-space calculus: :class:`IntVector` and :class:`Box`.

These are the fundamental geometric primitives of block-structured AMR,
modelled on SAMRAI's ``hier::IntVector`` and ``hier::Box``.  A box is an
axis-aligned rectangle of *cell* indices with inclusive lower and upper
corners, living in the index space of one refinement level.

All operations are pure: boxes are immutable value types, cheap to hash and
compare, so they can be used as dictionary keys in overlap computations.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

__all__ = ["IntVector", "Box", "meet", "cut", "cells"]


class IntVector(tuple):
    """A small integer vector used for ghost widths, ratios, and shifts.

    Behaves like a tuple but supports elementwise arithmetic, which keeps
    index manipulation in the schedules short and obviously correct.
    Components are validated once, here: arithmetic on vectors yields
    ints and constructs its result without coercing them again.
    """

    __slots__ = ()

    def __new__(cls, *components: int | Iterable[int]) -> "IntVector":
        if len(components) == 1 and not isinstance(components[0], int):
            components = tuple(components[0])
        for c in components:
            if type(c) is not int:  # slow path: NumPy integers, bools
                components = _as_ints(components)
                break
        if not components:
            raise ValueError("IntVector needs at least one component")
        return tuple.__new__(cls, components)

    @classmethod
    def uniform(cls, value: int, dim: int = 2) -> "IntVector":
        """An IntVector with every component equal to ``value``."""
        return cls(*([value] * dim))

    def _operand(self, other) -> tuple:
        """``other`` as one component per axis (a scalar broadcasts)."""
        if isinstance(other, int):
            return (other,) * len(self)
        try:
            n = len(other)
        except TypeError:
            return _as_ints((other,)) * len(self)
        if n != len(self):
            raise ValueError(f"dimension mismatch: {self} vs {other}")
        return other

    def __add__(self, other) -> "IntVector":
        return IntVector(*map(operator.add, self, self._operand(other)))

    __radd__ = __add__

    def __sub__(self, other) -> "IntVector":
        return IntVector(*map(operator.sub, self, self._operand(other)))

    def __mul__(self, other) -> "IntVector":
        return IntVector(*map(operator.mul, self, self._operand(other)))

    __rmul__ = __mul__

    def __floordiv__(self, other) -> "IntVector":
        return IntVector(*map(operator.floordiv, self, self._operand(other)))

    def __neg__(self) -> "IntVector":
        return IntVector(*map(operator.neg, self))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"IntVector{tuple(self)}"


def _as_ints(components) -> tuple:
    """Components coerced to Python ints; anything that is not an integer
    (a float, even an integral one) is a :class:`TypeError` naming it."""
    out = []
    for i, c in enumerate(components):
        try:
            out.append(operator.index(c))
        except TypeError:
            raise TypeError(
                f"IntVector component {i} is not an integer: {c!r}") from None
    return tuple(out)


# -- corner-row kernels ----------------------------------------------------------
#
# A *row* is a box as its two corners, ``(lower, upper)`` tuples of ints:
# what the set algebra of ``Box`` and of the many-box code in
# :mod:`repro.mesh.box_array` runs on, building no object per result.


def meet(alo, ahi, blo, bhi):
    """Corners of the overlap of two boxes, or None when they are disjoint
    (or either is empty).  The one place the set algebra checks that its
    operands have the same dimension."""
    if len(alo) != len(blo):
        raise ValueError(f"dimension mismatch: {alo} vs {blo}")
    lo = tuple(map(max, alo, blo))
    hi = tuple(map(min, ahi, bhi))
    return None if any(map(operator.gt, lo, hi)) else (lo, hi)


def cut(lo, hi, ilo, ihi) -> list:
    """Disjoint rows covering a box minus a nonempty box inside it.

    Standard sweep decomposition: peel off slabs axis by axis, the slab
    below the inner box before the one above it.
    """
    pieces = []
    lo, hi = list(lo), list(hi)
    for axis, (il, iu) in enumerate(zip(ilo, ihi)):
        if lo[axis] < il:
            below = hi.copy()
            below[axis] = il - 1
            pieces.append((tuple(lo), tuple(below)))
            lo[axis] = il
        if hi[axis] > iu:
            above = lo.copy()
            above[axis] = iu + 1
            pieces.append((tuple(above), tuple(hi)))
            hi[axis] = iu
    return pieces


def cells(lo, hi) -> int:
    """Cell count of a nonempty box, from its corners."""
    n = 1
    for l, u in zip(lo, hi):
        n *= u - l + 1
    return n


class Box:
    """An axis-aligned box of cell indices, inclusive at both corners.

    An *empty* box is represented by any box with ``upper < lower`` in some
    direction; :meth:`empty` constructs a canonical one.  Empty boxes
    propagate sanely through intersections.  Operations on two boxes (or
    a box and an index) of different dimension raise ``ValueError``.
    """

    __slots__ = ("lower", "upper", "_empty")

    def __init__(self, lower: Sequence[int], upper: Sequence[int]):
        if type(lower) is not IntVector:
            lower = IntVector(lower)
        if type(upper) is not IntVector:
            upper = IntVector(upper)
        if len(lower) != len(upper):
            raise ValueError("lower/upper dimension mismatch")
        self.lower = lower
        self.upper = upper
        self._empty = any(map(operator.gt, lower, upper))

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, dim: int = 2) -> "Box":
        return cls([0] * dim, [-1] * dim)

    @classmethod
    def from_shape(cls, shape: Sequence[int], origin: Sequence[int] | None = None) -> "Box":
        """A box of ``shape`` cells with its lower corner at ``origin``."""
        origin = IntVector(origin) if origin is not None else IntVector.uniform(0, len(shape))
        return cls(origin, origin + IntVector(shape) - 1)

    # -- basic queries -----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.lower)

    def is_empty(self) -> bool:
        return self._empty

    def shape(self) -> IntVector:
        if self._empty:
            return IntVector.uniform(0, self.dim)
        return IntVector(*[u - l + 1 for l, u in zip(self.lower, self.upper)])

    def size(self) -> int:
        """Number of cells in the box (0 if empty)."""
        return 0 if self._empty else cells(self.lower, self.upper)

    def contains_box(self, other: "Box") -> bool:
        return other._empty or meet(
            self.lower, self.upper, other.lower, other.upper
        ) == (other.lower, other.upper)

    # -- algebra -----------------------------------------------------------

    def intersection(self, other: "Box") -> "Box":
        overlap = meet(self.lower, self.upper, other.lower, other.upper)
        return Box.empty(self.dim) if overlap is None else Box(*overlap)

    __mul__ = intersection

    def grow(self, width: int | Sequence[int]) -> "Box":
        """Grow (or shrink, for negative widths) the box in all directions."""
        return Box(self.lower - width, self.upper + width)

    def grow_upper(self, width: int | Sequence[int]) -> "Box":
        """Move only the upper corner out by ``width`` (per axis): how a
        centring's index space extends over the cell box."""
        return Box(self.lower, self.upper + width)

    def shift(self, offset: Sequence[int]) -> "Box":
        return Box(self.lower + offset, self.upper + offset)

    def coarsen(self, ratio: int | Sequence[int]) -> "Box":
        """Coarsen the box by a refinement ratio (SAMRAI semantics).

        The coarse box covers every coarse cell touched by this box
        (floor division, valid for negative indices).
        """
        if self._empty:
            return Box.empty(self.dim)
        return Box(self.lower // ratio, self.upper // ratio)

    def refine(self, ratio: int | Sequence[int]) -> "Box":
        """Refine the box: the fine box covering exactly the same region."""
        if self._empty:
            return Box.empty(self.dim)
        return Box(self.lower * ratio, (self.upper + 1) * ratio - 1)

    def bounding(self, other: "Box") -> "Box":
        """Smallest box containing both boxes."""
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self} vs {other}")
        if self._empty:
            return other
        if other._empty:
            return self
        return Box(tuple(map(min, self.lower, other.lower)),
                   tuple(map(max, self.upper, other.upper)))

    # -- slicing helpers ---------------------------------------------------

    def slices_in(self, frame: "Box") -> tuple[slice, ...]:
        """Numpy slices selecting this box inside an array covering ``frame``.

        The array is assumed to have one element per cell of ``frame`` with
        element (0, 0, ...) at ``frame.lower``.  Raises if the box is not
        contained in the frame — out-of-frame access is always a bug.
        """
        if frame.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self} vs {frame}")
        slices = []
        for l, u, fl, fu in zip(self.lower, self.upper, frame.lower, frame.upper):
            if (l < fl or u > fu) and not self._empty:
                raise IndexError(f"{self} not contained in frame {frame}")
            slices.append(slice(l - fl, u - fl + 1))
        return tuple(slices)

    # -- value semantics ----------------------------------------------------

    def _key(self) -> tuple:
        """What equality and the hash both go by: the corners, or for an
        empty box (whatever its corners) just the dimension."""
        return (self.dim,) if self._empty else (self.lower, self.upper)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        return f"Box({tuple(self.lower)}, {tuple(self.upper)})"
