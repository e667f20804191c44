"""Operations on collections of boxes (SAMRAI's ``BoxContainer``).

The schedules and the regridder constantly need set-like operations over
lists of boxes: subtract one union from another, coalesce adjacent boxes,
test coverage.  Boxes in a container may overlap unless stated otherwise.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List

from .box import Box, IntVector
from .box_array import claim, coalesce

__all__ = ["BoxContainer"]


class BoxContainer:
    """An ordered collection of boxes with set-like calculus."""

    def __init__(self, boxes: Iterable[Box] = ()):
        self._boxes: List[Box] = [b for b in boxes if not b.is_empty()]

    # The set algebra runs on corner rows (:mod:`repro.mesh.box_array`).

    def _rows(self) -> list:
        return [(b.lower, b.upper) for b in self._boxes]

    @classmethod
    def _of_rows(cls, rows) -> "BoxContainer":
        return cls(Box(lo, hi) for lo, hi in rows)

    # -- container protocol --------------------------------------------------

    def __iter__(self) -> Iterator[Box]:
        return iter(self._boxes)

    def __len__(self) -> int:
        return len(self._boxes)

    def __getitem__(self, i: int) -> Box:
        return self._boxes[i]

    def append(self, box: Box) -> None:
        if not box.is_empty():
            self._boxes.append(box)

    def extend(self, boxes: Iterable[Box]) -> None:
        for b in boxes:
            self.append(b)

    def is_empty(self) -> bool:
        return not self._boxes

    def total_size(self) -> int:
        """Total cell count, assuming the boxes are disjoint."""
        return sum(b.size() for b in self._boxes)

    def bounding_box(self) -> Box:
        if not self._boxes:
            raise ValueError("bounding box of empty container")
        out = self._boxes[0]
        for b in self._boxes[1:]:
            out = out.bounding(b)
        return out

    # -- calculus -------------------------------------------------------------

    def remove_intersections(self, other: "BoxContainer | Box") -> "BoxContainer":
        """Set difference: self minus the union of ``other``.

        The result is a container of disjoint pieces if ``self`` was
        disjoint; otherwise pieces may overlap exactly where ``self`` did.
        """
        takeaway = [other] if isinstance(other, Box) else other
        return BoxContainer._of_rows(claim(
            self._rows(), ((None, t.lower, t.upper) for t in takeaway)))

    def intersect(self, other: "BoxContainer | Box") -> "BoxContainer":
        """All nonempty pairwise intersections with ``other``."""
        others = [other] if isinstance(other, Box) else list(other)
        out = BoxContainer()
        for b in self._boxes:
            for o in others:
                out.append(b.intersection(o))
        return out

    def contains_box(self, box: Box) -> bool:
        """Does the union of this container cover ``box`` entirely?"""
        return box.is_empty() or not claim(
            [(box.lower, box.upper)],
            ((None, b.lower, b.upper) for b in self._boxes))

    def coalesce(self) -> "BoxContainer":
        """Greedily merge boxes that tile a larger box exactly
        (:func:`repro.mesh.box_array.coalesce`).  Keeps box counts small after
        ``remove_intersections``.
        """
        return BoxContainer._of_rows(coalesce(self._rows()))

    def coarsen(self, ratio: int | IntVector) -> "BoxContainer":
        return BoxContainer(b.coarsen(ratio) for b in self._boxes)

    def refine(self, ratio: int | IntVector) -> "BoxContainer":
        return BoxContainer(b.refine(ratio) for b in self._boxes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BoxContainer({self._boxes!r})"
