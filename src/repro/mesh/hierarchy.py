"""The patch hierarchy: the stack of refinement levels."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .box import Box, IntVector
from .patch_level import PatchLevel

if TYPE_CHECKING:  # pragma: no cover
    from .geometry import CartesianGridGeometry

__all__ = ["PatchHierarchy"]


class PatchHierarchy:
    """Nested levels of refinement over one Cartesian domain.

    Level 0 covers the whole domain; each finer level covers a subset,
    properly nested inside the next coarser level.
    """

    def __init__(
        self,
        geometry: "CartesianGridGeometry",
        max_levels: int = 3,
        refinement_ratio: int = 2,
    ):
        if max_levels < 1:
            raise ValueError("need at least one level")
        self.geometry = geometry
        self.max_levels = max_levels
        self.refinement_ratio = refinement_ratio
        self.levels: list[PatchLevel] = []

    # -- structure ------------------------------------------------------------

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def finest_level_number(self) -> int:
        return len(self.levels) - 1

    def level(self, n: int) -> PatchLevel:
        return self.levels[n]

    def __iter__(self) -> Iterator[PatchLevel]:
        return iter(self.levels)

    def ratio_to_base(self, level_number: int) -> IntVector:
        return IntVector.uniform(
            self.refinement_ratio ** level_number, self.geometry.dim
        )

    def make_level(
        self,
        level_number: int,
        boxes: list[Box],
        owners: list[int],
    ) -> PatchLevel:
        """Construct (but do not install) a level object."""
        ratio_to_coarser = None if level_number == 0 else self.refinement_ratio
        return PatchLevel(
            level_number,
            boxes,
            owners,
            self.geometry,
            self.ratio_to_base(level_number),
            ratio_to_coarser,
        )

    def set_level(self, level: PatchLevel) -> None:
        """Install a level, growing or replacing as needed."""
        n = level.level_number
        if n > len(self.levels):
            raise ValueError(f"cannot install level {n} above {len(self.levels)}")
        if n == len(self.levels):
            self.levels.append(level)
        else:
            self.levels[n] = level

    def remove_finer_levels(self, level_number: int) -> None:
        """Drop every level finer than ``level_number``."""
        for lvl in self.levels[level_number + 1:]:
            lvl.free_all()
        del self.levels[level_number + 1:]

    # -- invariants -----------------------------------------------------------

    def check_proper_nesting(self, nesting_buffer: int = 1) -> list[str]:
        """Return violations of the nesting rules (empty list when valid).

        A level-l box, coarsened to level l-1, must lie inside the union of
        level-(l-1) boxes shrunk by the nesting buffer (except at physical
        boundaries, where the domain edge is allowed).
        """
        problems: list[str] = []
        for n in range(1, self.num_levels):
            fine = self.levels[n]
            coarse = self.levels[n - 1]
            # A coarsened fine box lies in the coarse footprint shrunk by
            # the buffer wherever that abuts uncovered cells (not at
            # patch seams or the physical boundary) exactly when the box
            # grown by the buffer, clipped to the domain, is covered.
            need = (fine.box_array.coarsen(fine.ratio_to_coarser)
                    .grow(nesting_buffer).intersect(coarse.domain))
            for p, (_, left) in zip(fine, coarse.box_array.claims(need)):
                if left:
                    problems.append(
                        f"level {n} patch {p.global_id} {p.box} not nested "
                        f"within level {n - 1} minus buffer"
                    )
        return problems

    def total_cells(self) -> int:
        return sum(lvl.total_cells() for lvl in self.levels)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(repr(lvl) for lvl in self.levels)
        return f"PatchHierarchy([{inner}])"
