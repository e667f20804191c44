"""A patch level: all patches at one refinement ratio."""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from .box import Box, IntVector
from .box_array import BoxArray
from .patch import Patch

if TYPE_CHECKING:  # pragma: no cover
    from ..comm.simcomm import SimCommunicator
    from .geometry import CartesianGridGeometry
    from .variables import Variable, VariableRegistry

__all__ = ["PatchLevel"]


class PatchLevel:
    """All patches at one level of refinement (SAMRAI's ``PatchLevel``)."""

    def __init__(
        self,
        level_number: int,
        boxes: Iterable[Box],
        owners: Iterable[int],
        geometry: "CartesianGridGeometry",
        ratio_to_base: int | IntVector,
        ratio_to_coarser: int | IntVector | None,
    ):
        self.level_number = level_number
        if isinstance(ratio_to_base, int):
            ratio_to_base = IntVector.uniform(ratio_to_base, geometry.dim)
        self.ratio_to_base = ratio_to_base
        if isinstance(ratio_to_coarser, int):
            ratio_to_coarser = IntVector.uniform(ratio_to_coarser, geometry.dim)
        self.ratio_to_coarser = ratio_to_coarser
        self.geometry = geometry
        self.domain = geometry.level_domain(ratio_to_base)
        self.dx = geometry.level_dx(ratio_to_base)
        boxes, owners = list(boxes), list(owners)
        if len(boxes) != len(owners):
            raise ValueError(f"{len(boxes)} boxes but {len(owners)} owners")
        #: every patch box, in patch order, as one array with its spatial
        #: index; levels are immutable, so what derives from it is cached
        self.box_array = BoxArray.from_boxes(boxes, geometry.dim)
        self._derived: dict = {}
        inside = BoxArray.from_boxes([self.domain]).contains(self.box_array)
        if not inside.all():
            raise ValueError(f"patch box {boxes[int(inside.argmin())]} "
                             f"outside level domain {self.domain}")
        self.patches: list[Patch] = [
            Patch(box, gid, owner, self)
            for gid, (box, owner) in enumerate(zip(boxes, owners))]
        #: the :class:`~repro.mesh.patch.PatchBucket` units level
        #: allocation formed (none on a level allocated patch by patch)
        self.buckets: list = []
        #: ``{name: {owner: arena}}`` as ``exec.plan.level_arenas`` found
        #: them; a patch whose data is set or freed clears it
        self.arena_cache: dict = {}

    # -- queries ---------------------------------------------------------------

    def __iter__(self) -> Iterator[Patch]:
        return iter(self.patches)

    def __len__(self) -> int:
        return len(self.patches)

    def index_boxes(self, var: "Variable") -> BoxArray:
        """Every patch's interior index box in ``var``'s centring space
        (one array per centring, shared by all its variables)."""
        return self._derive(var.offset, var.index_box)

    def frames(self, var: "Variable") -> BoxArray:
        """Every patch's storage frame (interior + ghosts) for ``var``."""
        return self._derive((var.offset, var.ghosts), var.frame)

    def _derive(self, key, of) -> BoxArray:
        if key not in self._derived:
            self._derived[key] = of(self.box_array)
        return self._derived[key]

    @cached_property
    def owners(self) -> np.ndarray:
        """Every patch's owning rank, in patch order."""
        return np.array([p.owner for p in self.patches], dtype=np.intp)

    @cached_property
    def layout_token(self) -> tuple:
        """Structural identity: level number plus (box, owner) per patch.
        Patches and owners are fixed at construction, so it is built once
        and shared by every schedule-cache key naming this level."""
        return (self.level_number,
                tuple((tuple(p.box.lower), tuple(p.box.upper), p.owner)
                      for p in self.patches))

    def total_cells(self) -> int:
        return sum(p.box.size() for p in self.patches)

    def cells_per_rank(self, nranks: int) -> list[int]:
        counts = [0] * nranks
        for p in self.patches:
            counts[p.owner] += p.box.size()
        return counts

    # -- allocation ----------------------------------------------------------

    def allocate_all(self, variables: "VariableRegistry", factory, comm: "SimCommunicator") -> None:
        """Allocate every declared variable on every patch: the factory
        pools each variable's storage for a rank's patches into one arena
        slab with per-patch offsets and hands back the shape buckets it
        placed."""
        self.buckets = factory.allocate_level(self, variables, comm)

    def free_all(self) -> None:
        for patch in self.patches:
            patch.free_all()
        # buckets cache field tuples: keeping them would keep the data alive
        self.buckets = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PatchLevel(L{self.level_number}, patches={len(self.patches)}, "
            f"cells={self.total_cells()}, ratio_to_base={tuple(self.ratio_to_base)})"
        )
