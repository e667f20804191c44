"""A patch: one rectangular mesh region and the data living on it; and a
patch bucket: the same-shape patches of one rank on a level, as a unit."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .box import Box

if TYPE_CHECKING:  # pragma: no cover
    from ..pdat.patch_data import PatchData
    from .patch_level import PatchLevel
    from .variables import Variable

__all__ = ["Patch", "PatchBucket"]


class Patch:
    """Container for all the data of one mesh region (SAMRAI's ``Patch``)."""

    def __init__(self, box: Box, global_id: int, owner: int, level: "PatchLevel"):
        if box.is_empty():
            raise ValueError("patch box must be nonempty")
        self.box = box
        self.global_id = global_id
        self.owner = owner
        self.level = level
        self._data: dict[str, "PatchData"] = {}
        self._touches: list | None = None

    # -- data management ---------------------------------------------------

    def data(self, name: str) -> "PatchData":
        return self._data[name]

    # A patch is the sweep unit of one (see :class:`PatchBucket`).

    @property
    def patches(self) -> tuple["Patch", ...]:
        return (self,)

    def fields(self, name: str) -> tuple["PatchData", ...]:
        return (self._data[name],)

    def has_data(self, name: str) -> bool:
        return name in self._data

    def set_data(self, name: str, pd: "PatchData") -> None:
        self._data[name] = pd
        self.level.arena_cache.clear()

    def data_names(self) -> list[str]:
        return list(self._data)

    def free_all(self) -> None:
        """Release every PatchData (frees device allocations promptly)."""
        for pd in self._data.values():
            pd.free()
        self._data.clear()
        self.level.arena_cache.clear()

    # -- geometry helpers ------------------------------------------------------

    @property
    def dx(self) -> tuple[float, ...]:
        return self.level.dx

    def touches_boundary(self) -> list[tuple[int, int]]:
        """The physical boundaries the patch touches, ``(axis, side)``
        (worked out once: a patch's box and level never change)."""
        if self._touches is None:
            self._touches = self.level.geometry.touches_boundary(
                self.box, self.level.ratio_to_base)
        return self._touches

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Patch(id={self.global_id}, L{self.level.level_number}, {self.box}, owner={self.owner})"


class PatchBucket:
    """The patches of one shape owned by one rank on one level, in the
    order level allocation placed them back to back in every variable's
    arena (:func:`repro.mesh.variables._allocate_level`).

    The unit a batched kernel sweep visits: ``fields(name)`` tiles one
    arena bucket, so the sweep's kernel runs once over the stacked
    ``(n, f0, f1)`` view (:func:`repro.exec.backend.stacked_of`) instead
    of once per patch.  Buckets belong to their level and are dropped
    with it (``PatchLevel.free_all``).
    """

    def __init__(self, owner: int, patches):
        self.owner = owner
        self.patches: tuple[Patch, ...] = tuple(patches)
        self._fields: dict[str, tuple["PatchData", ...]] = {}

    def fields(self, name: str) -> tuple["PatchData", ...]:
        """Variable ``name``'s patch data, one per patch, in arena order."""
        pds = self._fields.get(name)
        if pds is None:
            pds = self._fields[name] = tuple(
                p.data(name) for p in self.patches)
        return pds
