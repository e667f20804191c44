"""Variable declarations and patch-data factories.

A :class:`Variable` describes one simulation quantity (name, centring,
ghost width) and owns the *index space* its centring implies: the per-axis
0/1 upper offset over the cell box, from which the interior index box, the
storage frame and the frame's inverse all follow.  A factory turns a
variable plus a patch box into a :class:`~repro.pdat.patch_data.PatchData`
in one memory space — host or the owning rank's device — which is the
single point where the CPU and GPU builds of the application diverge,
mirroring how the paper swaps ``PatchData`` implementations under an
unchanged SAMRAI framework.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..pdat.arena import Arena
from ..pdat.patch_data import PatchData
from ..pdat.space import HOST
from .box import Box, IntVector
from .box_array import BoxArray
from .patch import PatchBucket

__all__ = ["Variable", "VariableRegistry", "HostDataFactory", "CudaDataFactory"]

#: centring → upper offset of its index space over the cell box, indexed
#: by ``axis`` (only side data, face-centred along its normal, uses it).
#: The one definition: every index box, frame and temp box derives from it.
UPPER_OFFSETS = {
    "cell": (IntVector(0, 0),) * 2,
    "node": (IntVector(1, 1),) * 2,
    "side": (IntVector(1, 0), IntVector(0, 1)),
}


@dataclass(frozen=True)
class Variable:
    """Declaration of one mesh quantity."""

    name: str
    centring: str
    ghosts: int = 2
    axis: int = 0  # only meaningful for side centring
    #: per-axis 0/1 upper offset of this centring's index space
    offset: IntVector = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.centring not in UPPER_OFFSETS:
            raise ValueError(f"unknown centring {self.centring!r}")
        by_axis = UPPER_OFFSETS[self.centring]
        if not 0 <= self.axis < len(by_axis):
            raise ValueError(f"bad axis {self.axis} for dim {len(by_axis)}")
        object.__setattr__(self, "offset", by_axis[self.axis])

    # The index space, defined once: each method takes one cell box or a
    # whole level's (:class:`~repro.mesh.box_array.BoxArray`) alike.

    def index_box(self, box: "Box | BoxArray") -> "Box | BoxArray":
        """Interior index box of cell box ``box`` in this centring's space."""
        return box.grow_upper(self.offset) if any(self.offset) else box

    def frame(self, box: "Box | BoxArray") -> "Box | BoxArray":
        """Storage frame (interior + ghosts) over ``box``, centring space."""
        return self.index_box(box.grow(self.ghosts))

    def cell_box(self, index_box: "Box | BoxArray") -> "Box | BoxArray":
        """Inverse of :meth:`index_box`: the cell box under an index box."""
        return (index_box.grow_upper(-self.offset) if any(self.offset)
                else index_box)


class VariableRegistry:
    """Ordered set of variables a simulation declares up front."""

    def __init__(self):
        self._vars: dict[str, Variable] = {}

    def declare(self, name: str, centring: str, ghosts: int = 2, axis: int = 0) -> Variable:
        if name in self:
            raise ValueError(f"variable {name!r} already declared")
        var = Variable(name, centring, ghosts, axis)
        self._vars[name] = var
        return var

    def __iter__(self):
        return iter(self._vars.values())

    def __contains__(self, name: str) -> bool:
        """By name (iteration yields the :class:`Variable` objects)."""
        return name in self._vars

    def __getitem__(self, name: str) -> Variable:
        return self._vars[name]


def _allocate_level(level, variables, space_of) -> list[PatchBucket]:
    """Arena-pooled allocation of every variable on every patch: one
    :class:`~repro.pdat.arena.Arena` slab per (owner, variable) in the
    memory space ``space_of(owner)``.  Members are placed bucket by
    bucket — an owner's patches of one shape, in level order — so each
    patch size of a ragged level is one contiguous arena bucket with one
    stacked view.  An owner's frames, bucket shapes and slab size are
    worked out once per centring signature (offset and ghosts) and
    checked once against the frames; each arena is then cut in one
    pass.  Returns the buckets, in the order the level first meets
    them."""
    patches = level.patches
    placed: dict = {}  # (owner, patch shape) -> positions in the level
    for i, shape in enumerate(level.box_array.shape().tolist()):
        placed.setdefault((patches[i].owner, tuple(shape)), []).append(i)
    buckets = [PatchBucket(owner, [patches[i] for i in same])
               for (owner, _), same in placed.items()]
    for owner in sorted({owner for owner, _ in placed}):
        space = space_of(owner)
        runs = [same for (o, _), same in placed.items() if o == owner]
        mine = [i for same in runs for i in same]
        sets = [patches[i].set_data for i in mine]
        cells = [patches[i].box for i in mine]
        layouts: dict = {}  # signature -> (runs, slab size, frame boxes)
        for var in variables:
            layout = layouts.get((var.offset, var.ghosts))
            if layout is None:
                frames = level.frames(var)
                cut = [(tuple(var.frame(patches[same[0]].box).shape()),
                        len(same)) for same in runs]
                shapes = frames.shape()[mine]  # the check ArrayData makes
                if (np.repeat([s for s, _ in cut], [n for _, n in cut], 0)
                        != shapes).any():
                    raise ValueError(f"storage (shape, count) runs {cut} != "
                                     f"frame shapes {shapes.tolist()}")
                boxes = frames.boxes()
                layout = layouts[var.offset, var.ghosts] = (
                    cut, sum(math.prod(shape) * n for shape, n in cut),
                    [boxes[i] for i in mine])
            cut, size, frame_boxes = layout
            members = Arena(space, size).place_all(cut)
            for set_data, box, frame, member in zip(sets, cells, frame_boxes,
                                                    members):
                set_data(var.name, PatchData.member(var, box, space, member,
                                                    frame))
    return buckets


def _device_of(rank):
    if rank.device is None:
        raise ValueError(f"rank {rank.index} has no device for CUDA data")
    return rank.device


class HostDataFactory:
    """Allocates CPU-resident patch data.

    Level-wide allocation pools each variable's storage for all of a
    rank's patches into one arena slab; per-patch ``allocate`` calls
    (a hand-built patch) stay individual allocations.
    """

    location = "host"

    def allocate(self, var: Variable, box: Box, rank,  # noqa: ARG002
                 frame: Box | None = None) -> PatchData:
        return PatchData(var, box, HOST, frame=frame)

    def allocate_level(self, level, variables, comm) -> list[PatchBucket]:  # noqa: ARG002
        return _allocate_level(level, variables, lambda owner: HOST)


class CudaDataFactory:
    """Allocates GPU-resident patch data on the owning rank's device.

    Level-wide allocation pools each variable's storage for all of a
    rank's patches into one arena slab on the owning device.
    """

    location = "device"

    def allocate(self, var: Variable, box: Box, rank,
                 frame: Box | None = None) -> PatchData:
        return PatchData(var, box, _device_of(rank), frame=frame)

    def allocate_level(self, level, variables, comm) -> list[PatchBucket]:
        return _allocate_level(level, variables,
                               lambda owner: _device_of(comm.rank(owner)))
