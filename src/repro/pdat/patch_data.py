"""``PatchData`` (paper Fig. 2) over one array store, in any memory space.

Everything SAMRAI needs in order to move simulation data around — copying
between patches, packing/unpacking message streams for MPI — is expressed
against :class:`PatchData`.  Where the bytes live is the *space* it was
allocated in (:mod:`repro.pdat.space`); what index space they cover is the
variable's centring offset (:class:`repro.mesh.variables.Variable`).  The
paper's six Fig. 3 classes are the (centring, space) pairs of this one
class: ``CudaNodeData`` is a node variable allocated on a device.

:class:`ArrayData` is the store (the paper's ``CudaArrayData``): one
contiguous float64 buffer over an index frame with *data-parallel* fill,
copy, pack and unpack, each one launch in its space (Fig. 4).  Packed
buffers travel: pack into staging in the data's space → host (D2H) → (MPI)
→ staging (H2D) → unpack; the host only ever holds the contiguous stream.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..check.context import seam_scope
from ..mesh.box import Box

if TYPE_CHECKING:  # pragma: no cover
    from ..mesh.variables import Variable

__all__ = ["ArrayData", "PatchData"]


class ArrayData:
    """A float64 array covering ``frame`` (inclusive index box) in ``space``."""

    __slots__ = ("frame", "space", "buf")

    def __init__(self, frame: Box, space, fill: float | None = None, buf=None):
        """``buf``: preallocated storage in ``space`` (an arena member)."""
        shape = tuple(frame.shape())
        if buf is None:
            buf = space.empty(shape)
        elif tuple(buf.shape) != shape:
            raise ValueError(
                f"storage shape {tuple(buf.shape)} != frame shape {shape}")
        self.frame = frame
        self.space = space
        self.buf = buf
        if fill is not None:
            self.fill(fill)

    # -- access (on a device: legal only inside a launch or memcpy) ------------

    @property
    def array(self) -> np.ndarray:
        """The whole frame array."""
        return self.buf.kernel_view()

    def view(self, box: Box) -> np.ndarray:
        """A writable view of the region ``box`` (must lie in the frame)."""
        return self.buf.kernel_view()[box.slices_in(self.frame)]

    # -- data-parallel operations (one launch each) ----------------------------

    def fill(self, value: float, box: Box | None = None) -> None:
        box = box if box is not None else self.frame
        self.space.launch("pdat.fill", box.size(),
                          lambda: self.view(box).__setitem__(..., value))

    def copy_from(self, src: "ArrayData", box: Box, src_shift=None) -> None:
        """Copy region ``box`` from ``src`` within one memory space.

        ``src_shift`` maps destination indices to source indices (periodic
        images); None means identity.
        """
        if src.space is not self.space:
            raise ValueError(
                "cross-space copy must go through pack/D2H/H2D/unpack")
        src_box = box if src_shift is None else box.shift(src_shift)
        self.space.launch(
            "pdat.copy", box.size(),
            lambda: self.view(box).__setitem__(..., src.view(src_box)))

    def pack(self, box: Box) -> np.ndarray:
        """Pack ``box`` into contiguous staging here, then bring it to
        the host (one PCIe crossing)."""
        staging = self.space.empty((box.size(),))
        try:
            self.space.launch(
                "pdat.pack", box.size(),
                lambda: staging.kernel_view().__setitem__(
                    ..., self.view(box).reshape(-1)))
            return self.space.to_host(staging)
        finally:
            staging.free()

    def unpack(self, buffer: np.ndarray, box: Box) -> None:
        """Move a contiguous host buffer here, then unpack it into ``box``."""
        if buffer.size != box.size():
            raise ValueError(
                f"buffer size {buffer.size} != region size {box.size()}")
        staging = self.space.from_host(
            np.ascontiguousarray(buffer, dtype=np.float64))
        try:
            self.space.launch(
                "pdat.unpack", box.size(),
                lambda: self.view(box).__setitem__(
                    ..., staging.kernel_view().reshape(tuple(box.shape()))))
        finally:
            staging.free()

    # -- whole-frame host mirroring (initialisation, restart, analysis) --------

    def to_host_array(self) -> np.ndarray:
        """A host copy of the whole frame (a charged D2H on a device)."""
        self.space.guard_mirror("to_host_array")
        return self.space.to_host(self.buf)

    def from_host_array(self, host: np.ndarray) -> None:
        """Overwrite the whole frame from a host array (H2D on a device)."""
        self.space.guard_mirror("from_host_array")
        self.space.memcpy_htod(
            self.buf, np.ascontiguousarray(host, dtype=np.float64))

    def free(self) -> None:
        self.buf.free()


class PatchData:
    """One variable's data on one patch: storage covers ``var.frame(box)``
    (interior plus ghosts, centring index space), and region copies and
    stream pack/unpack take boxes in that same index space."""

    _time = 0.0
    #: the :class:`~repro.pdat.arena.Arena` this data is a member of and its
    #: position on the arena's stacked axis (None: individually allocated)
    _arena = None
    _arena_index = None
    #: host staging view installed by the restart layer when this field
    #: tiles an arena: one slab transfer then covers every member and the
    #: restart hooks read/write the staged segment instead.
    _restart_stage: np.ndarray | None = None

    def __init__(self, var: "Variable", box: Box, space,
                 fill: float | None = None, member=None,
                 frame: Box | None = None):
        """``member``: the arena slice (placed in ``space``) backing this;
        ``frame``: ``var.frame(box)``, for a caller that already has it."""
        self.var = var
        self.box = box
        self.space = space
        if member is not None:
            self._arena = member.arena
            self._arena_index = member.index
        self.data = ArrayData(var.frame(box) if frame is None else frame,
                              space, fill=fill, buf=member)

    @classmethod
    def member(cls, var: "Variable", box: Box, space, member,
               frame: Box) -> "PatchData":
        """``PatchData(var, box, space, member=member, frame=frame)`` for
        level allocation, which checks many members' shapes against their
        frames at once (``mesh.variables._allocate_level``)."""
        self, data = cls.__new__(cls), ArrayData.__new__(ArrayData)
        self.var, self.box, self.space, self.data = var, box, space, data
        self._arena, self._arena_index = member.arena, member.index
        data.frame, data.space, data.buf = frame, space, member
        return self

    # -- interface from the paper's Fig. 2 ---------------------------------

    @property
    def var_name(self) -> str:  # debug name used in sanitizer reports
        return self.var.name

    def get_ghost_box(self) -> Box:
        """The full index frame covered by the storage (centring space)."""
        return self.data.frame

    @property
    def nbytes(self) -> int:
        """Bytes of storage (what moving this data across a bus costs)."""
        return self.data.buf.nbytes

    def set_time(self, timestamp: float) -> None:
        self._time = float(timestamp)

    def get_time(self) -> float:
        return self._time

    def copy(self, src: "PatchData", overlap: Box) -> None:
        """Copy ``overlap`` (in this centring's index space) from ``src``."""
        if src.var.offset != self.var.offset:
            raise ValueError(
                "centring mismatch in copy (side-data axis or index space)")
        self.data.copy_from(src.data, overlap)

    def get_data_stream_size(self, overlap: Box) -> int:
        """Bytes needed to stream the given region."""
        return overlap.size() * np.dtype(np.float64).itemsize

    def pack_stream(self, overlap: Box) -> np.ndarray:
        """Pack ``overlap`` into a contiguous float64 host buffer."""
        return self.data.pack(overlap)

    def unpack_stream(self, buffer: np.ndarray, overlap: Box) -> None:
        """Unpack a contiguous host buffer into ``overlap``."""
        self.data.unpack(buffer, overlap)

    # -- access ------------------------------------------------------------

    def view(self, box: Box) -> np.ndarray:
        return self.data.view(box)

    def interior(self) -> np.ndarray:
        return self.data.view(self.var.index_box(self.box))

    def fill(self, value: float, box: Box | None = None) -> None:
        self.data.fill(value, box)

    def to_host(self) -> np.ndarray:
        return self.data.to_host_array()

    def from_host(self, host: np.ndarray) -> None:
        self.data.from_host_array(host)

    def free(self) -> None:
        self.data.free()

    # -- restart (simplified database = dict) --------------------------------

    def put_to_restart(self, db: dict) -> None:
        db["box"] = (tuple(self.box.lower), tuple(self.box.upper))
        db["ghosts"] = self.var.ghosts
        db["axis"] = self.var.axis
        db["time"] = self._time
        if self._restart_stage is not None:
            db["array"] = self._restart_stage
            return
        with seam_scope():
            db["array"] = self.to_host()

    def get_from_restart(self, db: dict) -> None:
        self._time = db["time"]
        if self._restart_stage is not None:
            self._restart_stage[...] = db["array"]
            return
        with seam_scope():
            self.from_host(db["array"])
