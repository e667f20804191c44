"""Patch data: one ``PatchData`` over one array store and one arena, in
either memory space (host, or a simulated GPU — the paper's CudaPatchData
library, §IV-B).  See :mod:`repro.pdat.space` for the seam."""

from .arena import Arena, ArenaSlice
from .patch_data import ArrayData, PatchData
from .space import HOST, HostSpace

__all__ = ["PatchData", "ArrayData", "Arena", "ArenaSlice", "HOST", "HostSpace"]
