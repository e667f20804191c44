"""Cell flagging for refinement, with the paper's tag-compression path.

The tagging heuristic (relative gradients of density, energy and pressure)
is evaluated data-parallel, one logical thread per cell — "trivially
parallel" as the paper notes.  For GPU-resident data, the int tag array is
compressed to a bit array on the device before crossing the PCIe bus, and
patches with no tags skip the transfer entirely (§IV-C): both behaviours
are modelled and tested here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..exec.backend import array_of, backend_for
from ..hydro.fields import GHOSTS
from ..hydro.kernels import G_SMALL, win

if TYPE_CHECKING:  # pragma: no cover
    from ..comm.simcomm import Rank
    from ..mesh.patch import Patch

__all__ = ["TagThresholds", "compute_tags", "flag_patch", "flag_patch_deferred",
           "pack_tags", "unpack_tags"]


@dataclass(frozen=True)
class TagThresholds:
    """Relative-gradient thresholds above which a cell is flagged."""

    density: float = 0.20
    energy: float = 0.20
    pressure: float = 0.20


def _rel_gradient_flags(field: np.ndarray, nx: int, ny: int, g: int,
                        threshold: float) -> np.ndarray:
    """Cells whose central relative difference exceeds ``threshold``."""
    c = win(field, g, g, nx, ny)
    gx = np.abs(win(field, g + 1, g, nx, ny) - win(field, g - 1, g, nx, ny))
    gy = np.abs(win(field, g, g + 1, nx, ny) - win(field, g, g - 1, nx, ny))
    scale = 2.0 * np.maximum(np.abs(c), G_SMALL)
    return (gx / scale > threshold) | (gy / scale > threshold)


def compute_tags(density, energy, pressure, nx, ny, g,
                 thresholds: TagThresholds) -> np.ndarray:
    """Boolean tag array over the patch interior (pure math)."""
    return (
        _rel_gradient_flags(density, nx, ny, g, thresholds.density)
        | _rel_gradient_flags(energy, nx, ny, g, thresholds.energy)
        | _rel_gradient_flags(pressure, nx, ny, g, thresholds.pressure)
    )


def pack_tags(tags: np.ndarray) -> np.ndarray:
    """Compress a boolean tag array to a bit array (uint8)."""
    return np.packbits(tags.astype(np.uint8).reshape(-1))


def unpack_tags(packed: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Invert :func:`pack_tags`."""
    n = shape[0] * shape[1]
    return np.unpackbits(packed)[:n].astype(bool).reshape(shape)


def flag_patch(patch: "Patch", rank: "Rank", thresholds: TagThresholds) -> np.ndarray:
    """Evaluate the tag heuristic on one patch; return interior bool array.

    GPU-resident path: tag kernel → bit-compression kernel → 4-byte "any
    tags?" transfer → (only if tagged) D2H of the compressed bits.  The
    returned array is always host-side, as SAMRAI's clustering needs it.
    """
    tags, packed_nbytes, resident, backend = flag_patch_deferred(
        patch, rank, thresholds)
    if not resident:
        return tags
    # "tagged" flag for the patch crosses the bus first; untagged patches
    # skip the bit-array transfer (re-creating all-zeros on the host is free).
    backend.charge_transfer("d2h", 4)
    if packed_nbytes:
        backend.charge_transfer("d2h", packed_nbytes)
    return tags


def flag_patch_deferred(patch: "Patch", rank: "Rank",
                        thresholds: TagThresholds):
    """Tag one patch, *deferring* the D2H accounting to the caller.

    Runs the tag kernel and, on resident data, the on-device bit
    compression — but charges no PCIe transfer, so the regridder can fuse
    a whole level's compressed bitfields into one readback per rank
    instead of a per-patch latency chain.  Returns ``(tags, packed_nbytes,
    resident, backend)``: ``tags`` is always the host-side bool array,
    ``packed_nbytes`` the compressed payload this patch contributes to
    the fused transfer (0 when untagged or host-resident).
    """
    nx, ny = (int(v) for v in patch.box.shape())
    g = GHOSTS
    pd = patch.data("density0")
    backend = backend_for(pd, rank)
    names = ("density0", "energy0", "pressure")

    def tag_body():
        arrs = [array_of(patch.data(n)) for n in names]
        return compute_tags(*arrs, nx, ny, g, thresholds)

    pds = [patch.data(n) for n in names]
    tags = backend.run("regrid.tag", nx * ny, tag_body,
                       reads=pds, ghost_reads=pds)
    if not backend.resident:
        return tags, 0, False, backend

    packed = backend.run("regrid.tag_compress", nx * ny, pack_tags, tags,
                         reads=())
    if not tags.any():
        return np.zeros((nx, ny), dtype=bool), 0, True, backend
    return unpack_tags(packed, (nx, ny)), packed.nbytes, True, backend
