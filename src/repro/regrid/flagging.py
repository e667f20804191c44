"""Cell flagging for refinement, with the paper's tag-compression path.

The tagging heuristic (relative gradients of density, energy and pressure)
is evaluated data-parallel, one logical thread per cell — "trivially
parallel" as the paper notes.  For GPU-resident data, the int tag array is
compressed to a bit array on the device before crossing the PCIe bus, and
patches with no tags skip the transfer entirely (§IV-C): both behaviours
are modelled and tested here.  The regridder evaluates a level one
stacked sweep per shape bucket (:func:`tag_unit`), charged per patch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import TYPE_CHECKING

import numpy as np

from ..exec.backend import backend_for, stacked_of
from ..exec.batch import BatchMember
from ..hydro.fields import GHOSTS
from ..hydro.kernels import G_SMALL, win

if TYPE_CHECKING:  # pragma: no cover
    from ..comm.simcomm import Rank
    from ..mesh.patch import Patch

__all__ = ["TagThresholds", "TAG_FIELDS", "compute_tags", "flag_patch",
           "tag_unit", "pack_tags", "unpack_tags"]

#: the fields the tag heuristic reads, in its argument order
TAG_FIELDS = ("density0", "energy0", "pressure")


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


def _tag(fields, nx: int, ny: int, thresholds: TagThresholds) -> np.ndarray:
    """:func:`compute_tags` over the frames of ``fields``, one patch-data
    tuple per :data:`TAG_FIELDS` name: a patch's, or a bucket's stacked."""
    return compute_tags(*map(stacked_of, fields), nx, ny, GHOSTS, thresholds)


def flag_patch(patch: "Patch", rank: "Rank", thresholds: TagThresholds) -> np.ndarray:
    """Evaluate the tag heuristic on one patch; return interior bool array.

    The paper's per-patch path (the tag-bits ablation's, and the oracle
    of the regridder's per-bucket :func:`tag_unit`).  GPU-resident: tag
    kernel → bit-compression kernel → 4-byte "any tags?" transfer →
    (only if tagged) D2H of the compressed bits.  The returned array is
    always host-side, as SAMRAI's clustering needs it.
    """
    nx, ny = (int(v) for v in patch.box.shape())
    pds = [patch.data(n) for n in TAG_FIELDS]
    backend = backend_for(pds[0], rank)
    tags = backend.run("regrid.tag", nx * ny, _tag, [(pd,) for pd in pds],
                       nx, ny, thresholds, reads=pds, ghost_reads=pds)
    if not backend.resident:
        return tags
    packed = backend.run("regrid.tag_compress", nx * ny, pack_tags, tags,
                         reads=())
    # "tagged" flag for the patch crosses the bus first; untagged patches
    # skip the bit-array transfer (re-creating all-zeros on the host is free).
    backend.charge_transfer("d2h", 4)
    if not tags.any():
        return np.zeros((nx, ny), dtype=bool)
    backend.charge_transfer("d2h", packed.nbytes)
    return unpack_tags(packed, (nx, ny))


def tag_unit(unit, backend, thresholds: TagThresholds) -> np.ndarray:
    """The tags of sweep unit ``unit`` (a patch bucket, or a patch) as one
    ``(patches, nx, ny)`` stack, executed uncharged (``Backend.execute``)
    with the reads and ghost reads :func:`flag_patch` declares; the
    caller charges the per-patch launches this stands for."""
    nx, ny = (int(v) for v in unit.patches[0].box.shape())
    fields = [unit.fields(n) for n in TAG_FIELDS]
    pds, count = [pd for f in fields for pd in f], len(unit.patches)
    member = BatchMember(nx * ny * count,
                         partial(_tag, fields, nx, ny, thresholds),
                         reads=pds, ghost_reads=pds, count=count)
    tags = backend.execute("regrid.tag", [member], combine=itemgetter(0))
    return tags.reshape(-1, nx, ny)
