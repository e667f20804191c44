"""Reflective physical boundary conditions (CloverLeaf's ``update_halo``).

Each variable has a parity per axis: +1 copies mirrored interior values
into the ghost layers, -1 negates them (velocity components and fluxes
normal to the wall).  Reflection geometry depends on whether the variable's
centring is *face-like* along the reflected axis (nodes always; side data
along its own axis) or *cell-like*: face-like data mirrors across the
boundary node/face itself, cell-like data mirrors across the wall between
the first interior and first ghost cell.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..exec.backend import array_of, backend_for
from ..gpu.kernel import register_kernel
from ..mesh.box import Box
from ..xfer.overlap import index_box_for

if TYPE_CHECKING:  # pragma: no cover
    from ..comm.simcomm import Rank
    from ..mesh.patch import Patch

__all__ = ["reflect_fill", "ReflectiveBoundary", "DEFAULT_PARITY"]

register_kernel("hydro.update_halo", bytes_per_elem=16.0)

#: parity (x, y) per CleverLeaf field; anything absent defaults to (+1, +1)
DEFAULT_PARITY: dict[str, tuple[int, int]] = {
    "xvel0": (-1, 1), "xvel1": (-1, 1),
    "yvel0": (1, -1), "yvel1": (1, -1),
    "vol_flux_x": (-1, 1), "mass_flux_x": (-1, 1),
    "vol_flux_y": (1, -1), "mass_flux_y": (1, -1),
}


def reflect_fill(arr: np.ndarray, frame: Box, domain_idx: Box,
                 axis: int, side: int, ghosts: int,
                 facelike: bool, parity: int) -> int:
    """Fill ghost layers outside one physical boundary by reflection.

    Returns the number of elements written (for cost accounting).  Only
    layers actually present in ``frame`` are touched, and the source
    values are taken across the wall:

    * cell-like, lower wall at cell b: ghost b-k <- parity * value(b+k-1)
    * face-like, lower wall at face/node b: ghost b-k <- parity * value(b+k)
    """
    written = 0
    lo = domain_idx.lower[axis]
    hi = domain_idx.upper[axis]
    for k in range(1, ghosts + 1):
        if side == 0:
            ghost = lo - k
            src = (lo + k - 1) if not facelike else (lo + k)
        else:
            ghost = hi + k
            src = (hi - k + 1) if not facelike else (hi - k)
        if ghost < frame.lower[axis] or ghost > frame.upper[axis]:
            continue
        gi = ghost - frame.lower[axis]
        si = src - frame.lower[axis]
        if axis == 0:
            arr[gi, :] = parity * arr[si, :]
            written += arr.shape[1]
        else:
            arr[:, gi] = parity * arr[:, si]
            written += arr.shape[0]
    return written


class ReflectiveBoundary:
    """Applies reflective walls on every physical boundary a patch touches."""

    def __init__(self, parity: dict[str, tuple[int, int]] | None = None):
        self.parity = dict(DEFAULT_PARITY if parity is None else parity)

    def parity_for(self, name: str) -> tuple[int, int]:
        return self.parity.get(name, (1, 1))

    def apply_all(self, patch: "Patch", variables, rank: "Rank") -> None:
        """Reflect every listed variable in one fused halo kernel.

        CloverLeaf's ``update_halo`` handles all requested fields and all
        four faces in one pass; fusing keeps the launch count (and the
        modelled overhead) per patch, not per field.
        """
        member = self.batch_member(patch, variables)
        if member is None:
            return
        backend_for(member.writes[0], rank).run(
            "hydro.update_halo", member.elements, member.body,
            reads=member.reads, writes=member.writes,
            ghost_only=True, marks=member.marks)

    def batch_member(self, patch: "Patch", variables):
        """The halo kernel of :meth:`apply_all` as one fusable member.

        Returns None when the patch touches no physical boundary; used by
        the batched refine schedule to reflect every boundary patch of a
        level in a single launch.
        """
        touches = patch.touches_boundary()
        if not touches:
            return None
        from ..exec.batch import BatchMember

        # Everything but the arrays is fixed per (patch, variable): work
        # it out here, once, so a schedule that keeps the member replays
        # the body without any box algebra.
        domain = patch.level.domain
        fills = []
        for var in variables:
            pd = patch.data(var.name)
            par = self.parity_for(var.name)
            fills.append((pd, pd.get_ghost_box(), index_box_for(var, domain), [
                (axis, side, var.ghosts,
                 var.centring == "node" or (
                     var.centring == "side" and var.axis == axis),
                 par[axis])
                for axis, side in touches]))

        def body():
            n = 0
            for pd, frame, domain_idx, faces in fills:
                arr = array_of(pd)
                for axis, side, ghosts, facelike, parity in faces:
                    n += reflect_fill(arr, frame, domain_idx, axis, side,
                                      ghosts, facelike, parity)
            return n

        # Element count: total ghost-strip area over all fields/faces
        # (only affects the cost model).
        strip = 0
        for var in variables:
            frame_shape = patch.data(var.name).get_ghost_box().shape()
            strip += sum(var.ghosts * frame_shape[1 - axis]
                         for axis, _ in touches)
        pds = [patch.data(var.name) for var in variables]
        # Ghost-only: reflects interior values into ghost layers, so every
        # field's interior generation is untouched and its wall ghosts are
        # refreshed from itself.
        return BatchMember(strip, body, reads=pds, writes=pds,
                           marks=[("stamp", pd, (pd,)) for pd in pds])
