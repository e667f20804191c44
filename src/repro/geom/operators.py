"""Refine and coarsen operators (the paper's ``geom`` package).

Each operator applies one of the data-parallel interpolation routines from
:mod:`repro.geom.interp_math` to a (coarse, fine) pair of patch-data
objects.  Host-resident data runs the routine directly (optionally charged
to a rank's CPU model); GPU-resident data runs it inside a simulated kernel
launch on the owning device — one logical thread per destination element,
as in the paper.  Both paths execute identical arithmetic, so CPU and GPU
results agree bit-for-bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..exec.backend import array_of, frame_of, run_on, slab_of
from ..exec.batch import BatchMember
from ..mesh.box import Box, IntVector
from . import interp_math as m

if TYPE_CHECKING:  # pragma: no cover
    from ..comm.simcomm import Rank
    from ..pdat.patch_data import PatchData

__all__ = [
    "RefineOperator",
    "CoarsenOperator",
    "NodeLinearRefine",
    "CellConservativeLinearRefine",
    "SideConservativeLinearRefine",
    "CellVolumeWeightedCoarsen",
    "CellMassWeightedCoarsen",
    "NodeInjectionCoarsen",
    "SideSumCoarsen",
]


def _run(pd, kernel_name: str, elements: int, body, rank: "Rank | None") -> None:
    """Execute ``body`` on the resource owning ``pd``, charging its cost."""
    run_on(pd, rank, kernel_name, elements, body)


def _arrays(pd):
    """(array, frame) of a patch-data object, host or device flavoured.

    Device arrays are only legally accessible inside the kernel launch, so
    this must be called from within ``body`` for GPU data.
    """
    return array_of(pd), frame_of(pd)


def _as_ratio(ratio) -> IntVector:
    return ratio if isinstance(ratio, IntVector) else IntVector.uniform(int(ratio), 2)


class RefineOperator:
    """Base: fill a fine region by interpolation from coarse data."""

    name = "refine"
    centring = "cell"
    #: coarse ghost cells the interpolation stencil reaches beyond the
    #: coarsened destination region
    stencil_width = 1
    #: the interpolation itself, as data (:class:`interp_math.RefineStencil`):
    #: evaluated per region here, or over every region of a level at once
    #: by a compiled fill (:meth:`batch_member`)
    stencil: "m.RefineStencil | None" = None

    def stencil_for(self, var) -> "m.RefineStencil":  # noqa: ARG002 — side flavour picks by the variable's axis
        """The stencil interpolating ``var``."""
        return self.stencil

    def apply(self, coarse_pd: "PatchData", fine_pd: "PatchData", region: Box,
              ratio, rank: "Rank | None" = None) -> None:
        ratio = _as_ratio(ratio)

        def body():
            carr, cframe = _arrays(coarse_pd)
            farr, fframe = _arrays(fine_pd)
            self._interp_pd(coarse_pd, fine_pd, carr, cframe, farr, fframe,
                            region, ratio)

        _run(fine_pd, "geom.refine", region.size(), body, rank)

    def _interp(self, carr, cframe, farr, fframe, region, ratio):
        if self.stencil is None:
            raise NotImplementedError
        m.refine_region(self.stencil, carr, cframe, farr, fframe, region,
                        ratio)

    def _interp_pd(self, coarse_pd, fine_pd, carr, cframe, farr, fframe,  # noqa: ARG002 — hook signature; side flavour needs the patch data
                   region, ratio):
        """Array-level interpolation with patch-data context (axis, etc.)."""
        self._interp(carr, cframe, farr, fframe, region, ratio)

    @staticmethod
    def batch_member(ops, elements: int, count: int, reads, writes,
                     marks=()) -> BatchMember:
        """Many refine interpolations as one already-vectorized member.

        What a compiled fill (:mod:`repro.xfer.fill_plan`) hands the one
        ``geom.refine`` launch of a level: the work of ``count``
        :meth:`apply` bodies, each entry of ``ops`` interpolating every
        region of one variable at once — ``(stencil, coarse store, coarse
        blocks, fine arena, fine patch data, gather, weights,
        fine_index)``, the last three from
        :func:`interp_math.flat_refine_terms`.
        """
        def body():
            for stencil, coarse, blocks, fine, fine_pds, gather, weights, index in ops:
                m.refine_flat(stencil, slab_of(coarse, blocks), gather,
                              weights, slab_of(fine, fine_pds), index)

        return BatchMember(elements, body, reads=reads, writes=writes,
                           marks=marks, count=count)


def fused_refine_apply(op: "RefineOperator", pairs, region: Box, ratio,
                       rank: "Rank | None" = None) -> None:
    """Apply one refine operator to many (coarse, fine) pairs in one launch.

    All pairs must share the operator and the destination resource; used
    by the schedules to interpolate every variable of one centring class
    with a single kernel, as a tuned implementation would.
    """
    ratio = _as_ratio(ratio)

    def body():
        for coarse_pd, fine_pd in pairs:
            carr, cframe = _arrays(coarse_pd)
            farr, fframe = _arrays(fine_pd)
            op._interp_pd(coarse_pd, fine_pd, carr, cframe, farr, fframe,
                          region, ratio)

    _run(pairs[0][1], "geom.refine", region.size() * len(pairs), body, rank)


class NodeLinearRefine(RefineOperator):
    """Bilinear interpolation for node-centred data (paper Fig. 5)."""

    name = "node_linear_refine"
    centring = "node"
    stencil_width = 1
    stencil = m.NODE_LINEAR


class CellConservativeLinearRefine(RefineOperator):
    """Slope-limited conservative interpolation for cell data."""

    name = "cell_conservative_linear_refine"
    centring = "cell"
    stencil_width = 2
    stencil = m.CELL_CONSERVATIVE_LINEAR


class SideConservativeLinearRefine(RefineOperator):
    """Conservative interpolation for side-centred data."""

    name = "side_conservative_linear_refine"
    centring = "side"
    stencil_width = 2

    def stencil_for(self, var):
        return m.SIDE_CONSERVATIVE_LINEAR[var.axis]

    def _interp_pd(self, coarse_pd, fine_pd, carr, cframe, farr, fframe,  # noqa: ARG002
                   region, ratio):
        m.refine_region(self.stencil_for(fine_pd.var), carr, cframe, farr,
                        fframe, region, ratio)


class CoarsenOperator:
    """Base: fill a coarse region by averaging fine data."""

    name = "coarsen"
    centring = "cell"

    def apply(self, fine_pd: "PatchData", coarse_pd: "PatchData", region: Box,
              ratio, rank: "Rank | None" = None) -> None:
        """``region`` is in the *coarse* centring index space."""
        ratio = _as_ratio(ratio)
        _run(coarse_pd, "geom.coarsen", region.refine(ratio).size(),
             self._body(fine_pd, lambda: _arrays(coarse_pd), region, ratio),
             rank)

    def _body(self, fine_pd, coarse, region, ratio):
        """The reduction as a kernel body; ``coarse()`` hands it the
        destination ``(array, frame)`` inside the launch."""
        def body():
            farr, fframe = _arrays(fine_pd)
            self._reduce_pd(fine_pd, farr, fframe, *coarse(), region, ratio)

        return body

    def batch_member(self, fine_pd, coarse, block, region: Box, ratio,
                     elements: int) -> BatchMember:
        """One (transaction, variable) coarsen of a compiled sync
        (:mod:`repro.xfer.coarsen_schedule`) as a fusable member: the work
        of :meth:`apply` into store ``coarse``, the scratch segment of
        ``block`` whose frame is ``region``; ``elements`` (the fine points
        read) comes compiled."""
        return BatchMember(elements, self._body(
            fine_pd, _block(coarse, block, region), region, _as_ratio(ratio)),
            reads=(fine_pd,), writes=(block,))

    def _reduce(self, farr, fframe, carr, cframe, region, ratio):
        raise NotImplementedError

    def _reduce_pd(self, fine_pd, farr, fframe, carr, cframe, region, ratio):  # noqa: ARG002 — hook signature; side flavour needs the patch data
        """Array-level reduction with patch-data context (axis, etc.)."""
        self._reduce(farr, fframe, carr, cframe, region, ratio)


def _block(coarse, block, region: Box):
    """``(array, frame)`` of scratch block ``block`` of store ``coarse``,
    its frame ``region``, as a getter legal only inside a launch."""
    return lambda: (slab_of(coarse, (block,)).reshape(tuple(region.shape())),
                    region)


class CellVolumeWeightedCoarsen(CoarsenOperator):
    """The paper's first data-parallel volume-weighted coarsen (Fig. 7/8)."""

    name = "cell_volume_weighted_coarsen"
    centring = "cell"

    def _reduce(self, farr, fframe, carr, cframe, region, ratio):
        m.coarsen_cell_volume_weighted(farr, fframe, carr, cframe, region, ratio)


class CellMassWeightedCoarsen(CoarsenOperator):
    """Mass-weighted coarsen: conserves mass-integrated quantities.

    Needs a fine weight field (density); pass it via :meth:`apply_weighted`.
    """

    name = "cell_mass_weighted_coarsen"
    centring = "cell"

    def apply_weighted(self, fine_pd, fine_weight_pd, coarse_pd, region, ratio,
                       rank: "Rank | None" = None) -> None:
        ratio = _as_ratio(ratio)
        _run(coarse_pd, "geom.coarsen", region.refine(ratio).size(),
             self._weighted_body(fine_pd, fine_weight_pd,
                                 lambda: _arrays(coarse_pd), region, ratio),
             rank)

    def _weighted_body(self, fine_pd, fine_weight_pd, coarse, region, ratio):
        def body():
            farr, fframe = _arrays(fine_pd)
            warr, wframe = _arrays(fine_weight_pd)
            if wframe != fframe:
                raise ValueError("weight frame must match data frame")
            m.coarsen_cell_mass_weighted(
                farr, warr, fframe, *coarse(), region, ratio
            )

        return body

    def batch_member_weighted(self, fine_pd, fine_weight_pd, coarse, block,
                              region, ratio, elements: int) -> BatchMember:
        """The work of :meth:`apply_weighted` as one member, like
        :meth:`CoarsenOperator.batch_member`."""
        return BatchMember(elements, self._weighted_body(
            fine_pd, fine_weight_pd, _block(coarse, block, region), region,
            _as_ratio(ratio)),
            reads=(fine_pd, fine_weight_pd), writes=(block,))

    def apply(self, fine_pd, coarse_pd, region, ratio, rank=None):  # noqa: ARG002
        raise TypeError("mass-weighted coarsen needs a weight; use apply_weighted")

    def batch_member(self, fine_pd, coarse, block, region, ratio, elements):  # noqa: ARG002
        raise TypeError("mass-weighted coarsen needs a weight; use batch_member_weighted")


class NodeInjectionCoarsen(CoarsenOperator):
    """Coarse nodes take coincident fine node values exactly."""

    name = "node_injection_coarsen"
    centring = "node"

    def _reduce(self, farr, fframe, carr, cframe, region, ratio):
        m.coarsen_node_injection(farr, fframe, carr, cframe, region, ratio)


class SideSumCoarsen(CoarsenOperator):
    """Coarse faces sum their aligned fine faces (flux coarsening)."""

    name = "side_sum_coarsen"
    centring = "side"

    def _reduce_pd(self, fine_pd, farr, fframe, carr, cframe, region, ratio):
        m.coarsen_side_sum(farr, fframe, carr, cframe, region, ratio,
                           fine_pd.var.axis)
