"""Refine and coarsen operators (the paper's ``geom`` package).

Each operator names one stencil of :mod:`repro.geom.interp_math` and
applies it to a (coarse, fine) pair of patch-data objects (``apply``), or
hands a compiled transfer one vectorized member evaluating it over every
region or block of a launch (``batch_member``).  Host-resident data runs
the stencil directly (optionally charged to a rank's CPU model);
GPU-resident data runs it inside a simulated kernel launch on the owning
device — one logical thread per destination element, as in the paper.
Both paths execute identical arithmetic, so CPU and GPU results agree
bit-for-bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..exec.backend import array_of, frame_of, run_on, slab_of
from ..exec.batch import BatchMember, union_pds
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
    #: the reduction itself, as data (:class:`interp_math.CoarsenStencil`):
    #: evaluated per region here, or over every block of a sync launch at
    #: once by a compiled sync (:meth:`batch_member`)
    stencil: "m.CoarsenStencil | None" = None

    def stencil_for(self, var) -> "m.CoarsenStencil":  # noqa: ARG002 — side flavour picks by the variable's axis
        """The stencil coarsening ``var``."""
        return self.stencil

    def apply(self, fine_pd: "PatchData", coarse_pd: "PatchData", region: Box,
              ratio, rank: "Rank | None" = None) -> None:
        """``region`` is in the *coarse* centring index space."""
        self._apply(fine_pd, None, coarse_pd, region, ratio, rank)

    def _apply(self, fine_pd, weight_pd, coarse_pd, region, ratio, rank):
        ratio = _as_ratio(ratio)
        stencil = self.stencil_for(fine_pd.var)

        def body():
            farr, fframe = _arrays(fine_pd)
            warr = None
            if weight_pd is not None:
                warr, wframe = _arrays(weight_pd)
                if wframe != fframe:
                    raise ValueError("weight frame must match data frame")
            m.coarsen_region(stencil, farr, fframe, *_arrays(coarse_pd),
                             region, ratio, warr)

        _run(coarse_pd, "geom.coarsen", region.refine(ratio).size(), body,
             rank)

    def batch_member(self, fine, terms, ratio, outs, elements: int,
                     count: int) -> BatchMember:
        """Every block of one variable a compiled sync
        (:mod:`repro.xfer.coarsen_schedule`) coarsens in one launch, as one
        member standing for ``count`` :meth:`apply` bodies.  ``fine`` is
        ``(store, pds)``, the fine arena and the patch data read;
        ``terms`` the points by reduction order, ``(gather, wide,
        where)`` with ``gather`` flat indices into the arena and
        ``where`` the points' places in the values (None: all of them);
        ``outs`` the scratch segments written, ``(store, blocks, n)``,
        taking the values in turn."""
        return _member(self.stencil_for(fine[1][0].var), fine, None, terms,
                       ratio, outs, elements, count)


def _member(stencil, fine, weight, terms, ratio, outs, elements: int,
            count: int) -> BatchMember:
    """A compiled sync's coarsen member (:meth:`CoarsenOperator.batch_member`),
    ``weight`` the ``(store, pds)`` of the weight field or None."""
    ratio = _as_ratio(ratio)

    def body():
        farr = slab_of(*fine)
        warr = None if weight is None else slab_of(*weight)
        if len(terms) == 1:
            gather, wide, _ = terms[0]
            values = m.coarsen_values(stencil, farr, gather, ratio, wide, warr)
        else:
            values = np.empty(sum(len(t[0]) for t in terms))
            for gather, wide, where in terms:
                values[where] = m.coarsen_values(stencil, farr, gather, ratio,
                                                 wide, warr)
        at = 0
        for store, blocks, n in outs:
            slab_of(store, blocks)[:] = values[at:at + n]
            at += n

    reads = fine[1] if weight is None else union_pds((fine[1], weight[1]))
    return BatchMember(elements, body, reads=reads,
                       writes=tuple(b for _, blocks, _ in outs for b in blocks),
                       count=count)


class CellVolumeWeightedCoarsen(CoarsenOperator):
    """The paper's first data-parallel volume-weighted coarsen (Fig. 7/8)."""

    name = "cell_volume_weighted_coarsen"
    centring = "cell"
    stencil = m.CELL_VOLUME_MEAN


class CellMassWeightedCoarsen(CoarsenOperator):
    """Mass-weighted coarsen: conserves mass-integrated quantities.

    Needs a fine weight field (density); pass it via :meth:`apply_weighted`.
    """

    name = "cell_mass_weighted_coarsen"
    centring = "cell"
    stencil = m.CELL_MASS_MEAN

    def apply_weighted(self, fine_pd, fine_weight_pd, coarse_pd, region, ratio,
                       rank: "Rank | None" = None) -> None:
        self._apply(fine_pd, fine_weight_pd, coarse_pd, region, ratio, rank)

    def batch_member_weighted(self, fine, weight, terms, ratio, outs,
                              elements: int, count: int) -> BatchMember:
        """The work of ``count`` :meth:`apply_weighted` bodies as one
        member, like :meth:`CoarsenOperator.batch_member`; ``weight`` is
        the weight field's ``(store, pds)``, its frames the data's."""
        return _member(self.stencil, fine, weight, terms, ratio, outs,
                       elements, count)

    def apply(self, fine_pd, coarse_pd, region, ratio, rank=None):  # noqa: ARG002
        raise TypeError("mass-weighted coarsen needs a weight; use apply_weighted")

    def batch_member(self, fine, terms, ratio, outs, elements, count):  # noqa: ARG002
        raise TypeError("mass-weighted coarsen needs a weight; use batch_member_weighted")


class NodeInjectionCoarsen(CoarsenOperator):
    """Coarse nodes take coincident fine node values exactly."""

    name = "node_injection_coarsen"
    centring = "node"
    stencil = m.NODE_INJECTION


class SideSumCoarsen(CoarsenOperator):
    """Coarse faces sum their aligned fine faces (flux coarsening)."""

    name = "side_sum_coarsen"
    centring = "side"

    def stencil_for(self, var):
        return m.SIDE_SUM[var.axis]
