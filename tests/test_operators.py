"""Tests for the refine/coarsen operators: exactness, conservation, CPU=GPU."""

import numpy as np
import pytest
from fig3 import CellData, CudaCellData, CudaNodeData, NodeData, SideData
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geom import interp_math as m
from repro.geom.operators import (
    CellConservativeLinearRefine,
    CellMassWeightedCoarsen,
    CellVolumeWeightedCoarsen,
    NodeInjectionCoarsen,
    NodeLinearRefine,
    SideConservativeLinearRefine,
    SideSumCoarsen,
)
from repro.gpu.device import K20X, Device
from repro.mesh.box import Box, IntVector
from repro.util.clock import VirtualClock

R2 = IntVector(2, 2)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestNodeLinearRefine:
    def test_coincident_nodes_exact(self):
        """Fine nodes on coarse nodes get the coarse value exactly."""
        cframe = Box([-1, -1], [5, 5])
        coarse = rng(1).random(tuple(cframe.shape()))
        fframe = Box([0, 0], [8, 8])
        fine = np.zeros(tuple(fframe.shape()))
        region = Box([0, 0], [8, 8])
        m.refine_node_linear(coarse, cframe, fine, fframe, region, R2)
        for i in range(0, 5):
            for j in range(0, 5):
                assert fine[2 * i, 2 * j] == coarse[i + 1, j + 1]

    def test_linear_field_reproduced(self):
        """Bilinear interp is exact for (bi)linear data."""
        cframe = Box([-1, -1], [5, 5])
        ci = np.arange(cframe.lower[0], cframe.upper[0] + 1)[:, None]
        cj = np.arange(cframe.lower[1], cframe.upper[1] + 1)[None, :]
        coarse = 2.0 * ci + 3.0 * cj + 1.0
        fframe = Box([0, 0], [8, 8])
        fine = np.zeros(tuple(fframe.shape()))
        m.refine_node_linear(coarse, cframe, fine, fframe, Box([0, 0], [8, 8]), R2)
        fi = np.arange(0, 9)[:, None]
        fj = np.arange(0, 9)[None, :]
        expected = 2.0 * (fi / 2.0) + 3.0 * (fj / 2.0) + 1.0
        assert np.allclose(fine, expected)

    def test_midpoint_average(self):
        cframe = Box([0, 0], [2, 2])
        coarse = np.array([[1.0, 1.0, 1.0], [3.0, 3.0, 3.0], [5.0, 5.0, 5.0]])
        fframe = Box([0, 0], [3, 3])
        fine = np.zeros((4, 4))
        m.refine_node_linear(coarse, cframe, fine, fframe, Box([0, 0], [3, 3]), R2)
        assert fine[1, 0] == 2.0  # halfway between 1 and 3
        assert fine[3, 0] == 4.0  # halfway between 3 and 5


class TestCellConservativeLinearRefine:
    def test_conservation_per_coarse_cell(self):
        """Mean of fine children equals the coarse value (any data)."""
        cframe = Box([-2, -2], [5, 5])
        coarse = rng(2).random(tuple(cframe.shape()))
        fframe = Box([0, 0], [7, 7])
        fine = np.zeros(tuple(fframe.shape()))
        region = Box([0, 0], [7, 7])
        m.refine_cell_conservative_linear(coarse, cframe, fine, fframe, region, R2)
        for i in range(4):
            for j in range(4):
                children = fine[2 * i:2 * i + 2, 2 * j:2 * j + 2]
                assert children.mean() == pytest.approx(coarse[i + 2, j + 2])

    def test_constant_field_preserved(self):
        cframe = Box([-2, -2], [5, 5])
        coarse = np.full(tuple(cframe.shape()), 7.5)
        fframe = Box([0, 0], [7, 7])
        fine = np.zeros(tuple(fframe.shape()))
        m.refine_cell_conservative_linear(
            coarse, cframe, fine, fframe, Box([0, 0], [7, 7]), R2)
        assert np.all(fine == 7.5)

    def test_monotone_no_overshoot(self):
        """Limited slopes never create new extrema at a jump."""
        cframe = Box([-2, -2], [9, 3])
        ci = np.arange(cframe.lower[0], cframe.upper[0] + 1)
        coarse = np.where(ci < 4, 1.0, 0.125)[:, None] * np.ones((1, 6))
        fframe = Box([0, 0], [15, 3])
        fine = np.zeros(tuple(fframe.shape()))
        m.refine_cell_conservative_linear(
            coarse, cframe, fine, fframe, Box([0, 0], [15, 3]), R2)
        assert fine.max() <= 1.0 + 1e-12
        assert fine.min() >= 0.125 - 1e-12

    @given(st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_conservation_property(self, seed):
        cframe = Box([-2, -2], [5, 5])
        coarse = rng(seed).random(tuple(cframe.shape())) * 10
        fframe = Box([0, 0], [7, 7])
        fine = np.zeros(tuple(fframe.shape()))
        m.refine_cell_conservative_linear(
            coarse, cframe, fine, fframe, Box([0, 0], [7, 7]), R2)
        assert m.block_reduce(fine, R2, "mean") == pytest.approx(
            coarse[2:6, 2:6], rel=1e-12)


class TestSideConservativeLinearRefine:
    def test_constant_preserved(self):
        cframe = Box([-1, -1], [5, 4])  # x-face frame of cells [0..3, 0..3]+ghost
        coarse = np.full(tuple(cframe.shape()), 3.0)
        fframe = Box([0, 0], [8, 7])
        fine = np.zeros(tuple(fframe.shape()))
        m.refine_side_conservative_linear(
            coarse, cframe, fine, fframe, Box([0, 0], [8, 7]), R2, axis=0)
        assert np.all(fine == 3.0)

    def test_aligned_faces_from_coarse_face(self):
        """Even fine faces sample the coarse face at the same location."""
        cframe = Box([-1, -1], [5, 4])
        ci = np.arange(cframe.lower[0], cframe.upper[0] + 1)[:, None]
        coarse = (ci * 1.0) * np.ones((1, 6))
        fframe = Box([0, 0], [8, 7])
        fine = np.zeros(tuple(fframe.shape()))
        m.refine_side_conservative_linear(
            coarse, cframe, fine, fframe, Box([0, 0], [8, 7]), R2, axis=0)
        # fine face 4 lies on coarse face 2; transversely constant data
        assert np.allclose(fine[4, :], 2.0)
        # odd faces interpolate between neighbours
        assert np.allclose(fine[3, :], 1.5)


class TestCoarsenOps:
    def test_volume_weighted_is_block_mean(self):
        fframe = Box([-2, -2], [9, 9])
        fine = rng(3).random(tuple(fframe.shape()))
        cframe = Box([-1, -1], [4, 4])
        coarse = np.zeros(tuple(cframe.shape()))
        region = Box([0, 0], [3, 3])
        m.coarsen_cell_volume_weighted(fine, fframe, coarse, cframe, region, R2)
        expect = m.block_reduce(fine[2:10, 2:10], R2, "mean")
        assert np.allclose(coarse[1:5, 1:5], expect)

    def test_volume_weighted_conserves_total(self):
        """Sum over coarse * Vc equals sum over fine * Vf."""
        fframe = Box([0, 0], [7, 7])
        fine = rng(4).random((8, 8))
        cframe = Box([0, 0], [3, 3])
        coarse = np.zeros((4, 4))
        m.coarsen_cell_volume_weighted(fine, fframe, coarse, cframe,
                                       Box([0, 0], [3, 3]), R2)
        assert coarse.sum() * 4 == pytest.approx(fine.sum() * 1, rel=1e-12)

    def test_mass_weighted_conserves_product(self):
        """sum(e_c * rho_c) * Vc == sum(e_f * rho_f) * Vf per coarse cell."""
        fframe = Box([0, 0], [7, 7])
        e_f = rng(5).random((8, 8)) + 0.5
        rho_f = rng(6).random((8, 8)) + 0.5
        cframe = Box([0, 0], [3, 3])
        e_c = np.zeros((4, 4))
        rho_c = np.zeros((4, 4))
        region = Box([0, 0], [3, 3])
        m.coarsen_cell_mass_weighted(e_f, rho_f, fframe, e_c, cframe, region, R2)
        m.coarsen_cell_volume_weighted(rho_f, fframe, rho_c, cframe, region, R2)
        # fine internal energy = sum rho_f e_f Vf; coarse = rho_c e_c Vc
        assert (rho_c * e_c).sum() * 4.0 == pytest.approx((rho_f * e_f).sum(), rel=1e-12)

    def test_mass_weighted_constant_energy(self):
        """Uniform specific energy survives any density distribution."""
        fframe = Box([0, 0], [7, 7])
        e_f = np.full((8, 8), 2.5)
        rho_f = rng(7).random((8, 8)) + 0.1
        cframe = Box([0, 0], [3, 3])
        e_c = np.zeros((4, 4))
        m.coarsen_cell_mass_weighted(e_f, rho_f, fframe, e_c, cframe,
                                     Box([0, 0], [3, 3]), R2)
        assert np.allclose(e_c, 2.5)

    def test_node_injection_exact(self):
        fframe = Box([-2, -2], [10, 10])
        fine = rng(8).random(tuple(fframe.shape()))
        cframe = Box([-1, -1], [5, 5])
        coarse = np.zeros(tuple(cframe.shape()))
        region = Box([0, 0], [4, 4])
        m.coarsen_node_injection(fine, fframe, coarse, cframe, region, R2)
        for i in range(5):
            for j in range(5):
                assert coarse[i + 1, j + 1] == fine[2 * i + 2, 2 * j + 2]

    def test_side_sum_conserves_flux(self):
        """Coarse x-face flux = sum of its two aligned fine faces."""
        fframe = Box([0, 0], [8, 7])  # x faces of cells [0..3]x[0..3] refined
        fine = rng(9).random(tuple(fframe.shape()))
        cframe = Box([0, 0], [4, 3])
        coarse = np.zeros(tuple(cframe.shape()))
        region = Box([0, 0], [4, 3])
        m.coarsen_side_sum(fine, fframe, coarse, cframe, region, R2, axis=0)
        assert coarse[1, 0] == pytest.approx(fine[2, 0] + fine[2, 1])
        assert coarse.sum() == pytest.approx(fine[::2].sum())


class TestOperatorDispatch:
    """CPU and GPU operator objects produce identical results."""

    BOXF = Box([0, 0], [7, 7])
    BOXC = Box([0, 0], [3, 3])

    def _device(self):
        return Device(K20X, VirtualClock())

    def test_cell_refine_cpu_gpu_identical(self):
        dev = self._device()
        data = rng(10).random((8, 8))

        c_cpu = CellData(self.BOXC, 2)
        c_cpu.data.array[...] = data
        f_cpu = CellData(self.BOXF, 2, fill=0.0)
        CellConservativeLinearRefine().apply(c_cpu, f_cpu, self.BOXF, 2)

        c_gpu = CudaCellData(self.BOXC, 2, dev)
        c_gpu.from_host(data)
        f_gpu = CudaCellData(self.BOXF, 2, dev, fill=0.0)
        CellConservativeLinearRefine().apply(c_gpu, f_gpu, self.BOXF, 2)

        assert np.array_equal(f_gpu.to_host(), f_cpu.data.array)

    def test_gpu_refine_charges_device(self):
        dev = self._device()
        c = CudaCellData(self.BOXC, 2, dev, fill=1.0)
        f = CudaCellData(self.BOXF, 2, dev, fill=0.0)
        n0 = dev.stats.launches_by_name.get("geom.refine", 0)
        CellConservativeLinearRefine().apply(c, f, self.BOXF, 2)
        assert dev.stats.launches_by_name["geom.refine"] == n0 + 1

    def test_node_coarsen_cpu_gpu_identical(self):
        dev = self._device()
        data = rng(11).random((13, 13))
        f_cpu = NodeData(self.BOXF, 2)
        f_cpu.data.array[...] = data
        c_cpu = NodeData(self.BOXC, 2, fill=0.0)
        region = c_cpu.var.index_box(self.BOXC)
        NodeInjectionCoarsen().apply(f_cpu, c_cpu, region, 2)

        f_gpu = CudaNodeData(self.BOXF, 2, dev)
        f_gpu.from_host(data)
        c_gpu = CudaNodeData(self.BOXC, 2, dev, fill=0.0)
        NodeInjectionCoarsen().apply(f_gpu, c_gpu, region, 2)
        assert np.array_equal(c_gpu.to_host(), c_cpu.data.array)

    def test_mass_weighted_requires_weight(self):
        with pytest.raises(TypeError):
            CellMassWeightedCoarsen().apply(None, None, self.BOXC, 2)

    def test_side_ops_round_trip_constant(self):
        sx_c = SideData(self.BOXC, 2, axis=0, fill=4.0)
        sx_f = SideData(self.BOXF, 2, axis=0, fill=0.0)
        region_f = sx_f.var.index_box(self.BOXF)
        SideConservativeLinearRefine().apply(sx_c, sx_f, region_f, 2)
        assert np.all(sx_f.view(region_f) == 4.0)
        back = SideData(self.BOXC, 2, axis=0, fill=0.0)
        region_c = back.var.index_box(self.BOXC)
        SideSumCoarsen().apply(sx_f, back, region_c, 2)
        # each coarse face sums 2 fine faces of value 4
        assert np.all(back.view(region_c) == 8.0)
