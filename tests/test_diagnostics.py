"""Tests for the field-summary diagnostics (AMR-aware accounting)."""

import numpy as np
import pytest

from repro import (
    CudaDataFactory,
    HostDataFactory,
    LagrangianEulerianIntegrator,
    SimulationConfig,
    SodProblem,
    field_summary,
    gather_level_field,
    make_communicator,
)
from repro.hydro.diagnostics import host_interior, uncovered_mask
from counts import pcie_bytes


def make_sim(gpus=False, max_levels=2):
    comm = make_communicator("IPA", 1, gpus=gpus)
    sim = LagrangianEulerianIntegrator(
        SodProblem((32, 32)), comm,
        CudaDataFactory() if gpus else HostDataFactory(),
        SimulationConfig(max_levels=max_levels, max_patch_size=32))
    sim.initialise()
    return sim


class TestUncoveredMask:
    def test_no_finer_level_all_uncovered(self):
        sim = make_sim(max_levels=1)
        patch = sim.hierarchy.level(0).patches[0]
        assert uncovered_mask(patch, None).all()

    def test_covered_region_excluded(self):
        sim = make_sim(max_levels=2)
        total_l0 = 0
        for patch in sim.hierarchy.level(0):
            mask = uncovered_mask(patch, sim.hierarchy.level(1))
            total_l0 += (~mask).sum()
        # coarse cells covered = fine cells / ratio^2
        assert total_l0 == sim.hierarchy.level(1).total_cells() // 4


class TestFieldSummary:
    def test_volume_independent_of_refinement(self):
        uni = make_sim(max_levels=1)
        amr = make_sim(max_levels=2)
        assert field_summary(uni.hierarchy)["volume"] == pytest.approx(1.0)
        assert field_summary(amr.hierarchy)["volume"] == pytest.approx(1.0)

    def test_mass_independent_of_refinement(self):
        uni = make_sim(max_levels=1)
        amr = make_sim(max_levels=2)
        m_uni = field_summary(uni.hierarchy)["mass"]
        m_amr = field_summary(amr.hierarchy)["mass"]
        assert m_amr == pytest.approx(m_uni, rel=1e-12)

    def test_gpu_summary_matches_cpu(self):
        cpu = make_sim(gpus=False)
        gpu = make_sim(gpus=True)
        s_cpu = field_summary(cpu.hierarchy)
        s_gpu = field_summary(gpu.hierarchy)
        for key in ("mass", "ie", "volume"):
            assert s_gpu[key] == pytest.approx(s_cpu[key], rel=1e-14)

    def test_summary_charges_d2h_for_resident_data(self):
        sim = make_sim(gpus=True)
        dev = sim.comm.rank(0).device
        before = pcie_bytes(dev, "d2h")
        field_summary(sim.hierarchy)
        assert pcie_bytes(dev, "d2h") > before


class TestGatherLevelField:
    def test_dense_level0(self):
        sim = make_sim()
        rho = gather_level_field(sim.hierarchy.level(0), "density0")
        assert rho.shape == (32, 32)
        assert not np.isnan(rho).any()

    def test_sparse_fine_level_has_nans(self):
        sim = make_sim(max_levels=2)
        rho = gather_level_field(sim.hierarchy.level(1), "density0")
        assert rho.shape == (64, 64)
        assert np.isnan(rho).any()       # uncovered cells
        assert not np.isnan(rho).all()   # covered cells present

    def test_custom_fill_value(self):
        sim = make_sim(max_levels=2)
        rho = gather_level_field(sim.hierarchy.level(1), "density0", fill=-1.0)
        assert (rho == -1.0).any()

    def test_host_interior_shapes(self):
        sim = make_sim()
        patch = sim.hierarchy.level(0).patches[0]
        assert host_interior(patch, "density0").shape == (32, 32)
        assert host_interior(patch, "xvel0").shape == (33, 33)
        assert host_interior(patch, "vol_flux_x").shape == (33, 32)
