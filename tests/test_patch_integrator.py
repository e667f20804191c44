"""Unit tests for patch-integrator dispatch (CPU / resident / copying)."""

import numpy as np
import pytest

from repro import (
    CudaDataFactory,
    HostDataFactory,
    SimulationConfig,
    SodProblem,
    make_communicator,
)
from repro.hydro.integrator import LagrangianEulerianIntegrator
from repro.hydro.patch_integrator import (
    CleverleafPatchIntegrator,
    NonResidentGpuPatchIntegrator,
)
from counts import gpu_launches, pcie_bytes, pcie_transfers


def make_patch(gpus: bool, nonresident=False):
    comm = make_communicator("IPA", 1, gpus=True)
    pi = (NonResidentGpuPatchIntegrator() if nonresident
          else CleverleafPatchIntegrator())
    # Non-resident keeps the data host-side (that is the point); the
    # resident build uses device-resident data.
    factory = (HostDataFactory() if (nonresident or not gpus)
               else CudaDataFactory())
    sim = LagrangianEulerianIntegrator(
        SodProblem((16, 16)), comm, factory,
        SimulationConfig(max_levels=1, max_patch_size=16),
        patch_integrator=pi,
    )
    sim.initialise()
    return sim, sim.hierarchy.level(0).patches[0], comm.rank(0), pi


class TestDispatch:
    def test_resident_kernels_launch_on_device(self):
        sim, patch, rank, pi = make_patch(gpus=True)
        n0 = gpu_launches(rank.device, "hydro.viscosity")
        pi.viscosity(patch, rank)
        assert gpu_launches(rank.device, "hydro.viscosity") == n0 + 1

    def test_host_kernels_charge_cpu_clock(self):
        sim, patch, rank, pi = make_patch(gpus=False)
        launches0 = gpu_launches(rank.device)
        t0 = rank.clock.time
        pi.viscosity(patch, rank)
        assert rank.clock.time > t0
        assert gpu_launches(rank.device) == launches0  # GPU untouched

    def test_calc_dt_returns_scalar_and_charges_d2h(self):
        sim, patch, rank, pi = make_patch(gpus=True)
        d2h0 = pcie_bytes(rank.device, "d2h")
        dt = pi.calc_dt(patch, rank)
        assert 0 < dt < 1
        assert pcie_bytes(rank.device, "d2h") == d2h0 + 8  # the reduced scalar

    def test_ideal_gas_predict_uses_level1_fields(self):
        sim, patch, rank, pi = make_patch(gpus=False)
        patch.data("density1").fill(2.0)
        patch.data("energy1").fill(1.0)
        pi.ideal_gas(patch, rank, predict=True)
        p = patch.data("pressure").interior()
        assert np.allclose(p, 0.4 * 2.0 * 1.0)


class TestNonResidentAccounting:
    def test_every_kernel_brackets_with_copies(self):
        sim, patch, rank, pi = make_patch(gpus=True, nonresident=True)
        dev = rank.device
        h0, d0 = pcie_transfers(dev, "h2d"), pcie_transfers(dev, "d2h")
        pi.viscosity(patch, rank)
        # 5 fields read/written up + 1 written back
        assert pcie_transfers(dev, "h2d") - h0 == 5
        assert pcie_transfers(dev, "d2h") - d0 == 1

    def test_data_stays_on_host(self):
        sim, patch, rank, pi = make_patch(gpus=True, nonresident=True)
        assert not getattr(patch.data("density0"), "RESIDENT", False)

    def test_physics_identical_to_resident(self):
        def run(nonresident):
            comm = make_communicator("IPA", 1, gpus=True)
            pi = (NonResidentGpuPatchIntegrator() if nonresident
                  else CleverleafPatchIntegrator())
            sim = LagrangianEulerianIntegrator(
                SodProblem((16, 16)), comm,
                HostDataFactory() if nonresident else CudaDataFactory(),
                SimulationConfig(max_levels=1, max_patch_size=16),
                patch_integrator=pi)
            sim.initialise()
            sim.run(max_steps=4)
            from repro import gather_level_field
            return gather_level_field(sim.hierarchy.level(0), "density0")

        assert np.array_equal(run(False), run(True))

    def test_nonresident_without_device_rejected(self):
        comm = make_communicator("IPA", 1, gpus=False)
        sim = LagrangianEulerianIntegrator(
            SodProblem((16, 16)), comm, HostDataFactory(),
            SimulationConfig(max_levels=1, max_patch_size=16),
            patch_integrator=NonResidentGpuPatchIntegrator())
        with pytest.raises(ValueError):
            sim.initialise()
