"""End-to-end integration tests of the full AMR hydrodynamics stack."""

import numpy as np
import pytest

from repro import (
    CudaDataFactory,
    HostDataFactory,
    LagrangianEulerianIntegrator,
    SimulationConfig,
    SimulationError,
    SodProblem,
    TriplePointProblem,
    field_summary,
    gather_level_field,
    make_communicator,
)
from repro.hydro.problems import BlastProblem
from counts import pcie_bytes
from geometry_oracle import check_proper_nesting, contains, level_boxes


def make_sim(problem=None, nranks=1, gpus=False, max_levels=2,
             max_patch=32, machine="IPA"):
    comm = make_communicator(machine, nranks, gpus=gpus)
    factory = CudaDataFactory() if gpus else HostDataFactory()
    sim = LagrangianEulerianIntegrator(
        problem if problem is not None else SodProblem((32, 32)),
        comm, factory,
        SimulationConfig(max_levels=max_levels, max_patch_size=max_patch),
    )
    sim.initialise()
    return sim


class TestInitialisation:
    def test_builds_requested_levels(self):
        sim = make_sim(max_levels=3)
        assert sim.hierarchy.num_levels == 3

    def test_uniform_single_level(self):
        sim = make_sim(problem=SodProblem((16, 16)), max_levels=1)
        assert sim.hierarchy.num_levels == 1

    def test_refinement_follows_interface(self):
        sim = make_sim(problem=SodProblem((32, 32), interface=0.25),
                       max_levels=2)
        l1 = sim.hierarchy.level(1)
        # refined boxes straddle the fine-space interface at x = 16
        union = level_boxes(l1).bounding_box()
        assert union.lower[0] <= 16 <= union.upper[0]

    def test_proper_nesting_after_init(self):
        sim = make_sim(max_levels=3)
        assert check_proper_nesting(sim.hierarchy) == []

    def test_initial_summary(self):
        sim = make_sim()
        s = field_summary(sim.hierarchy)
        assert s["volume"] == pytest.approx(1.0)
        # Sod: mass = 0.5*1 + 0.5*0.125
        assert s["mass"] == pytest.approx(0.5625)
        assert s["ke"] == 0.0


class TestConservation:
    def test_mass_nearly_conserved_amr(self):
        sim = make_sim(max_levels=2)
        m0 = field_summary(sim.hierarchy)["mass"]
        sim.run(max_steps=10)
        m1 = field_summary(sim.hierarchy)["mass"]
        assert m1 == pytest.approx(m0, rel=2e-3)

    def test_mass_exactly_conserved_uniform(self):
        """Single level + reflective walls: advection telescopes exactly."""
        sim = make_sim(problem=SodProblem((32, 32)), max_levels=1)
        m0 = field_summary(sim.hierarchy)["mass"]
        sim.run(max_steps=10)
        m1 = field_summary(sim.hierarchy)["mass"]
        assert m1 == pytest.approx(m0, rel=1e-12)

    def test_total_energy_drift_small(self):
        sim = make_sim(max_levels=2)
        s0 = field_summary(sim.hierarchy)
        e0 = s0["ie"] + s0["ke"]
        sim.run(max_steps=10)
        s1 = field_summary(sim.hierarchy)
        e1 = s1["ie"] + s1["ke"]
        assert e1 == pytest.approx(e0, rel=5e-3)

    def test_kinetic_energy_appears(self):
        sim = make_sim()
        sim.run(max_steps=5)
        assert field_summary(sim.hierarchy)["ke"] > 0.0


class TestUniformStateInvariance:
    def test_constant_state_stays_constant(self):
        """A uniform gas at rest must remain exactly uniform (well-balanced)."""
        class UniformProblem(SodProblem):
            def initial_state(self, xc, yc):
                shape = np.broadcast_shapes(xc.shape, yc.shape)
                return np.ones(shape), np.full(shape, 2.5)

        sim = make_sim(problem=UniformProblem((16, 16)), max_levels=1,
                       max_patch=8)  # multiple patches: exercises halo copies
        sim.run(max_steps=5)
        rho = gather_level_field(sim.hierarchy.level(0), "density0")
        u = gather_level_field(sim.hierarchy.level(0), "xvel0")
        assert np.allclose(rho, 1.0, atol=1e-13)
        assert np.allclose(u[:-1, :-1], 0.0, atol=1e-13)


class TestDeterminism:
    def test_rank_count_does_not_change_physics(self):
        """Domain decomposition must not alter the solution."""
        outs = []
        for nranks in (1, 4):
            sim = make_sim(nranks=nranks, max_levels=2, max_patch=16)
            sim.run(max_steps=6)
            outs.append(gather_level_field(sim.hierarchy.level(0), "density0"))
        assert np.array_equal(outs[0], outs[1])

    def test_cpu_gpu_bitwise_identical(self):
        outs = []
        for gpus in (False, True):
            sim = make_sim(gpus=gpus, max_levels=2)
            sim.run(max_steps=6)
            outs.append(gather_level_field(sim.hierarchy.level(0), "density0"))
        assert np.array_equal(outs[0], outs[1])

    def test_repeat_run_identical(self):
        a = make_sim(max_levels=2)
        b = make_sim(max_levels=2)
        a.run(max_steps=4)
        b.run(max_steps=4)
        assert np.array_equal(
            gather_level_field(a.hierarchy.level(0), "energy0"),
            gather_level_field(b.hierarchy.level(0), "energy0"),
        )


class TestRegriddingDuringRun:
    def test_patches_track_moving_shock(self):
        sim = make_sim(problem=SodProblem((48, 16)), max_levels=2, max_patch=48)
        sim.run(max_steps=4)
        before = level_boxes(sim.hierarchy.level(1)).bounding_box()
        sim.run(max_steps=30)  # several regrids; shock moves right
        after = level_boxes(sim.hierarchy.level(1)).bounding_box()
        assert after.upper[0] > before.upper[0]

    def test_nesting_invariant_maintained(self):
        sim = make_sim(max_levels=3, max_patch=16)
        for _ in range(12):
            sim.step()
            assert check_proper_nesting(sim.hierarchy) == []

    def test_schedules_rebuilt_after_regrid(self):
        sim = make_sim(max_levels=2)
        sim.run(max_steps=sim.config.regrid.regrid_interval)
        # the regrid purged schedules touching rebuilt levels; stepping
        # on rebuilds them without error
        sim.run(max_steps=sim.config.regrid.regrid_interval + 2)
        m = sim.comm.ranks[0].metrics
        assert m.value("schedule_cache.misses", kind="fill") > 0  # rebuilt
        assert m.value("schedule_cache.hits", kind="fill") > 0    # re-served


class TestTimers:
    def test_all_phases_timed(self):
        sim = make_sim(max_levels=2)
        sim.run(max_steps=6)
        t = sim.timer_summary()
        for name in ("hydro", "timestep", "sync", "regrid"):
            assert t.get(name, 0.0) > 0.0

    def test_hydro_dominates(self):
        """Paper SV-B: most of the runtime is hydro, not AMR bookkeeping."""
        sim = make_sim(problem=SodProblem((64, 64)), max_levels=2, max_patch=64)
        sim.run(max_steps=10)
        t = sim.timer_summary()
        assert t["hydro"] > t["sync"]
        assert t["hydro"] > t["timestep"]

    def test_virtual_clock_monotone(self):
        sim = make_sim()
        t0 = sim.elapsed()
        sim.step()
        assert sim.elapsed() > t0


class TestGpuResidency:
    def test_no_full_field_transfers_during_step(self):
        """Residency (paper SIV): steps move only halos, tags, reductions
        over PCIe — orders of magnitude less than the field data."""
        sim = make_sim(gpus=True, max_levels=2, max_patch=32)
        dev = sim.comm.rank(0).device
        field_bytes = dev.bytes_allocated
        moved0 = pcie_bytes(dev)
        sim.run(max_steps=3)  # no regrid inside
        moved = pcie_bytes(dev) - moved0
        assert moved < 0.2 * field_bytes * 3

    def test_device_memory_stable_across_steps(self):
        sim = make_sim(gpus=True, max_levels=2)
        sim.step()
        a = sim.comm.rank(0).device.bytes_allocated
        sim.step()
        sim.step()
        b = sim.comm.rank(0).device.bytes_allocated
        assert a == b


class TestProblems:
    def test_triple_point_runs(self):
        comm = make_communicator("TITAN", 2, gpus=True)
        sim = LagrangianEulerianIntegrator(
            TriplePointProblem((28, 12)), comm, CudaDataFactory(),
            SimulationConfig(max_levels=2, max_patch_size=28))
        sim.initialise()
        sim.run(max_steps=5)
        assert sim.time > 0
        assert field_summary(sim.hierarchy)["ke"] > 0

    def test_blast_refines_centre(self):
        sim = make_sim(problem=BlastProblem((32, 32)), max_levels=2,
                       max_patch=64)
        bb = level_boxes(sim.hierarchy.level(1)).bounding_box()
        # refinement ring surrounds the centre (32, 32) in fine space
        assert contains(bb, (32, 32))

    def test_end_time_run(self):
        sim = make_sim(problem=SodProblem((16, 16)), max_levels=1)
        sim.run(end_time=0.05)
        assert sim.time >= 0.05

    def test_run_requires_budget(self):
        sim = make_sim()
        with pytest.raises(ValueError):
            sim.run()
