"""Tests for integrator configuration behaviours: dt control, errors,
phase structure, and factory/integrator combinations."""

import collections
import math

import numpy as np
import pytest
from geometry_oracle import check_proper_nesting

from repro import (
    HostDataFactory,
    LagrangianEulerianIntegrator,
    SimulationConfig,
    SimulationError,
    SodProblem,
    make_communicator,
)
from repro.regrid.regridder import RegridConfig


def make_sim(**cfg_kw):
    comm = make_communicator("IPA", 1, gpus=False)
    cfg = SimulationConfig(max_levels=1, max_patch_size=32, **cfg_kw)
    sim = LagrangianEulerianIntegrator(
        SodProblem((16, 16)), comm, HostDataFactory(), cfg)
    sim.initialise()
    return sim


class TestTimestepControl:
    def test_dt_init_caps_first_step(self):
        sim = make_sim(dt_init=1e-6)
        dt = sim.step()
        assert dt == pytest.approx(1e-6)

    def test_dt_growth_cap(self):
        sim = make_sim(dt_init=1e-6, dt_growth=1.5)
        sim.step()
        dt2 = sim.step()
        assert dt2 <= 1.5e-6 * (1 + 1e-12)

    def test_dt_max_cap(self):
        sim = make_sim(dt_max=1e-7)
        assert sim.step() == pytest.approx(1e-7)

    def test_cfl_dt_without_caps(self):
        sim = make_sim()
        dt = sim.step()
        # Sod on 16x16: dx = 1/16, max cs = sqrt(1.4): dt ~ 0.7*dx/cs
        assert dt == pytest.approx(0.7 * (1 / 16) / math.sqrt(1.4), rel=1e-6)

    def test_invalid_state_raises(self):
        sim = make_sim()
        for patch in sim.hierarchy.level(0):
            patch.data("density0").fill(np.nan)
            patch.data("energy0").fill(np.nan)
        with pytest.raises(SimulationError):
            sim.step()


class TestConfigPlumbing:
    def test_regrid_inherits_patch_size(self):
        cfg = SimulationConfig(max_patch_size=24)
        assert cfg.regrid.max_patch_size == 24

    def test_explicit_regrid_patch_size_kept(self):
        cfg = SimulationConfig(
            max_patch_size=64, regrid=RegridConfig(max_patch_size=16))
        assert cfg.regrid.max_patch_size == 16

    def test_gamma_reaches_eos(self):
        comm = make_communicator("IPA", 1, gpus=False)
        sim = LagrangianEulerianIntegrator(
            SodProblem((8, 8)), comm, HostDataFactory(),
            SimulationConfig(max_levels=1, max_patch_size=8, gamma=2.0))
        sim.initialise()
        patch = sim.hierarchy.level(0).patches[0]
        d = patch.data("density0").interior()
        e = patch.data("energy0").interior()
        p = patch.data("pressure").interior()
        assert np.allclose(p, (2.0 - 1.0) * d * e)

    def test_single_level_never_regrids(self):
        sim = make_sim()
        sim.run(max_steps=6)
        assert sim.hierarchy.num_levels == 1

    def test_refinement_ratio_respected(self):
        comm = make_communicator("IPA", 1, gpus=False)
        sim = LagrangianEulerianIntegrator(
            SodProblem((16, 16)), comm, HostDataFactory(),
            SimulationConfig(max_levels=2, max_patch_size=64,
                             refinement_ratio=4))
        sim.initialise()
        assert sim.hierarchy.num_levels == 2
        assert tuple(sim.hierarchy.level(1).ratio_to_coarser) == (4, 4)
        assert check_proper_nesting(sim.hierarchy) == []


class TestPhaseAccounting:
    """Each rank's phase seconds are ``phase.seconds{phase=…}`` gauges
    in its metrics registry; ``timer_summary`` reads them merged."""

    def test_phase_times_sum_to_elapsed(self):
        sim = make_sim()
        before = sim.timer_summary()
        t0 = sim.elapsed()
        sim.run(max_steps=3)
        total = sim.elapsed() - t0
        parts = sum(s - before.get(phase, 0.0)
                    for phase, s in sim.timer_summary().items())
        # single rank: every charged second lands in exactly one phase
        assert parts == pytest.approx(total, rel=1e-9)

    def test_counts_track_steps(self):
        sim = make_sim()
        entered = collections.Counter()
        phase = sim._phase

        def counted(name, variant=0):
            entered[name] += 1
            return phase(name, variant)

        sim._phase = counted
        sim.run(max_steps=4)
        assert entered["timestep"] == 4
        assert entered["hydro"] == 8  # two hydro phases per step

    def test_accumulates_deltas(self):
        sim = make_sim()
        rank = sim.comm.rank(0)
        for seconds in (2.0, 3.0):
            with sim._phase("work"):
                rank.cpu_charge(seconds)
        assert rank.metrics.levels("phase.seconds")[("work",)] == 5.0
        assert sim.timer_summary()["work"] == 5.0

    def test_phases_are_independent(self):
        sim = make_sim()
        rank = sim.comm.rank(0)
        with sim._phase("outer"):
            rank.cpu_charge(3.0)
        with sim._phase("inner"):
            rank.cpu_charge(2.0)
        with sim._phase("inner"):
            pass  # an empty interval adds nothing
        summary = sim.timer_summary()
        assert (summary["outer"], summary["inner"]) == (3.0, 2.0)

    def test_ranks_merge_by_max(self):
        comm = make_communicator("IPA", 2, gpus=False)
        sim = LagrangianEulerianIntegrator(
            SodProblem((16, 16)), comm, HostDataFactory(),
            SimulationConfig(max_levels=1, max_patch_size=8))
        with sim._phase("hydro"):
            comm.rank(0).cpu_charge(1.0)
            comm.rank(1).cpu_charge(4.0)
        with sim._phase("hydro"):
            comm.rank(0).cpu_charge(5.0)
        assert [r.metrics.levels("phase.seconds") for r in comm.ranks] == [
            {("hydro",): 6.0}, {("hydro",): 4.0}]
        # the critical path: the slowest rank's total, not a sum
        assert sim.timer_summary() == {"hydro": 6.0}

    def test_unknown_phase_is_absent(self):
        sim = make_sim()
        assert "nothing" not in sim.timer_summary()
        assert sim.comm.rank(0).metrics.levels("nothing") == {}
