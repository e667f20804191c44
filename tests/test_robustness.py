"""Robustness: randomised initial states must advance without blow-ups.

Hypothesis drives full AMR steps from random (but physical: positive
density/energy, bounded velocity) initial conditions and checks the
machinery never produces NaNs, negative densities, or broken nesting.
"""

import numpy as np
import pytest
from geometry_oracle import check_proper_nesting
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    HostDataFactory,
    LagrangianEulerianIntegrator,
    SimulationConfig,
    field_summary,
    gather_level_field,
    make_communicator,
)
from repro.hydro.problems import Problem


class RandomProblem(Problem):
    """Smooth random density/pressure bumps from a seeded RNG."""

    def __init__(self, seed: int, base_resolution=(24, 24)):
        super().__init__(base_resolution=base_resolution, gamma=1.4)
        self.seed = seed

    def initial_state(self, xc, yc):
        rng = np.random.default_rng(self.seed)
        shape = np.broadcast_shapes(xc.shape, yc.shape)
        density = np.ones(shape)
        pressure = np.ones(shape)
        # a few random smooth Gaussian bumps
        for _ in range(3):
            cx, cy = rng.uniform(0.2, 0.8, size=2)
            amp_d = rng.uniform(-0.5, 4.0)
            amp_p = rng.uniform(-0.5, 4.0)
            w = rng.uniform(0.05, 0.2)
            bump = np.exp(-(((xc - cx) ** 2 + (yc - cy) ** 2) / w ** 2))
            density = density + amp_d * bump
            pressure = pressure + amp_p * bump
        density = np.clip(density, 0.1, None)
        pressure = np.clip(pressure, 0.05, None)
        energy = pressure / ((self.gamma - 1.0) * density)
        return np.broadcast_to(density, shape).copy(), \
            np.broadcast_to(energy, shape).copy()


def advance(seed: int, max_levels: int, steps: int = 5):
    comm = make_communicator("IPA", 1, gpus=False)
    sim = LagrangianEulerianIntegrator(
        RandomProblem(seed), comm, HostDataFactory(),
        SimulationConfig(max_levels=max_levels, max_patch_size=24))
    sim.initialise()
    sim.run(max_steps=steps)
    return sim


class TestRandomStates:
    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_uniform_level_stays_physical(self, seed):
        sim = advance(seed, max_levels=1)
        rho = gather_level_field(sim.hierarchy.level(0), "density0")
        e = gather_level_field(sim.hierarchy.level(0), "energy0")
        assert np.all(np.isfinite(rho)) and np.all(rho > 0)
        assert np.all(np.isfinite(e)) and np.all(e > 0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=6, deadline=None)
    def test_amr_stays_physical_and_nested(self, seed):
        sim = advance(seed, max_levels=2, steps=6)  # includes a regrid
        assert check_proper_nesting(sim.hierarchy) == []
        for level in sim.hierarchy:
            rho = gather_level_field(level, "density0", fill=1.0)
            assert np.all(np.isfinite(rho)) and np.all(rho > 0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=6, deadline=None)
    def test_mass_conserved_uniform(self, seed):
        comm = make_communicator("IPA", 1, gpus=False)
        sim = LagrangianEulerianIntegrator(
            RandomProblem(seed), comm, HostDataFactory(),
            SimulationConfig(max_levels=1, max_patch_size=24))
        sim.initialise()
        m0 = field_summary(sim.hierarchy)["mass"]
        sim.run(max_steps=5)
        m1 = field_summary(sim.hierarchy)["mass"]
        assert m1 == pytest.approx(m0, rel=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=4, deadline=None)
    def test_dt_stays_positive_finite(self, seed):
        sim = advance(seed, max_levels=1, steps=4)
        assert sim.dt is not None
        assert 0 < sim.dt < 1.0
