"""Unit tests for the Regridder (flag → cluster → rebuild → transfer)."""

import numpy as np
import pytest

from repro import (
    HostDataFactory,
    LagrangianEulerianIntegrator,
    SimulationConfig,
    SodProblem,
    gather_level_field,
    make_communicator,
)
from repro.hydro.problems import BlastProblem
from repro.regrid.regridder import RegridConfig


def make_sim(problem=None, max_levels=2, nranks=1, **regrid_kw):
    comm = make_communicator("IPA", nranks, gpus=False)
    cfg = SimulationConfig(
        max_levels=max_levels, max_patch_size=32,
        regrid=RegridConfig(**regrid_kw) if regrid_kw else RegridConfig(),
    )
    sim = LagrangianEulerianIntegrator(
        problem if problem is not None else SodProblem((32, 32)),
        comm, HostDataFactory(), cfg)
    sim.initialise()
    return sim


class TestBoxGeneration:
    def test_stats_populated(self):
        sim = make_sim()
        stats = sim.regridder.last_stats
        assert stats.tags_per_level.get(0, 0) > 0
        assert stats.boxes_per_level.get(1, 0) > 0

    def test_no_tags_no_level(self):
        class Uniform(SodProblem):
            def initial_state(self, xc, yc):
                shape = np.broadcast_shapes(xc.shape, yc.shape)
                return np.ones(shape), np.full(shape, 2.5)

        sim = make_sim(problem=Uniform((16, 16)))
        assert sim.hierarchy.num_levels == 1

    def test_boxes_respect_max_patch_size(self):
        sim = make_sim(max_patch_size=8)
        for p in sim.hierarchy.level(1):
            assert max(p.box.shape()) <= 8

    def test_tag_buffer_expands_refined_region(self):
        small = make_sim(tag_buffer=0)
        large = make_sim(tag_buffer=4)
        assert (large.hierarchy.level(1).total_cells()
                > small.hierarchy.level(1).total_cells())

    def test_efficiency_controls_box_tightness(self):
        tight = make_sim(problem=BlastProblem((32, 32)), min_efficiency=0.9)
        loose = make_sim(problem=BlastProblem((32, 32)), min_efficiency=0.1)
        # looser efficiency allows fewer, fatter boxes
        assert len(loose.hierarchy.level(1)) <= len(tight.hierarchy.level(1))


class TestSolutionTransfer:
    def test_state_preserved_where_level_persists(self):
        sim = make_sim(problem=SodProblem((32, 32)))
        sim.run(max_steps=2)  # no regrid yet (interval 5)
        rho_before = gather_level_field(sim.hierarchy.level(1), "density0")
        sim.regridder.regrid(sim._remake_level_data)
        sim._invalidate_schedules()
        rho_after = gather_level_field(sim.hierarchy.level(1), "density0")
        both = ~(np.isnan(rho_before) | np.isnan(rho_after))
        # where both old and new level exist, the data is copied exactly
        assert np.array_equal(rho_before[both], rho_after[both])

    def test_new_regions_interpolated_from_coarse(self):
        sim = make_sim()
        sim.run(max_steps=7)  # includes a regrid at step 5
        rho1 = gather_level_field(sim.hierarchy.level(1), "density0")
        valid = rho1[~np.isnan(rho1)]
        assert valid.size > 0
        assert np.all(valid > 0.0)
        assert np.all(np.isfinite(valid))

    def test_level_removed_when_feature_vanishes(self):
        sim = make_sim()
        assert sim.hierarchy.num_levels == 2
        # Flatten the solution: no gradients anywhere -> no tags.
        for patch in sim.hierarchy.level(0):
            for name in ("density0", "energy0", "pressure"):
                patch.data(name).fill(1.0)
        for patch in sim.hierarchy.level(1):
            for name in ("density0", "energy0", "pressure"):
                patch.data(name).fill(1.0)
        sim.regridder.regrid(sim._remake_level_data)
        assert sim.hierarchy.num_levels == 1

    def test_regrid_charges_time(self):
        sim = make_sim()
        t0 = sim.comm.max_time()
        sim.regridder.regrid(sim._remake_level_data)
        assert sim.comm.max_time() > t0


class TestMultiRank:
    def test_regrid_distributes_patches(self):
        sim = make_sim(nranks=4, max_levels=2)
        owners = {p.owner for p in sim.hierarchy.level(1)}
        assert len(owners) > 1  # fine level spread over ranks

    def test_rank_count_invariant_physics(self):
        fields = []
        for nranks in (1, 3):
            sim = make_sim(nranks=nranks)
            sim.run(max_steps=6)  # includes a regrid
            fields.append(gather_level_field(sim.hierarchy.level(0), "density0"))
        assert np.array_equal(fields[0], fields[1])
