"""Tests for fill-geometry caching across variables and fill groups."""

import numpy as np
import pytest

from repro.comm.simcomm import SimCommunicator
from repro.geom.operators import CellConservativeLinearRefine, NodeLinearRefine
from repro.mesh.box import Box
from repro.mesh.geometry import CartesianGridGeometry
from repro.mesh.hierarchy import PatchHierarchy
from repro.mesh.variables import HostDataFactory, VariableRegistry
from repro.perf.machines import FDR_INFINIBAND, IPA_CPU_NODE
from repro.xfer.refine_schedule import (
    FillSpec,
    RefineSchedule,
    build_fill_geometry,
    signature_of,
)


def world():
    comm = SimCommunicator(1, IPA_CPU_NODE, FDR_INFINIBAND)
    geom = CartesianGridGeometry(Box([0, 0], [15, 15]), (0, 0), (1, 1))
    hier = PatchHierarchy(geom, max_levels=2)
    reg = VariableRegistry()
    reg.declare("a", "cell", 2)
    reg.declare("b", "cell", 2)   # same signature as a
    reg.declare("v", "node", 2)   # different signature
    boxes = [Box([0, 0], [7, 15]), Box([8, 0], [15, 15])]
    level = hier.make_level(0, boxes, [0, 0])
    level.allocate_all(reg, HostDataFactory(), comm)
    hier.set_level(level)
    return comm, hier, reg


class TestSignatures:
    def test_same_centring_same_signature(self):
        _, _, reg = world()
        assert signature_of(reg["a"]) == signature_of(reg["b"])

    def test_different_centring_different_signature(self):
        _, _, reg = world()
        assert signature_of(reg["a"]) != signature_of(reg["v"])

    def test_side_axis_distinguished(self):
        reg = VariableRegistry()
        reg.declare("fx", "side", 2, axis=0)
        reg.declare("fy", "side", 2, axis=1)
        assert signature_of(reg["fx"]) != signature_of(reg["fy"])


class TestCacheSharing:
    def test_same_signature_shares_geometry(self):
        comm, hier, reg = world()
        cache = {}
        specs = [FillSpec(reg["a"], CellConservativeLinearRefine()),
                 FillSpec(reg["b"], CellConservativeLinearRefine())]
        sched = RefineSchedule(hier.level(0), None, specs, comm,
                               geometry_cache=cache)
        assert len(cache) == 1  # one geometry for both cell variables
        geoms = [g for _, g in sched.items]
        assert geoms[0] is geoms[1]

    def test_cache_reused_across_schedules(self):
        comm, hier, reg = world()
        cache = {}
        specs_a = [FillSpec(reg["a"], CellConservativeLinearRefine())]
        specs_b = [FillSpec(reg["b"], CellConservativeLinearRefine())]
        s1 = RefineSchedule(hier.level(0), None, specs_a, comm,
                            geometry_cache=cache)
        s2 = RefineSchedule(hier.level(0), None, specs_b, comm,
                            geometry_cache=cache)
        assert s1.items[0][1] is s2.items[0][1]

    def test_distinct_signatures_get_distinct_geometry(self):
        comm, hier, reg = world()
        cache = {}
        specs = [FillSpec(reg["a"], CellConservativeLinearRefine()),
                 FillSpec(reg["v"], NodeLinearRefine())]
        RefineSchedule(hier.level(0), None, specs, comm,
                       geometry_cache=cache)
        assert len(cache) == 2

    def test_shared_geometry_fills_both_variables(self):
        comm, hier, reg = world()
        for patch in hier.level(0):
            for name, val in (("a", 1.0), ("b", 2.0)):
                pd = patch.data(name)
                pd.fill(-9.0)
                pd.data.view(patch.box)[...] = val
        specs = [FillSpec(reg["a"], CellConservativeLinearRefine()),
                 FillSpec(reg["b"], CellConservativeLinearRefine())]
        RefineSchedule(hier.level(0), None, specs, comm,
                       geometry_cache={}).fill()
        left = hier.level(0).patches[0]
        frame = left.data("a").get_ghost_box()
        # ghost column i=8 (array row 10) copied from the right patch
        assert np.all(left.data("a").data.array[10, 2:-2] == 1.0)
        assert np.all(left.data("b").data.array[10, 2:-2] == 2.0)


class TestBuildGeometryDirect:
    def test_two_patch_copy_counts(self):
        comm, hier, reg = world()
        geom = build_fill_geometry(
            hier.level(0), None, signature_of(reg["a"]), hier.level(0))
        # each patch takes one ghost slab from its neighbour
        assert len(geom.copies) == 2
        assert len(geom.interps) == 0
        total = sum(region.size() for _, _, region in geom.copies)
        assert total == 2 * (2 * 16)  # 2-wide strip, 16 tall, both ways

    def test_missing_coarse_level_raises(self):
        comm, hier, reg = world()
        lonely = hier.make_level(0, [Box([4, 4], [11, 11])], [0])
        with pytest.raises(ValueError):
            build_fill_geometry(lonely, None, signature_of(reg["a"]), lonely)


class TestScheduleCache:
    """The (src,dst)-keyed schedule cache used by integrator + regridder."""

    def make(self):
        from repro.xfer.schedule_cache import ScheduleCache, level_token
        comm, hier, reg = world()
        return ScheduleCache, level_token, comm, hier, reg

    def test_miss_then_hit(self):
        ScheduleCache, level_token, comm, hier, reg = self.make()
        cache = ScheduleCache()
        lvl = hier.level(0)
        key = (level_token(lvl), None, ("a",), (2,))
        assert cache.get("fill", key, (lvl, None)) is None
        cache.put("fill", key, (lvl, None), "schedule")
        assert cache.get("fill", key, (lvl, None)) == "schedule"
        counts = (cache.metrics.value("schedule_cache.hits", kind="fill"),
                  cache.metrics.value("schedule_cache.misses", kind="fill"),
                  cache.builds)
        assert counts == (1, 1, 1)

    def test_structural_match_different_object_is_miss(self):
        """A rebuilt level with identical layout must not replay the old
        schedule — it holds freed patches."""
        ScheduleCache, level_token, comm, hier, reg = self.make()
        cache = ScheduleCache()
        lvl = hier.level(0)
        twin = hier.make_level(0, [p.box for p in lvl],
                               [p.owner for p in lvl])
        key = (level_token(lvl), None, ("a",), (2,))
        assert level_token(twin) == level_token(lvl)
        cache.put("fill", key, (lvl, None), "schedule")
        assert cache.get("fill", key, (twin, None)) is None

    def test_purge_drops_dead_keeps_live(self):
        ScheduleCache, level_token, comm, hier, reg = self.make()
        cache = ScheduleCache()
        lvl = hier.level(0)
        dead = hier.make_level(0, [p.box for p in lvl],
                               [p.owner for p in lvl])  # never installed
        cache.put("fill", ("k1",), (lvl, None), "live")
        cache.put("fill", ("k2",), (dead, None), "dead")
        dropped = cache.purge(hier)
        assert dropped == 1
        assert cache.purged == 1
        assert cache.get("fill", ("k2",), (dead, None)) is None
        assert cache.get("fill", ("k1",), (lvl, None)) == "live"

    def test_purge_drops_geometry_of_dead_levels(self):
        ScheduleCache, level_token, comm, hier, reg = self.make()
        cache = ScheduleCache()
        lvl = hier.level(0)
        dead = hier.make_level(0, [p.box for p in lvl],
                               [p.owner for p in lvl])
        cache.geometry_cache[(lvl, None, lvl, False, "sig")] = "live"
        cache.geometry_cache[(dead, None, dead, False, "sig")] = "dead"
        cache.purge(hier)
        assert list(cache.geometry_cache.values()) == ["live"]

    def test_counters_mirrored_into_exec_stats(self):
        ScheduleCache, level_token, comm, hier, reg = self.make()
        from repro.obs.metrics import MetricsRegistry
        metrics = MetricsRegistry()
        cache = ScheduleCache(metrics)
        lvl = hier.level(0)
        cache.get("fill", ("k",), (lvl,))
        cache.put("fill", ("k",), (lvl,), "s")
        cache.get("fill", ("k",), (lvl,))
        assert cache.metrics is metrics
        assert (metrics.value("schedule_cache.hits", kind="fill"),
                metrics.value("schedule_cache.misses", kind="fill")) == (1, 1)

    def test_level_token_distinguishes_owner_changes(self):
        ScheduleCache, level_token, comm, hier, reg = self.make()
        lvl = hier.level(0)
        moved = hier.make_level(0, [p.box for p in lvl],
                                [p.owner + 1 for p in lvl])
        assert level_token(moved) != level_token(lvl)
