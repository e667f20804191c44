"""Bitwise parity of incremental regrid against the from-scratch path.

The whole point of the tag-diff / kept-level / schedule-cache fast paths
is that they are *pure* time optimisations: every backend must produce
bit-for-bit the same hierarchy and fields with ``regrid_incremental``
on as off.  These tests enforce that across problems, backends and
kernel drivers, plus the counters that prove the fast paths actually
engaged.
"""

from __future__ import annotations

import numpy as np
import pytest
from geometry_oracle import check_proper_nesting

from repro.api import ExecutionPolicy, RegridPolicy, RunConfig, \
    RunSession, run
from repro.hydro.diagnostics import gather_level_field
from repro.hydro.problems import SodProblem, TriplePointProblem

FIELDS = ("density0", "energy0", "pressure", "xvel0", "yvel0")

#: (label, use_gpu, resident)
BACKENDS = [
    ("host", False, True),
    ("resident", True, True),
    ("nonresident", True, False),
]

#: (label, batch)
DRIVERS = [
    ("patch", False),
    ("batch", True),
]


def _cfg(problem, *, incremental, use_gpu=False, resident=True,
         batch=False, regrid_interval=2, **overrides):
    kwargs = dict(
        problem=problem,
        nranks=2,
        use_gpu=use_gpu,
        resident=resident,
        max_levels=2,
        max_patch_size=16,
        regrid=RegridPolicy(interval=regrid_interval,
                            incremental=incremental),
        max_steps=6,
        execution=ExecutionPolicy(batch=batch),
    )
    kwargs.update(overrides)
    return RunConfig(**kwargs)


_CACHE: dict = {}


def _cached_run(cfg):
    key = (type(cfg.problem).__name__, cfg.use_gpu, cfg.resident,
           cfg.execution.batch,
           cfg.regrid.incremental)
    if key not in _CACHE:
        _CACHE[key] = run(cfg)
    return _CACHE[key]


def assert_runs_identical(a, b):
    assert a.dt_history == b.dt_history
    ha, hb = a.sim.hierarchy, b.sim.hierarchy
    assert ha.num_levels == hb.num_levels
    for lnum in range(ha.num_levels):
        la, lb = ha.level(lnum), hb.level(lnum)
        assert [(tuple(p.box.lower), tuple(p.box.upper), p.owner)
                for p in la] == \
               [(tuple(p.box.lower), tuple(p.box.upper), p.owner)
                for p in lb], f"layout diverged on level {lnum}"
        for field in FIELDS:
            fa = gather_level_field(la, field)
            fb = gather_level_field(lb, field)
            assert np.array_equal(fa, fb, equal_nan=True), (
                f"{field} diverged on level {lnum}"
            )


@pytest.mark.parametrize("backend,use_gpu,resident",
                         BACKENDS, ids=[b[0] for b in BACKENDS])
@pytest.mark.parametrize("driver,batch",
                         DRIVERS, ids=[d[0] for d in DRIVERS])
class TestBitwiseParity:
    def test_sod(self, backend, use_gpu, resident, driver, batch):
        base = _cached_run(_cfg(SodProblem((32, 32)), incremental=False,
                                use_gpu=use_gpu, resident=resident,
                                batch=batch))
        inc = _cached_run(_cfg(SodProblem((32, 32)), incremental=True,
                               use_gpu=use_gpu, resident=resident,
                               batch=batch))
        assert_runs_identical(base, inc)

    def test_triple_point(self, backend, use_gpu, resident, driver, batch):
        base = _cached_run(_cfg(TriplePointProblem((28, 12)),
                                incremental=False, use_gpu=use_gpu,
                                resident=resident, batch=batch))
        inc = _cached_run(_cfg(TriplePointProblem((28, 12)),
                               incremental=True, use_gpu=use_gpu,
                               resident=resident, batch=batch))
        assert_runs_identical(base, inc)


class TestFastPathsEngage:
    """A quiescent run (dt capped to ~0) never moves its flags: every
    regrid after the first must reuse boxes, keep levels, and serve its
    schedules from cache."""

    def quiescent(self, incremental):
        return run(_cfg(SodProblem((32, 32)), incremental=incremental,
                        regrid_interval=1, max_steps=6, dt_max=1e-9))

    def test_reuse_and_keep_counters(self):
        res = self.quiescent(True)
        t = res.sim.regridder.totals
        assert t.regrids >= 5
        assert t.levels_reused > 0
        assert t.levels_kept > 0
        assert t.levels_reclustered <= 1  # only the first regrid clusters

    def test_schedule_cache_hits(self):
        res = self.quiescent(True)
        m = res.sim.comm.ranks[0].metrics
        assert m.value("schedule_cache.hits", kind="fill") > 0
        assert m.value("schedule_cache.hits", kind="regrid_ghost") > 0

    def test_quiescent_parity(self):
        assert_runs_identical(self.quiescent(False), self.quiescent(True))

    def test_manifest_carries_regrid_counters(self):
        res = self.quiescent(True)
        counters = res.metrics["counters"]
        assert counters["regrid.levels_reused"] > 0
        assert counters["regrid.levels_kept"] > 0
        assert any(k.startswith("schedule_cache.hits") for k in counters)
        assert any(k.startswith("regrid.phase_seconds") for k in counters)


class TestServeParity:
    def test_preempt_resume_bitwise(self):
        """A job preempted mid-run and resumed from checkpoint must land
        on the same bits with incremental regrid on."""
        cfg = _cfg(SodProblem((32, 32)), incremental=True, max_steps=6)
        straight = run(cfg)
        a = RunSession(cfg)
        a.advance(3)
        db = a.checkpoint_db()
        hist = list(a.dt_history)
        a.close()
        b = RunSession(cfg, init_db=db, dt_history=hist)
        b.advance()
        resumed = b.result()
        assert resumed.dt_history == straight.dt_history
        assert resumed.final_fields == straight.final_fields
        b.close()


class TestSanitizer:
    def test_incremental_run_sanitize_clean(self):
        res = run(_cfg(SodProblem((32, 32)), incremental=True,
                       sanitize=True))
        assert res.sanitize_counters is not None


class TestInteriorReusePolicy:
    """The opt-in "interior" policy reuses boxes while drifting tags stay
    covered — not bitwise, but always a valid (properly nested) grid."""

    def test_valid_nesting_throughout(self):
        from repro.hydro.integrator import (
            LagrangianEulerianIntegrator,
            SimulationConfig,
        )
        from repro.mesh.variables import HostDataFactory
        from repro.regrid.regridder import RegridConfig
        from repro import make_communicator

        comm = make_communicator("IPA", 1, gpus=False)
        sim = LagrangianEulerianIntegrator(
            SodProblem((32, 32)), comm, HostDataFactory(),
            SimulationConfig(
                max_levels=2, max_patch_size=16,
                regrid=RegridConfig(regrid_interval=2, incremental=True,
                                    reuse_policy="interior")))
        sim.initialise()
        for _ in range(10):
            sim.step()
            assert check_proper_nesting(sim.hierarchy) == []
