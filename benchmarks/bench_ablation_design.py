"""Ablations of design parameters called out in DESIGN.md.

* **Patch size** — small patches expose load balance and refinement
  sharpness but multiply kernel launches and halo transactions; large
  patches amortise the GPU's fixed costs (the mechanism behind Fig. 9's
  crossover).
* **Regrid interval** — frequent regridding tracks features tightly (less
  over-refinement) but pays host-side clustering and solution-transfer
  cost every time; the tag buffer must cover feature motion between
  regrids.
"""

import pytest

from repro.api import RegridPolicy, RunConfig, run
from repro.hydro.problems import SodProblem

from _report import QUICK_STEPS, emit, table

RES = 128


def run_point(max_patch=RES, regrid_interval=5, steps=QUICK_STEPS):
    cfg = RunConfig(
        problem=SodProblem((RES, RES)),
        machine="IPA",
        nranks=1,
        use_gpu=True,
        max_levels=2,
        max_patch_size=max_patch,
        regrid=RegridPolicy(interval=regrid_interval),
        max_steps=steps,
    )
    return run(cfg)


#: end-of-run metrics manifest of the largest-patch point, for the JSON
MANIFEST: dict = {}


@pytest.fixture(scope="module")
def patch_sweep():
    out = []
    for size in (16, 32, 64, 128):
        res = run_point(max_patch=size)
        MANIFEST.clear()
        MANIFEST.update(res.metrics)
        metrics = res.sim.comm.rank(0).metrics
        out.append({
            "size": size,
            "runtime": res.runtime,
            "launches": int(metrics.total("kernel.launches", on="gpu")),
            "patches": sum(len(l) for l in res.sim.hierarchy),
        })
    return out


def test_patch_size_table(patch_sweep, benchmark):
    def render():
        return table(
            f"Ablation: max patch size (Sod {RES}x{RES}, GPU, "
            f"{QUICK_STEPS} steps, modelled)",
            ["max patch", "patches", "kernel launches", "runtime (s)"],
            [[r["size"], r["patches"], r["launches"], f"{r['runtime']:.4f}"]
             for r in patch_sweep],
        )
    lines = benchmark(render)
    emit("ablation_patch_size", lines,
         config={"problem": f"sod {RES}x{RES}", "levels": 2,
                 "steps": QUICK_STEPS, "patch_sizes": [16, 32, 64, 128]},
         metrics={"sweep": patch_sweep},
         manifest=MANIFEST)


def test_small_patches_multiply_launches(patch_sweep):
    assert patch_sweep[0]["launches"] > 3 * patch_sweep[-1]["launches"]


def test_large_patches_faster_on_gpu(patch_sweep):
    """Launch overhead amortisation: the same reason Fig. 9's GPU only
    wins at large problems."""
    assert patch_sweep[-1]["runtime"] < patch_sweep[0]["runtime"]


@pytest.fixture(scope="module")
def regrid_sweep():
    out = []
    for interval in (2, 5, 10):
        res = run_point(regrid_interval=interval, steps=20)
        out.append({
            "interval": interval,
            "runtime": res.runtime,
            "regrid_s": res.timers.get("regrid", 0.0),
            "cells": res.cells,
        })
    return out


def test_regrid_interval_table(regrid_sweep, benchmark):
    def render():
        return table(
            f"Ablation: regrid interval (Sod {RES}x{RES}, GPU, 20 steps)",
            ["interval", "final cells", "regrid time (s)", "total (s)"],
            [[r["interval"], r["cells"], f"{r['regrid_s']:.4f}",
              f"{r['runtime']:.4f}"] for r in regrid_sweep],
        )
    lines = benchmark(render)
    emit("ablation_regrid_interval", lines,
         config={"problem": f"sod {RES}x{RES}", "levels": 2, "steps": 20,
                 "intervals": [2, 5, 10]},
         metrics={"sweep": regrid_sweep})


def test_frequent_regrids_cost_more_regrid_time(regrid_sweep):
    assert regrid_sweep[0]["regrid_s"] > regrid_sweep[-1]["regrid_s"]


@pytest.fixture(scope="module")
def balancer_sweep():
    """Spatial (Morton) vs pure-LPT patch assignment at 8 ranks, via the
    first-class ``balance`` knob (``--balance {sfc,hilbert,lpt}``)."""
    out = {}
    for name, balance in (("morton", "sfc"), ("lpt", "lpt")):
        cfg = RunConfig(
            problem=SodProblem((RES, RES)), machine="IPA", nranks=8,
            use_gpu=True, max_levels=2, max_patch_size=32,
            max_steps=QUICK_STEPS, regrid=RegridPolicy(balance=balance),
        )
        out[name] = run(cfg).runtime
    return out


def test_balancer_table(balancer_sweep, benchmark):
    def render():
        return table(
            "Ablation: patch-to-rank assignment (8 GPUs, Sod, modelled)",
            ["balancer", "runtime (s)"],
            [["Morton space-filling curve", f"{balancer_sweep['morton']:.4f}"],
             ["pure LPT (locality-blind)", f"{balancer_sweep['lpt']:.4f}"]],
        )
    lines = benchmark(render)
    gain = balancer_sweep["lpt"] / balancer_sweep["morton"]
    lines.append(f"locality-aware assignment speedup: {gain:.2f}x "
                 "(neighbour halos stay on-rank)")
    emit("ablation_balancer", lines,
         config={"problem": f"sod {RES}x{RES}", "nranks": 8,
                 "max_patch": 32, "steps": QUICK_STEPS},
         metrics={"runtime": dict(balancer_sweep), "speedup": gain})


def test_spatial_balancer_no_slower(balancer_sweep):
    """Locality-aware assignment should not lose to locality-blind LPT."""
    assert balancer_sweep["morton"] <= balancer_sweep["lpt"] * 1.05


def test_all_intervals_track_the_shock(regrid_sweep):
    """Every interval keeps a refined level alive (tag buffer covers the
    motion); the run never loses refinement entirely."""
    for r in regrid_sweep:
        assert r["cells"] > RES * RES
