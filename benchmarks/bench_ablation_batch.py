"""Ablation: per-patch vs level-batched (whole-slab) kernel execution.

The paper attributes the GPU code's small-problem losses to fixed
per-launch overheads multiplied by the many small patches AMR creates
(the mechanism behind Fig. 9's crossover).  The batched execution layer
answers this the way AMReX fuses per-box work into one MultiFab launch:
each level's fields live in pooled arenas and every sweep issues one
fused launch per (backend, kernel, level) instead of one per patch,
executed as one stacked NumPy op over the whole arena slab where the
level is uniform.

Measured on a patch-size sweep of a fixed Sod problem (smaller patches
-> more patches -> more per-patch overhead to amortise):

* **modelled time** — ``--batch`` vs per-patch launches: fusion removes
  the modelled fixed launch overhead, so grind time drops.  Bitwise
  identical fields are asserted.
* **real wall-clock** of the batched run, whole step loop and — via
  ``BatchCounter.host_seconds`` (perf_counter at the backend seam) —
  the fused hydro sweeps alone, isolated from the surrounding per-patch
  machinery (halo copies, regridding) that stays on the fallback path.
"""

import numpy as np
import pytest

from repro.api import ExecutionPolicy, RunConfig, run
from repro.exec.stats import combined_stats
from repro.hydro.diagnostics import gather_level_field
from repro.hydro.problems import SodProblem

from _report import FULL, QUICK_STEPS, emit, table

RES = 96 if FULL else 48
STEPS = QUICK_STEPS
PATCH_SIZES = [8, 16, RES]
FIELDS = ("density0", "energy0", "pressure", "xvel0", "yvel0")
#: wall-clock points are re-run this many times; best-of is reported
REPEATS = 3
#: the slab-eligible hydro sweep kernels (halo exchange and geometry
#: interpolation are inherently per-patch and stay on the fallback path)
SWEEP_KERNELS = (
    "hydro.ideal_gas", "hydro.viscosity", "hydro.calc_dt", "hydro.pdv",
    "hydro.accelerate", "hydro.flux_calc", "hydro.advec_cell",
    "hydro.advec_mom", "hydro.reset_field",
)


def run_point(max_patch: int, batch: bool):
    cfg = RunConfig(
        problem=SodProblem((RES, RES)),
        machine="IPA",
        nranks=1,
        use_gpu=True,
        max_levels=2,
        max_patch_size=max_patch,
        max_steps=STEPS,
        execution=ExecutionPolicy(batch=batch),
    )
    return run(cfg)


def _sweep_kernel_wall(res) -> float:
    """Real host seconds spent executing the slab-eligible fused launches."""
    stats = combined_stats(r.exec_stats for r in res.sim.comm.ranks)
    return sum(stats.batches[k].host_seconds
               for k in SWEEP_KERNELS if k in stats.batches)


def _timed_point(max_patch: int):
    """Best-of-REPEATS wall numbers for the batched configuration."""
    best_step = best_kernel = float("inf")
    res = None
    for _ in range(REPEATS):
        res = run_point(max_patch, batch=True)
        best_step = min(best_step, res.step_wall_seconds)
        best_kernel = min(best_kernel, _sweep_kernel_wall(res))
    return res, best_step, best_kernel


@pytest.fixture(scope="module")
def sweep():
    rows = []
    for size in PATCH_SIZES:
        off = run_point(size, batch=False)
        on, wall_batch, kernel_wall_batch = _timed_point(size)
        stats = combined_stats(r.exec_stats for r in on.sim.comm.ranks)
        launches = sum(b.launches for b in stats.batches.values())
        members = sum(b.members for b in stats.batches.values())
        saved = sum(b.overhead_saved_seconds for b in stats.batches.values())
        rows.append({
            "size": size,
            "patches": sum(len(lv) for lv in on.sim.hierarchy),
            "runtime_off": off.runtime,
            "runtime_on": on.runtime,
            "grind_off": off.grind_time,
            "grind_on": on.grind_time,
            "speedup": off.grind_time / on.grind_time,
            "launches": launches,
            "members": members,
            "patches_per_launch": members / launches if launches else 0.0,
            "overhead_saved": saved,
            "wall_off": off.step_wall_seconds,
            "wall_batch": wall_batch,
            "kernel_wall_batch": kernel_wall_batch,
            "slab_fused": sum(c.fused for c in stats.slab.values()),
            "slab_fallback": sum(c.fallback for c in stats.slab.values()),
            "off": off,
            "on": on,
        })
    return rows


def test_batch_table(sweep, benchmark):
    def render():
        return table(
            f"Ablation: fused launches (Sod {RES}x{RES}, 2 levels, "
            f"{STEPS} steps, 1 GPU)",
            ["max patch", "patches", "per-patch (s)", "batched (s)",
             "grind speedup", "fused launches", "patches/launch",
             "step wall (s)", "sweep wall (s)"],
            [[r["size"], r["patches"], f"{r['runtime_off']:.4f}",
              f"{r['runtime_on']:.4f}", f"{r['speedup']:.2f}x",
              r["launches"], f"{r['patches_per_launch']:.1f}",
              f"{r['wall_batch']:.3f}", f"{r['kernel_wall_batch']:.3f}"]
             for r in sweep],
        )
    lines = benchmark(render)
    small = sweep[0]
    lines.append(
        f"many-small-patch speedup: {small['speedup']:.2f}x grind "
        f"({small['grind_off']:.3e} -> {small['grind_on']:.3e} s/cell/step) "
        f"at {small['patches']} patches of {small['size']}^2")
    lines.append(
        f"launch overhead saved   : {small['overhead_saved']:.4f}s over "
        f"{small['members']} member kernels in {small['launches']} launches")
    lines.append(
        f"slab kernels (real wall): {small['kernel_wall_batch']:.3f}s host "
        f"in the fused hydro sweeps at {small['patches']} patches; "
        f"{small['slab_fused']} fused whole-slab launches, "
        f"{small['slab_fallback']} per-patch fallbacks; step wall "
        f"{small['wall_off']:.3f}s per-patch -> {small['wall_batch']:.3f}s")
    emit("ablation_batch", lines,
         config={"problem": f"sod {RES}x{RES}", "levels": 2, "steps": STEPS,
                 "patch_sizes": PATCH_SIZES, "wall_repeats": REPEATS},
         metrics={"sweep": [{k: v for k, v in r.items()
                             if k not in ("off", "on")}
                            for r in sweep]},
         manifest=sweep[0]["on"].metrics)


def test_batch_speedup_on_small_patches(sweep):
    """The headline: >= 1.5x grind on the many-small-patch configuration
    (launch overhead dominates 8x8 patches; one launch per level
    amortises it across the whole level)."""
    assert sweep[0]["speedup"] >= 1.5


def test_batch_speedup_grows_with_patch_count(sweep):
    """Fewer patches -> less overhead to save; the win shrinks as patch
    size grows (same shape as Fig. 9's crossover)."""
    assert sweep[0]["speedup"] > sweep[-1]["speedup"]


def test_batch_fuses_many_patches_per_launch(sweep):
    small = sweep[0]
    assert small["launches"] > 0
    assert small["patches_per_launch"] > 2.0


def test_wall_clock_fields_recorded(sweep):
    """Every sweep row reports real wall-clock and slab launch counts
    (asserted by CI's benchmarks-smoke job on the emitted JSON), and the
    many-small-patch hydro sweeps really run whole-slab."""
    for r in sweep:
        for key in ("wall_off", "wall_batch", "kernel_wall_batch"):
            assert r[key] > 0.0, f"{key} missing at size {r['size']}"
        assert r["slab_fused"] + r["slab_fallback"] > 0
    assert sweep[0]["slab_fused"] > 0


def test_batch_fields_bitwise_identical(sweep):
    """Fused whole-slab launches compute the same bits as per-patch ones."""
    for r in sweep:
        assert r["on"].dt_history == r["off"].dt_history
        off, on = r["off"].sim, r["on"].sim
        assert off.hierarchy.num_levels == on.hierarchy.num_levels
        for lnum in range(off.hierarchy.num_levels):
            for field in FIELDS:
                a = gather_level_field(off.hierarchy.level(lnum), field)
                b = gather_level_field(on.hierarchy.level(lnum), field)
                assert np.array_equal(a, b, equal_nan=True)
