"""The motivating claim (§I/§II): AMR buys fine-mesh accuracy for a
fraction of the cells, memory and runtime of a uniformly fine mesh.

Runs the Sod problem (a) on a uniform mesh at the fine resolution and
(b) with AMR reaching the same finest resolution from a coarser base, and
compares accuracy against the exact Riemann solution, cell counts, GPU
memory, and modelled runtime.
"""

import numpy as np
import pytest

from repro.api import RunConfig, run
from repro.hydro.diagnostics import amr_savings, gather_level_field
from repro.hydro.problems import SodProblem
from repro.hydro.riemann import sod_exact

from _report import emit, table

FINE = 1024
END_TIME = 0.02


def run_case(max_levels: int, base: int):
    cfg = RunConfig(
        problem=SodProblem((base, base // 4)),
        machine="IPA", nranks=1, use_gpu=True,
        max_levels=max_levels, max_patch_size=2 * base,
        end_time=END_TIME, max_steps=None,
    )
    return run(cfg)


def l1_error_fine(sim, n):
    """L1 density error vs exact, measured on the finest-level profile,
    falling back to coarser data where unrefined."""
    hier = sim.hierarchy
    finest = hier.finest_level_number
    prof = None
    for lnum in range(hier.num_levels):
        rho = gather_level_field(hier.level(lnum), "density0")
        rep = 2 ** (finest - lnum)
        dense = np.repeat(np.repeat(rho, rep, 0), rep, 1)
        prof = dense if prof is None else np.where(np.isnan(prof), dense, prof)
    line = np.nanmean(prof, axis=1)
    x = (np.arange(n) + 0.5) / n
    exact, _, _ = sod_exact(x, sim.time)
    return float(np.abs(line - exact).mean())


@pytest.fixture(scope="module")
def cases():
    uniform = run_case(max_levels=1, base=FINE)
    amr = run_case(max_levels=3, base=FINE // 4)
    return {"uniform": uniform, "amr": amr}


def test_savings_table(cases, benchmark):
    uni, amr = cases["uniform"], cases["amr"]
    err_uni = l1_error_fine(uni.sim, FINE)
    err_amr = l1_error_fine(amr.sim, FINE)
    mem_uni = uni.sim.comm.rank(0).device.peak_bytes
    mem_amr = amr.sim.comm.rank(0).device.peak_bytes

    def render():
        return table(
            f"AMR vs uniform fine mesh (Sod to t={END_TIME}, finest dx = 1/{FINE})",
            ["case", "cells", "GPU MB", "runtime (s)", "L1 error"],
            [
                ["uniform fine", uni.cells, f"{mem_uni / 1e6:.1f}",
                 f"{uni.runtime:.4f}", f"{err_uni:.5f}"],
                ["AMR (3 levels)", amr.cells, f"{mem_amr / 1e6:.1f}",
                 f"{amr.runtime:.4f}", f"{err_amr:.5f}"],
            ],
        )
    lines = benchmark(render)
    s = amr_savings(amr.sim.hierarchy)
    lines.append(f"cell savings factor : {s['savings_factor']:.1f}x "
                 f"({amr.cells} vs {int(s['uniform_fine_cells'])} uniform)")
    lines.append(f"accuracy ratio      : AMR error / uniform error = "
                 f"{err_amr / err_uni:.2f}")
    emit("amr_savings", lines,
         config={"problem": "sod", "fine": FINE, "end_time": END_TIME},
         metrics={"uniform": {"cells": uni.cells, "runtime": uni.runtime,
                              "mem_bytes": mem_uni, "l1_error": err_uni},
                  "amr": {"cells": amr.cells, "runtime": amr.runtime,
                          "mem_bytes": mem_amr, "l1_error": err_amr},
                  "savings_factor": s["savings_factor"]},
         manifest=amr.metrics)
    cases["errors"] = (err_uni, err_amr)


def test_amr_uses_fewer_cells(cases):
    assert cases["amr"].cells < 0.5 * cases["uniform"].cells


def test_amr_uses_less_memory(cases):
    mem_uni = cases["uniform"].sim.comm.rank(0).device.peak_bytes
    mem_amr = cases["amr"].sim.comm.rank(0).device.peak_bytes
    assert mem_amr < 0.7 * mem_uni


def test_amr_is_faster(cases):
    """At sizes where cell work dominates launch overheads (Fig. 9's
    large-problem regime), fewer cells means less runtime."""
    assert cases["amr"].runtime < cases["uniform"].runtime


def test_amr_accuracy_comparable(cases):
    """AMR keeps the error within a small factor of the uniform fine mesh
    (the waves stay inside the refined region)."""
    err_uni = l1_error_fine(cases["uniform"].sim, FINE)
    err_amr = l1_error_fine(cases["amr"].sim, FINE)
    assert err_amr < 3.0 * err_uni
