"""Ablation: resident vs copy-per-kernel GPU AMR (the paper's thesis).

The paper's central claim (SI, SIII) is that earlier GPU AMR codes copy
data between host and device around every kernel (Wang et al., GAMER,
Uintah) and that keeping everything resident — touching the PCIe bus only
for halos, tags and reductions — is what makes GPU AMR pay off.

This bench runs the same simulation with the resident integrator and with
the copy-per-kernel integrator and compares modelled runtime and PCIe
traffic.  Traffic is attributed by cause — the one-off initial-condition
upload during ``initialise``, the step loop (what the paper's claim is
about: dt readbacks and regrid tag bitmaps), and the diagnostics
readback in ``result()`` — by snapshotting the device counters around
each; the residency assertions are on the step loop alone.
"""

import pytest

from repro.api import RunConfig, RunSession
from repro.hydro.problems import SodProblem

from _report import QUICK_STEPS, emit, table

RES = 192


CAUSES = ("init", "steps", "result")


def run_point(resident: bool) -> dict:
    cfg = RunConfig(
        problem=SodProblem((RES, RES)),
        machine="IPA",
        nranks=1,
        use_gpu=True,
        resident=resident,
        max_levels=2,
        max_patch_size=RES,
        max_steps=QUICK_STEPS,
    )
    session = RunSession(cfg)  # runs initialise
    try:
        stats = session.sim.comm.rank(0).device.stats

        def snapshot():
            return (stats.bytes_d2h + stats.bytes_h2d,
                    stats.transfers_d2h + stats.transfers_h2d)

        marks = [(0, 0), snapshot()]
        session.advance()
        marks.append(snapshot())
        res = session.result()  # field_summary reads the fields back
        marks.append(snapshot())
    finally:
        session.close()
    out = {"runtime": res.runtime, "cells": res.cells, "manifest": res.metrics,
           "pcie_bytes": marks[-1][0], "transfers": marks[-1][1]}
    for cause, (b0, n0), (b1, n1) in zip(CAUSES, marks, marks[1:]):
        out[f"{cause}_bytes"] = b1 - b0
        out[f"{cause}_transfers"] = n1 - n0
    return out


@pytest.fixture(scope="module")
def results():
    out = {resident: run_point(resident) for resident in (True, False)}
    out["manifest"] = out[True].pop("manifest")
    del out[False]["manifest"]
    return out


def test_ablation_table(results, benchmark):
    def render():
        rows = []
        for resident in (True, False):
            r = results[resident]
            rows.append([
                "resident" if resident else "copy-per-kernel",
                f"{r['runtime']:.4f}",
                *(f"{r[f'{cause}_bytes'] / 1e6:.4f}" for cause in CAUSES),
                r["steps_transfers"],
            ])
        return table(
            f"Residency ablation (Sod {RES}x{RES}, 2 levels, "
            f"{QUICK_STEPS} steps, 1 GPU, modelled)",
            ["integrator", "runtime (s)", "init MB", "step-loop MB",
             "result() MB", "step-loop transfers"],
            rows,
        )
    lines = benchmark(render)
    speed = results[False]["runtime"] / results[True]["runtime"]
    traffic = (results[False]["steps_bytes"]
               / max(results[True]["steps_bytes"], 1))
    share = _step_share(results[True])
    lines.append(f"resident speedup over copy-per-kernel        : {speed:.2f}x")
    lines.append(f"step-loop PCIe traffic ratio (copying/resident): {traffic:.0f}x")
    lines.append(f"resident step-loop traffic per step / field data: {share:.4%}")
    emit("ablation_resident", lines,
         config={"problem": f"sod {RES}x{RES}", "levels": 2,
                 "steps": QUICK_STEPS},
         metrics={"resident": results[True], "copy_per_kernel": results[False],
                  "speedup": speed, "traffic_ratio": traffic,
                  "resident_step_share": share},
         manifest=results["manifest"])


def _step_share(r: dict) -> float:
    """Step-loop PCIe bytes per step over the field footprint."""
    field_bytes = r["cells"] * 8 * 18  # 18 fields
    return r["steps_bytes"] / QUICK_STEPS / field_bytes


def test_resident_is_faster(results):
    assert results[True]["runtime"] < results[False]["runtime"]


def test_resident_moves_orders_less_data(results):
    assert results[False]["steps_bytes"] > 20 * results[True]["steps_bytes"]


def test_resident_traffic_is_small_vs_field_data(results):
    """While stepping, resident PCIe traffic is a sliver of the field
    footprint: dt readbacks and regrid tag bitmaps, nothing else (the
    upload in ``initialise`` and the diagnostics readback in ``result()``
    are outside the loop and reported separately)."""
    assert _step_share(results[True]) < 0.001
