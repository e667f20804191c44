"""Figure 11: weak scaling on Titan — grind time vs node count.

The paper weak-scales the triple-point shock interaction from 1 to 4,096
Titan nodes (one K20x per node), with effective resolutions from 2M to
over 8 billion cells, and plots grind time (seconds per cell) for the
total and for its components: hydrodynamics (kernels + halo exchanges),
synchronisation (fine-to-coarse), and regridding.  Findings (SV-B):

* every component rises slowly with node count, but the code runs at
  4,096 nodes;
* hydrodynamics dominates everywhere;
* in-text fractions: 1 node — 59% advancing, <1% timestep, 1% sync;
  4,096 nodes — 44% advancing, 6% timestep, 3% sync.

Reproduction: the same problem with a reduced constant per-node coarse
block.  Node counts to 64 by default, 1,024 with REPRO_FULL=1.
"""

import pytest

from repro.api import RegridPolicy, RunConfig, RunSession
from repro.hydro.problems import TriplePointProblem
from repro.obs.metrics import STEP_PHASES

from _report import FULL, emit, table

# REPRO_FULL extends to 256 and 1,024 nodes (~1.4M and ~5.5M coarse
# cells; tens of minutes of wall time in pure Python).  The paper's full
# 4,096 nodes would be a 22M-cell mesh — the model scales, the laptop
# does not.
NODES = [1, 4, 16, 64] + ([256, 1024] if FULL else [])

#: schema of the metrics block in BENCH_fig11_weak.json (bumped when the
#: regrid-fraction sweep was added alongside the grind-time sweep)
FIG11_SCHEMA = "repro.bench.fig11/2"

#: the regrid-fraction sweep reaches 1,024 virtual ranks by default: a
#: much smaller per-node block than the grind sweep keeps the largest
#: point to ~a minute of wall time
REGRID_NODES = [16, 64, 256, 1024]
REGRID_BLOCK = (8, 12)
REGRID_STEPS = 2
#: per-node coarse block; nodes are arranged along x only, so that both
#: the coarse block AND the refinement front (whose dominant component is
#: the horizontal y=1.5 interface, O(nx) cells) contribute a constant
#: number of cells per node — the paper itself notes that "keeping the
#: computational work per-GPU the same is difficult" for AMR weak scaling
BLOCK = (56, 96)
STEPS = 6


def node_grid(nodes: int) -> tuple[int, int]:
    """1-D arrangement along x: per-node work stays constant (see BLOCK)."""
    return (nodes, 1)


def run_steps(cfg: RunConfig):
    """Run ``cfg``: its result and each phase timer's growth after
    ``initialise``, the step loop's share (``RunResult.timers`` hold the
    whole run's, set-up's regrid included)."""
    session = RunSession(cfg)
    try:
        setup = session.sim.timer_summary()
        session.advance()
        res = session.result()
    finally:
        session.close()
    return res, {k: v - setup.get(k, 0.0) for k, v in res.timers.items()}


def shares(timers: dict) -> dict:
    """Each step phase's share of the whole run's phase time, set-up
    included: the runtime fractions the paper quotes."""
    total = sum(timers.get(k, 0.0) for k in STEP_PHASES)
    return {k: timers.get(k, 0.0) / total for k in STEP_PHASES}


def run_point(nodes: int):
    sx, sy = node_grid(nodes)
    res = (BLOCK[0] * sx, BLOCK[1] * sy)
    cfg = RunConfig(
        problem=TriplePointProblem(res),
        machine="Titan",
        nranks=nodes,
        use_gpu=True,
        max_levels=3,
        max_patch_size=48,
        regrid=RegridPolicy(interval=3),
        max_steps=STEPS,
    )
    return run_steps(cfg)


def run_regrid_point(nodes: int, incremental: bool):
    """One point of the regrid-fraction sweep: quiescent flags (dt capped
    to ~0), regrid every step — the steady-state regime that isolates the
    *regrid machinery's* scaling from the solution's motion.  The
    replicated clustering work grows with the global tag count (the
    triple-point front is O(nx)), so the from-scratch path's regrid
    fraction climbs with node count; the tag-diff path replaces it with a
    bitmap compare."""
    res = (REGRID_BLOCK[0] * nodes, REGRID_BLOCK[1])
    cfg = RunConfig(
        problem=TriplePointProblem(res),
        machine="Titan",
        nranks=nodes,
        use_gpu=True,
        max_levels=2,
        max_patch_size=24,
        regrid=RegridPolicy(interval=1, incremental=incremental),
        max_steps=REGRID_STEPS,
        dt_max=1e-9,
    )
    out, t = run_steps(cfg)
    advanced = (out.cells / nodes) * out.steps
    counters = out.metrics["counters"]
    return {
        "nodes": nodes,
        "regrid_grind": t.get("regrid", 0.0) / advanced,
        "regrid_frac": shares(out.timers)["regrid"],
        "reclustered": int(counters["regrid.levels_reclustered"]),
        "reused": int(counters["regrid.levels_reused"]),
    }


@pytest.fixture(scope="module")
def regrid_sweep():
    return {
        inc: [run_regrid_point(n, inc) for n in REGRID_NODES]
        for inc in (False, True)
    }


#: end-of-run metrics manifest of the largest point, for the JSON
MANIFEST: dict = {}


@pytest.fixture(scope="module")
def sweep():
    rows = []
    for nodes in NODES:
        res, t = run_point(nodes)
        MANIFEST.clear()
        MANIFEST.update(res.metrics)
        # Grind normalised per *node-local* cells (the paper's absolute
        # values, ~1e-6 s/cell with ~2M cells/GPU, imply this
        # normalisation: runtime / (steps x cells-per-GPU)).
        advanced = (res.cells / nodes) * res.steps
        total = sum(t.get(k, 0.0) for k in STEP_PHASES)
        share = shares(res.timers)
        rows.append({
            "nodes": nodes,
            "cells": res.cells,
            "grind_total": total / advanced,
            "grind_hydro": t.get("hydro", 0.0) / advanced,
            "grind_sync": t.get("sync", 0.0) / advanced,
            "grind_regrid": t.get("regrid", 0.0) / advanced,
            "grind_dt": t.get("timestep", 0.0) / advanced,
            "frac_hydro": share["hydro"],
            "frac_dt": share["timestep"],
            "frac_sync": share["sync"],
        })
    return rows


def test_fig11_table(sweep, benchmark):
    def render():
        return table(
            f"Figure 11: weak scaling on Titan (triple point, 3 levels, "
            f"{STEPS} steps, grind time s per cell per GPU, modelled)",
            ["nodes", "cells", "total", "hydro", "sync", "regrid"],
            [[r["nodes"], r["cells"], f"{r['grind_total']:.3e}",
              f"{r['grind_hydro']:.3e}", f"{r['grind_sync']:.3e}",
              f"{r['grind_regrid']:.3e}"] for r in sweep],
        )
    lines = benchmark(render)
    first, last = sweep[0], sweep[-1]
    lines.append("")
    lines.append("runtime fractions (paper SV-B in-text):")
    lines.append(
        f"  {first['nodes']:5d} nodes: advance {first['frac_hydro']:.0%} "
        f"(paper 59%), timestep {first['frac_dt']:.1%} (paper <1%), "
        f"sync {first['frac_sync']:.1%} (paper 1%)")
    lines.append(
        f"  {last['nodes']:5d} nodes: advance {last['frac_hydro']:.0%} "
        f"(paper 44%), timestep {last['frac_dt']:.1%} (paper 6%), "
        f"sync {last['frac_sync']:.1%} (paper 3%)")
    emit("fig11_weak", lines,
         config={"problem": "triple_point", "machine": "Titan",
                 "nodes": NODES, "block": list(BLOCK), "levels": 3,
                 "steps": STEPS},
         metrics={"schema": FIG11_SCHEMA, "sweep": sweep},
         manifest=MANIFEST)


def test_fig11_regrid_fraction_table(regrid_sweep, benchmark):
    def render():
        rows = []
        for scratch, inc in zip(regrid_sweep[False], regrid_sweep[True]):
            rows.append([
                scratch["nodes"],
                f"{scratch['regrid_frac']:.1%}", f"{inc['regrid_frac']:.1%}",
                f"{scratch['regrid_grind']:.3e}",
                f"{inc['regrid_grind']:.3e}",
                scratch["reclustered"], inc["reclustered"],
            ])
        return table(
            f"Regrid fraction vs virtual rank count (triple point, "
            f"quiescent flags, regrid every step, {REGRID_STEPS} steps)",
            ["ranks", "frac scratch", "frac incr",
             "grind scratch", "grind incr",
             "recluster scratch", "recluster incr"],
            rows,
        )
    lines = benchmark(render)
    s0, s1 = regrid_sweep[False][0], regrid_sweep[False][-1]
    i0, i1 = regrid_sweep[True][0], regrid_sweep[True][-1]
    lines.append("")
    lines.append(
        f"regrid grind growth {REGRID_NODES[0]} -> {REGRID_NODES[-1]} "
        f"ranks: from-scratch {s1['regrid_grind'] / s0['regrid_grind']:.2f}x, "
        f"incremental {i1['regrid_grind'] / i0['regrid_grind']:.2f}x")
    emit("fig11_regrid_fraction", lines,
         config={"problem": "triple_point", "machine": "Titan",
                 "nodes": REGRID_NODES, "block": list(REGRID_BLOCK),
                 "levels": 2, "steps": REGRID_STEPS, "dt_max": 1e-9},
         metrics={"schema": FIG11_SCHEMA,
                  "scratch": regrid_sweep[False],
                  "incremental": regrid_sweep[True]})


def test_regrid_fraction_sublinear_vs_scratch(regrid_sweep):
    """The acceptance gate: at 1,024 virtual ranks the incremental path's
    regrid cost sits below the from-scratch path and grows more slowly
    with rank count."""
    scratch, inc = regrid_sweep[False], regrid_sweep[True]
    assert inc[-1]["regrid_frac"] < scratch[-1]["regrid_frac"]
    assert inc[-1]["regrid_grind"] < scratch[-1]["regrid_grind"]
    growth_scratch = scratch[-1]["regrid_grind"] / scratch[0]["regrid_grind"]
    growth_inc = inc[-1]["regrid_grind"] / inc[0]["regrid_grind"]
    assert growth_inc < growth_scratch


def test_regrid_sweep_reuses_at_scale(regrid_sweep):
    for point in regrid_sweep[True]:
        assert point["reused"] > 0
    for point in regrid_sweep[False]:
        assert point["reused"] == 0


def test_hydro_dominates_everywhere(sweep):
    """The paper's headline: AMR-specific costs are a small fraction."""
    for r in sweep:
        assert r["grind_hydro"] > r["grind_sync"]
        assert r["grind_hydro"] > r["grind_regrid"]


def test_components_grow_slowly(sweep):
    """Grind time rises gradually with node count but stays the same
    order — the code scales to the largest configuration (paper: every
    component 'gradually increases as more nodes are added')."""
    first, last = sweep[0], sweep[-1]
    assert last["grind_total"] >= first["grind_total"] * 0.7
    assert last["grind_total"] < first["grind_total"] * 30


def test_timestep_absolute_cost_grows_with_nodes(sweep):
    """The global dt reduction (the only global collective) costs more
    per step at scale (paper: <1% -> 6% of runtime).  At this reduced
    scale the log(P) collective term grows while per-node work is fixed;
    the *fraction* only becomes prominent at the full 4,096-node sweep."""
    first, last = sweep[0], sweep[-1]
    assert last["grind_dt"] * 1.05 >= first["grind_dt"]


def test_sync_fraction_stays_small(sweep):
    """Fine-to-coarse synchronisation stays a small fraction (~1-3% in
    the paper) at every node count."""
    for r in sweep:
        assert r["frac_sync"] < 0.10


def test_advance_fraction_dominant_but_bounded(sweep):
    """Hydro stays the dominant share at every scale (44-59% in the
    paper; reduced-scale runs land in a similar band)."""
    for r in sweep:
        assert 0.3 < r["frac_hydro"] < 0.95
