"""Ablation: tag-diff incremental regrid + (src,dst)-keyed schedule cache.

A regrid used to redo everything from scratch: recluster every tag
level, tear down and rebuild every fine level, and rebuild every
transfer schedule — even when the flags had not moved a cell.  The
incremental path (``--regrid-incremental``) diffs each level's buffered
tag bitmap against the previous regrid's, reuses the clustered boxes
when the bitmap is unchanged, keeps the ``PatchLevel`` object alive when
boxes and owners match, and serves refine/coarsen/ghost schedules from
the (src,dst)-keyed cache.  All of it is bitwise-identical to the
from-scratch path (see ``tests/test_regrid_incremental.py``).

This bench counts the avoided work on a *quiescent-flags* Sod run (dt
capped to ~0 so the tags never move — the steady-state regime of a
solution whose features move slowly relative to the regrid interval) and
on a realistic-dt run where flags drift every few steps.
"""

import pytest

from repro.api import RegridPolicy, RunConfig, run
from repro.hydro.problems import SodProblem

from _report import FULL, emit, table

STEPS = 10 if FULL else 6
RES = (64, 64) if FULL else (32, 32)


def run_case(incremental: bool, quiescent: bool):
    cfg = RunConfig(
        problem=SodProblem(RES),
        machine="IPA",
        nranks=2,
        use_gpu=True,
        max_levels=2,
        max_patch_size=16,
        regrid=RegridPolicy(interval=1,  # regrid-heavy on purpose
                            incremental=incremental),
        max_steps=STEPS,
        dt_max=1e-9 if quiescent else None,
    )
    res = run(cfg)
    counters = res.metrics["counters"]
    t = {name: int(counters[f"regrid.{name}"])
         for name in ("regrids", "levels_reclustered", "levels_reused",
                      "levels_rebuilt", "levels_kept")}
    rank0 = res.sim.comm.ranks[0].metrics
    rebuilds = int(rank0.total("schedule_cache.misses"))
    hits = int(rank0.total("schedule_cache.hits"))
    return {
        "regrids": t["regrids"],
        "reclustered": t["levels_reclustered"],
        "reused": t["levels_reused"],
        "rebuilt": t["levels_rebuilt"],
        "kept": t["levels_kept"],
        "schedule_rebuilds": rebuilds,
        "schedule_hits": hits,
        "avoided_work": t["levels_reclustered"] + rebuilds,
        "regrid_seconds": res.timers.get("regrid", 0.0),
        "manifest": res.metrics,
    }


@pytest.fixture(scope="module")
def cases():
    return {
        (inc, quiet): run_case(inc, quiet)
        for inc in (False, True)
        for quiet in (True, False)
    }


def test_ablation_regrid_table(cases, benchmark):
    def render():
        rows = []
        for quiet, label in ((True, "quiescent"), (False, "realistic dt")):
            for inc in (False, True):
                c = cases[(inc, quiet)]
                rows.append([
                    label, "incremental" if inc else "from-scratch",
                    c["regrids"], c["reclustered"], c["reused"], c["kept"],
                    c["schedule_rebuilds"], c["schedule_hits"],
                ])
        return table(
            f"Incremental regrid ablation (Sod {RES[0]}x{RES[1]}, 2 ranks, "
            f"regrid every step, {STEPS} steps)",
            ["flags", "path", "regrids", "reclustered", "reused", "kept",
             "sched rebuilds", "sched hits"],
            rows,
        )
    lines = benchmark(render)
    q_base = cases[(False, True)]
    q_inc = cases[(True, True)]
    ratio = q_base["avoided_work"] / max(q_inc["avoided_work"], 1)
    lines.append("")
    lines.append(
        f"quiescent flags: {q_base['avoided_work']} reclustered levels + "
        f"schedule rebuilds from scratch vs {q_inc['avoided_work']} "
        f"incremental ({ratio:.1f}x less host-side regrid work)")
    emit("ablation_regrid", lines,
         config={"problem": f"sod {RES[0]}x{RES[1]}", "nranks": 2,
                 "levels": 2, "regrid_interval": 1, "steps": STEPS},
         metrics={
             "schema": "repro.bench.ablation_regrid/1",
             "quiescent": {
                 "scratch": {k: v for k, v in q_base.items()
                             if k != "manifest"},
                 "incremental": {k: v for k, v in q_inc.items()
                                 if k != "manifest"},
                 "reduction": ratio,
             },
             "realistic": {
                 "scratch": {k: v for k, v in cases[(False, False)].items()
                             if k != "manifest"},
                 "incremental": {k: v for k, v in cases[(True, False)].items()
                                 if k != "manifest"},
             },
         },
         manifest=q_inc["manifest"])


def test_quiescent_avoided_work_at_least_2x(cases):
    """The acceptance gate: on quiescent flags the incremental path does
    at most half the reclustering + schedule-rebuild work."""
    base = cases[(False, True)]["avoided_work"]
    inc = cases[(True, True)]["avoided_work"]
    assert base >= 2 * inc, (base, inc)


def test_quiescent_steady_state_reuses_everything(cases):
    c = cases[(True, True)]
    # only the first regrid (and the first post-init sync) may cluster
    assert c["reclustered"] <= 2
    assert c["reused"] >= c["regrids"] - 2
    assert c["kept"] >= c["regrids"] - 2


def test_schedule_cache_serves_hits(cases):
    assert cases[(True, True)]["schedule_hits"] \
        > cases[(False, True)]["schedule_hits"]


def test_realistic_dt_still_correct_and_counted(cases):
    c = cases[(True, False)]
    assert c["regrids"] == cases[(False, False)]["regrids"]
    # drifting flags recluster sometimes; the counters must add up
    assert c["reclustered"] + c["reused"] <= c["regrids"] * 2
