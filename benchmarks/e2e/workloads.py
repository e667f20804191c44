"""The four benchmark workloads, as data.

Each builder turns a seed into a :class:`repro.api.RunConfig` using only
the public policy-shaped surface (``RunConfig`` / ``ExecutionPolicy`` /
``RegridPolicy``): no deprecated flat kwargs and no ``kernels=`` /
``scheduler=`` pins, so the ROADMAP simplification PRs cannot break the
benchmark.  Seed 0 is the canonical input whose sizes the docstrings
record; any other seed perturbs only the generated inputs — the program
never sees the seed.

The perturbations are deliberately small.  The driver compares runs of
*different* seeds, so an input that moved the patch count by tens of
percent would read as noise on every metric; these keep the hierarchy
within a few percent of the canonical one while still changing the
numbers the kernels see and, through one mesh dimension, the patch
layout (and therefore every modelled number, by 1-4 %).

All four are closed loops: one run at a time, the next step starts when
the previous one returns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.api import (
    ExecutionPolicy,
    RegridPolicy,
    RunConfig,
    SodProblem,
    TriplePointProblem,
)

__all__ = ["Workload", "WORKLOADS", "SOD_L1_SLACK", "by_name"]


def _rng(seed: int) -> random.Random | None:
    return None if seed == 0 else random.Random(seed)


def _sod(rng: random.Random | None, nx: int, ny: int) -> SodProblem:
    """A Sod tube; non-zero seeds jitter the left density by up to 2 %.

    The jitter changes every number the kernels produce but (almost)
    never which cells are refined, so the hierarchy — and with it the
    modelled clock — stays put while the inputs differ.
    """
    problem = SodProblem((nx, ny))
    if rng is not None:
        problem.left = (round(rng.uniform(0.98, 1.02), 4), problem.left[1])
    return problem


def _amr_ny(rng: random.Random | None) -> int:
    """y resolution of the AMR Sod runs: canonical 64, else 63 or 64.

    The tube is uniform in y, so one row fewer reshuffles the patch
    layout (and load balance) without changing the refined band.
    """
    return 64 if rng is None else rng.choice((63, 64))


def sod_small_patches(seed: int, steps: int) -> RunConfig:
    """Sod 64x64, 3 levels, ``max_patch_size=8``, 1 rank, resident GPU, batched.

    Why: host bookkeeping dominates.  Hundreds of 8x8 patches make the
    steady-state ghost fill (``xfer``), the ``mesh`` box algebra under it
    and ``exec`` copy planning do most of the work; kernels do almost
    none.  The fill-plan / ``Box`` fast-path ROADMAP item must show here.
    Loads: xfer (schedule replay), mesh, exec, geom.  Bypasses: sched,
    comm; hydro numerics are a small share.
    Seed 0: 192 patches / 11,008 cells after the step-5 regrid,
    setup ~1.1 s, ~0.9 s per step.
    """
    rng = _rng(seed)
    return RunConfig(
        problem=_sod(rng, 64, _amr_ny(rng)),
        max_levels=3, max_patch_size=8, nranks=1,
        execution=ExecutionPolicy(batch=True),
        max_steps=steps,
    )


def sod_uniform(seed: int, steps: int) -> RunConfig:
    """Sod 384x384, 1 level, ``max_patch_size=192``, 1 rank, batched.

    Why: kernel numerics dominate — four big patches, no refinement, so
    ``xfer`` / ``mesh`` / ``regrid`` cost next to nothing.  This is the
    bypass workload for every bookkeeping optimisation (prediction: no
    change) and the target for kernel work.
    Loads: hydro kernel bodies.  Bypasses: regrid, sched, comm, geom.
    Seed 0: 4 patches, 147,456 cells, setup ~0.04 s, ~0.24 s per step.
    Other seeds also shave up to 4 % off the y resolution: with a fixed
    mesh the modelled numbers would not depend on the seed at all.
    """
    rng = _rng(seed)
    ny = 384 if rng is None else rng.randrange(368, 385, 2)
    return RunConfig(
        problem=_sod(rng, 384, ny),
        max_levels=1, max_patch_size=192, nranks=1,
        execution=ExecutionPolicy(batch=True),
        max_steps=steps,
    )


def tp_regrid_every_step(seed: int, steps: int) -> RunConfig:
    """Triple point 56x24, 3 levels, ``max_patch_size=16``, regrid every step.

    Why: uses ``xfer`` the *other* way — schedules are **built** (cache
    misses, fill-geometry construction) every step instead of replayed.
    A change that moves cost from ``fill`` into schedule construction
    wins on ``sod_small_patches`` and must not lose here.  Also the only
    workload where ``regrid`` and ``pdat`` allocation carry the run.
    Loads: regrid, xfer (build), pdat allocation, geom.  Bypasses:
    sched, comm.
    Seed 0: ~67 patches / ~8,100 cells, setup ~0.5 s, ~0.8 s per step.
    Other seeds move the base x resolution by one cell either way.
    """
    rng = _rng(seed)
    nx = 56 if rng is None else rng.randrange(55, 58)
    return RunConfig(
        problem=TriplePointProblem((nx, 24)),
        max_levels=3, max_patch_size=16, nranks=1,
        execution=ExecutionPolicy(batch=True),
        regrid=RegridPolicy(interval=1),
        max_steps=steps,
    )


def sod_multirank_overlap(seed: int, steps: int) -> RunConfig:
    """Sod 64x64, 3 levels, ``max_patch_size=16``, 4 ranks, batched + overlap.

    Why: the only workload that enters ``sched`` (graph build/execute),
    ``comm`` (messages, allreduce), the staged pack/D2H/H2D/unpack path
    and per-stream ``gpu`` bookkeeping.  The step-program collapse and
    any scheduler/overlap change must show here and nowhere else.
    Loads: sched, comm, exec (staged), gpu, xfer (emit_tasks).
    Seed 0: 64 patches / 11,008 cells after the step-5 regrid,
    setup ~0.4 s, ~0.8 s per step.
    """
    rng = _rng(seed)
    return RunConfig(
        problem=_sod(rng, 64, _amr_ny(rng)),
        max_levels=3, max_patch_size=16, nranks=4,
        execution=ExecutionPolicy(batch=True, overlap=True),
        max_steps=steps,
    )


#: allowed growth of the Sod L1 error over the committed measurement
SOD_L1_SLACK = 1.25


@dataclass(frozen=True)
class Workload:
    """One named input set: its builder, pass length and Sod oracle bound."""

    name: str
    build: Callable[[int, int], RunConfig]
    #: steps per pass; a run repeats whole passes until ``--seconds`` is up
    steps: int
    #: one line for BENCHMARK.json; the builder's docstring has the rest
    why: str
    #: level-0 density L1 error against the exact Riemann solution after
    #: one pass, as measured at seed 0 on the commit that defined the
    #: benchmark (seeds 1-10 stay within 2 % of it); a run may reach
    #: ``SOD_L1_SLACK`` times this.  None = not a Sod run
    sod_l1: float | None = None

    def config(self, seed: int, steps: int | None = None) -> RunConfig:
        return self.build(seed, self.steps if steps is None else steps)


WORKLOADS: tuple[Workload, ...] = (
    Workload("sod_small_patches", sod_small_patches, steps=6,
             why="Hundreds of 8x8 patches: ghost-fill replay (xfer), mesh box "
                 "algebra and exec copy planning dominate, kernels do little; "
                 "bookkeeping optimisations must show here.",
             sod_l1=0.0023626),
    Workload("sod_uniform", sod_uniform, steps=12,
             why="Four big patches, one level: hydro kernel numerics dominate "
                 "and xfer/mesh/regrid are idle; the bypass workload for every "
                 "bookkeeping optimisation.",
             sod_l1=0.00081893),
    Workload("tp_regrid_every_step", tp_regrid_every_step, steps=6,
             why="Regrid every step: schedules are built, not replayed (cache "
                 "misses), and regrid plus pdat allocation carry the run; work "
                 "moved from fill into schedule build must not lose here."),
    Workload("sod_multirank_overlap", sod_multirank_overlap, steps=6,
             why="4 ranks with overlap: the only workload entering sched "
                 "(task graphs), comm (messages, allreduce) and the staged "
                 "pack/D2H/H2D/unpack path.",
             sod_l1=0.0020915),
)


def by_name(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(f"unknown workload {name!r}; known: "
                   f"{[w.name for w in WORKLOADS]}")
