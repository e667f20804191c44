"""The measurement-driven policy tuner behind ``ExecutionPolicy(mode="auto")``.

The paper's wins (fused launches, overlapped halos, incremental regrid)
are config-sensitive: whether batching pays depends on how many small
launches there are to fuse, and whether overlap helps depends on how
much transfer time is exposed.  Rather than asking the
user to re-run the ablation benchmarks per problem, the tuner does it in
miniature: for each candidate policy it builds a **throwaway twin** of
the run, advances a few probe steps, and reads the modelled grind
(virtual seconds per cell-step — deterministic, so tuning decisions are
reproducible run to run).

The candidate with the lowest probed grind wins.  Fields the user pinned
are never overridden — candidates that contradict a pinned field
collapse into the pinned resolution.

Probes run before the real simulation exists and never touch it: no
tracer or sanitizer is installed while they execute (a passed-in
:class:`~repro.obs.Tracer` receives one ``tune``-category span per probe
through its handle instead), and the real run re-initialises from the
problem, so tuned runs are bitwise-identical to hand-flagged runs of the
chosen policy.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, replace

from .policy import (
    AUTO,
    TUNABLE_FIELDS,
    ExecutionPolicy,
    RegridPolicy,
    resolve_policies,
)

__all__ = [
    "ProbeResult",
    "TuneDecisions",
    "tune_policies",
    "DEFAULT_PROBE_STEPS",
]

#: probe length when the caller does not say; chosen to cross at least
#: one regrid boundary at the default RegridPolicy.interval of 5
DEFAULT_PROBE_STEPS = 6

#: the candidate policies the tuner probes, least to most aggressive —
#: the same ladder the ablation benchmarks sweep.  Pinned fields filter
#: this list; only the surviving distinct resolutions are measured.
_CANDIDATES = (
    ("serial", {"overlap": False, "batch": False, "incremental": False}),
    ("batch", {"overlap": False, "batch": True, "incremental": True}),
    ("overlap+batch", {"overlap": True, "batch": True, "incremental": True}),
)


@dataclass
class ProbeResult:
    """One probed candidate: the policy it ran and what was measured."""

    label: str
    execution: ExecutionPolicy
    regrid: RegridPolicy
    steps: int
    cells: int
    #: modelled virtual seconds per cell-step over the probe window
    grind: float
    #: real host seconds the probe took (observation only, never decisive)
    wall_seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "execution": self.execution.as_dict(),
            "regrid": self.regrid.as_dict(),
            "steps": self.steps,
            "cells": self.cells,
            "grind": self.grind,
            "wall_seconds": self.wall_seconds,
        }


@dataclass
class TuneDecisions:
    """The tuner's verdict: chosen field values plus the probe evidence.

    Travels on ``RunConfig.tuned``, is embedded in the metrics manifest
    under ``policies.tuned``, and feeds the full config fingerprint
    (via the resolved policy values it produced).
    """

    #: policy-field name -> concrete value (only fields that were "auto")
    chosen: dict
    #: label of the winning candidate
    winner: str
    #: every probe that ran, in probe order
    probes: list[ProbeResult] = field(default_factory=list)
    probe_steps: int = DEFAULT_PROBE_STEPS

    def as_dict(self) -> dict:
        return {
            "chosen": dict(self.chosen),
            "winner": self.winner,
            "probe_steps": self.probe_steps,
            "probes": [p.as_dict() for p in self.probes],
        }


def _probe(cfg, execution: ExecutionPolicy, regrid: RegridPolicy,
           steps: int) -> tuple[float, int, float]:
    """Run one throwaway probe; return (grind, cells, wall)."""
    from ..api import build_simulation

    probe_cfg = replace(
        cfg, execution=execution, regrid=regrid, tuned=None,
        max_steps=steps, end_time=None, sanitize=False,
        checkpoint_path=None,
        observability=type(cfg.observability)(),
    )
    wall0 = _time.perf_counter()
    sim = build_simulation(probe_cfg)
    sim.initialise()
    t0 = sim.elapsed()
    for _ in range(steps):
        sim.step()
    elapsed = sim.elapsed() - t0
    cells = sim.total_cells()
    grind = elapsed / (cells * steps) if cells and steps else 0.0
    return grind, cells, _time.perf_counter() - wall0


def tune_policies(cfg, *, probe_steps: int | None = None, tracer=None):
    """Decide the ``"auto"`` fields of ``cfg`` by probe measurement.

    Returns ``(execution, regrid, decisions)`` where the policies are
    fully concrete (``mode="fixed"``) and ``decisions`` is the
    :class:`TuneDecisions` record to attach as ``cfg.tuned``.  Pinned
    fields override a candidate's value, and candidates that resolve to
    an already-probed policy are not measured twice.  One
    ``tune``-category span per probe is emitted through ``tracer`` when
    given.
    """
    execution, regrid = cfg.execution, cfg.regrid
    if probe_steps is None:
        probe_steps = max(DEFAULT_PROBE_STEPS, regrid.interval + 1)
    if cfg.max_steps is not None:
        probe_steps = max(1, min(probe_steps, cfg.max_steps))

    #: fields the tuner is allowed to decide (still "auto" after pinning)
    free = [name for name in TUNABLE_FIELDS
            if getattr(execution, name) == AUTO]
    if regrid.incremental == AUTO:
        free.append("incremental")
    if not free:
        # every field is pinned — nothing to measure
        ep, rp = resolve_policies(execution, regrid, decisions={})
        return ep, rp, TuneDecisions(chosen={}, winner="pinned",
                                     probes=[], probe_steps=probe_steps)

    probes: list[ProbeResult] = []
    seen: set[tuple] = set()
    t_offset = 0.0
    for label, decisions in _CANDIDATES:
        ep, rp = resolve_policies(execution, regrid, decisions=decisions)
        key = (ep.overlap, ep.batch, rp.incremental)
        if key in seen:
            continue  # pinning collapsed this candidate into an earlier one
        seen.add(key)
        wall0 = _time.perf_counter()
        grind, cells, wall = _probe(cfg, ep, rp, probe_steps)
        probe = ProbeResult(label=label, execution=ep, regrid=rp,
                            steps=probe_steps, cells=cells, grind=grind,
                            wall_seconds=wall)
        probes.append(probe)
        if tracer is not None:
            virtual = grind * cells * probe_steps
            tracer.emit(
                f"tune.probe:{label}", "tune", 0, "tune",
                t_offset, t_offset + virtual,
                wall0, _time.perf_counter(),
                policy=ep.as_dict(), grind=grind,
            )
            t_offset += virtual

    winner = min(probes, key=lambda p: p.grind)

    chosen = {}
    for name in free:
        if name == "incremental":
            chosen[name] = winner.regrid.incremental
        else:
            chosen[name] = getattr(winner.execution, name)
    decisions = TuneDecisions(chosen=chosen, winner=winner.label,
                              probes=probes, probe_steps=probe_steps)
    if tracer is not None:
        now = _time.perf_counter()
        tracer.emit("tune.decision", "tune", 0, "tune",
                    t_offset, t_offset, now, now,
                    winner=winner.label, chosen=dict(chosen))
    ep, rp = resolve_policies(execution, regrid, decisions=chosen)
    return ep, rp, decisions
