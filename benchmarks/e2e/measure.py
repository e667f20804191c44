"""One benchmark run: passes, correctness checks, metrics.

A *pass* is one ``RunSession`` built from the workload's config and
stepped a fixed number of steps, one ``advance(1)`` at a time (closed
loop).  Because every pass of a run replays the same inputs, passes are
exact repeats on the modelled clock and samples of one distribution on
the real clock.

The *real clock* here is the CPU time of the benchmark process
(``time.process_time``).  The program is one CPU-bound thread that never
sleeps or waits for I/O, so on a quiet machine that is its wall time;
on this shared sandbox the hypervisor at times takes a fifth of the
wall away (``steal`` in /proc/stat), which wall time would report as a
slow program.  ``info.wall_over_cpu`` says how much was taken.  Spans
(``spans.py``) stay on ``perf_counter``: it is cheaper per call, and
layer times are indicative anyway.

``--trace 0`` (``measure_end_to_end``): one discarded warm-up, then whole
passes until ``--seconds`` is up, tracing off; reports the end-to-end
metrics.  ``--trace 1`` (``measure_layers``): one untraced reference
pass, one pass under the span wrappers, one short pass under the
``mesh`` call counters and one with the program's own tracer on;
reports the per-layer metrics.  Both check that the outputs are right.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

import numpy as np

from repro.api import ObservabilityConfig, RunConfig, RunResult, RunSession
from repro.hydro.diagnostics import field_summary, gather_level_field
from repro.hydro.riemann import ExactRiemannSolver, RiemannState

import layers
from spans import HARNESS, LAYERS, SpanRecorder, counting, tracing
from workloads import SOD_L1_SLACK, Workload

__all__ = ["END_TO_END", "PUBLISHED", "MASS_DRIFT_TOL", "Outputs", "Pass",
           "measure_end_to_end", "measure_layers", "calibrate", "run_pass"]

#: (name, unit, better, relative bound, absolute floor).  ``--compare``
#: calls a metric regressed when it is worse by more than
#: max(bound x base, floor).  BENCHMARK.json publishes the first six with
#: the same bounds; the last two are zero or exact on a healthy run, so
#: the driver sees them as the failed/attempted counts and the verdict.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25, 0.0),
    ("cell_updates_per_s", "1/s", "higher", 0.25, 0.0),
    ("step_wall_ms_p50", "ms", "lower", 0.25, 0.0),
    ("peak_rss_mb", "MB", "lower", 0.05, 0.0),
    ("modelled_grind_ns", "ns", "lower", 0.05, 0.0),
    ("device_peak_mb", "MB", "lower", 0.05, 0.0),
    ("mass_drift_rel", "ratio", "lower", 0.01, 1e-12),
    ("failure_rate", "ratio", "lower", 0.0, 0.0),
)
PUBLISHED = tuple(m[0] for m in END_TO_END[:6])

#: the suite's AMR mass-conservation tolerance (tests/test_integrator.py)
MASS_DRIFT_TOL = 2e-3
WARMUP_STEPS = 2
#: set-up is sampled until the samples add up to this many seconds ...
SETUP_SAMPLE_SECONDS = 2.0
#: ... or there are this many of them
SETUP_MAX_SAMPLES = 30
COUNT_PASS_STEPS = 5
OBS_PASS_STEPS = 4
OUT_DIR = Path(__file__).resolve().parent / "out"


def calibrate() -> float:
    """Milliseconds for a fixed Python + NumPy loop (machine-speed probe).

    Best of five, for the same reason the run reports best-of-passes.
    """
    best = math.inf
    for _ in range(5):
        t0 = process_time()
        acc = 0
        for i in range(300_000):
            acc += (i * 7) % 13
        a = np.arange(65536, dtype=np.float64).reshape(256, 256)
        for _ in range(100):
            a = np.sqrt(a * a + 1.0)
        best = min(best, 1e3 * (process_time() - t0))
    return best


# -- passes --------------------------------------------------------------------------


@dataclass
class Outputs:
    """What a finished pass produced, without the simulation behind it.

    Keeping only this (not the ``RunResult``, which pins every array of
    the hierarchy) makes ``peak_rss_mb`` independent of how many passes
    fit into a run.
    """

    final_fields: dict[str, float]
    dt_history: list[float]
    runtime: float              # modelled seconds
    grind_ns: float             # modelled ns per cell per step
    device_peak_mb: float
    cells: int
    patches: int
    manifest: dict
    sod_l1: float | None        # None on non-Sod problems

    def same_as(self, other: "Outputs") -> bool:
        """Bitwise-equal fields, dt sequence and modelled clock."""
        return (self.final_fields == other.final_fields
                and self.dt_history == other.dt_history
                and self.runtime == other.runtime
                and self.device_peak_mb == other.device_peak_mb)

    def mass_drift(self, mass0: float) -> float:
        return abs(self.final_fields["mass"] - mass0) / mass0


def _sod_l1_error(r: RunResult, problem) -> float:
    """Level-0 density L1 error against the exact Riemann solution."""
    rho = gather_level_field(r.sim.hierarchy.level(0), "density0").mean(axis=1)
    nx = rho.shape[0]
    x = problem.x_lo[0] + (np.arange(nx) + 0.5) * (
        (problem.x_hi[0] - problem.x_lo[0]) / nx)
    (rho_l, p_l), (rho_r, p_r) = problem.left, problem.right
    solver = ExactRiemannSolver(RiemannState(rho_l, 0.0, p_l),
                                RiemannState(rho_r, 0.0, p_r), problem.gamma)
    exact = solver.sample((x - problem.interface) / sum(r.dt_history))[0]
    return float(np.mean(np.abs(rho - exact)))


def _outputs(r: RunResult, cfg: RunConfig) -> Outputs:
    is_sod = hasattr(cfg.problem, "interface")
    return Outputs(
        final_fields=r.final_fields, dt_history=r.dt_history,
        runtime=r.runtime, grind_ns=r.grind_time * 1e9,
        device_peak_mb=r.metrics["gauges"]["device.peak_bytes"] / 1e6,
        cells=r.cells,
        patches=sum(1 for level in r.sim.hierarchy for _ in level),
        manifest=r.metrics,
        sod_l1=_sod_l1_error(r, cfg.problem) if is_sod else None,
    )


@dataclass
class Pass:
    """What one pass measured; ``error`` is set if it raised."""

    planned_steps: int
    setup_s: float = math.nan
    step_ms: list[float] = field(default_factory=list)
    cells: list[int] = field(default_factory=list)
    #: perf_counter seconds over the same steps (>= the CPU seconds above;
    #: the difference is time the hypervisor gave to someone else)
    step_wall_s: float = 0.0
    out: Outputs | None = None
    error: str | None = None

    @property
    def failed_steps(self) -> int:
        return self.planned_steps - len(self.step_ms) if self.error else 0

    @property
    def cell_updates_per_s(self) -> float:
        return sum(self.cells) / (sum(self.step_ms) / 1e3)


def run_pass(cfg: RunConfig, recorder: SpanRecorder | None = None,
             after_setup=None) -> Pass:
    """Build a session and step it to its budget, timing set-up and steps.

    With a ``recorder`` the set-up and each step get a root span.
    ``after_setup(session)`` runs between set-up and the first step,
    outside every timed region.
    """
    root = recorder.span if recorder is not None else (
        lambda name, layer: nullcontext())
    p = Pass(planned_steps=cfg.max_steps)
    gc.collect()
    session = None
    try:
        t0 = process_time()
        with root("setup", HARNESS):
            session = RunSession(cfg)
        p.setup_s = process_time() - t0
        if after_setup is not None:
            after_setup(session)
        if recorder is not None:
            recorder.counters.clear()  # counters cover the step loop only
        while not session.done:
            if recorder is not None:
                recorder.run_id += 1
            w0, t0 = perf_counter(), process_time()
            with root("step", HARNESS):
                session.advance(1)
            p.step_ms.append(1e3 * (process_time() - t0))
            p.step_wall_s += perf_counter() - w0
            p.cells.append(session.sim.total_cells())
        p.out = _outputs(session.result(), cfg)
    except Exception:  # a failed run is a measurement, not a crash
        p.error = traceback.format_exc()
    finally:
        if session is not None:
            session.close()
    return p


def _warm_up(workload: Workload, seed: int) -> float:
    """Discarded 2-step run (imports, first-call caches); returns mass(0).

    The initial mass is read here, on a session that is thrown away:
    ``field_summary`` charges modelled D2H time, so reading it on a
    measured session would move ``modelled_grind_ns``.
    """
    mass0 = []
    p = run_pass(workload.config(seed, WARMUP_STEPS),
                 after_setup=lambda s: mass0.append(
                     field_summary(s.sim.hierarchy)["mass"]))
    if p.error:
        raise RuntimeError(f"warm-up of {workload.name} failed:\n{p.error}")
    return mass0[0]


# -- correctness ---------------------------------------------------------------------


def _check_outputs(workload: Workload, passes: list[Pass],
                   mass0: float) -> dict[str, bool]:
    """The correctness checks; each is one attempted operation."""
    good = [p.out for p in passes if p.out is not None]
    if not good:
        return {"ran": False}
    first = good[0]
    checks = {
        "finite_fields": all(math.isfinite(v)
                             for v in first.final_fields.values()),
        "mass_drift": first.mass_drift(mass0) <= MASS_DRIFT_TOL,
        "passes_identical": all(first.same_as(o) for o in good[1:]),
    }
    if workload.sod_l1 is not None:
        checks["sod_l1"] = first.sod_l1 <= SOD_L1_SLACK * workload.sod_l1
    return checks


def _verdict(passes: list[Pass], checks: dict[str, bool]) -> dict:
    steps = sum(len(p.step_ms) for p in passes)
    failed_steps = sum(p.failed_steps for p in passes)
    failed = failed_steps + sum(1 for ok in checks.values() if not ok)
    return {
        "correct": failed == 0,
        "attempted": steps + failed_steps + len(checks),
        "failed": failed,
        "checks": checks,
        "errors": [p.error for p in passes if p.error],
    }


# -- trace 0: end-to-end metrics ---------------------------------------------------------


def measure_end_to_end(workload: Workload, seed: int, seconds: float) -> dict:
    calib = [calibrate()]
    mass0 = _warm_up(workload, seed)
    cfg = workload.config(seed)

    # whole passes, as many as come nearest to filling ``seconds``
    passes: list[Pass] = []
    t_start = perf_counter()
    while True:
        passes.append(run_pass(cfg))
        elapsed = perf_counter() - t_start
        if passes[-1].error or elapsed + 0.5 * elapsed / len(passes) >= seconds:
            break
    setup = [p.setup_s for p in passes if not math.isnan(p.setup_s)]
    while (setup and sum(setup) < SETUP_SAMPLE_SECONDS
           and len(setup) < SETUP_MAX_SAMPLES):
        gc.collect()
        t0 = process_time()
        RunSession(cfg).close()
        setup.append(process_time() - t0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdict = _verdict(passes, _check_outputs(workload, passes, mass0))
    calib.append(calibrate())

    whole = [p for p in passes if p.out is not None]
    first = whole[0].out if whole else None
    best_ms = _best_per_step(whole)
    metrics = {
        "setup_s": min(setup) if setup else math.nan,
        "cell_updates_per_s": (sum(whole[0].cells) / (sum(best_ms) / 1e3)
                               if whole else math.nan),
        "step_wall_ms_p50": median(best_ms) if whole else math.nan,
        "peak_rss_mb": peak_rss_mb,
        "modelled_grind_ns": first.grind_ns if first else math.nan,
        "device_peak_mb": first.device_peak_mb if first else math.nan,
        "mass_drift_rel": first.mass_drift(mass0) if first else math.nan,
        "failure_rate": verdict["failed"] / verdict["attempted"],
    }
    info = {
        "passes": len(passes), "steps_per_pass": workload.steps,
        "step_samples": sum(len(p.step_ms) for p in passes),
        "setup_samples": len(setup),
        "cells": first.cells if first else 0,
        "patches": first.patches if first else 0,
        "sod_l1": first.sod_l1 if first else None,
        "calib_ms": calib,
        "wall_over_cpu": (sum(p.step_wall_s for p in whole)
                          / (sum(sum(p.step_ms) for p in whole) / 1e3)
                          if whole else math.nan),
        "repeats": {
            "setup_s": setup,
            "cell_updates_per_s": [p.cell_updates_per_s for p in whole],
            "step_wall_ms_p50": [median(p.step_ms) for p in whole],
        },
    }
    return {**verdict, "metrics": metrics, "info": info}


def _best_per_step(passes: list[Pass]) -> list[float]:
    """Per step index, the fastest time over the passes (ms).

    Every pass replays the same steps, and the sandbox's noise is
    one-sided: neighbours slow the CPU by 10-40 % for tens of seconds
    at a time (see README), so a step is never faster than its
    noise-free time, only slower.  The minimum over repeats estimates
    that floor; a mean or median over repeats instead tracks how much
    of the run happened to fall into a slow stretch.
    """
    return [min(ms) for ms in zip(*(p.step_ms for p in passes))]


# -- trace 1: per-layer metrics ----------------------------------------------------------


def _write_trace(workload: Workload, seed: int, recorder: SpanRecorder) -> Path:
    """Dump the traced pass's spans (times relative to the first span)."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace_{workload.name}.json"
    origin = recorder.spans[0][2] if recorder.spans else 0.0
    rows = [[name, layer, t0 - origin, t1 - origin, parent, run_id]
            for name, layer, t0, t1, parent, run_id in recorder.spans]
    with open(path, "w") as fh:
        json.dump({"schema": "repro.e2e_trace/1", "workload": workload.name,
                   "seed": seed, "unit": "s",
                   "fields": ["name", "layer", "t0", "t1", "parent", "run_id"],
                   "spans": rows}, fh)
    return path


def measure_layers(workload: Workload, seed: int) -> dict:
    calib = [calibrate()]
    mass0 = _warm_up(workload, seed)
    cfg = workload.config(seed)

    reference = run_pass(cfg)
    recorder = SpanRecorder()
    with tracing(recorder):
        traced = run_pass(cfg, recorder)
    count_steps = min(COUNT_PASS_STEPS, workload.steps)
    with counting() as mesh_counts:
        counted = run_pass(workload.config(seed, count_steps),
                           after_setup=lambda _: mesh_counts.clear())
    obs_steps = min(OBS_PASS_STEPS, workload.steps)
    observed = run_pass(replace(
        workload.config(seed, obs_steps),
        observability=ObservabilityConfig(trace=True)))
    ns_per_op = layers.box_microloop(seed)
    calib.append(calibrate())

    passes = [reference, traced, counted, observed]
    checks = _check_outputs(workload, [reference, traced], mass0)
    if any(p.out is None for p in passes):
        return {**_verdict(passes, checks), "metrics": {},
                "info": {"calib_ms": calib}}
    ref = reference.out
    # the counters and the program's own tracer only observe, too
    checks["counted_identical"] = (
        counted.out.dt_history == ref.dt_history[:count_steps])
    checks["observed_identical"] = (
        observed.out.dt_history == ref.dt_history[:obs_steps])

    metrics = layers.layer_metrics(recorder.spans, recorder.counters,
                                   traced.out.manifest)
    metrics.update(layers.mesh_metrics(
        mesh_counts, count_steps, ns_per_op,
        step_ms=sum(reference.step_ms) / len(reference.step_ms),
        patches=ref.patches, levels=ref.manifest["levels"]))
    metrics["hydro.mass_drift_rel"] = ref.mass_drift(mass0)
    metrics["harness.overhead_ratio"] = (
        sum(traced.step_ms) / sum(reference.step_ms))
    metrics["harness.calib_ms"] = median(calib)
    metrics["obs.tracer_on_ratio"] = (
        sum(observed.step_ms) / sum(reference.step_ms[:obs_steps]))
    share_sum = metrics["harness.unattributed_share"] + sum(
        metrics[f"{layer}.share"] for layer in LAYERS)
    checks["shares_sum_to_one"] = abs(share_sum - 1.0) <= 0.01

    trace_path = _write_trace(workload, seed, recorder)
    info = {
        "calib_ms": calib, "spans": len(recorder.spans),
        "trace_file": str(trace_path.relative_to(OUT_DIR.parent)),
        "dominant_layer": layers.dominant_layer(metrics),
        "traced_step_s": sum(traced.step_ms) / 1e3,
        "reference_step_s": sum(reference.step_ms) / 1e3,
        "patches": ref.patches, "cells": ref.cells,
    }
    return {**_verdict(passes, checks), "metrics": metrics, "info": info}
