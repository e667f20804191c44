"""``repro.api``: the one public entry point for driving a run.

The paper's CleverLeaf main program composes the simulation objects from
a SAMRAI input file (Fig. 6); this module is the equivalent programmatic
surface.  A :class:`RunConfig` captures everything an input deck would
say — problem, machine, rank count, CPU-vs-GPU build, AMR parameters,
a typed :class:`ExecutionPolicy` / :class:`RegridPolicy` pair for the
execution strategy, and an :class:`ObservabilityConfig` for tracing and
metrics — and :func:`run` executes it, returning a structured
:class:`RunResult` (final field summary, per-step dt history, the
rank-merged metrics manifest, and the paths of any trace/checkpoint
artefacts).

Execution strategy is *policy-shaped*: ``RunConfig.execution`` has two
axes, ``batch`` × ``overlap`` (whole-slab kernels follow ``batch``, the
task-graph driver follows ``overlap``), and ``RunConfig.regrid`` says
when and how the hierarchy is rebuilt; their fields accept the literal
``"auto"``.  Under ``ExecutionPolicy(mode="auto")`` the
:mod:`repro.tune` tuner probe-measures the run and decides the fields
left at ``"auto"``; :func:`resolve_config` performs that resolution
explicitly (``run`` calls it for you) and records the decisions on
``RunConfig.tuned``, in the metrics manifest, and in the full config
fingerprint.

Everything outside the ``repro`` package — the CLI, the benchmarks, the
examples — imports from here and nowhere else (enforced by the ``api``
rule of ``repro.check.lint``).
"""

from __future__ import annotations

import hashlib
import time as _time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from .comm.simcomm import make_communicator
from .hydro.integrator import LagrangianEulerianIntegrator, SimulationConfig
from .hydro.patch_integrator import (
    CleverleafPatchIntegrator,
    NonResidentGpuPatchIntegrator,
)
from .hydro.problems import (
    BlastProblem,
    Problem,
    SodProblem,
    TriplePointProblem,
)
from .mesh.variables import CudaDataFactory, HostDataFactory
from .obs import (
    ChromeTraceSink,
    MemorySink,
    Tracer,
    activate_tracer,
    deactivate_tracer,
    registry_from_run,
    run_manifest,
)
from .regrid.regridder import RegridConfig
from .tune.policy import (
    AUTO,
    ExecutionPolicy,
    PolicyError,
    RegridPolicy,
    needs_tuning,
    resolve_policies,
)

__all__ = [
    "AUTO",
    "ExecutionPolicy",
    "RegridPolicy",
    "PolicyError",
    "ObservabilityConfig",
    "RunConfig",
    "RunResult",
    "RunSession",
    "build_simulation",
    "fingerprint",
    "resolve_config",
    "resolve_policies",
    "run",
    "Problem",
    "SodProblem",
    "TriplePointProblem",
    "BlastProblem",
    "PROBLEMS",
]

#: problem name -> class, for CLI-style construction without touching
#: ``repro.hydro`` (the serve layer and the CLI both resolve through this)
PROBLEMS: dict[str, type[Problem]] = {
    "sod": SodProblem,
    "triple_point": TriplePointProblem,
    "blast": BlastProblem,
}


@dataclass
class ObservabilityConfig:
    """What a run should record about itself (all observation-only)."""

    #: collect trace spans; implied when ``trace_path`` is set
    trace: bool = False
    #: write the spans as Chrome-trace/Perfetto JSON to this path
    trace_path: str | None = None
    #: every N steps, append a rank-merged metrics snapshot to
    #: ``RunResult.metrics_history`` (None = only the end-of-run manifest)
    metrics_interval: int | None = None

    def __post_init__(self):
        if self.trace_path is not None:
            self.trace = True
        if self.metrics_interval is not None and self.metrics_interval < 1:
            raise ValueError(
                f"metrics_interval must be a positive step count, "
                f"got {self.metrics_interval!r}")


@dataclass
class RunConfig:
    """One CleverLeaf run, as an input deck would describe it."""

    problem: Problem = field(default_factory=lambda: SodProblem((64, 64)))
    machine: str = "IPA"
    nranks: int = 1
    use_gpu: bool = True
    resident: bool = True          # False = copy-per-kernel ablation build
    max_levels: int = 3
    refinement_ratio: int = 2
    max_patch_size: int = 64
    dt_max: float | None = None    # cap the global dt (quiescent-flag runs)
    max_steps: int | None = None
    end_time: float | None = None
    sanitize: bool = False         # samrcheck sanitizer (repro.check):
                                   # observation-only, identical bits
    #: how the run executes (batch × overlap); fields accept "auto" —
    #: see :class:`ExecutionPolicy`
    execution: ExecutionPolicy = field(default_factory=ExecutionPolicy)
    #: when and how the hierarchy is rebuilt and redistributed
    regrid: RegridPolicy = field(default_factory=RegridPolicy)
    observability: ObservabilityConfig = field(
        default_factory=ObservabilityConfig)
    checkpoint_path: str | None = None  # write a restart .npz at the end
    #: the tuner's recorded decisions, attached by :func:`resolve_config`
    #: when ``execution.mode == "auto"`` (never set by hand)
    tuned: "object | None" = field(default=None, compare=False, repr=False)

    # -- policy resolution -----------------------------------------------------

    def resolved_policies(self) -> tuple[ExecutionPolicy, RegridPolicy]:
        """Concrete (execution, regrid) policies for this config.

        Delegates to :func:`repro.tune.policy.resolve_policies` — the one
        auto-resolution function — feeding it the tuner's decisions when
        this config has been through :func:`resolve_config`.  Raises
        :class:`PolicyError` when measurement-driven fields are still
        undecided.
        """
        decisions = self.tuned.chosen if self.tuned is not None else None
        return resolve_policies(self.execution, self.regrid,
                                decisions=decisions)

    def simulation_config(self) -> SimulationConfig:
        ep, rp = self.resolved_policies()
        sim_cfg = SimulationConfig(
            max_levels=self.max_levels,
            refinement_ratio=self.refinement_ratio,
            max_patch_size=self.max_patch_size,
            regrid=RegridConfig(regrid_interval=rp.interval,
                                incremental=rp.incremental,
                                balance=rp.balance),
            gamma=self.problem.gamma,
            overlap=ep.overlap,
            batch_launches=ep.batch,
        )
        if self.dt_max is not None:
            sim_cfg.dt_max = self.dt_max
        return sim_cfg


@dataclass
class RunResult:
    """Outcome of a run: the integrator plus the structured measurements."""

    sim: LagrangianEulerianIntegrator
    runtime: float                 # virtual seconds, slowest rank
    steps: int
    cells: int
    timers: dict[str, float]
    #: real host seconds for the whole run (init + step loop)
    wall_seconds: float = 0.0
    #: real host seconds for the step loop only
    step_wall_seconds: float = 0.0
    #: conserved-quantity summary of the final hierarchy (mass, ie, ke, …)
    final_fields: dict[str, float] = field(default_factory=dict)
    #: the global dt of every step taken, in order
    dt_history: list[float] = field(default_factory=list)
    #: the end-of-run metrics manifest (schema ``repro.metrics/2``)
    metrics: dict = field(default_factory=dict)
    #: (step, snapshot) pairs taken every ``metrics_interval`` steps
    metrics_history: list[tuple[int, dict]] = field(default_factory=list)
    #: where the Chrome-trace JSON was written, if tracing was on
    trace_path: str | None = None
    #: the collected trace spans (in-memory), if tracing was on
    trace_spans: list = field(default_factory=list)
    #: where the restart checkpoint was written, if requested
    checkpoint_path: str | None = None
    #: sanitize-mode counters (tasks/kernels/graphs checked), None otherwise
    sanitize_counters: dict[str, int] | None = None

    @property
    def grind_time(self) -> float:
        """Virtual seconds per cell per step (the paper's Fig. 11 metric)."""
        advanced = self.cells * max(self.steps, 1)
        return self.runtime / advanced if advanced else 0.0

    @property
    def policies(self) -> dict:
        """The resolved execution/regrid policies recorded in the manifest."""
        return self.metrics.get("policies", {})


def resolve_config(cfg: RunConfig, *, probe_steps: int | None = None,
                   tracer=None) -> RunConfig:
    """A copy of ``cfg`` with every policy field concrete.

    Static ``"auto"`` holes (fixed mode, or pinned fields) resolve
    through :func:`resolve_policies`; measurement-driven holes
    (``mode="auto"``) run the :mod:`repro.tune` tuner — a few probe
    steps per candidate policy on a throwaway twin of the run — and the
    chosen values plus the probe evidence are attached as ``cfg.tuned``
    (also recorded in the metrics manifest and hashed into the full
    fingerprint).  ``tracer`` (a :class:`repro.obs.Tracer`) receives one
    ``tune``-category span per probe.  Idempotent on resolved configs.
    """
    if cfg.tuned is not None or not needs_tuning(cfg.execution, cfg.regrid):
        ep, rp = cfg.resolved_policies()
        if ep == cfg.execution and rp == cfg.regrid:
            return cfg  # already concrete
        return replace(cfg, execution=ep, regrid=rp)
    from .tune.tuner import tune_policies

    ep, rp, decisions = tune_policies(cfg, probe_steps=probe_steps,
                                      tracer=tracer)
    return replace(cfg, execution=ep, regrid=rp, tuned=decisions)


def build_simulation(cfg: RunConfig) -> LagrangianEulerianIntegrator:
    """Compose communicator, factory and integrator for a run config.

    The config's policies must be resolvable without measurement — pass
    tuning configs through :func:`resolve_config` first.
    """
    comm = make_communicator(cfg.machine, cfg.nranks, gpus=cfg.use_gpu)
    if cfg.use_gpu and cfg.resident:
        factory = CudaDataFactory()
        pi = CleverleafPatchIntegrator(gamma=cfg.problem.gamma)
    elif cfg.use_gpu:
        factory = HostDataFactory()
        pi = NonResidentGpuPatchIntegrator(gamma=cfg.problem.gamma)
    else:
        factory = HostDataFactory()
        pi = CleverleafPatchIntegrator(gamma=cfg.problem.gamma)
    return LagrangianEulerianIntegrator(
        cfg.problem, comm, factory, cfg.simulation_config(), patch_integrator=pi
    )


class RunSession:
    """An incremental driver over one simulation: build, advance, pause.

    :func:`run` drives a session start-to-finish; the serve layer
    (:mod:`repro.serve`) interleaves many sessions over one device pool
    by advancing each a slice of steps at a time.  A config with
    measurement-driven ``"auto"`` fields is resolved (tuner probes run)
    during construction, before the simulation is built; ``self.cfg`` is
    always the resolved config.  The contract that makes cooperative
    preemption bitwise-safe:

    * the sanitizer and tracer for this session are process-global while
      installed, so they are activated only *inside* ``advance`` (and the
      constructor's initialise) — between slices the process is clean and
      another session may run;
    * ``checkpoint_db`` between slices plus a new session with
      ``init_db=`` that dict (and the prior ``dt_history``) resumes the
      run with bitwise-identical fields and dt sequence — step boundaries
      are the only yield points, and the restart layer round-trips every
      backend exactly.
    """

    def __init__(self, cfg: RunConfig, *, init_db: dict | None = None,
                 dt_history=()):
        from .check import SanitizeChecker

        if cfg.max_steps is None and cfg.end_time is None:
            raise ValueError("need max_steps or end_time")
        self.dt_history: list[float] = [float(dt) for dt in dt_history]
        self.metrics_history: list[tuple[int, dict]] = []
        self._checker = SanitizeChecker() if cfg.sanitize else None
        self._tracer = None
        self._memory = None
        if cfg.observability.trace:
            self._memory = MemorySink()
            sinks: list = [self._memory]
            if cfg.observability.trace_path is not None:
                sinks.append(ChromeTraceSink(cfg.observability.trace_path))
            self._tracer = Tracer(sinks)
        self._closed = False
        self._step_wall = 0.0
        self._wall0 = _time.perf_counter()
        self._wall_end = self._wall0
        # tuner probes (if any) run before the simulation exists, with no
        # tracer/checker installed; their spans reach the trace through
        # the explicit tracer handle
        self.cfg = cfg = resolve_config(cfg, tracer=self._tracer)
        self.sim = build_simulation(cfg)
        try:
            with self._active():
                if init_db is not None:
                    from .util.restart import restore

                    restore(self.sim, init_db)
                else:
                    self.sim.initialise()
        except BaseException:
            self.close()
            raise
        self._start = self.sim.elapsed()
        self._wall_end = _time.perf_counter()

    @contextmanager
    def _active(self):
        """Install this session's tracer/checker for one slice of work."""
        from .check import activate, deactivate

        if self._tracer is not None:
            activate_tracer(self._tracer)
        if self._checker is not None:
            activate(self._checker)
        try:
            yield
        finally:
            if self._checker is not None:
                deactivate()
            if self._tracer is not None:
                deactivate_tracer()

    @property
    def done(self) -> bool:
        """True once the configured step/time budget is exhausted."""
        cfg = self.cfg
        if cfg.max_steps is not None and self.sim.step_count >= cfg.max_steps:
            return True
        return cfg.end_time is not None and self.sim.time >= cfg.end_time

    def advance(self, max_steps: int | None = None) -> int:
        """Take up to ``max_steps`` steps (all remaining when None).

        Returns the number of steps actually taken; 0 means the budget
        was already exhausted.
        """
        obs = self.cfg.observability
        taken = 0
        t0 = _time.perf_counter()
        with self._active():
            while not self.done and (max_steps is None or taken < max_steps):
                self.sim.step()
                self.dt_history.append(float(self.sim.dt))
                taken += 1
                if (obs.metrics_interval is not None
                        and self.sim.step_count % obs.metrics_interval == 0):
                    self.metrics_history.append(
                        (self.sim.step_count,
                         registry_from_run(self.sim).snapshot()))
        self._wall_end = _time.perf_counter()
        self._step_wall += self._wall_end - t0
        return taken

    def checkpoint_db(self) -> dict:
        """A restart db of the current state (call between slices)."""
        from .util.restart import checkpoint

        return checkpoint(self.sim)

    @property
    def sanitize_counters(self) -> dict[str, int] | None:
        if self._checker is None:
            return None
        return {
            "tasks": self._checker.tasks_checked,
            "kernels": self._checker.kernels_checked,
            "graphs": self._checker.graphs_checked,
        }

    def result(self) -> RunResult:
        """Measurements for the work this session performed; closes it."""
        from .hydro.diagnostics import field_summary

        sim = self.sim
        ep, rp = self.cfg.resolved_policies()
        policies = {
            "execution": ep.as_dict(),
            "regrid": rp.as_dict(),
            "tuned": (self.cfg.tuned.as_dict()
                      if self.cfg.tuned is not None else None),
        }
        manifest = run_manifest(sim, steps=sim.step_count,
                                dt_history=self.dt_history,
                                policies=policies)
        checkpoint_path = None
        if self.cfg.checkpoint_path is not None:
            from .util.restart import save_npz

            save_npz(self.checkpoint_db(), self.cfg.checkpoint_path)
            checkpoint_path = self.cfg.checkpoint_path
        self.close()
        return RunResult(
            sim=sim,
            runtime=sim.elapsed() - self._start,
            steps=sim.step_count,
            cells=sim.total_cells(),
            timers=sim.timer_summary(),
            wall_seconds=self._wall_end - self._wall0,
            step_wall_seconds=self._step_wall,
            final_fields={k: float(v)
                          for k, v in field_summary(sim.hierarchy).items()},
            dt_history=self.dt_history,
            metrics=manifest,
            metrics_history=self.metrics_history,
            trace_path=(self.cfg.observability.trace_path
                        if self._tracer is not None else None),
            trace_spans=self._memory.spans if self._memory is not None else [],
            checkpoint_path=checkpoint_path,
            sanitize_counters=self.sanitize_counters,
        )

    def close(self) -> None:
        """Flush trace sinks and give back the kernels' workspace;
        idempotent, safe after partial construction."""
        if self._closed:
            return
        self._closed = True
        sim = getattr(self, "sim", None)
        if sim is not None:
            sim.patch_integrator.workspace.release()
        if self._tracer is not None:
            self._tracer.close()


def run(cfg: RunConfig) -> RunResult:
    """Initialise and run to the configured budget; return measurements.

    Configs with ``ExecutionPolicy(mode="auto")`` are tuned first (see
    :func:`resolve_config`); the resolved decisions are recorded in
    ``RunResult.metrics["policies"]``.
    """
    session = RunSession(cfg)
    try:
        session.advance()
        return session.result()
    finally:
        session.close()


def fingerprint(cfg: RunConfig, *, full: bool = False) -> str:
    """A stable hex digest of the configuration.

    The default (init) scope hashes exactly the fields that determine
    the state ``initialise`` produces — problem, rank count and the AMR
    layout parameters — so two configs with equal fingerprints can share
    one cached post-initialise snapshot (backend choice changes modelled
    time, never bits, so it is deliberately excluded).  ``full=True``
    additionally hashes the machine/backend/budget fields and the
    **resolved** execution policy — ``"auto"`` never enters the hash;
    tuned configs hash the tuner's decisions, so runs whose *results*
    must match bitwise end to end (and whose schedules/plans may be
    reused) are identified by what actually executed.  Raises
    :class:`PolicyError` when ``full=True`` and measurement-driven
    fields are still undecided.
    """
    p = cfg.problem
    key: list = [
        ("problem", type(p).__name__, sorted(vars(p).items())),
        ("nranks", cfg.nranks),
        ("max_levels", cfg.max_levels),
        ("refinement_ratio", cfg.refinement_ratio),
        ("max_patch_size", cfg.max_patch_size),
        ("regrid_interval", cfg.regrid.interval),
        ("balance", cfg.regrid.balance),
    ]
    if full:
        ep, rp = cfg.resolved_policies()
        key += [
            ("regrid_incremental", rp.incremental),
            ("dt_max", cfg.dt_max),
            ("machine", cfg.machine),
            ("use_gpu", cfg.use_gpu),
            ("resident", cfg.resident),
            ("max_steps", cfg.max_steps),
            ("end_time", cfg.end_time),
            ("overlap", ep.overlap),
            ("batch_launches", ep.batch),
        ]
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]
