"""The Lagrangian–Eulerian AMR integrator (CleverLeaf's driver classes).

Combines the roles of the paper's ``LagrangianEulerianIntegrator`` (manage
the adaptive hierarchy, advance the simulation) and
``LagrangianEulerianLevelIntegrator`` (advance one level) — see Fig. 6.
Levels advance in lockstep with a single global timestep (the minimum over
every patch, reduced with the run's one global MPI reduction), each kernel
phase running across all levels before the next halo fill, so coarse-fine
ghost interpolation always reads same-phase data and no fill takes a
time.

Timers split the step into the categories of the paper's §V-B analysis:
``hydro`` (kernels + boundary exchanges), ``timestep`` (CFL + reduction),
``sync`` (fine-to-coarse synchronisation), and ``regrid``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..exec.batch import BatchSlot, LaunchBatcher, StepParams
from ..geom.operators import (
    CellConservativeLinearRefine,
    CellMassWeightedCoarsen,
    CellVolumeWeightedCoarsen,
    NodeInjectionCoarsen,
    NodeLinearRefine,
    SideConservativeLinearRefine,
)
from ..mesh.box import Box
from ..mesh.geometry import CartesianGridGeometry
from ..mesh.hierarchy import PatchHierarchy
from ..obs.context import active_tracer
from ..obs.metrics import phase_seconds, registry_from_run
from ..regrid.load_balance import assign_owners, chop_boxes
from ..regrid.regridder import RegridConfig, Regridder
from ..util import nan_min
from ..xfer.coarsen_schedule import CoarsenSchedule, CoarsenSpec
from ..xfer.message import ImmediateSink
from ..xfer.refine_schedule import FillSpec, RefineSchedule
from ..xfer.schedule_cache import ScheduleCache, level_token
from .boundary import ReflectiveBoundary
from .fields import FIELD_GROUPS, PRIMARY_FIELDS, declare_fields
from .patch_integrator import CleverleafPatchIntegrator

if TYPE_CHECKING:  # pragma: no cover
    from ..comm.simcomm import SimCommunicator
    from .problems import Problem

__all__ = ["SimulationConfig", "LagrangianEulerianIntegrator", "SimulationError"]


class SimulationError(RuntimeError):
    """The simulation reached an invalid state (non-finite dt, etc.)."""


@dataclass
class SimulationConfig:
    """Run-level parameters of a CleverLeaf simulation."""

    max_levels: int = 3
    refinement_ratio: int = 2
    max_patch_size: int = 64
    regrid: RegridConfig = field(default_factory=RegridConfig)
    gamma: float = 1.4
    dt_growth: float = 1.5
    dt_max: float = 1.0e10
    dt_init: float = 1.0e10
    #: record each step into task graphs (repro.sched) instead of
    #: executing it inline, with halo transfers overlapping compute on
    #: per-rank copy streams; changes modelled time only, never bits
    overlap: bool = False
    #: fuse same-kernel, same-level per-patch launches into one launch
    #: per (backend, level) — the AMReX MultiFab-style launch batching —
    #: run as one stacked NumPy op per patch shape over the (level, rank,
    #: variable) arena slab, and group transfers into one message per
    #: rank pair; changes modelled time only, results stay bitwise
    #: identical
    batch_launches: bool = False

    def __post_init__(self):
        # Fine levels inherit the run's patch-size limit unless the regrid
        # config sets its own.
        if self.regrid.max_patch_size is None:
            self.regrid.max_patch_size = self.max_patch_size


class LagrangianEulerianIntegrator:
    """Drives a CleverLeaf simulation over an adaptive hierarchy."""

    def __init__(
        self,
        problem: "Problem",
        comm: "SimCommunicator",
        factory,
        config: SimulationConfig | None = None,
        patch_integrator: CleverleafPatchIntegrator | None = None,
    ):
        self.problem = problem
        self.comm = comm
        self.factory = factory
        self.config = config if config is not None else SimulationConfig()
        self.variables = declare_fields()
        self.boundary = ReflectiveBoundary()
        self.patch_integrator = (
            patch_integrator if patch_integrator is not None
            else CleverleafPatchIntegrator(gamma=self.config.gamma)
        )
        self._refine_ops = {
            "cell": CellConservativeLinearRefine(),
            "node": NodeLinearRefine(),
            "side": SideConservativeLinearRefine(),
        }

        domain = Box.from_shape(problem.base_resolution)
        self.geometry = CartesianGridGeometry(domain, problem.x_lo, problem.x_hi)
        self.hierarchy = PatchHierarchy(
            self.geometry, self.config.max_levels, self.config.refinement_ratio
        )
        #: (src, dst)-keyed schedule cache: survives regrids, entries for
        #: untouched levels stay valid (lookups are counted in rank 0's
        #: metrics registry, which --profile and the manifest read)
        self.schedule_cache = ScheduleCache(comm.ranks[0].metrics)
        self.regridder = Regridder(
            self.hierarchy, comm, factory, self.variables, PRIMARY_FIELDS,
            self.config.regrid,
        )
        self.time = 0.0
        self.step_count = 0
        self.dt = None
        #: the step's dt as the kernels read it when they run (a replayed
        #: task graph binds this, not the value)
        self.params = StepParams()
        self._step_scheduler = None
        #: where the inline driver's kernel sweeps launch
        self._sink = ImmediateSink(comm)

    # -- spec helpers ---------------------------------------------------------

    def _specs_for(self, names) -> list[FillSpec]:
        return [
            FillSpec(self.variables[n],
                     self._refine_ops[self.variables[n].centring])
            for n in names
        ]

    # -- phase timing ---------------------------------------------------------------

    @contextmanager
    def _phase(self, name: str, variant: int = 0):  # noqa: ARG002 — the step program's verb; the recording driver keys its graphs on it
        """Time a step phase on every rank's virtual clock, adding each
        rank's delta to its ``phase.seconds{phase=name}`` gauge.  ``variant``
        tells phases of one position apart whose program differs from
        step to step (the advection's sweep order)."""
        for r in self.comm.ranks:
            r.sync_device()
        starts = [r.clock.time for r in self.comm.ranks]
        try:
            yield
        finally:
            tracer = active_tracer()
            for r, t0 in zip(self.comm.ranks, starts):
                r.sync_device()
                delta = r.clock.time - t0
                r.metrics.gauge("phase.seconds", phase=name).value += delta
                if tracer is not None and delta > 0.0:
                    tracer.emit(name, "phase", r.index, "phase",
                                t0, r.clock.time)

    def timer_summary(self) -> dict[str, float]:
        """Per-phase maxima over ranks (critical-path time)."""
        return phase_seconds(registry_from_run(self))

    # -- initialisation ----------------------------------------------------------

    def initialise(self) -> None:
        """Build the initial hierarchy: base level, then iterative refinement.

        Only the coarsest level is user-specified; the error-estimation and
        hierarchy-generation procedure creates the finer levels (§II), and
        the regridder's hook initialises each level it builds, once,
        from the analytic initial conditions.
        """
        boxes = chop_boxes(
            [self.geometry.domain_box], self.config.max_patch_size
        )
        owners = assign_owners(
            boxes, self.comm.size, method=self.config.regrid.balance,
            imbalance_threshold=self.config.regrid.imbalance_threshold)
        level0 = self.hierarchy.make_level(0, boxes, owners)
        level0.allocate_all(self.variables, self.factory, self.comm)
        self.hierarchy.set_level(level0)
        self._init_level_data(level0)
        self._prepare_for_tagging()

        with self._phase("regrid"):
            for _ in range(self.config.max_levels - 1):
                before = self.hierarchy.num_levels
                self._regrid(self._init_level_data)
                self._prepare_for_tagging()
                if self.hierarchy.num_levels == before:
                    break

    def _init_level_data(self, level, old=None) -> None:
        """The set-up hook: analytic initial conditions + EOS on every
        patch of a level.  They write every field, so nothing is read from
        the level ``level`` replaces (released here) or the coarser one."""
        if old is not None and old is not level:
            old.free_all()
        self.patch_integrator.initialise_level(level, self.comm, self.problem)

    def _remake_level_data(self, level, old) -> None:
        """The step hook: a new or kept level's data after a regrid.

        A new level's primary interiors are transferred from ``old``
        where it existed and interpolated from the coarser level
        elsewhere, and ``old`` is released; a kept level (``old is
        level``) already holds them.  Then the primary ghosts are filled
        (coarse-fine interpolation and physical boundaries, so the next
        finer level can interpolate) and the EOS recomputed on the
        transferred data (the regridder has zeroed the work arrays).
        Both fills are the paper's per-patch ones.
        """
        if old is not level:
            coarse = self.hierarchy.level(level.level_number - 1)
            RefineSchedule(
                level, coarse, self._specs_for(PRIMARY_FIELDS), self.comm,
                boundary=None, src_level=old, interior=True,
            ).fill()
            if old is not None:
                old.free_all()
        self._fill_schedule_for(level, PRIMARY_FIELDS, "regrid_ghost").fill()
        self.patch_integrator.reset_eos(level, self.comm)

    # -- halo fills -----------------------------------------------------------------

    def _regrid(self, fill_level) -> None:
        """Regrid the hierarchy, then drop the schedules it invalidated.

        The kernels' workspace is given back first: it is sized for the
        old levels' patch shapes, and would otherwise sit on top of the
        regrid's own allocation peak.
        """
        self.patch_integrator.workspace.release()
        self.regridder.regrid(fill_level)
        self._invalidate_schedules()

    def _invalidate_schedules(self) -> None:
        """Selective invalidation: drop only schedules touching changed levels.

        The cache validates level-object identity, so entries for levels
        the regrid rebuilt (new objects) can never be replayed; this
        purge just reclaims them.  Entries whose levels were *kept* by an
        incremental regrid — and level 0's, which regrid never touches —
        survive and keep serving hits.
        """
        self.schedule_cache.purge(self.hierarchy)

    def _fill_schedule_for(self, level, names,
                           kind: str = "fill") -> RefineSchedule:
        """The cached ghost-fill schedule for one (level, name group).

        ``kind="regrid_ghost"`` is a regrid's fill: cached apart from the
        step's, and always in the per-patch grouping."""
        names = tuple(names)
        coarse = (
            self.hierarchy.level(level.level_number - 1)
            if level.level_number > 0 else None
        )
        ghosts = tuple(self.variables[n].ghosts for n in names)
        key = (level_token(level), level_token(coarse), names, ghosts)
        sched = self.schedule_cache.get(kind, key, (level, coarse))
        if sched is None:
            sched = RefineSchedule(
                level, coarse, self._specs_for(names), self.comm,
                boundary=self.boundary,
                geometry_cache=self.schedule_cache.geometry_cache,
                batch=kind == "fill" and self.config.batch_launches,
            )
            self.schedule_cache.put(kind, key, (level, coarse), sched)
        return sched

    # -- executing the step program inline -----------------------------------------
    #
    # ``_phase`` (above), ``_fill``, ``_sweep``, ``_coarsen`` and ``_reduce``
    # are the operations a timestep is written in (see ``_advance``).  Here
    # each one runs as it is named, against the immediate sink;
    # ``sched.driver.StepScheduler`` implements the same five by running
    # the same sweeps and transfer programs against a graph builder.

    def _fill(self, sched: RefineSchedule) -> None:
        sched.fill()

    def _coarsen(self, sched: CoarsenSchedule) -> None:
        sched.coarsen()

    def _foreach_patch(self, fn) -> None:
        """Visit every sweep unit: each patch, or under ``batch_launches``
        each shape bucket of an arena-allocated level (one kernel call
        over the bucket's stacked patches)."""
        batch = self.config.batch_launches
        for level in self.hierarchy:
            for unit in (batch and level.buckets) or level.patches:
                fn(unit, self.comm.rank(unit.owner))

    def _sweep(self, fn) -> list:
        return self._sweep_into(self._sink, fn)

    def _sweep_into(self, sink, fn) -> list:
        """One kernel sweep over every patch, launched through ``sink``.

        The sweep's launches (one per unit :meth:`_foreach_patch` visits)
        are collected — fused per (backend, level) with
        ``config.batch_launches``, one group each otherwise — and flushed into the sink's launch verb: executed now
        (this driver) or recorded as tasks (``StepScheduler``).  Returns
        the ``(rank index, handle)`` pairs of a reduction sweep.
        """
        pi = self.patch_integrator
        pi.sink = batcher = LaunchBatcher(self.config.batch_launches)
        try:
            self._foreach_patch(fn)
        finally:
            pi.sink = None
        return sink.flush_fusion(batcher)

    def _reduce(self, fn, handles) -> BatchSlot:
        """Run a reduction over launch handles; its value is ``.result``."""
        return BatchSlot(fn(handles))

    # -- the timestep --------------------------------------------------------------

    def step(self) -> float:
        """Advance the whole hierarchy by one global timestep.

        With ``config.overlap`` the step is recorded into task graphs and
        executed by :mod:`repro.sched`; otherwise it executes inline.
        Either way it is the one program in :meth:`_advance`, so the two
        are bitwise identical.
        """
        if self.config.overlap or self._step_scheduler is not None:
            dt = self._scheduler().advance()
        else:
            dt = self._advance(self)

        self.time += dt
        self.step_count += 1
        self.dt = dt

        if (self.config.max_levels > 1
                and self.step_count % self.config.regrid.regrid_interval == 0):
            with self._phase("regrid"):
                self._prepare_for_tagging()
                self._regrid(self._remake_level_data)
        return dt

    def _scheduler(self):
        if self._step_scheduler is None:
            from ..sched.driver import StepScheduler

            self._step_scheduler = StepScheduler(self, overlap=True)
        return self._step_scheduler

    def _advance(self, ex) -> float:
        """One global timestep, stated once; returns dt.

        ``ex`` carries the program out: this integrator executes every
        operation as it is named, a ``StepScheduler`` records each phase
        into a task graph (or replays the one it recorded earlier in this
        hierarchy generation) and executes it at the phase boundary.
        Everything that changes from step to step reaches the kernels
        through ``params`` or the phase ``variant``.  The
        caller owns the step bookkeeping (time/step_count/regrid).
        """
        pi = self.patch_integrator
        params = self.params

        with ex._phase("hydro"):
            self._fill_group(ex, FIELD_GROUPS["step_start"])
            # EOS extended into the ghosts gives viscosity/accelerate their
            # pressure halos without a separate exchange.
            ex._sweep(lambda p, r: pi.ideal_gas(p, r, ext=2))
            ex._sweep(lambda p, r: pi.viscosity(p, r))
            self._fill_group(ex, FIELD_GROUPS["post_viscosity"])

        # CFL: one dt handle per launch, reduced per owner and then by the
        # run's one global reduction.  Fused, each (backend, level) group
        # is one launch and one scalar readback instead of a per-patch
        # PCIe-latency chain; min is exact selection, so dt is bitwise
        # the same either way.
        with ex._phase("timestep"):
            handles = ex._sweep(pi.calc_dt)
            reduced = ex._reduce(self._min_dt, handles)
        dt = params.dt = self._apply_dt_policy(reduced.result)

        first = 0 if self.step_count % 2 == 0 else 1
        with ex._phase("hydro", first):
            ex._sweep(lambda p, r: pi.pdv(p, r, True, params))
            ex._sweep(lambda p, r: pi.ideal_gas(p, r, predict=True))
            self._fill_group(ex, FIELD_GROUPS["half_step"])
            ex._sweep(lambda p, r: pi.accelerate(p, r, params))
            ex._sweep(lambda p, r: pi.pdv(p, r, False, params))
            ex._sweep(lambda p, r: pi.flux_calc(p, r, params))
            self._fill_group(ex, FIELD_GROUPS["pre_advec"])

            self._advect(ex, first, 1)
            self._advect(ex, 1 - first, 2)
            ex._sweep(lambda p, r: pi.reset_field(p, r))

        with ex._phase("sync"):
            # Fine-to-coarse conservative averaging, finest level first.
            for fine_num in range(self.hierarchy.num_levels - 1, 0, -1):
                ex._coarsen(self._coarsen_schedule_for(fine_num))

        return dt

    def _fill_group(self, ex, names) -> None:
        """Fill one field group's halos on every level, coarsest first."""
        for level in self.hierarchy:
            ex._fill(self._fill_schedule_for(level, names))

    def _advect(self, ex, direction: int, sweep_number: int) -> None:
        pi = self.patch_integrator
        ex._sweep(lambda p, r: pi.advec_cell(p, r, direction, sweep_number))
        self._fill_group(
            ex, FIELD_GROUPS["mid_advec_x" if direction == 0 else "mid_advec_y"])
        for which_vel in (0, 1):
            ex._sweep(lambda p, r, wv=which_vel: pi.advec_mom(
                p, r, direction, sweep_number, wv))

    def _prepare_for_tagging(self) -> None:
        """Fresh primary ghosts + extended EOS so tag gradients are valid.

        After reset_field only the interiors hold the new state; the tag
        heuristic reads +-1 stencils of density, energy *and pressure*, so
        the error-estimation pass starts with a boundary fill (as SAMRAI's
        does) and an EOS sweep over interiors and ghosts.
        """
        self._fill_group(self, PRIMARY_FIELDS)
        self._sweep(
            lambda p, r: self.patch_integrator.ideal_gas(p, r, ext=2)
        )

    def _min_dt(self, handles) -> float:
        """Per-owner min over ``(owner, dt handle)`` pairs, then allreduce.

        A handle is whatever the sink's reduction launch handed back: its
        ``result`` is the scalar that launch's readback delivered.  A NaN
        result reaches the policy check, which raises on it.
        """
        local = [[math.inf] for _ in range(self.comm.size)]
        for owner, handle in handles:
            local[owner].append(handle.result)
        return self.comm.allreduce_min([nan_min(dts) for dts in local])

    def _apply_dt_policy(self, dt: float) -> float:
        """Validate a reduced dt and apply the growth/init/max clamps."""
        if not math.isfinite(dt) or dt <= 0.0:
            raise SimulationError(f"invalid timestep {dt} at step {self.step_count}")
        if self.dt is None:
            dt = min(dt, self.config.dt_init)
        else:
            dt = min(dt, self.config.dt_growth * self.dt)
        return min(dt, self.config.dt_max)

    def _coarsen_schedule_for(self, fine_num: int) -> CoarsenSchedule:
        """The cached fine-to-coarse sync schedule below ``fine_num``."""
        fine = self.hierarchy.level(fine_num)
        coarse = self.hierarchy.level(fine_num - 1)
        key = (level_token(fine), level_token(coarse))
        sched = self.schedule_cache.get("coarsen", key, (fine, coarse))
        if sched is None:
            specs = [
                # Energy first: its mass weight is the *pre-sync* fine
                # density, which coarsening density does not alter, but
                # keeping the order explicit documents the dependency.
                CoarsenSpec(self.variables["energy0"], CellMassWeightedCoarsen(),
                            weight_name="density0"),
                CoarsenSpec(self.variables["density0"], CellVolumeWeightedCoarsen()),
                CoarsenSpec(self.variables["xvel0"], NodeInjectionCoarsen()),
                CoarsenSpec(self.variables["yvel0"], NodeInjectionCoarsen()),
            ]
            sched = CoarsenSchedule(fine, coarse, specs, self.comm,
                                    batch=self.config.batch_launches)
            self.schedule_cache.put("coarsen", key, (fine, coarse), sched)
        return sched

    # -- run loops ----------------------------------------------------------------

    def run(self, max_steps: int | None = None, end_time: float | None = None):
        """Advance until a step or time budget is exhausted."""
        if max_steps is None and end_time is None:
            raise ValueError("need max_steps or end_time")
        while True:
            if max_steps is not None and self.step_count >= max_steps:
                break
            if end_time is not None and self.time >= end_time:
                break
            self.step()
        return self

    # -- metrics --------------------------------------------------------------------

    def total_cells(self) -> int:
        return self.hierarchy.total_cells()

    def elapsed(self) -> float:
        """Virtual wall time of the run (slowest rank)."""
        return self.comm.max_time()
