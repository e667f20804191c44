"""The cooperative round-based scheduler: N jobs, one device pool.

Each round the scheduler (1) fails jobs past their virtual timeout,
(2) admits queued jobs — highest priority class first — whose memory
reservation fits the :class:`~repro.serve.pool.DevicePool`, preempting
lower-priority runners to make room for interactive work, and (3)
advances every running job one slice of steps through its
:class:`~repro.api.RunSession`.  Admitted jobs run "concurrently" on
disjoint device reservations, so the service clock advances by the
*slowest* slice of the round.

Preemption is cooperative and bitwise-safe: it only ever happens between
slices (i.e. at a step boundary), captures a restart checkpoint plus the
dt history, and resumption restores from that checkpoint — the restart
layer round-trips every backend exactly, so a preempted-and-resumed job
produces bitwise-identical fields and dt sequence to an uninterrupted
twin.  Failures retry from scratch (same determinism, so a retry is a
replay); timeouts are terminal.

Everything here reaches simulations only through :mod:`repro.api`
(enforced by the ``serve`` rule of ``repro.check.lint``).
"""

from __future__ import annotations

from ..api import RunSession, resolve_config
from ..obs import MetricsRegistry
from .cache import PlanCache
from .events import EventStream
from .job import JobRecord, JobSpec, JobState
from .pool import DevicePool, NeverFits, estimate_run_bytes
from .queue import JobQueue

__all__ = ["Scheduler"]


class Scheduler:
    """Multiplex submitted jobs over one shared :class:`DevicePool`."""

    def __init__(self, pool: DevicePool, *, slice_steps: int = 4,
                 cache: PlanCache | None = None,
                 events: EventStream | None = None,
                 registry: MetricsRegistry | None = None):
        if slice_steps < 1:
            raise ValueError(f"slice_steps must be >= 1, got {slice_steps}")
        self.pool = pool
        self.slice_steps = int(slice_steps)
        self.cache = cache if cache is not None else PlanCache()
        self.events = events if events is not None else EventStream()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.queue = JobQueue()
        self.records: list[JobRecord] = []
        #: virtual service clock (seconds); advances by the slowest slice
        self.clock = 0.0
        self._running: list[tuple[JobRecord, RunSession]] = []

    # -- submission ------------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        """Enqueue a job; rejects immediately what can never be placed.

        The spec's config is policy-resolved here, *before* admission:
        an ``ExecutionPolicy(mode="auto")`` job runs its tuner probes at
        submission (on throwaway twins, never the pool's devices), so
        the admission check, the plan-cache fingerprint, and every
        subsequent session all see the concrete resolved policies.
        """
        spec.cfg = resolve_config(spec.cfg)
        record = JobRecord(spec, submitted_at=self.clock)
        self.records.append(record)
        try:
            self.pool.check_admissible(spec.cfg.nranks, self._job_bytes(record))
        except NeverFits as exc:
            record.state = JobState.FAILED
            record.error = str(exc)
            record.finished_at = self.clock
            self._emit("rejected", record, error=record.error)
            self._metrics(record).counter("serve.rejected").inc()
            return record
        self.queue.push(record)
        self._emit("submitted", record)
        self._metrics(record).counter("serve.submitted").inc()
        return record

    # -- the round loop --------------------------------------------------------

    def run(self, max_rounds: int = 100_000) -> list[JobRecord]:
        """Drive rounds until every submitted job is terminal."""
        rounds = 0
        while self._running or len(self.queue):
            if rounds >= max_rounds:
                raise RuntimeError(f"scheduler exceeded {max_rounds} rounds")
            self._round()
            rounds += 1
        return self.records

    def round_once(self) -> None:
        """Advance the service by exactly one scheduling round.

        For callers that interleave submission with service time (late
        arrivals are what force preemption); :meth:`run` drains fully.
        """
        self._round()

    def _round(self) -> None:
        self._expire_queued()
        admitted = self._admit_pass()
        deltas = self._slice_pass()
        if deltas:
            self.clock += max(deltas)
        elif not admitted and len(self.queue):
            raise RuntimeError(
                "scheduler stalled: queued jobs, no runners, nothing "
                "admitted — reservation accounting is inconsistent")
        self.registry.gauge("serve.queue_depth").set(float(len(self.queue)))
        self.registry.gauge("serve.running").set(float(len(self._running)))

    def _expire_queued(self) -> None:
        for record in list(self.queue):
            t = record.spec.timeout
            if t is not None and self.clock - record.submitted_at > t:
                self.queue.remove(record)
                self._finish_failed(record, f"virtual timeout after {t}s")

    def _admit_pass(self) -> int:
        admitted = 0
        for record in list(self.queue):
            if self._admit_one(record):
                admitted += 1
            elif record.spec.priority_index == 0:
                # Interactive work may evict batch runners to make room.
                while self._preempt_one_below(record.spec.priority_index):
                    if self._admit_one(record):
                        admitted += 1
                        break
        return admitted

    def _admit_one(self, record: JobRecord) -> bool:
        spec = record.spec
        job_bytes = self._job_bytes(record)
        try:
            per_device = self.pool.check_admissible(spec.cfg.nranks, job_bytes)
            devices = self.pool.try_admit(spec.cfg.nranks, job_bytes)
        except NeverFits as exc:
            self.queue.remove(record)
            self._finish_failed(record, str(exc))
            return False
        if devices is None:
            return False
        try:
            session = self._build_session(record)
        except Exception as exc:  # noqa: BLE001 — any build failure is the job's
            self.pool.release(devices, per_device)
            self.queue.remove(record)
            record.attempts += 1
            self._retry_or_fail(record, exc)
            return False
        self.queue.remove(record)
        record.state = JobState.ADMITTED
        record.admitted_at = self.clock
        record.devices = devices
        record.reserved_per_device = per_device
        record.attempts += 1
        self._running.append((record, session))
        self._emit("admitted", record, devices=list(devices),
                   reserved_per_device=per_device)
        return True

    def _build_session(self, record: JobRecord) -> RunSession:
        spec = record.spec
        if record.checkpoint is not None:
            return RunSession(spec.cfg, init_db=record.checkpoint,
                              dt_history=record.dt_history)
        key = spec.fingerprint()
        snap = self.cache.snapshot(key)
        if snap is not None:
            self._emit("cache-hit", record, fingerprint=key)
            self._metrics(record).counter("serve.cache_hits").inc()
            return RunSession(spec.cfg, init_db=snap)
        session = RunSession(spec.cfg)
        self.cache.store_snapshot(key, session.checkpoint_db())
        return session

    def _preempt_one_below(self, priority_index: int) -> bool:
        """Checkpoint the most recently admitted lower-priority runner."""
        victims = [(r, s) for r, s in self._running
                   if r.spec.priority_index > priority_index]
        if not victims:
            return False
        record, session = victims[-1]
        self._preempt(record, session)
        return True

    def _preempt(self, record: JobRecord, session: RunSession) -> None:
        record.checkpoint = session.checkpoint_db()
        record.dt_history = list(session.dt_history)
        record.steps_done = session.sim.step_count
        record.accumulate_sanitize(session.sanitize_counters)
        session.close()
        self._release(record)
        self._running.remove((record, session))
        record.state = JobState.PREEMPTED
        record.preemptions += 1
        self.queue.push_front(record)
        self._emit("preempted", record, at_step=record.steps_done)
        self._metrics(record).counter("serve.preemptions").inc()

    def _slice_pass(self) -> list[float]:
        deltas: list[float] = []
        for record, session in list(self._running):
            record.state = JobState.RUNNING
            before = session.sim.elapsed()
            try:
                taken = session.advance(self.slice_steps)
            except Exception as exc:  # noqa: BLE001 — job-scoped failure
                session.close()
                self._release(record)
                self._running.remove((record, session))
                self._retry_or_fail(record, exc)
                continue
            delta = session.sim.elapsed() - before
            deltas.append(delta)
            record.steps_done = session.sim.step_count
            reg = self._metrics(record)
            reg.counter("serve.slices").inc()
            reg.counter("serve.steps").inc(taken)
            self._emit("progress", record, steps=record.steps_done,
                       slice_steps=taken, slice_seconds=delta)
            t = record.spec.timeout
            if session.done:
                self._complete(record, session, finished=self.clock + delta)
            elif t is not None and (self.clock + delta
                                    - record.submitted_at) > t:
                session.close()
                self._release(record)
                self._running.remove((record, session))
                self._finish_failed(
                    record, f"virtual timeout after {t}s",
                    finished=self.clock + delta)
        return deltas

    # -- transitions -----------------------------------------------------------

    def _complete(self, record: JobRecord, session: RunSession,
                  finished: float) -> None:
        observed = self._observed_bytes(session)
        result = session.result()
        self._release(record)
        self._running.remove((record, session))
        record.result = result
        record.steps_done = result.steps
        record.accumulate_sanitize(result.sanitize_counters)
        record.state = JobState.COMPLETED
        record.finished_at = finished
        if observed:
            self.cache.store_observed_bytes(record.spec.fingerprint(),
                                            observed)
        reg = self._metrics(record)
        reg.counter("serve.completed").inc()
        reg.histogram("serve.latency",
                      priority=record.spec.priority).observe(record.latency)
        self._emit("completed", record, steps=record.steps_done,
                   latency=record.latency)

    def _retry_or_fail(self, record: JobRecord, exc: Exception) -> None:
        if record.attempts <= record.spec.max_retries:
            record.checkpoint = None
            record.dt_history = []
            record.steps_done = 0
            record.state = JobState.QUEUED
            self.queue.push(record)
            self._emit("retry", record, attempt=record.attempts,
                       error=str(exc))
            self._metrics(record).counter("serve.retries").inc()
        else:
            self._finish_failed(record, str(exc))

    def _finish_failed(self, record: JobRecord, error: str,
                       finished: float | None = None) -> None:
        record.state = JobState.FAILED
        record.error = error
        record.finished_at = self.clock if finished is None else finished
        self._emit("failed", record, error=error)
        self._metrics(record).counter("serve.failed").inc()

    # -- helpers ---------------------------------------------------------------

    def _job_bytes(self, record: JobRecord) -> int:
        observed = self.cache.observed_bytes(record.spec.fingerprint())
        return observed if observed is not None else estimate_run_bytes(
            record.spec.cfg)

    def _observed_bytes(self, session: RunSession) -> int:
        total = 0
        for rank in session.sim.comm.ranks:
            device = getattr(rank, "device", None)
            if device is not None:
                total += int(device.peak_bytes)
        return total

    def _release(self, record: JobRecord) -> None:
        if record.devices:
            self.pool.release(record.devices, record.reserved_per_device)
            record.devices = []
            record.reserved_per_device = 0

    def _metrics(self, record: JobRecord):
        return self.registry.scoped(tenant=record.spec.tenant,
                                    job=record.spec.name)

    def _emit(self, event: str, record: JobRecord, **fields) -> None:
        self.events.emit({"clock": self.clock, "event": event,
                          "job": record.spec.name,
                          "tenant": record.spec.tenant,
                          "state": record.state.value, **fields})
