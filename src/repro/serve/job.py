"""Job model: what a tenant submits and what the service tracks.

A :class:`JobSpec` is the submission — a :class:`~repro.api.RunConfig`
plus service metadata (tenant, priority class, retry and timeout
budgets).  A :class:`JobRecord` is the service's ledger entry for one
submitted job: lifecycle state, clock stamps on every transition,
preemption checkpoints, accumulated sanitize counters and the final
:class:`~repro.api.RunResult`.  Records never touch the simulation
directly; the scheduler owns the :class:`~repro.api.RunSession`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..api import RunConfig, RunResult, fingerprint

__all__ = ["JobState", "JobSpec", "JobRecord", "PRIORITIES"]

#: priority classes, highest first; admission and preemption compare by
#: index (interactive work may evict batch work, never the reverse)
PRIORITIES = ("interactive", "batch")


class JobState(enum.Enum):
    """Lifecycle of a submitted job.

    ``QUEUED -> ADMITTED -> RUNNING -> {PREEMPTED -> QUEUED, COMPLETED,
    FAILED}``; PREEMPTED jobs re-enter the queue with a checkpoint and
    resume bitwise-identically.
    """

    QUEUED = "queued"
    ADMITTED = "admitted"
    RUNNING = "running"
    PREEMPTED = "preempted"
    COMPLETED = "completed"
    FAILED = "failed"


@dataclass
class JobSpec:
    """One tenant submission: a run config plus service metadata."""

    name: str
    cfg: RunConfig
    tenant: str = "default"
    priority: str = "batch"
    #: restarts-from-scratch allowed after an execution failure
    max_retries: int = 1
    #: virtual service-clock seconds this job may spend submitted
    #: (queued + running) before it is failed; None = no limit
    timeout: float | None = None

    def __post_init__(self):
        if self.priority not in PRIORITIES:
            raise ValueError(
                f"unknown priority {self.priority!r}; "
                f"expected one of {PRIORITIES}")

    @property
    def priority_index(self) -> int:
        return PRIORITIES.index(self.priority)

    def fingerprint(self) -> str:
        """Init-scope config fingerprint (the snapshot-cache key)."""
        return fingerprint(self.cfg)


@dataclass(eq=False)
class JobRecord:
    """The service-side ledger entry for one submitted job.

    Identity-compared (``eq=False``): records hold checkpoint dicts of
    numpy arrays, and the scheduler tracks them in containers.
    """

    spec: JobSpec
    state: JobState = JobState.QUEUED
    #: virtual service-clock stamps of the lifecycle transitions
    submitted_at: float = 0.0
    admitted_at: float | None = None
    finished_at: float | None = None
    #: execution attempts started (retries restart from scratch)
    attempts: int = 0
    #: times this job was checkpointed off its devices
    preemptions: int = 0
    steps_done: int = 0
    #: device indices currently reserved (empty unless admitted/running)
    devices: list[int] = field(default_factory=list)
    #: bytes reserved per device while admitted/running
    reserved_per_device: int = 0
    #: carried across preemptions: restart db + dt history so far
    checkpoint: dict | None = None
    dt_history: list[float] = field(default_factory=list)
    #: sanitize counters summed over every session of every attempt
    sanitize_counters: dict[str, int] | None = None
    error: str | None = None
    result: RunResult | None = None

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def latency(self) -> float | None:
        """Submit-to-finish virtual seconds (None until terminal)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def accumulate_sanitize(self, counters: dict[str, int] | None) -> None:
        if counters is None:
            return
        if self.sanitize_counters is None:
            self.sanitize_counters = dict.fromkeys(counters, 0)
        for k, v in counters.items():
            self.sanitize_counters[k] = self.sanitize_counters.get(k, 0) + v
