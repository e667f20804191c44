"""``repro.serve``: a multi-tenant run service over one device pool.

The layers below this package execute *one* run well; this package
multiplexes *many* — N concurrent :class:`~repro.api.RunConfig` jobs
time-share one fixed set of simulated devices (DESIGN.md §12):

* :mod:`~repro.serve.job` — the submission (:class:`JobSpec`) and the
  service ledger (:class:`JobRecord`) with its QUEUED → ADMITTED →
  RUNNING → PREEMPTED/COMPLETED/FAILED lifecycle;
* :mod:`~repro.serve.pool` — :class:`DevicePool`, admission control by
  memory reservation against one :class:`~repro.serve.pool.Ledger` per
  device;
* :mod:`~repro.serve.queue` — priority classes, FIFO within class;
* :mod:`~repro.serve.scheduler` — the cooperative round scheduler:
  slice-wise execution through :class:`~repro.api.RunSession`,
  checkpoint-based preemption that is bitwise-safe, retries and virtual
  timeouts;
* :mod:`~repro.serve.cache` — post-initialise snapshots keyed by config
  fingerprint so identical queued jobs skip rebuild work;
* :mod:`~repro.serve.events` — the progress/trace event stream;
* :mod:`~repro.serve.cli` — the ``repro submit`` / ``repro serve``
  front end over a JSON-lines queue file.

Service code reaches simulations only through :mod:`repro.api`
(enforced by the ``serve`` rule of ``repro.check.lint``).
"""

from .cache import PlanCache
from .events import EventStream
from .job import PRIORITIES, JobRecord, JobSpec, JobState
from .pool import DevicePool, NeverFits, estimate_run_bytes
from .queue import JobQueue
from .scheduler import Scheduler

__all__ = [
    "JobState",
    "JobSpec",
    "JobRecord",
    "PRIORITIES",
    "JobQueue",
    "DevicePool",
    "NeverFits",
    "estimate_run_bytes",
    "PlanCache",
    "EventStream",
    "Scheduler",
]
