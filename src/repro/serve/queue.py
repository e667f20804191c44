"""Priority job queue: per-class FIFO with preempted-job priority.

Two orderings matter: *between* classes, interactive always dequeues
before batch; *within* a class, submissions are FIFO, except that a
preempted job re-enters at the front of its class so it resumes before
later arrivals (it has already paid its queueing delay once).
"""

from __future__ import annotations

from collections import deque

from .job import PRIORITIES, JobRecord

__all__ = ["JobQueue"]


class JobQueue:
    """Per-priority-class FIFO queues over :class:`JobRecord`."""

    def __init__(self):
        self._classes: dict[str, deque[JobRecord]] = {
            p: deque() for p in PRIORITIES}

    def push(self, record: JobRecord) -> None:
        """Append a newly submitted job to its class queue."""
        self._classes[record.spec.priority].append(record)

    def push_front(self, record: JobRecord) -> None:
        """Re-queue a preempted job at the head of its class."""
        self._classes[record.spec.priority].appendleft(record)

    def __len__(self) -> int:
        return sum(len(q) for q in self._classes.values())

    def __iter__(self):
        """Jobs in dequeue order: class priority, then FIFO."""
        for p in PRIORITIES:
            yield from self._classes[p]

    def remove(self, record: JobRecord) -> None:
        self._classes[record.spec.priority].remove(record)
