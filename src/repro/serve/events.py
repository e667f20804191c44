"""Event stream: the service's progress/trace feed.

Every lifecycle transition and every slice of progress is emitted as a
plain dict ``{"clock": ..., "event": ..., "job": ..., ...}`` — appended
to an in-memory history (the tests' and benchmarks' source of truth) and
fanned out to any subscribed callbacks (the CLI's live feed).  Emission
is observation-only; subscribers cannot affect scheduling.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["EventStream"]


class EventStream:
    """Ordered event history plus subscriber fan-out."""

    def __init__(self):
        self.history: list[dict] = []
        self._subscribers: list[Callable[[dict], None]] = []

    def subscribe(self, fn: Callable[[dict], None]) -> None:
        self._subscribers.append(fn)

    def emit(self, event: dict) -> None:
        self.history.append(event)
        for fn in self._subscribers:
            fn(event)
