"""Named timers over virtual clocks.

The paper reports runtime broken into categories (hydrodynamics,
synchronisation, regridding, timestep); these timers accumulate virtual
host-clock time per category per rank so the benchmarks can print the same
breakdown.
"""

from __future__ import annotations

from .clock import VirtualClock

__all__ = ["TimerRegistry"]


class TimerRegistry:
    """Accumulates virtual-time deltas into named buckets."""

    def __init__(self, clock: VirtualClock):
        self.clock = clock
        self.totals: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    def add(self, name: str, seconds: float) -> None:
        """Charge one timed interval of ``seconds`` to bucket ``name``."""
        self.totals[name] = self.totals.get(name, 0.0) + seconds
        self.counts[name] = self.counts.get(name, 0) + 1

    def total(self, name: str) -> float:
        return self.totals.get(name, 0.0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{k}={v:.4g}s" for k, v in sorted(self.totals.items()))
        return f"TimerRegistry({inner})"
