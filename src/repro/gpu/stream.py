"""CUDA streams and events for the simulated runtime.

A stream is an in-order execution timeline on the device.  Events capture a
point on a stream's timeline so other streams (or the host) can wait on it —
exactly the ``cudaEventRecord`` / ``cudaStreamWaitEvent`` pattern the paper
uses to order the refine kernel between coarse- and fine-level streams
(Fig. 5a).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..util.clock import VirtualClock

if TYPE_CHECKING:  # pragma: no cover
    from .device import Device

__all__ = ["Stream", "Event"]


class Stream:
    """An in-order device execution timeline.

    Stream ids are scoped to the owning device (the first stream of every
    device — its default stream — is id 0), so ids are stable regardless
    of how many devices a process has created before this one.
    """

    def __init__(self, device: "Device", label: str | None = None):
        self.device = device
        self.clock = VirtualClock(device.host_clock.time)
        self.id = device._take_stream_id()
        self.label = label if label is not None else f"stream{self.id}"

    def synchronize(self) -> None:
        """Block the host until all work queued on this stream is done."""
        self.device.host_clock.advance_to(self.clock.time)

    def wait_event(self, event: "Event") -> None:
        """Future work on this stream waits for ``event`` to complete."""
        self.clock.advance_to(event.timestamp)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Stream(id={self.id}, {self.label!r}, t={self.clock.time:.6g}s)"


class Event:
    """A marker on a stream timeline (``cudaEvent_t``)."""

    def __init__(self):
        self.timestamp = 0.0
        self.recorded = False
        self.stream: "Stream | None" = None

    def record(self, stream: Stream) -> None:
        self.timestamp = stream.clock.time
        self.recorded = True
        self.stream = stream
