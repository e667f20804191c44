"""The charge ledger: per-patch launches and copies, charged in one pass.

Level construction executes whole arena slabs — one zero-fill per slab,
one initial-condition write per slab — but the modelled clock charges the
shape the paper's set-up issues: one ``pdat.fill`` launch per (patch,
variable) and one synchronous H2D copy per initialised field of a patch.
A :class:`ChargeLedger` records those events, on every device, in issue
order, and :meth:`ChargeLedger.charge` replays them through the routines
:meth:`Device.launch <repro.gpu.device.Device.launch>` and
``Device._charge_transfer`` charge with (``_charge_launches`` and
``_charge_sync_copies``): the same float operations in the same order on
the host and default-stream clocks and the ``kernel``, ``stream`` and
``transfer`` counters, and the same trace spans.  Only the per-event
Python — the body, the spec lookup, the counter-handle lookup, a call
per event — is gone.  What to record (device storage only: host storage
operations charge nothing) the :mod:`repro.exec` seam decides.
"""

from __future__ import annotations

from functools import partial

from ..obs.context import active_tracer
from .kernel import kernel_spec

__all__ = ["ChargeLedger"]


def _launch_charge(device, kernel: str):
    """``charge(counts, tracer)`` for launches of ``kernel`` on
    ``device``'s default stream, with its spec and counters resolved."""
    stream = device.default_stream
    spec = kernel_spec(kernel)
    return partial(device._charge_launches, spec, stream,
                   device.metrics.counters("kernel", (spec.name, "gpu")),
                   device.metrics.counters("stream", (stream.label,)))


def _h2d_charge(device):
    """``charge(sizes, tracer)`` for synchronous H2D copies on ``device``."""
    return partial(device._charge_sync_copies, "h2d",
                   device.metrics.counters("transfer", ("h2d",)))


class ChargeLedger:
    """Launches and synchronous H2D copies recorded per device, in issue
    order, and charged by :meth:`charge`."""

    def __init__(self):
        #: ``(charge, amounts)``: one event per amount, in order
        self._events: list[tuple] = []
        #: ``(device, kernel name or None for H2D)`` -> its charge
        self._charges: dict[tuple, object] = {}

    def _charge_of(self, device, kernel: str | None):
        charge = self._charges.get((device, kernel))
        if charge is None:
            charge = self._charges[device, kernel] = (
                _h2d_charge(device) if kernel is None
                else _launch_charge(device, kernel))
        return charge

    def launch(self, device, kernel: str, *elements: int) -> None:
        """Record one launch of ``kernel`` per element count, in order, on
        ``device``'s default stream."""
        self._events.append((self._charge_of(device, kernel), elements))

    def h2d(self, device, *nbytes: int) -> None:
        """Record one synchronous H2D copy per byte count, in order."""
        self._events.append((self._charge_of(device, None), nbytes))

    def charge(self) -> None:
        """Charge every recorded event in recording order, then forget
        them."""
        tracer = active_tracer()
        for charge, amounts in self._events:
            charge(amounts, tracer)
        self._events.clear()
