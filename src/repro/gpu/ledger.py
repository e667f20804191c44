"""The charge ledger: per-patch work, charged in one pass.

Some work executes in a coarser shape than the paper issues it: level
construction writes whole arena slabs, a per-patch fill schedule runs its
level-wide twin, the construction EOS sweeps whole shape buckets.  The
modelled clock still charges the paper's shape — per (patch, variable)
``pdat.fill`` launches, per-patch copies, per-region scratch, per patch
pair messages — and a :class:`ChargeLedger` holds that shape as rows, in
issue order, and charges them through the routines the executing calls
charge with:

* ``launch`` (device, kernel, elements): ``Device._charge_launches``, as
  :meth:`Device.launch <repro.gpu.device.Device.launch>`;
* ``cpu`` (rank, kernel, elements): ``Rank._charge_cpu``, as
  :meth:`Rank.cpu_run <repro.comm.simcomm.Rank.cpu_run>`;
* ``h2d`` / ``d2h`` (device, bytes): ``Device._charge_sync_copies``, as a
  synchronous memcpy;
* ``alloc`` / ``free`` (device, bytes): ``Device._alloc`` / ``_free``, so
  the device's high-water mark rises and falls as the allocations did and
  an over-capacity row raises :class:`~repro.gpu.errors.DeviceOutOfMemory`;
* ``message`` (src, dst, bytes): handed to the caller's ``post`` (a sink
  whose ``close`` exchanges them);
* ``stack`` (rank, kernel, regions, ops): the ``stack`` family counters a
  compiled copy adds.

So host and default-stream clocks, the ``kernel``, ``stream``,
``transfer``, ``stack`` and ``comm`` figures, the device high-water mark
and trace spans come out ``==``; only the per-call Python — bodies, spec
and counter lookups, staging buffers — is gone.  Which rows a launch is
(a resident, host or copy-per-kernel launch) the :mod:`repro.exec`
backend that would have run it says (``Backend.record``).

A ledger is recorded once and charged any number of times: :meth:`replay`
keeps its rows (a fill schedule replays the same rows on every fill),
:meth:`charge` forgets them.
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


def _cpu_charge(rank, kernel: str):
    """``charge(counts, tracer)`` for CPU passes of ``kernel`` on ``rank``."""
    spec = kernel_spec(kernel)
    return partial(rank._charge_cpu, spec,
                   rank.metrics.counters("kernel", (spec.name, "cpu")))


def _sync_charge(device, direction: str):
    """``charge(sizes, tracer)`` for synchronous copies on ``device``."""
    return partial(device._charge_sync_copies, direction,
                   device.metrics.counters("transfer", (direction,)))


def _alloc(device, sizes, tracer) -> None:  # noqa: ARG001 — charge signature
    for nbytes in sizes:
        device._alloc(nbytes)


def _free(device, sizes, tracer) -> None:  # noqa: ARG001 — charge signature
    for nbytes in sizes:
        device._free(nbytes)


def _stack(counters, amounts, tracer) -> None:  # noqa: ARG001 — charge signature
    regions, ops = counters
    regions.value += amounts[0]
    ops.value += amounts[1]


def _charge_of(kind: str, target, key):
    """The charge of rows ``(kind, target, key)``."""
    if kind == "launch":
        return _launch_charge(target, key)
    if kind == "cpu":
        return _cpu_charge(target, key)
    if kind in ("h2d", "d2h"):
        return _sync_charge(target, kind)
    if kind == "alloc":
        return partial(_alloc, target)
    if kind == "free":
        return partial(_free, target)
    if kind == "stack":
        return partial(_stack, target.metrics.counters("stack", (key,)))
    raise ValueError(f"unknown ledger row kind {kind!r}")


class ChargeLedger:
    """Rows of modelled work, in issue order, charged by :meth:`replay`
    (kept) or :meth:`charge` (forgotten)."""

    def __init__(self):
        #: ``(kind, target, key, amounts)``, in issue order: one charge per
        #: amount (``stack``: the one ``(regions, ops)`` pair; ``message``:
        #: the one message)
        self.rows: list[tuple] = []
        #: one ``(charge, amounts)`` per row, resolved on first replay
        #: (``charge`` None: a message to post)
        self._events: list | None = None

    def _add(self, kind: str, target, key, amounts) -> None:
        self.rows.append((kind, target, key, amounts))
        self._events = None

    def launch(self, device, kernel: str, *elements: int) -> None:
        """One launch of ``kernel`` per element count, in order, on
        ``device``'s default stream."""
        self._add("launch", device, kernel, elements)

    def cpu(self, rank, kernel: str, *elements: int) -> None:
        """One charged CPU pass of ``kernel`` per element count on
        ``rank``."""
        self._add("cpu", rank, kernel, elements)

    def h2d(self, device, *nbytes: int) -> None:
        """One synchronous H2D copy per byte count, in order."""
        self._add("h2d", device, None, nbytes)

    def d2h(self, device, *nbytes: int) -> None:
        """One synchronous D2H copy per byte count, in order."""
        self._add("d2h", device, None, nbytes)

    def alloc(self, device, nbytes: int) -> None:
        """One device allocation of ``nbytes``."""
        self._add("alloc", device, None, (nbytes,))

    def free(self, device, nbytes: int) -> None:
        """One device free of ``nbytes``."""
        self._add("free", device, None, (nbytes,))

    def message(self, message) -> None:
        """One point-to-point message (a ``repro.comm.simcomm.Message``),
        posted to the replay's ``post``."""
        self._add("message", None, None, (message,))

    def stack(self, rank, kernel: str, regions: int, ops: int) -> None:
        """The regions and flat-index ops one compiled ``kernel`` copy
        covered on ``rank``."""
        self._add("stack", rank, kernel, (regions, ops))

    def _compile(self) -> list:
        """The rows as events, each row's charge resolved once per
        ``(kind, target, key)``."""
        charges: dict = {}
        events: list = []
        for kind, target, key, amounts in self.rows:
            if kind == "message":
                events.append((None, amounts))
                continue
            charge = charges.get((kind, target, key))
            if charge is None:
                charge = charges[kind, target, key] = _charge_of(kind, target,
                                                                 key)
            events.append((charge, amounts))
        return events

    def replay(self, post=None) -> None:
        """Charge every row in order and keep them.  ``message`` rows go
        to ``post(message)``.  If a row raises (an allocation over the
        device's capacity), what earlier rows allocated and did not free
        is released first, as the executing calls release their scratch
        and staging."""
        events = self._events
        if events is None:
            events = self._events = self._compile()
        tracer = active_tracer()
        done = 0
        try:
            for charge, amounts in events:
                if charge is None:
                    post(*amounts)
                else:
                    charge(amounts, tracer)
                done += 1
        except BaseException:
            held: dict = {}  # device -> bytes allocated and not freed
            for kind, device, _, (nbytes,) in (
                    row for row in self.rows[:done]
                    if row[0] in ("alloc", "free")):
                held[device] = held.get(device, 0) + (
                    nbytes if kind == "alloc" else -nbytes)
            for device, nbytes in held.items():
                if nbytes > 0:
                    device._free(nbytes)
            raise

    def charge(self) -> None:
        """Charge every row in order, then forget them."""
        self.replay()
        self.rows.clear()
        self._events = None
