"""The simulated CUDA device.

A :class:`Device` owns a modelled DRAM capacity, a host-clock reference, a
default stream, and the launch/transfer machinery.  Kernels run as ordinary
Python functions over NumPy views of device buffers, but only *inside* a
launch — the runtime enforces the memory-space separation that makes the
paper's residency claim meaningful (see :mod:`repro.gpu.errors`).

Performance is charged to virtual clocks using a roofline model per kernel
and a latency/bandwidth model per PCIe transfer.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ..check.context import active as _check_active
from ..check.context import in_seam
from ..check.errors import ResidencyViolation
from ..obs.context import active_tracer
from ..obs.lanes import HOST
from ..obs.metrics import MetricsRegistry
from ..util.clock import VirtualClock
from .errors import DeviceOutOfMemory, MemorySpaceError
from .kernel import KernelSpec, kernel_spec
from .memory import DeviceArray
from .stream import Stream

__all__ = ["DeviceSpec", "Device", "K20X"]


@dataclass(frozen=True)
class DeviceSpec:
    """Hardware parameters of a modelled GPU."""

    name: str
    dram_bandwidth: float        # effective B/s
    peak_flops: float            # double-precision FLOP/s
    memory_bytes: int            # DRAM capacity
    kernel_overhead: float       # fixed device-side cost per launch (s)
    host_launch_overhead: float  # host/driver cost per launch (s)
    pcie_bandwidth: float        # B/s, one direction
    pcie_latency: float          # per-transfer latency (s)


# NVIDIA Tesla K20x with ECC on, attached over PCIe gen 2 (Titan's config).
K20X = DeviceSpec(
    name="NVIDIA Tesla K20x",
    dram_bandwidth=170e9,
    peak_flops=1.31e12,
    memory_bytes=6 * 1024**3,
    kernel_overhead=7.0e-6,
    host_launch_overhead=3.0e-6,
    pcie_bandwidth=6.0e9,
    pcie_latency=10.0e-6,
)


class Device:
    """A simulated GPU with its own memory space and timelines.

    A device is also the *device memory space* of :mod:`repro.pdat`
    (see :mod:`repro.pdat.space` for the seam it implements alongside the
    host space): ``empty``/``launch``/``to_host``/``from_host``/
    ``memcpy_htod`` plus :meth:`guard_mirror`.
    """

    #: data allocated here lives in device memory (host space: False)
    resident = True

    def __init__(
        self,
        spec: DeviceSpec = K20X,
        host_clock: VirtualClock | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.spec = spec
        self.host_clock = host_clock if host_clock is not None else VirtualClock()
        self._stream_ids = 0
        self.default_stream = Stream(self, label="compute")
        self.bytes_allocated = 0
        #: where launches, transfers, stream busy time and the memory
        #: high-water mark are recorded: the owning rank's registry, or a
        #: fresh one for a bare device
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._peak = self.metrics.gauge("device.peak_bytes")
        #: rank index stamped on emitted trace spans; the owning
        #: repro.comm rank sets this, bare devices trace as rank 0
        self.trace_rank = 0
        self._kernel_depth = 0
        self._in_memcpy = 0

    @property
    def peak_bytes(self) -> float:
        """High-water mark of ``bytes_allocated`` (the
        ``device.peak_bytes`` gauge)."""
        return self._peak.value

    # -- memory space guard --------------------------------------------------

    @property
    def open_for_access(self) -> bool:
        """True while device buffers may legally be touched."""
        return self._kernel_depth > 0 or self._in_memcpy > 0

    @contextmanager
    def _kernel_scope(self):
        self._kernel_depth += 1
        try:
            yield
        finally:
            self._kernel_depth -= 1

    @contextmanager
    def _memcpy_scope(self):
        self._in_memcpy += 1
        try:
            yield
        finally:
            self._in_memcpy -= 1

    # -- allocation -----------------------------------------------------------

    def _alloc(self, nbytes: int) -> None:
        if self.bytes_allocated + nbytes > self.spec.memory_bytes:
            raise DeviceOutOfMemory(
                f"{self.spec.name}: allocating {nbytes} bytes would exceed "
                f"{self.spec.memory_bytes} (currently {self.bytes_allocated})"
            )
        self.bytes_allocated += nbytes
        if self.bytes_allocated > self._peak.value:
            self._peak.value = self.bytes_allocated

    def _free(self, nbytes: int) -> None:
        self.bytes_allocated = max(0, self.bytes_allocated - nbytes)

    def empty(self, shape, dtype=np.float64) -> "DeviceArray":
        return DeviceArray(self, shape, dtype=dtype)

    def zeros(self, shape, dtype=np.float64) -> "DeviceArray":
        arr = self.empty(shape, dtype=dtype)
        with self._memcpy_scope():
            arr.kernel_view().fill(0)
        return arr

    def full(self, shape, value, dtype=np.float64) -> "DeviceArray":
        arr = self.empty(shape, dtype=dtype)
        with self._memcpy_scope():
            arr.kernel_view().fill(value)
        return arr

    def from_host(self, host_array: np.ndarray, stream: Stream | None = None) -> "DeviceArray":
        arr = self.empty(host_array.shape, dtype=host_array.dtype)
        self.memcpy_htod(arr, host_array, stream=stream)
        return arr

    # -- streams ----------------------------------------------------------------

    def create_stream(self, label: str | None = None) -> Stream:
        return Stream(self, label=label)

    def _take_stream_id(self) -> int:
        sid = self._stream_ids
        self._stream_ids += 1
        return sid

    def synchronize(self) -> None:
        """``cudaDeviceSynchronize``: host waits for the default stream."""
        self.default_stream.synchronize()

    # -- kernel launch ------------------------------------------------------

    def launch(self, name, elements: int, fn, *args, stream: Stream | None = None):
        """Launch a kernel: execute ``fn(*args)``, charge modelled time.

        ``name`` is either a kernel name (looked up in the registry) or a
        :class:`KernelSpec`.  DeviceArray arguments are passed through; the
        kernel body reads them via ``kernel_view()``, which is legal inside
        the launch.  Returns whatever ``fn`` returns.
        """
        spec = name if isinstance(name, KernelSpec) else kernel_spec(name)
        stream = stream or self.default_stream

        cost = self._charge_launches(
            spec, stream, self.metrics.counters("kernel", (spec.name, "gpu")),
            self.metrics.counters("stream", (stream.label,)), (elements,))

        tracer = active_tracer()
        if tracer is None:
            with self._kernel_scope():
                return fn(*args)
        t1 = stream.clock.time
        wall0 = perf_counter()
        with self._kernel_scope():
            result = fn(*args)
        self._trace_launch(tracer, spec, stream, t1, cost, elements,
                           wall0, perf_counter())
        return result

    def _charge_launches(self, spec: KernelSpec, stream: Stream, kernel,
                         lane, counts, tracer=None) -> float:
        """Charge one launch of ``spec`` per element count in ``counts``,
        in order, on ``stream``: the host and stream clocks, ``kernel``
        (its ``kernel`` family counters), ``lane`` (the stream's) and,
        given a ``tracer``, each launch's span.  Returns the last
        launch's modelled seconds.

        The one launch-charging routine: :meth:`launch` charges its
        launch with it (and traces it around the body), a
        :class:`~repro.gpu.ledger.ChargeLedger` replays many.
        """
        host, clock, hw = self.host_clock, stream.clock, self.spec
        launches, elems, secs = kernel
        ops, busy = lane
        cost = 0.0
        for elements in counts:
            host.advance(hw.host_launch_overhead)
            nbytes, nflops = spec.work(elements)
            t_mem = nbytes / hw.dram_bandwidth
            t_flop = nflops / hw.peak_flops
            cost = hw.kernel_overhead + max(t_mem, t_flop)
            clock.advance_to(host.time)
            clock.advance(cost)
            launches.value += 1
            elems.value += max(int(elements), 0)
            secs.value += cost
            ops.value += 1
            busy.value += cost
            if tracer is not None:
                self._trace_launch(tracer, spec, stream, clock.time, cost,
                                   elements)
        return cost

    def _trace_launch(self, tracer, spec: KernelSpec, stream: Stream,
                      t1: float, cost: float, elements: int,
                      wall0: float = 0.0, wall1: float = 0.0) -> None:
        """The span of a launch charged by :meth:`_charge_launches`,
        ending at stream time ``t1``."""
        tracer.emit(spec.name, "kernel", self.trace_rank, stream.label,
                    t1 - cost, t1, wall0, wall1,
                    elements=max(int(elements), 0))

    # -- transfers -----------------------------------------------------------

    def _count_stream(self, stream: Stream, seconds: float) -> None:
        ops, busy = self.metrics.counters("stream", (stream.label,))
        ops.value += 1
        busy.value += seconds

    def _count_transfer(self, direction: str, nbytes: int,
                        seconds: float) -> None:
        count, moved, secs = self.metrics.counters("transfer", (direction,))
        count.value += 1
        moved.value += int(nbytes)
        secs.value += seconds

    def _transfer_cost(self, nbytes: int) -> float:
        return self.spec.pcie_latency + nbytes / self.spec.pcie_bandwidth

    def memcpy_htod(self, dst: "DeviceArray", src: np.ndarray, stream: Stream | None = None) -> None:
        """Copy host → device.  Synchronous unless a stream is given."""
        if dst.nbytes != src.nbytes:
            raise ValueError(f"memcpy size mismatch: {dst.nbytes} vs {src.nbytes}")
        self._charge_transfer(src.nbytes, stream, "h2d")
        with self._memcpy_scope():
            dst.kernel_view()[...] = src.reshape(dst.shape)

    def memcpy_dtoh(self, dst: np.ndarray, src: "DeviceArray", stream: Stream | None = None) -> None:
        """Copy device → host.  Synchronous unless a stream is given."""
        if dst.nbytes != src.nbytes:
            raise ValueError(f"memcpy size mismatch: {dst.nbytes} vs {src.nbytes}")
        self._charge_transfer(src.nbytes, stream, "d2h")
        with self._memcpy_scope():
            dst.reshape(src.shape)[...] = src.kernel_view()

    def to_host(self, src: "DeviceArray", stream: Stream | None = None) -> np.ndarray:
        out = np.empty(src.shape, dtype=src.dtype)
        self.memcpy_dtoh(out, src, stream=stream)
        return out

    def memcpy_dtod(self, dst: "DeviceArray", src: "DeviceArray", stream: Stream | None = None) -> None:
        """Device → device copy: runs at DRAM bandwidth, no PCIe hop."""
        if dst.nbytes != src.nbytes:
            raise ValueError("memcpy size mismatch")
        s = stream or self.default_stream
        cost = self.spec.kernel_overhead + 2 * src.nbytes / self.spec.dram_bandwidth
        s.clock.advance_to(self.host_clock.time)
        s.clock.advance(cost)
        self._count_transfer("d2d", src.nbytes, cost)
        self._count_stream(s, cost)
        tracer = active_tracer()
        if tracer is not None:
            t1 = s.clock.time
            tracer.emit("memcpy_d2d", "transfer", self.trace_rank, s.label,
                        t1 - cost, t1, nbytes=src.nbytes)
        with self._memcpy_scope():
            dst.kernel_view()[...] = src.kernel_view()

    def _charge_transfer(self, nbytes: int, stream: Stream | None,
                         direction: str) -> None:
        if stream is None:
            # Synchronous copy: host blocks until all prior work and the
            # transfer itself complete.
            self._charge_sync_copies(
                direction, self.metrics.counters("transfer", (direction,)),
                (nbytes,), active_tracer())
            return
        # Async copy on a named stream: candidate for hiding under
        # compute, tracked for the overlap-won accounting.  Enqueued on
        # the stream, the host only pays the call.
        cost = self._transfer_cost(nbytes)
        self._count_transfer(direction, nbytes, cost)
        self._count_stream(stream, cost)
        self.metrics.record_overlap(cost, 0.0)
        self.host_clock.advance(self.spec.host_launch_overhead)
        stream.clock.advance_to(self.host_clock.time)
        stream.clock.advance(cost)
        tracer = active_tracer()
        if tracer is not None:
            t1 = stream.clock.time
            tracer.emit(f"memcpy_{direction}", "transfer",
                        self.trace_rank, stream.label, t1 - cost, t1,
                        nbytes=int(nbytes))

    def _charge_sync_copies(self, direction: str, counters, sizes,
                            tracer=None) -> None:
        """Charge one synchronous PCIe copy per byte count in ``sizes``,
        in order: the host and the default stream wait for all prior work
        and the copy.  Counts each in ``counters`` (the direction's
        ``transfer`` family counters) and, given a ``tracer``, emits its
        span.

        The one sync-copy charging routine: :meth:`_charge_transfer`
        charges its copy with it, a
        :class:`~repro.gpu.ledger.ChargeLedger` replays many.
        """
        host, clock = self.host_clock, self.default_stream.clock
        count, moved, secs = counters
        for nbytes in sizes:
            cost = self._transfer_cost(nbytes)
            count.value += 1
            moved.value += int(nbytes)
            secs.value += cost
            t0 = max(host.time, clock.time)
            host.advance_to(t0 + cost)
            clock.advance_to(host.time)
            if tracer is not None:
                tracer.emit(f"memcpy_{direction}", "transfer",
                            self.trace_rank, HOST, t0, t0 + cost,
                            nbytes=int(nbytes), sync=True)

    def guard_mirror(self, op: str) -> None:
        """Under ``--sanitize``, host mirroring of device-resident bytes is
        legal only inside the :mod:`repro.exec` backend seam."""
        if _check_active() is not None and not in_seam():
            raise ResidencyViolation(
                f"host-side {op}() on device-resident storage outside the "
                "repro.exec backend seam — route the transfer through a "
                "seam function (write_slabs, zero_slabs, read_patch_fields) "
                "instead")

    def host_write(self, fn, *args):
        """Run host code ``fn(*args)`` that writes this device's memory
        directly, charging nothing.  Level construction overwrites whole
        arena slabs this way and charges the per-patch launches and
        copies they stand for from a
        :class:`~repro.gpu.ledger.ChargeLedger`.  Under ``--sanitize``
        legal only inside the backend seam (:meth:`guard_mirror`)."""
        self.guard_mirror("host_write")
        with self._memcpy_scope():
            return fn(*args)

    def require_access(self) -> None:
        """Raise unless device memory may legally be touched right now."""
        if not self.open_for_access:
            raise MemorySpaceError(
                f"host code touched {self.spec.name} memory outside a kernel "
                "launch or memcpy — data must stay resident on the device"
            )
