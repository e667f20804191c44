"""Simulated SPMD communication: ranks, exchanges, reductions.

The whole simulation executes in one process, but every patch has an owner
rank, and each rank owns a virtual host clock, an optional simulated GPU,
and the metrics registry its modelled events and phase seconds are
recorded in.  Communication calls move the clocks through the
network cost model while the payload bytes move through ordinary NumPy
copies, so the scaling benchmarks measure the same time composition the
paper measures on real MPI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

from ..gpu.device import Device, DeviceSpec
from ..obs.context import active_tracer
from ..obs.lanes import HOST, NET
from ..obs.metrics import MetricsRegistry
from ..gpu.kernel import KernelSpec, kernel_spec
from ..perf.machines import IPA, TITAN, CpuSpec, Machine, NetworkSpec
from ..util import nan_min
from ..util.clock import VirtualClock

__all__ = ["Rank", "SimCommunicator", "Message", "SendHandle",
           "make_communicator"]


@dataclass
class Message:
    """A point-to-point payload descriptor used for clock accounting."""

    src: int
    dst: int
    nbytes: int


@dataclass
class SendHandle:
    """Completion handle of a non-blocking send (``MPI_Request``).

    ``done`` is the virtual time at which the sender's NIC finishes
    serialising the message — the earliest moment the receiver can own
    the payload.
    """

    msg: Message
    done: float


class Rank:
    """One simulated MPI rank: clock, optional GPU, CPU model and the
    metrics registry its modelled events and phase seconds are recorded
    in."""

    def __init__(self, index: int, cpu: CpuSpec, gpu: DeviceSpec | None = None):
        self.index = index
        self.cpu = cpu
        self.clock = VirtualClock()
        self.metrics = MetricsRegistry()
        self.device = (
            Device(gpu, host_clock=self.clock, metrics=self.metrics)
            if gpu is not None
            else None
        )
        if self.device is not None:
            self.device.trace_rank = index
        # Execution backends for this rank's resources.  Imported lazily:
        # repro.exec.backend needs repro.gpu fully loaded first.
        from ..exec.backend import HostBackend, ResidentDeviceBackend

        self.host_backend = HostBackend(self)
        self.resident_backend = (
            ResidentDeviceBackend(self) if self.device is not None else None
        )
        self._nonresident_backend = None

    @property
    def nonresident_backend(self):
        """The copy-per-kernel ablation backend (needs a device; lazy so
        device-less ranks only fail when the ablation is actually used)."""
        if self._nonresident_backend is None:
            from ..exec.backend import NonResidentDeviceBackend

            self._nonresident_backend = NonResidentDeviceBackend(self)
        return self._nonresident_backend

    # -- CPU execution model -------------------------------------------------

    def cpu_run(self, name: str | KernelSpec, elements: int, fn, *args):
        """Run a CPU kernel over ``elements`` elements, charging the clock."""
        spec = name if isinstance(name, KernelSpec) else kernel_spec(name)
        nbytes, nflops = spec.work(max(int(elements), 0))
        cost = self.cpu.kernel_overhead + max(
            nbytes / self.cpu.dram_bandwidth, nflops / self.cpu.peak_flops
        )
        self.clock.advance(cost)
        launches, elems, secs = self.metrics.counters(
            "kernel", (spec.name, "cpu"))
        launches.value += 1
        elems.value += max(int(elements), 0)
        secs.value += cost
        tracer = active_tracer()
        if tracer is None:
            return fn(*args)
        t1 = self.clock.time
        wall0 = perf_counter()
        result = fn(*args)
        tracer.emit(spec.name, "kernel", self.index, HOST,
                    t1 - cost, t1, wall0, perf_counter(),
                    elements=max(int(elements), 0))
        return result

    def cpu_charge(self, seconds: float) -> None:
        """Charge raw host-side time (framework overheads, regridding)."""
        self.clock.advance(seconds)

    def sync_device(self) -> None:
        if self.device is not None:
            self.device.synchronize()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Rank({self.index}, t={self.clock.time:.6g}s)"


class SimCommunicator:
    """A set of ranks plus the interconnect cost model."""

    def __init__(
        self,
        nranks: int,
        cpu: CpuSpec,
        network: NetworkSpec,
        gpu: DeviceSpec | None = None,
    ):
        if nranks < 1:
            raise ValueError("need at least one rank")
        self.network = network
        self.ranks = [Rank(i, cpu, gpu) for i in range(nranks)]
        #: per-rank NIC timelines for the non-blocking send endpoints
        self._nic_done = [0.0] * nranks

    @property
    def size(self) -> int:
        return len(self.ranks)

    def rank(self, i: int) -> Rank:
        return self.ranks[i]

    def max_time(self) -> float:
        return max(r.clock.time for r in self.ranks)

    # -- collectives -----------------------------------------------------------

    def _advance_all(self, t: float, name: str) -> None:
        """Advance every rank to ``t``, tracing who actually waited."""
        tracer = active_tracer()
        for r in self.ranks:
            before = r.clock.time
            r.clock.advance_to(t)
            if tracer is not None and t > before:
                tracer.emit(name, "comm", r.index, NET, before, t)

    def allreduce_min(self, values: list[float], nbytes: int = 8) -> float:
        """MPI_Allreduce(MIN): the paper's one global reduction (dt).

        A NaN from any rank is the result, as it would be from a min that
        propagates NaN, whatever the rank order.
        """
        if len(values) != self.size:
            raise ValueError("one value per rank required")
        self._charge_allreduce(nbytes)
        return nan_min(values)

    def allgather(self, bytes_per_rank: list[int]) -> None:
        """Charge an allgather phase (used for regrid tag collection).

        Ring model: every rank ends up with everyone's contribution, so
        each pays latency per hop plus total bytes over the wire.
        """
        if len(bytes_per_rank) != self.size:
            raise ValueError("one byte count per rank required")
        t = self.max_time()
        if self.size > 1:
            total = sum(bytes_per_rank)
            hops = math.ceil(math.log2(self.size))
            t += hops * self.network.latency + total / self.network.bandwidth
        self._advance_all(t, "allgather")

    def _charge_allreduce(self, nbytes: int) -> None:
        # Recursive-doubling model: all ranks meet, then pay 2*log2(P) hops.
        t = self.max_time()
        if self.size > 1:
            hops = 2 * math.ceil(math.log2(self.size))
            t += hops * self.network.message_cost(nbytes)
        self._advance_all(t, "allreduce")

    # -- non-blocking point-to-point endpoints ---------------------------------

    def isend(self, msg: Message) -> SendHandle:
        """Post a non-blocking send (``MPI_Isend``).

        The sender's NIC serialises its messages (latency + bytes per
        message, as in :meth:`exchange`) starting no earlier than the
        sender's current host time, but the sender's *host clock does not
        block* — it only learns the completion time via the handle.
        Self-messages complete immediately (on-node copies are charged by
        the data-motion kernels themselves).
        """
        if msg.src == msg.dst:
            return SendHandle(msg, self.ranks[msg.src].clock.time)
        start = max(self._nic_done[msg.src], self.ranks[msg.src].clock.time)
        done = start + self.network.message_cost(msg.nbytes)
        self._nic_done[msg.src] = done
        tracer = active_tracer()
        if tracer is not None:
            tracer.emit(f"isend->{msg.dst}", "comm", msg.src, NET,
                        start, done, nbytes=int(msg.nbytes))
        return SendHandle(msg, done)

    def wait_recv(self, handle: SendHandle) -> None:
        """Block the receiver until the message has arrived (``MPI_Wait``)."""
        dst = self.ranks[handle.msg.dst]
        before = dst.clock.time
        dst.clock.advance_to(handle.done)
        tracer = active_tracer()
        if tracer is not None and handle.done > before:
            tracer.emit(f"recv<-{handle.msg.src}", "comm", handle.msg.dst,
                        HOST, before, handle.done,
                        nbytes=int(handle.msg.nbytes))

    def wait_all_sends(self) -> None:
        """Every rank waits for its own posted sends (``MPI_Waitall``)."""
        tracer = active_tracer()
        for r, done in zip(self.ranks, self._nic_done):
            before = r.clock.time
            r.clock.advance_to(done)
            if tracer is not None and done > before:
                tracer.emit("waitall.sends", "wait", r.index, HOST,
                            before, done)

    # -- neighbourhood exchange ------------------------------------------------

    def exchange(self, messages: list[Message]) -> None:
        """Advance clocks for a halo-exchange-style message phase.

        Each rank serialises its own sends (latency + bytes/bandwidth per
        message); a receiver cannot proceed past a message before its
        sender has finished sending it.  Self-messages are free (handled by
        on-node copies whose cost is charged elsewhere).
        """
        tracer = active_tracer()
        send_done = {r.index: r.clock.time for r in self.ranks}
        for m in messages:
            if m.src == m.dst:
                continue
            t0 = send_done[m.src]
            send_done[m.src] += self.network.message_cost(m.nbytes)
            if tracer is not None:
                tracer.emit(f"send->{m.dst}", "comm", m.src, NET,
                            t0, send_done[m.src], nbytes=int(m.nbytes))
        for r in self.ranks:
            before = r.clock.time
            r.clock.advance_to(send_done[r.index])
            if tracer is not None and send_done[r.index] > before:
                tracer.emit("exchange.sends", "wait", r.index, HOST,
                            before, send_done[r.index])
        for m in messages:
            if m.src == m.dst:
                continue
            dst = self.ranks[m.dst]
            before = dst.clock.time
            dst.clock.advance_to(send_done[m.src])
            if tracer is not None and send_done[m.src] > before:
                tracer.emit(f"recv<-{m.src}", "comm", m.dst, HOST,
                            before, send_done[m.src], nbytes=int(m.nbytes))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimCommunicator(size={self.size}, net={self.network.name!r})"


def make_communicator(machine: "str | Machine" = "IPA", nranks: int = 1,
                      gpus: bool = True) -> SimCommunicator:
    """Build a communicator for a named machine model ("IPA" or "Titan").

    One rank drives one GPU (the paper's MPI+CUDA decomposition); with
    ``gpus=False`` each rank is one full CPU node.
    """
    if isinstance(machine, str):
        machine = {"IPA": IPA, "TITAN": TITAN}[machine.upper()]
    return SimCommunicator(
        nranks, machine.cpu, machine.interconnect,
        machine.gpu if gpus else None,
    )
