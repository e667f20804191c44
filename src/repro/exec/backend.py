"""The execution-backend seam: one place that knows where data lives.

The AMR framework drives patch integration as a black box (paper Fig. 6);
everything that used to re-answer "is this patch data host- or
device-resident?" ad hoc — hydro kernels, boundary fills, geometry
operators, transfer schedules, tag flagging, diagnostics — now asks a
:class:`Backend` instead.  A backend owns

* the memory space its data lives in (``space``: what the patch-data
  factories allocate from, see :mod:`repro.pdat.space`),
* array views (``array``: the frame array, host- or kernel-space),
* kernel launch with cost charged to the owning rank's clocks,
* memcpy charging and batched pack/unpack across the PCIe bus, and
* the fused-launch and stacked-copy counts it adds to the rank's metrics
  registry (kernels and transfers are counted where they are charged,
  by the device and the rank's CPU model).

Three implementations cover the paper's builds: :class:`HostBackend`
(CPU code), :class:`ResidentDeviceBackend` (the paper's resident design,
wrapping :mod:`repro.gpu`), and :class:`NonResidentDeviceBackend` (the
copy-per-kernel porting style the paper criticises, kept for the
residency ablation).  A future backend — heterogeneous CPU+GPU split,
multiple devices per rank — is one new subclass, not another sweep over
the framework.
"""

from __future__ import annotations

import abc
from functools import partial
from time import perf_counter as _perf_counter
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..check.context import active as _check_active
from ..check.context import seam_scope
from ..check.errors import DeclaredAccessError
from ..gpu.ledger import ChargeLedger
from ..obs.context import active_tracer
from ..obs.lanes import HOST as HOST_LANE
from ..pdat.space import HOST
from .batch import union_pds
from .plan import Lazy, compile_copies, compile_stream, level_arenas

if TYPE_CHECKING:  # pragma: no cover
    from ..comm.simcomm import Rank
    from ..mesh.box import Box
    from ..mesh.patch import Patch

__all__ = [
    "Backend",
    "HostBackend",
    "ResidentDeviceBackend",
    "NonResidentDeviceBackend",
    "is_resident",
    "backend_for",
    "array_of",
    "slab_of",
    "stacked_of",
    "frame_of",
    "run_on",
    "read_patch_fields",
    "zero_slabs",
    "write_slabs",
    "record_per_patch",
    "zero_level",
]


def is_resident(pd) -> bool:
    """True if a patch-data object's storage lives in device memory."""
    return pd.space.resident


def array_of(pd) -> np.ndarray:
    """The full frame array of a patch-data object.

    For device-resident data this is a kernel view, legal only inside a
    launch on the owning device — call it from within a backend ``run``
    body.  With a sanitize checker active, handouts inside a declared
    kernel/task scope are instrumented (read-only views for declared
    reads, shadow checksums for undeclared accesses).
    """
    arr = pd.data.array
    chk = _check_active()
    if chk is not None:
        return chk.on_handout(pd, arr)
    return arr


def frame_of(pd) -> "Box":
    """The index frame (ghost box) of a patch-data object's storage."""
    return pd.data.frame


def slab_of(store, pds) -> np.ndarray:
    """The flat slab of ``store`` (an arena, a scratch segment) as a kernel
    operand standing for its members ``pds``.

    The compiled-transfer twin of :func:`array_of`, legal only inside a
    launch; under ``--sanitize`` the handout is instrumented like a
    stacked one (one declared role for all of ``pds``).
    """
    flat = store.flat()
    chk = _check_active()
    if chk is not None:
        return chk.on_slab_handout(pds, flat)
    return flat


def stacked_of(pds) -> np.ndarray:
    """The frames of a sweep unit's patch data ``pds`` as one kernel
    operand: the frame array of a unit of one (a patch), else the stacked
    ``(n, f0, f1)`` view of the arena bucket the ``pds`` tile.

    The bucket twin of :func:`array_of`: legal only inside a launch,
    instrumented under ``--sanitize`` (one declared role for all of
    ``pds``).  ``pds`` must be exactly one arena bucket's members in
    placement order — what a :class:`~repro.mesh.patch.PatchBucket` hands
    out; the guard is O(1) (ends and length), not a scan.
    """
    first, last = pds[0], pds[-1]
    if first is last:
        return array_of(first)
    arena = first._arena
    if arena is None or last._arena is not arena:
        raise ValueError("stacked operand is not the members of one arena")
    bucket = arena.bucket_of[first._arena_index]
    start, n, _ = arena.buckets[bucket]
    ends = (first._arena_index, last._arena_index, len(pds))
    if ends != (start, start + n - 1, n):
        raise ValueError(f"stacked operand (first, last, count) = {ends} does "
                         f"not tile its arena bucket {start}..{start + n - 1}")
    stacked = arena.stacked_view(bucket)
    chk = _check_active()
    if chk is not None:
        return chk.on_slab_handout(pds, stacked)
    return stacked


def _pack_to_staging(space, launch, items, note=None):
    """One pack kernel into one staging buffer in ``space``, for many regions.

    ``items`` is an iterable of ``(patch_data, region_box)`` (or their
    :class:`~repro.exec.plan.StreamPlan`); regions are packed back-to-back
    in order (the paper's MessageStream scheme) by
    ``launch(kernel, elements, body)``, gathered by flat index, one op
    per store; ``note`` (a ``Backend._note_stack``) records them.  The
    staging buffer is freed if the kernel raises.
    """
    plan = compile_stream(items)
    staging = space.empty((plan.total,))
    try:
        def body():
            out = staging.kernel_view()
            for store, index, where in plan.groups:
                out[where] = store.flat()[index]

        launch("pdat.pack", plan.total, body)
    except BaseException:
        staging.free()
        raise
    if note is not None:
        note("pdat.pack", plan)
    return staging


def _to_host(space, staging, stream=None) -> np.ndarray:
    """Bring a staging buffer to the host and release it."""
    try:
        return space.to_host(staging, stream=stream)
    finally:
        staging.free()


def _operands(members) -> tuple:
    """``(reads, writes, ghost_reads, marks, elements)`` of one launch of
    ``members``: the identity unions of their declarations (made when
    something — the sanitizer, a backend charging its operands — walks
    them) and the sum of their element counts."""
    if len(members) == 1:
        m = members[0]
        return m.reads, m.writes, m.ghost_reads, m.marks, m.elements
    return (Lazy(_union, members, "reads"), Lazy(_union, members, "writes"),
            Lazy(_union, members, "ghost_reads"), Lazy(_marks, members),
            sum(m.elements for m in members))


def _union(members, declared: str):
    return iter(union_pds(getattr(m, declared) for m in members))


def _marks(members):
    for m in members:
        yield from m.marks


def _fused(members, combine):
    """The body running ``members``' bodies in order, their results
    reduced by ``combine`` (None: no result)."""
    def body():
        results = [m.body() for m in members]
        return combine(results) if combine is not None else None
    return body


def _bracket_bytes(reads, writes) -> tuple[list, list]:
    """The copy-per-kernel ablation's PCIe legs around one launch: the
    byte counts of every operand up (reads and writes, once each, in
    declaration order) and of every written one back."""
    writes = list(writes)
    return ([pd.nbytes for pd in dict.fromkeys([*reads, *writes])],
            [pd.nbytes for pd in writes])


class Backend(abc.ABC):
    """One execution resource of a rank: allocation, launch, data motion."""

    #: short identifier used in reports
    name: str = "backend"
    #: True if data allocated by this backend lives in device memory
    resident: bool = False
    #: the GPU this backend launches kernels on (None: the rank's CPU)
    device = None

    def __init__(self, rank: "Rank | None"):
        self.rank = rank
        #: the memory space this backend's data and staging buffers live in
        self.space = HOST

    # -- kernel launch --------------------------------------------------------

    def run(self, kernel: str, elements: int, fn, *args,
            reads: Iterable = (), writes: Iterable = (),
            ghost_reads: Iterable = (), ghost_only: bool = False,
            marks: Iterable = ()):
        """Execute ``fn(*args)`` as a kernel over ``elements`` elements.

        The modelled cost is charged to the owning rank's clock (and
        device stream, for device backends) and counted in the rank's
        metrics registry.  ``reads``/``writes``
        declare the patch-data operands — the non-resident ablation moves
        them per launch, the scheduler derives dependency edges from
        them, and ``--sanitize`` verifies them against actual accesses.
        ``ghost_reads`` names the operands whose *ghost regions* the
        kernel stencil reaches, ``ghost_only`` marks a kernel whose
        writes touch only ghost regions (no interior-generation bump),
        and ``marks`` carries ghost-stamp directives — all consumed by
        the checker only.
        """
        chk = _check_active()
        if chk is None:
            return self._launch(kernel, elements, fn, *args,
                                reads=reads, writes=writes)
        return self._checked(
            chk, kernel, lambda: self._launch(kernel, elements, fn, *args,
                                              reads=reads, writes=writes),
            reads, writes, ghost_reads, ghost_only, marks)

    @staticmethod
    def _checked(chk, kernel: str, call, reads, writes, ghost_reads,
                 ghost_only, marks):
        """``call()`` inside the sanitizer's scope for one kernel declaring
        ``reads``/``writes``/``ghost_reads``/``marks``."""
        scope = chk.begin_kernel(kernel, reads, writes,
                                 ghost_reads=ghost_reads,
                                 ghost_only=ghost_only, marks=marks)
        try:
            result = call()
        except ValueError as e:
            chk.abort_kernel(scope)
            if "read-only" in str(e):
                names = ", ".join(sorted(chk.name_of(pd) for pd in reads))
                raise DeclaredAccessError(
                    f"kernel {kernel!r} wrote an array it declared "
                    f"read-only (declared reads: {names})") from e
            raise
        except Exception:
            chk.abort_kernel(scope)
            raise
        chk.end_kernel(scope)
        return result

    def run_batched(self, kernel: str, members, combine=None,
                    ghost_only: bool = False):
        """Execute many kernel bodies as one fused launch.

        ``members`` is a sequence of :class:`~repro.exec.batch.BatchMember`;
        their bodies run in order over disjoint patch data inside a single
        launch whose element count is the members' sum and whose declared
        reads/writes/ghost-reads are the identity union of the members' —
        so the cost model charges one launch overhead instead of N, the
        non-resident ablation moves each operand once, and the sanitizer
        still sees every operand.  ``combine`` reduces the members' return
        values inside the launch (the CFL min); the result is returned.

        A member standing for many invocations (``count`` > 1: a shape
        bucket's stacked sweep, a compiled transfer plan) is vectorized by
        construction — same declarations and modelled cost as its
        per-patch bodies, only host wall-clock differs — and its launch
        counts as ``slab_fused``; a multi-member launch of per-patch
        bodies only (halo bodies, sync coarsens) as ``slab_fallback``.
        """
        members = list(members)
        if not members:
            return None
        reads, writes, ghost_reads, marks, total = _operands(members)
        count = sum(m.count for m in members)
        if count == 1 and combine is None:
            return self.run(kernel, total, members[0].body,
                            reads=reads, writes=writes,
                            ghost_reads=ghost_reads, ghost_only=ghost_only,
                            marks=marks)
        fused_body = _fused(members, combine)

        tracer = active_tracer()
        device = self.device
        clock = (device.default_stream.clock if device is not None
                 else self.rank.clock if self.rank is not None else None)
        t0 = clock.time if (tracer is not None and clock is not None) else 0.0
        w0 = _perf_counter()
        result = self.run(kernel, total, fused_body, reads=reads,
                          writes=writes, ghost_reads=ghost_reads,
                          ghost_only=ghost_only, marks=marks)
        host_seconds = _perf_counter() - w0
        if count > 1 and self.rank is not None:
            vectorized = count > len(members)
            launches, covered, saved, host, fused, fallback = \
                self.rank.metrics.counters("batch", (kernel,))
            launches.value += 1
            covered.value += count
            saved.value += self._batch_overhead_saved(count)
            host.value += host_seconds
            (fused if vectorized else fallback).value += 1
            if tracer is not None and clock is not None:
                lane = device.default_stream.label if device is not None else HOST_LANE
                tracer.emit(kernel, "fused", self.rank.index, lane,
                            t0, clock.time, members=count,
                            elements=total, slab=vectorized)
        return result

    def _batch_overhead_saved(self, n: int) -> float:
        """Modelled fixed per-launch cost avoided by fusing ``n`` launches."""
        device = self.device
        if device is not None:
            spec = device.spec
            return (n - 1) * (spec.host_launch_overhead + spec.kernel_overhead)
        if self.rank is not None:
            return (n - 1) * self.rank.cpu.kernel_overhead
        return 0.0

    @abc.abstractmethod
    def _launch(self, kernel: str, elements: int, fn, *args,
                reads: Iterable = (), writes: Iterable = ()):
        """Backend-specific execution of one kernel, charged (the
        declared-access checking lives in :meth:`run`).  Charged through
        the same routines :meth:`record`'s rows replay through."""

    def record(self, ledger, kernel: str, elements: int,
               reads: Iterable = (), writes: Iterable = ()) -> None:  # noqa: ARG002 — the copy-per-kernel backend charges its operands
        """The charge half of :meth:`_launch`: record into ``ledger`` (a
        :class:`~repro.gpu.ledger.ChargeLedger`) the rows one launch of
        ``kernel`` over ``elements`` elements with these operands is
        charged as, without running anything.  A launch is charged as
        :meth:`_move` charges data motion, unless the backend brackets
        its launches with copies."""
        self._record_move(ledger, kernel, elements)

    def execute(self, kernel: str, members, combine=None,
                ghost_only: bool = False):
        """The uncharged executor: run ``members``' bodies in order as one
        launch of ``kernel`` in this backend's memory space (a
        ``host_write``, inside the seam), charging and counting nothing.
        Under ``--sanitize`` the launch declares the members' operands as
        :meth:`run_batched` declares them.  The caller charges what the
        work stands for from a :class:`~repro.gpu.ledger.ChargeLedger`."""
        members = list(members)
        if not members:
            return None
        call = partial(write_slabs, self.space, _fused(members, combine))
        chk = _check_active()
        if chk is None:
            return call()
        reads, writes, ghost_reads, marks, _ = _operands(members)
        return self._checked(chk, kernel, call, reads, writes, ghost_reads,
                             ghost_only, marks)

    # -- transfers ------------------------------------------------------------

    def charge_transfer(self, direction: str, nbytes: int,
                        stream=None) -> None:
        """Charge a raw PCIe transfer (reduced scalars, tag words).

        ``stream`` selects an async copy timeline (device backends only);
        None models the blocking host path.  No-op on host backends: host
        data never crosses the bus.
        """

    def _note_stack(self, kernel: str, plan) -> None:
        """Record the regions a plan covered and its flat-index ops."""
        if plan.groups and self.rank is not None:
            regions, ops = self.rank.metrics.counters("stack", (kernel,))
            regions.value += plan.count
            ops.value += len(plan.groups)

    def _move(self, kernel: str, elements: int, body):
        """Launch one data-motion kernel on the resource holding the data."""
        return self._cpu(kernel, elements, body)

    # -- the rows data motion is charged as ------------------------------------
    #
    # What ``copy_batch``, ``pack_batch``, ``unpack_batch`` and a scratch
    # allocation charge, as :class:`~repro.gpu.ledger.ChargeLedger` rows in
    # their order, from a plan's sizes alone.

    def _record_move(self, ledger, kernel: str, elements: int) -> None:
        """The rows :meth:`_move` is charged as."""
        if self.rank is not None:
            ledger.cpu(self.rank, kernel, elements)

    def _record_stack(self, ledger, kernel: str, count: int,
                      ops: int) -> None:
        """The rows :meth:`_note_stack` counts."""
        if ops and self.rank is not None:
            ledger.stack(self.rank, kernel, count, ops)

    def record_copy(self, ledger, count: int, total: int, ops: int) -> None:
        """The rows :meth:`copy_batch` of a plan of ``count`` regions,
        ``total`` elements and ``ops`` flat-index ops is charged as."""
        self._record_move(ledger, "pdat.copy", total)
        self._record_stack(ledger, "pdat.copy", count, ops)

    def record_pack(self, ledger, count: int, total: int, ops: int) -> None:
        """The rows :meth:`pack_batch` of a plan of ``count`` regions,
        ``total`` elements and ``ops`` flat-index ops is charged as: in
        device memory, the staging buffer's allocation around the pack,
        then its synchronous D2H and free."""
        nbytes = 8 * total
        device = self.space if self.space.resident else None
        if device is not None:
            ledger.alloc(device, nbytes)
        self._record_move(ledger, "pdat.pack", total)
        self._record_stack(ledger, "pdat.pack", count, ops)
        if device is not None:
            ledger.d2h(device, nbytes)
            ledger.free(device, nbytes)

    def record_unpack(self, ledger, count: int, total: int, ops: int) -> None:
        """The rows :meth:`unpack_batch` of such a plan is charged as: in
        device memory, the staging buffer's allocation and synchronous
        H2D, the unpack, its free."""
        nbytes = 8 * total
        device = self.space if self.space.resident else None
        if device is not None:
            ledger.alloc(device, nbytes)
            ledger.h2d(device, nbytes)
        self._record_move(ledger, "pdat.unpack", total)
        if device is not None:
            ledger.free(device, nbytes)
        self._record_stack(ledger, "pdat.unpack", count, ops)

    def record_alloc(self, ledger, elements: int) -> None:
        """The rows allocating ``elements`` float64 elements of scratch
        in this backend's memory space is charged as (host memory:
        none)."""
        if self.space.resident:
            ledger.alloc(self.space, 8 * elements)

    def record_free(self, ledger, elements: int) -> None:
        """The rows freeing such scratch is charged as."""
        if self.space.resident:
            ledger.free(self.space, 8 * elements)

    # -- batch transfers --------------------------------------------------------
    #
    # One body each.  ``pack_batch``/``unpack_batch`` are single blocking
    # calls; the scheduler issues the same work as pipeline stages so the
    # PCIe legs can run on copy streams: pack → staging, staging → host
    # (D2H), host → staging (H2D), staging → unpack.  The staging buffer
    # lives in this backend's memory space; in the host space the copy
    # legs charge nothing.

    def _pack(self, items):
        return _pack_to_staging(self.space, self._move, items,
                                self._note_stack)

    def _unpack(self, staging, items) -> None:
        try:
            plan = compile_stream(items)

            def body():
                src = staging.kernel_view()
                for store, index, where in plan.groups:
                    store.flat()[index] = src[where]

            self._move("pdat.unpack", plan.total, body)
        finally:
            staging.free()
        self._note_stack("pdat.unpack", plan)

    def pack_batch(self, items) -> np.ndarray:
        """Pack many ``(patch_data, region)`` items into one host buffer:
        one pack kernel into one staging buffer, one D2H."""
        return self.copy_out(self._pack(items))

    def unpack_batch(self, buffer: np.ndarray, items) -> None:
        """Unpack one host buffer into many items, in pack order."""
        plan = compile_stream(items)
        if buffer.size != plan.total:
            raise ValueError(
                f"stream size {buffer.size} != batch size {plan.total}")
        self._unpack(self.copy_in(buffer), plan)

    def copy_batch(self, items) -> None:
        """Fuse many same-resource ``(dst_pd, src_pd, region)`` copies
        into one flat-index assignment per store pair (bitwise inert:
        copies in one batch have disjoint destinations).
        """
        plan = compile_copies(items)

        def body():
            for dst, src, dst_index, src_index in plan.groups:
                dst.flat()[dst_index] = src.flat()[src_index]

        self._move("pdat.copy", plan.total, body)
        self._note_stack("pdat.copy", plan)

    def pack_batch_staged(self, items):
        """Pack a batch into a staging buffer in the data's memory space;
        the D2H leg (:meth:`copy_out`) is separate."""
        return self._pack(items)

    def copy_out(self, staging, stream=None) -> np.ndarray:
        """Move a staging buffer to host memory and release it (D2H leg)."""
        return _to_host(self.space, staging, stream=stream)

    def copy_in(self, host_buf: np.ndarray, stream=None):
        """Move a host buffer to a staging buffer (H2D leg)."""
        return self.space.from_host(np.ascontiguousarray(host_buf),
                                    stream=stream)

    def unpack_batch_staged(self, staging, items) -> None:
        """Unpack a staging buffer into the batch items, in pack order,
        and release it."""
        self._unpack(staging, items)

    def _cpu(self, kernel: str, elements: int, fn, *args):
        """Run a charged host pass (uncharged when no rank is attached)."""
        if self.rank is not None:
            return self.rank.cpu_run(kernel, elements, fn, *args)
        return fn(*args)


class HostBackend(Backend):
    """CPU-resident data, kernels charged to the rank's CPU model."""

    name = "host"
    resident = False

    def _launch(self, kernel, elements, fn, *args, reads=(), writes=()):  # noqa: ARG002
        return self._cpu(kernel, elements, fn, *args)


class ResidentDeviceBackend(Backend):
    """The paper's design: data stays in device memory for the whole run."""

    name = "resident"
    resident = True

    def __init__(self, rank: "Rank"):
        super().__init__(rank)
        self.space = self.device = rank.device
        self._lane_streams: dict[str, object] = {}

    def _launch(self, kernel, elements, fn, *args, reads=(), writes=()):  # noqa: ARG002
        return self.device.launch(kernel, elements, fn, *args)

    def _move(self, kernel, elements, body):
        return self.device.launch(kernel, elements, body)

    def _record_move(self, ledger, kernel, elements):
        ledger.launch(self.device, kernel, elements)

    #: the shared body, launched through this class's ``_move``; the entry
    #: itself is a wrap point the end-to-end benchmark resolves on every
    #: backend class that runs copies
    copy_batch = Backend.copy_batch

    def lane_stream(self, lane: str):
        """Copy-engine streams, one per direction (dual-copy-engine GPUs)."""
        s = self._lane_streams.get(lane)
        if s is None:
            s = self.device.create_stream(label=lane)
            self._lane_streams[lane] = s
        return s

    def charge_transfer(self, direction, nbytes, stream=None):
        self.device._charge_transfer(nbytes, stream, direction)


class NonResidentDeviceBackend(HostBackend):
    """Copy-per-kernel ablation: host data, GPU kernels, PCIe both ways.

    Models the pre-resident porting style (paper §I, §III, Wang et al.):
    every launch is bracketed by H2D copies of its operands and D2H
    copies of its outputs.  Data handling (memory space, views, pack
    paths) is inherited from :class:`HostBackend` because the data *is*
    host-resident — only kernel execution differs.
    """

    name = "nonresident"
    resident = False

    def __init__(self, rank: "Rank"):
        super().__init__(rank)
        if rank.device is None:
            raise ValueError("non-resident GPU integrator needs a device")
        self.device = rank.device

    def _launch(self, kernel, elements, fn, *args, reads=(), writes=()):
        up, down = _bracket_bytes(reads, writes)
        for nbytes in up:
            self.device._charge_transfer(nbytes, None, "h2d")
        result = self.device.launch(kernel, elements, fn, *args)
        for nbytes in down:
            self.device._charge_transfer(nbytes, None, "d2h")
        return result

    def record(self, ledger, kernel, elements, reads=(), writes=()):
        up, down = _bracket_bytes(reads, writes)
        if up:
            ledger.h2d(self.device, *up)
        ledger.launch(self.device, kernel, elements)
        if down:
            ledger.d2h(self.device, *down)


#: uncharged host execution, used when no rank context exists (unit tests,
#: operator application outside a simulation)
UNCHARGED_HOST = HostBackend(None)


def backend_for(pd, rank: "Rank | None") -> Backend:
    """The backend matching where ``pd``'s storage actually lives.

    This is the single replacement for every former ad hoc
    ``getattr(pd, "RESIDENT", False)`` dispatch site.
    """
    if is_resident(pd):
        if rank is None or rank.resident_backend is None:
            raise ValueError(
                "device-resident patch data needs a rank with a device")
        return rank.resident_backend
    return rank.host_backend if rank is not None else UNCHARGED_HOST


def run_on(pd, rank: "Rank | None", kernel: str, elements: int, fn, *args):
    """Dispatch one kernel to the resource owning ``pd``.

    Unlike :func:`backend_for`, this tolerates ``rank=None`` by launching
    in the data's own memory space (operators applied outside a
    simulation still execute on the right resource; uncharged on the
    host).
    """
    if rank is None or is_resident(pd):
        return pd.space.launch(kernel, elements, fn, *args)
    return rank.cpu_run(kernel, elements, fn, *args)


def read_patch_fields(patch: "Patch", names) -> dict[str, np.ndarray]:
    """Host arrays of the named fields' interiors on one patch.

    Host-resident fields return live views (no copy, no charge).  All
    device-resident fields of the patch are packed by one fused kernel
    and cross the PCIe bus in a single D2H transfer — the backend read
    path diagnostics use instead of one full-frame copy per field.
    """
    out: dict[str, np.ndarray] = {}
    device_items = []
    for name in names:
        pd = patch.data(name)
        interior = pd.var.index_box(patch.box)
        if is_resident(pd):
            device_items.append((name, pd, interior))
        else:
            out[name] = pd.data.view(interior)
    if device_items:
        device = device_items[0][1].space
        host = _to_host(device, _pack_to_staging(
            device, device.launch, [(pd, box) for _, pd, box in device_items]))
        off = 0
        for name, _pd, box in device_items:
            n = box.size()
            out[name] = host[off:off + n].reshape(tuple(box.shape()))
            off += n
    return out


# -- level construction: whole slabs executed, per-patch work charged ----------


def frame_sizes(level, names) -> list[list[int]]:
    """Per patch of ``level``, in level order, the element count of each
    named field's frame (what one per-patch ``pdat.fill`` of it covers)."""
    first = level.patches[0]
    sizes: dict = {}  # one product per frame layout (centring, ghosts)
    columns = []
    for name in names:
        frames = level.frames(first.data(name).var)
        if id(frames) not in sizes:
            sizes[id(frames)] = frames.shape().prod(axis=1)
        columns.append(sizes[id(frames)])
    return np.stack(columns, axis=1).tolist()


def zero_slabs(level, names) -> None:
    """Zero the fields ``names`` on every patch of ``level``: one
    uncharged host write per arena slab (one per owner and field).  The
    caller charges the per-patch ``pdat.fill`` launches this stands for
    (a :class:`~repro.gpu.ledger.ChargeLedger`)."""
    with seam_scope():
        for name in names:
            for arena in level_arenas(level, name).values():
                arena.fill(0.0)


def write_slabs(space, fn, *args):
    """Run ``fn(*args)`` — host code writing ``space``'s storage in place:
    whole arena slabs through their stacked views (:func:`stacked_of`),
    or the flat-index bodies of a compiled transfer — as one uncharged
    write into that memory space, and return its result.  The caller
    charges the per-patch work this stands for (a
    :class:`~repro.gpu.ledger.ChargeLedger`)."""
    with seam_scope():
        return space.host_write(fn, *args)


def record_per_patch(ledger, level, copied, zeroed, then=None) -> None:
    """Record into ``ledger`` what per-patch construction of ``level``
    issued, patch by patch in level order: one synchronous H2D per
    ``copied`` field's frame, one ``pdat.fill`` per ``zeroed`` field's,
    then ``then(patch)`` (which records the patch's own launches; an
    uncharged slab program stands for all of it).  Only device-resident
    data records copies and fills: host storage operations charge
    nothing."""
    names = (*copied, *zeroed)
    k = len(copied)
    sizes = frame_sizes(level, names) if names else ()
    for i, patch in enumerate(level.patches):
        if names:
            frames = sizes[i]
            space = patch.data(names[0]).space
            if space.resident:
                if k:
                    # float64 frames: 8 bytes an element
                    ledger.h2d(space, *(8 * n for n in frames[:k]))
                if frames[k:]:
                    ledger.launch(space, "pdat.fill", *frames[k:])
        if then is not None:
            then(patch)


def zero_level(level, names) -> None:
    """Zero the fields ``names`` on every patch of ``level``: one fill per
    arena slab, charged as the per-patch loop launched it — one
    ``pdat.fill`` per (patch, field), patch by patch in level order."""
    if not names:
        return
    zero_slabs(level, names)
    ledger = ChargeLedger()
    record_per_patch(ledger, level, (), names)
    ledger.charge()
