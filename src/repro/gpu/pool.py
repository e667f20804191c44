"""Memory pool: free-list reuse of same-shape allocations.

``cudaMalloc``/``cudaFree`` are expensive and synchronise the device; AMR
codes that allocate temporaries per communication phase (interpolation
blocks, pack buffers) therefore pool them.  :class:`MemoryPool` keeps
freed :class:`DeviceArray` buffers bucketed by (shape, dtype) and hands
them back on the next acquire, tracking hit/miss statistics so benchmarks
can quantify the win.

A pool built without a device (``MemoryPool()``) serves *host* blocks with
the same interface, so callers behave identically on both builds.  Every
leased block — fresh or recycled, host or device — is poisoned with the
NaN canary before handout: recycled buffers on the two builds previously
differed (host ``np.empty`` garbage vs stale device bytes), which let
read-before-write bugs produce build-dependent results.  The poison is
shadow bookkeeping (direct backing-store writes, uncharged), so pool hits
still cost zero modelled time.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .device import Device
from .memory import DeviceArray, HostArray

__all__ = ["MemoryPool", "PooledArray"]

#: modelled cost of a cudaMalloc/cudaFree pair that the pool avoids
ALLOC_OVERHEAD = 5.0e-6


class PooledArray:
    """A leased array; ``release()`` returns it to the pool.

    ``generation`` counts handouts of the raw buffer — the sanitizer's
    proxy for "this lease's contents may have changed since last look".
    """

    def __init__(self, pool: "MemoryPool", darr):
        self.pool = pool
        self.darr = darr
        self.generation = 0
        self._released = False

    def kernel_view(self) -> np.ndarray:
        if self._released:
            raise RuntimeError("use after release of pooled array")
        self.generation += 1
        return self.darr.kernel_view()

    @property
    def shape(self):
        return self.darr.shape

    @property
    def nbytes(self):
        return self.darr.nbytes

    def release(self) -> None:
        if not self._released:
            self._released = True
            self.pool._give_back(self.darr)


class MemoryPool:
    """Bucketed free-list of device (or, with no device, host) arrays."""

    def __init__(self, device: Device | None = None,
                 max_bytes: int | None = None):
        self.device = device
        if max_bytes is not None:
            self.max_bytes = max_bytes
        elif device is not None:
            self.max_bytes = device.spec.memory_bytes // 4
        else:
            self.max_bytes = 1 << 30
        self._free: dict[tuple, list] = defaultdict(list)
        self.cached_bytes = 0
        self.hits = 0
        self.misses = 0
        #: bytes currently leased out via :meth:`acquire`
        self.leased_bytes = 0
        #: high-water mark of :attr:`leased_bytes` plus reservations
        self.peak_leased_bytes = 0
        #: bytes promised to callers via :meth:`try_reserve` but not yet
        #: backed by real buffers — the serve layer's admission ledger
        self.reserved_bytes = 0

    def acquire(self, shape, dtype=np.float64) -> PooledArray:
        """Lease an array; reuses a cached buffer when shapes match.

        The buffer is handed out poisoned (NaN canary) whether it is
        fresh or recycled, on either build — uninitialised reads behave
        the same everywhere instead of picking up resource-specific
        garbage.
        """
        key = (tuple(int(s) for s in shape), np.dtype(dtype).str)
        bucket = self._free.get(key)
        if bucket:
            darr = bucket.pop()
            self.cached_bytes -= darr.nbytes
            self.hits += 1
        elif self.device is not None:
            # A fresh allocation pays the modelled cudaMalloc cost.
            self.device.host_clock.advance(ALLOC_OVERHEAD)
            darr = DeviceArray(self.device, shape, dtype=dtype)
            self.misses += 1
        else:
            darr = HostArray(shape, dtype=dtype)
            self.misses += 1
        darr._poison()
        self.leased_bytes += darr.nbytes
        self.peak_leased_bytes = max(
            self.peak_leased_bytes, self.leased_bytes + self.reserved_bytes)
        return PooledArray(self, darr)

    def _give_back(self, darr) -> None:
        self.leased_bytes -= darr.nbytes
        if self.cached_bytes + darr.nbytes > self.max_bytes:
            darr.free()
            return
        key = (darr.shape, darr.dtype.str)
        self._free[key].append(darr)
        self.cached_bytes += darr.nbytes

    # -- capacity accounting (admission control) -------------------------------

    @property
    def committed_bytes(self) -> int:
        """Bytes spoken for: live leases plus outstanding reservations."""
        return self.leased_bytes + self.reserved_bytes

    @property
    def available_bytes(self) -> int:
        """Capacity headroom against :attr:`max_bytes`."""
        return max(0, self.max_bytes - self.committed_bytes)

    def try_reserve(self, nbytes: int) -> bool:
        """Reserve capacity without backing it by a real buffer.

        The serve layer admits a job onto a device only when its
        estimated footprint reserves successfully; the reservation is a
        pure ledger entry (no host memory is touched), released with
        :meth:`release_reservation` when the job leaves the device.
        """
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError(f"cannot reserve {nbytes} bytes")
        if self.committed_bytes + nbytes > self.max_bytes:
            return False
        self.reserved_bytes += nbytes
        self.peak_leased_bytes = max(
            self.peak_leased_bytes, self.committed_bytes)
        return True

    def release_reservation(self, nbytes: int) -> None:
        """Return capacity taken by :meth:`try_reserve`."""
        nbytes = int(nbytes)
        if nbytes > self.reserved_bytes:
            raise ValueError(
                f"releasing {nbytes} reserved bytes but only "
                f"{self.reserved_bytes} outstanding")
        self.reserved_bytes -= nbytes

    def trim(self) -> int:
        """Free every cached buffer; returns bytes released."""
        released = 0
        for bucket in self._free.values():
            for darr in bucket:
                released += darr.nbytes
                darr.free()
            bucket.clear()
        self.cached_bytes = 0
        return released

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
