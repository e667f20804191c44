"""Device memory: :class:`DeviceArray`, the GPU-resident buffer type.

The backing store is a NumPy array, but host code may only obtain it via
:meth:`DeviceArray.kernel_view`, which is legal only inside a kernel launch
or a memcpy on the owning device.  Everything else must go through explicit
``memcpy_*`` calls — exactly the discipline real CUDA imposes and the
discipline the paper's resident design is built on.

:class:`HostArray` is the same buffer protocol (``kernel_view``, ``flat``,
``free``, shape/size/dtype/nbytes) over plain host memory: always
addressable, no ledger.  It is what a host-mode :class:`~repro.gpu.pool.MemoryPool` leases
and what the host memory space of :mod:`repro.pdat` allocates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .device import Device

__all__ = ["DeviceArray", "HostArray"]


class HostArray:
    """A typed, shaped allocation in host memory (DeviceArray's protocol)."""

    __slots__ = ("shape", "dtype", "nbytes", "_data", "_freed")

    def __init__(self, shape, dtype=np.float64):
        self.shape = (tuple(int(s) for s in np.atleast_1d(shape))
                      if np.isscalar(shape)
                      else tuple(int(s) for s in shape))
        self.dtype = np.dtype(dtype)
        self._data = np.empty(self.shape, dtype=self.dtype)
        self.nbytes = self._data.nbytes
        self._freed = False

    @property
    def size(self) -> int:
        return self._data.size

    def kernel_view(self) -> np.ndarray:
        if self._freed:
            raise RuntimeError("use after free of HostArray")
        return self._data

    def flat(self) -> np.ndarray:
        """The buffer as a flat store (:mod:`repro.exec.plan`)."""
        return self.kernel_view().reshape(-1)

    def free(self) -> None:
        if not self._freed:
            self._freed = True
            self._data = np.empty(0, dtype=self.dtype)

    def _poison(self) -> None:
        if not self._freed and np.issubdtype(self.dtype, np.floating):
            self._data.fill(np.nan)


class DeviceArray:
    """A typed, shaped allocation in a simulated device's memory space."""

    __slots__ = ("device", "shape", "dtype", "nbytes", "_data", "_freed")

    def __init__(self, device: Device, shape, dtype=np.float64):
        self.device = device
        self.shape = tuple(int(s) for s in np.atleast_1d(shape)) if np.isscalar(shape) else tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        self._data = np.empty(self.shape, dtype=self.dtype)
        self.nbytes = self._data.nbytes
        self._freed = False
        device._alloc(self.nbytes)

    @property
    def size(self) -> int:
        return self._data.size

    @property
    def ndim(self) -> int:
        return self._data.ndim

    def kernel_view(self) -> np.ndarray:
        """The raw buffer — only accessible from device-side code."""
        if self._freed:
            raise RuntimeError("use after free of DeviceArray")
        self.device.require_access()
        return self._data

    def flat(self) -> np.ndarray:
        """The buffer as a flat store (:mod:`repro.exec.plan`)."""
        return self.kernel_view().reshape(-1)

    def free(self) -> None:
        """Release the allocation (idempotent)."""
        if not self._freed:
            self.device._free(self.nbytes)
            self._freed = True
            self._data = np.empty(0, dtype=self.dtype)

    def _poison(self) -> None:
        """Fill the buffer with the NaN canary (sanitizer aid).

        Writes the backing store directly — shadow bookkeeping, not a
        modelled kernel, so it charges nothing and needs no launch scope.
        A kernel that consumes a fresh or recycled block without writing
        it first propagates NaNs it cannot miss.
        """
        if not self._freed and np.issubdtype(self.dtype, np.floating):
            self._data.fill(np.nan)

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.free()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DeviceArray(shape={self.shape}, dtype={self.dtype}, dev={self.device.spec.name!r})"
