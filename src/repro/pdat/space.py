"""The memory-space seam: where a patch-data object's bytes live.

Residency is *only* a question of which memory holds a ``PatchData``'s
array (paper §IV-B).  Here that is one object, the *space*, handed to
``PatchData`` and ``Arena`` at allocation.  There are exactly two:

* :data:`HOST` (:class:`HostSpace`) — a NumPy buffer, always addressable;
  storage operations run inline and charge nothing (callers that model
  CPU time charge it themselves through ``Rank.cpu_run``);
* a :class:`repro.gpu.device.Device` — a ``DeviceArray`` reachable only
  through ``kernel_view()`` inside a launch or memcpy; storage operations
  are ``pdat.fill/copy/pack/unpack`` kernel launches and PCIe copies,
  charged to the device's clocks.

A space provides ``resident`` (read by :mod:`repro.exec` dispatch only),
``empty(shape, dtype)`` → a buffer (``kernel_view``/``free``/shape/size/
dtype/nbytes), ``launch(name, elements, fn, *args)``, ``to_host(buf)`` → a
fresh host array the caller owns, ``from_host(array)`` → a new buffer,
``memcpy_htod(buf, array)``, ``guard_mirror(op)`` (the sanitizer's rule
for whole-frame host mirroring) and ``host_write(fn, *args)`` (host code
writing the space's storage in place, uncharged: level construction's
whole-slab fills and writes, whose per-patch charges a
:class:`~repro.gpu.ledger.ChargeLedger` makes).  Nothing in this package
may branch on which space it was given: every difference is one of those
eight answers.
"""

from __future__ import annotations

import numpy as np

from ..gpu.memory import HostArray

__all__ = ["HostSpace", "HOST"]


class HostSpace:
    """Host memory as a memory space: addressable anywhere, uncharged."""

    resident = False

    def empty(self, shape, dtype=np.float64) -> HostArray:
        return HostArray(shape, dtype=dtype)

    def launch(self, name, elements: int, fn, *args):  # noqa: ARG002 — the device space charges by name and element count
        return fn(*args)

    def to_host(self, buf, stream=None) -> np.ndarray:  # noqa: ARG002 — no copy engine on the host
        return buf.kernel_view().copy()

    def from_host(self, host: np.ndarray, stream=None) -> HostArray:  # noqa: ARG002
        buf = self.empty(host.shape, host.dtype)
        buf.kernel_view()[...] = host
        return buf

    def memcpy_htod(self, buf, host: np.ndarray) -> None:
        buf.kernel_view()[...] = host.reshape(buf.shape)

    def guard_mirror(self, op: str) -> None:
        """Host bytes may be mirrored from anywhere."""

    def host_write(self, fn, *args):
        """Host bytes are written in place, uncharged."""
        return fn(*args)


#: the one host space (stateless; identity is what ``copy_from`` compares)
HOST = HostSpace()
