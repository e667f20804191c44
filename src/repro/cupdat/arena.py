"""Device patch arena: the GPU twin of :mod:`repro.pdat.arena`.

One :class:`~repro.gpu.memory.DeviceArray` slab holds one variable's
frames for every local patch of a level back-to-back; each member is an
:class:`ArenaSlice` exposing the DeviceArray protocol (``kernel_view``,
``free``, shape/dtype/nbytes) over its segment, so
:class:`~repro.cupdat.cuda_array_data.CudaArrayData` and every kernel
body work unchanged on arena-backed storage.

Lifetime: patches free their data individually (regrid calls
``Patch.free_all`` per patch), so the slab is released only when the
last live slice is freed.  Freed slices raise on access exactly like a
freed DeviceArray.
"""

from __future__ import annotations

import math

import numpy as np

from ..gpu.memory import DeviceArray

__all__ = ["DeviceArena", "ArenaSlice"]


class DeviceArena:
    """One device slab holding many patch frames back-to-back."""

    def __init__(self, device, total_elements: int, dtype=np.float64):
        self.device = device
        self.slab = DeviceArray(device, (int(total_elements),), dtype=dtype)
        self.offsets: list[int] = []
        self.shapes: list[tuple[int, ...]] = []
        self._used = 0
        self._live = 0
        self._uniform: bool | None = None

    def place(self, shape) -> "ArenaSlice":
        """Carve the next member off the slab as an :class:`ArenaSlice`."""
        n = math.prod(int(s) for s in shape)
        if self._used + n > self.slab.size:
            raise ValueError(
                f"arena overflow: {self._used} + {n} > {self.slab.size}")
        s = ArenaSlice(self, self._used, shape, index=len(self.offsets))
        self.offsets.append(self._used)
        self.shapes.append(tuple(int(x) for x in shape))
        self._used += n
        self._live += 1
        self._uniform = None
        return s

    def _release(self) -> None:
        self._live -= 1
        if self._live == 0:
            self.slab.free()

    # -- whole-slab access (--batch) -------------------------------------------

    @property
    def member_count(self) -> int:
        return len(self.offsets)

    @property
    def uniform(self) -> bool:
        """True when every placed member has the same frame shape, so the
        slab admits a stacked (P, f0, f1) kernel view.  Ragged levels fall
        back to the per-patch path.  Cached: membership only changes
        through :meth:`place`, and the stacked transfer planner asks per
        region."""
        if self._uniform is None:
            self._uniform = bool(self.shapes) and all(
                s == self.shapes[0] for s in self.shapes[1:])
        return self._uniform

    def stacked_view(self) -> np.ndarray:
        """The whole slab as one (P, f0, f1) kernel view, members on
        axis 0.  Legal only inside a launch or memcpy scope on the owning
        device, exactly like :meth:`ArenaSlice.kernel_view`."""
        if not self.uniform:
            raise ValueError("stacked view needs a uniform arena")
        shape = self.shapes[0]
        n = self.member_count
        flat = self.slab.kernel_view()
        return flat[:n * math.prod(shape)].reshape((n,) + shape)

    def interior_mask(self, ghosts: int) -> np.ndarray:
        """Boolean (P, f0, f1) host mask, True on each member's interior."""
        if not self.uniform:
            raise ValueError("interior mask needs a uniform arena")
        shape = self.shapes[0]
        mask = np.zeros((self.member_count,) + shape, dtype=bool)
        g = int(ghosts)
        mask[:, g:mask.shape[1] - g, g:mask.shape[2] - g] = True
        return mask

    # -- whole-slab host staging (restart fast path) ---------------------------

    def to_host_slab(self) -> np.ndarray:
        """One charged D2H copy of the entire slab, as a flat host array.

        Member ``i`` occupies ``[offsets[i], offsets[i] + prod(shapes[i]))``
        of the result — works for ragged arenas too, unlike
        :meth:`stacked_view`.  The restart layer uses this to checkpoint a
        whole (level, variable) arena in one PCIe transfer instead of one
        per patch.
        """
        return self.device.to_host(self.slab)

    def from_host_slab(self, host: np.ndarray) -> None:
        """One charged H2D copy of a flat host array over the entire slab."""
        self.device.memcpy_htod(self.slab, host)


class ArenaSlice:
    """A member segment of a :class:`DeviceArena` slab.

    Duck-types :class:`~repro.gpu.memory.DeviceArray`: same attributes,
    same ``kernel_view`` access discipline (legal only inside a launch or
    memcpy on the owning device), idempotent ``free``.
    """

    __slots__ = ("arena", "offset", "shape", "dtype", "nbytes", "size",
                 "index", "_freed")

    def __init__(self, arena: DeviceArena, offset: int, shape, index: int = 0):
        self.arena = arena
        self.offset = int(offset)
        self.shape = tuple(int(s) for s in shape)
        self.dtype = arena.slab.dtype
        self.size = math.prod(self.shape)
        self.nbytes = self.size * self.dtype.itemsize
        #: position of this member on the stacked view's leading axis
        self.index = int(index)
        self._freed = False

    @property
    def device(self):
        return self.arena.device

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def kernel_view(self) -> np.ndarray:
        if self._freed:
            raise RuntimeError("use after free of ArenaSlice")
        flat = self.arena.slab.kernel_view()
        return flat[self.offset:self.offset + self.size].reshape(self.shape)

    def free(self) -> None:
        if not self._freed:
            self._freed = True
            self.arena._release()

    def _poison(self) -> None:
        if not self._freed and np.issubdtype(self.dtype, np.floating):
            with self.arena.device._memcpy_scope():
                self.kernel_view().fill(np.nan)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ArenaSlice(offset={self.offset}, shape={self.shape}, "
                f"dev={self.arena.device.spec.name!r})")
