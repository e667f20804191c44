"""Tests for the patch-spill mechanism (paper §VI future work)."""

import numpy as np
import pytest

from repro.gpu.device import Device, DeviceSpec
from repro.gpu.errors import DeviceOutOfMemory
from repro.gpu.spill import SpillManager
from repro.util.clock import VirtualClock
from counts import pcie_bytes

# A toy GPU with room for ~4 1000-element float64 arrays (at 10% headroom).
TINY = DeviceSpec("tiny-gpu", 100e9, 1e12, 36_000, 5e-6, 2e-6, 6e9, 5e-6)


@pytest.fixture
def device():
    return Device(TINY, VirtualClock())


@pytest.fixture
def manager(device):
    return SpillManager(device, headroom=0.1)


def fill(device, arr, value):
    device.launch("pdat.fill", arr.nbytes // 8,
                  lambda: arr.kernel_view().fill(value))


def read0(device, arr):
    return device.launch("pdat.copy", 1, lambda: float(arr.kernel_view()[0]))


class TestBasicLifecycle:
    def test_allocate_within_budget(self, manager, device):
        a = manager.array((1000,))
        assert a.resident
        assert device.bytes_allocated == 8000

    def test_single_array_too_big_rejected(self, manager):
        with pytest.raises(DeviceOutOfMemory):
            manager.array((10_000,))

    def test_oversubscription_spills_lru(self, manager, device):
        arrays = [manager.array((1000,)) for _ in range(6)]  # 48 KB > budget
        assert manager.spill_count >= 2
        assert manager.resident_bytes() <= manager.budget
        assert not arrays[0].resident          # oldest got evicted
        assert arrays[-1].resident

    def test_managed_exceeds_device(self, manager, device):
        """Total managed footprint larger than the GPU still works."""
        arrays = [manager.array((1000,)) for _ in range(10)]
        assert manager.managed_bytes() > TINY.memory_bytes
        assert device.bytes_allocated <= manager.budget


class TestDataIntegrity:
    def test_roundtrip_preserves_values(self, manager, device):
        arrays = [manager.array((1000,)) for _ in range(4)]
        for i, a in enumerate(arrays):
            fill(device, manager.touch(a), float(i + 1))
        # Force everyone out and back in.
        extra = [manager.array((1000,)) for _ in range(4)]
        for i, a in enumerate(arrays):
            manager.touch(a)
            assert read0(device, a) == float(i + 1)
        del extra

    def test_spilled_access_raises_without_touch(self, manager, device):
        a = manager.array((1000,))
        fill(device, a, 7.0)
        [manager.array((1000,)) for _ in range(5)]  # evict a
        assert not a.resident
        with pytest.raises(DeviceOutOfMemory):
            read0(device, a)

    def test_touch_restores(self, manager, device):
        a = manager.array((1000,))
        fill(device, a, 3.5)
        [manager.array((1000,)) for _ in range(5)]
        manager.touch(a)
        assert a.resident
        assert read0(device, a) == 3.5
        assert manager.restore_count >= 1


class TestAccounting:
    def test_spill_crosses_pcie(self, manager, device):
        a = manager.array((1000,))
        fill(device, a, 1.0)
        d2h0 = pcie_bytes(device, "d2h")
        [manager.array((1000,)) for _ in range(5)]
        assert pcie_bytes(device, "d2h") >= d2h0 + 8000  # eviction of `a`

    def test_restore_charges_time(self, manager, device):
        a = manager.array((1000,))
        [manager.array((1000,)) for _ in range(5)]
        t0 = device.host_clock.time
        manager.touch(a)
        assert device.host_clock.time > t0

    def test_lru_order_updated_by_touch(self, manager, device):
        a = manager.array((1000,))
        b = manager.array((1000,))
        c = manager.array((1000,))
        d = manager.array((1000,))
        manager.touch(a)  # a becomes most recent; b is now LRU
        manager.array((1000,))  # forces one eviction
        assert a.resident
        assert not b.resident
