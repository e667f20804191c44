"""Tests for the simulated CUDA runtime: residency, clocks, streams, OOM."""

import numpy as np
import pytest

from repro.gpu.device import K20X, Device, DeviceSpec
from repro.gpu.errors import DeviceOutOfMemory, MemorySpaceError
from repro.gpu.kernel import kernel_spec, register_kernel
from repro.gpu.memory import DeviceArray
from repro.gpu.stream import Event
from repro.util.clock import VirtualClock
from counts import gpu_launches, pcie_bytes, pcie_transfers


@pytest.fixture
def device():
    return Device(K20X, VirtualClock())


class TestMemorySpace:
    def test_host_access_raises(self, device):
        arr = device.zeros((4, 4))
        with pytest.raises(MemorySpaceError):
            arr.kernel_view()

    def test_kernel_access_allowed(self, device):
        arr = device.zeros((4, 4))
        device.launch("pdat.fill", 16, lambda: arr.kernel_view().fill(2.0))
        assert device.to_host(arr)[0, 0] == 2.0

    def test_memcpy_roundtrip(self, device):
        src = np.arange(12.0).reshape(3, 4)
        arr = device.from_host(src)
        assert np.array_equal(device.to_host(arr), src)

    def test_use_after_free(self, device):
        arr = device.zeros((2, 2))
        arr.free()
        with pytest.raises(RuntimeError):
            device.launch("pdat.copy", 4, lambda: arr.kernel_view())

    def test_access_closed_after_kernel(self, device):
        arr = device.zeros((2, 2))
        device.launch("pdat.fill", 4, lambda: arr.kernel_view().fill(1))
        with pytest.raises(MemorySpaceError):
            arr.kernel_view()

    def test_memcpy_size_mismatch(self, device):
        arr = device.zeros((2, 2))
        with pytest.raises(ValueError):
            device.memcpy_htod(arr, np.zeros(3))


class TestAllocation:
    def test_tracking(self, device):
        a = device.zeros((1024,))
        assert device.bytes_allocated == 8192
        a.free()
        assert device.bytes_allocated == 0

    def test_free_idempotent(self, device):
        a = device.zeros((8,))
        a.free()
        a.free()
        assert device.bytes_allocated == 0

    def test_oom(self):
        tiny = DeviceSpec("tiny", 1e9, 1e9, 1024, 1e-6, 1e-6, 1e9, 1e-6)
        d = Device(tiny, VirtualClock())
        keep = d.zeros((100,))
        with pytest.raises(DeviceOutOfMemory):
            keep2 = d.zeros((100,))
        assert keep.nbytes == 800

    def test_peak_tracking(self, device):
        a = device.zeros((100,))
        b = device.zeros((100,))
        a.free()
        b.free()
        assert device.peak_bytes == 1600

    def test_peak_is_the_registry_gauge(self, device):
        """The high-water mark is recorded in the device's registry (the
        owning rank's) as ``device.peak_bytes``; the attribute only
        reads it."""
        device.zeros((50,)).free()
        device.zeros((20,))
        assert device.metrics.levels("device.peak_bytes") == {(): 400}
        with pytest.raises(AttributeError):
            device.peak_bytes = 0


class TestClocks:
    def test_kernel_advances_stream_not_host_much(self, device):
        t0 = device.host_clock.time
        device.launch("pdat.fill", 10**6, lambda: None)
        host_delta = device.host_clock.time - t0
        assert host_delta == pytest.approx(K20X.host_launch_overhead)
        assert device.default_stream.clock.time > device.host_clock.time

    def test_synchronize_joins(self, device):
        device.launch("pdat.fill", 10**6, lambda: None)
        device.synchronize()
        assert device.host_clock.time == device.default_stream.clock.time

    def test_kernel_cost_roofline(self, device):
        spec = kernel_spec("pdat.fill")  # 8 B/elem, bandwidth bound
        n = 10**7
        t0 = device.default_stream.clock.time
        device.launch("pdat.fill", n, lambda: None)
        device.synchronize()
        expected = K20X.kernel_overhead + spec.bytes_per_elem * n / K20X.dram_bandwidth
        assert device.default_stream.clock.time - t0 == pytest.approx(
            expected + K20X.host_launch_overhead, rel=1e-9)

    def test_flop_bound_kernel(self, device):
        register_kernel("test.flops", bytes_per_elem=1.0, flops_per_elem=1e6)
        t0 = device.default_stream.clock.time
        device.launch("test.flops", 1000, lambda: None)
        device.synchronize()
        assert device.default_stream.clock.time - t0 >= 1000 * 1e6 / K20X.peak_flops

    def test_transfer_cost(self, device):
        arr = device.zeros((10**6,))
        t0 = device.host_clock.time
        device.to_host(arr)
        cost = device.host_clock.time - t0
        assert cost >= K20X.pcie_latency + arr.nbytes / K20X.pcie_bandwidth

    def test_stats_counting(self, device):
        arr = device.zeros((8, 8))  # zeros() itself fills via memcpy scope
        device.launch("pdat.copy", 64, lambda: None)
        device.to_host(arr)
        assert gpu_launches(device) == 1
        assert pcie_transfers(device, "d2h") == 1
        assert pcie_bytes(device, "d2h") == 512


class TestStreamsEvents:
    def test_async_copy_on_stream(self, device):
        s = device.create_stream()
        arr = device.zeros((1024,))
        t0 = device.host_clock.time
        device.memcpy_dtoh(np.empty(1024), arr, stream=s)
        # Async: host only pays the call overhead.
        assert device.host_clock.time - t0 == pytest.approx(K20X.host_launch_overhead)
        assert s.clock.time > device.host_clock.time

    def test_event_ordering_between_streams(self, device):
        """The paper's Fig. 5a pattern: coarse stream waits on fine kernel."""
        fine = device.create_stream()
        coarse = device.create_stream()
        device.launch("geom.refine", 10**6, lambda: None, stream=fine)
        ev = Event()
        ev.record(fine)
        coarse.wait_event(ev)
        assert coarse.clock.time >= ev.timestamp

    def test_dtod_no_pcie(self, device):
        a = device.zeros((1024,))
        b = device.zeros((1024,))
        before = pcie_bytes(device)
        device.memcpy_dtod(b, a)
        assert pcie_bytes(device) == before
        assert np.array_equal(device.to_host(b), np.zeros(1024))


class TestKernelRegistry:
    def test_known_spec(self):
        spec = kernel_spec("hydro.pdv")
        assert spec.bytes_per_elem > 0

    def test_unknown_gets_generic(self):
        spec = kernel_spec("no.such.kernel")
        assert spec.bytes_per_elem > 0

    def test_work(self):
        spec = kernel_spec("pdat.fill")
        nbytes, nflops = spec.work(100)
        assert nbytes == 800.0
