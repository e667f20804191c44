"""The device memory space of the one patch-data stack (paper §IV-B).

The space-agnostic assertions are the case classes of
``test_patch_data.py``, bound here to a simulated device; what follows them
is what only a device can show: residency is enforced, every storage
operation is a kernel, a pack crosses PCIe exactly once, and the
allocation ledger returns to zero.
"""

import numpy as np
import pytest
from fig3 import CudaCellData, CudaNodeData, CudaSideData
from test_patch_data import CentringCases, StoreCases

from repro.exec.backend import is_resident
from repro.gpu.device import K20X, Device
from repro.gpu.errors import MemorySpaceError
from repro.mesh.box import Box
from repro.pdat import HOST, ArrayData
from repro.util.clock import VirtualClock


@pytest.fixture
def device():
    return Device(K20X, VirtualClock())


class TestCudaArrayData(StoreCases):
    @pytest.fixture
    def space(self, device):
        return device

    def test_residency_enforced(self, device):
        ad = ArrayData(Box([0, 0], [3, 3]), device)
        with pytest.raises(MemorySpaceError):
            ad.array
        with pytest.raises(MemorySpaceError):
            ad.view(Box([0, 0], [1, 1]))

    def test_fill_is_kernel(self, device):
        ad = ArrayData(Box([0, 0], [3, 3]), device)
        n0 = device.stats.kernel_launches
        ad.fill(2.0)
        assert device.stats.kernel_launches == n0 + 1
        assert device.stats.launches_by_name["pdat.fill"] == 1
        assert np.all(ad.to_host_array() == 2.0)

    def test_copy_from_same_device(self, device):
        a = ArrayData(Box([0, 0], [3, 3]), device, fill=5.0)
        b = ArrayData(Box([0, 0], [3, 3]), device, fill=0.0)
        k0 = device.stats.launches_by_name.get("pdat.copy", 0)
        pcie = device.stats.bytes_d2h + device.stats.bytes_h2d
        b.copy_from(a, Box([0, 0], [1, 3]))
        assert device.stats.launches_by_name["pdat.copy"] == k0 + 1
        assert device.stats.bytes_d2h + device.stats.bytes_h2d == pcie
        host = b.to_host_array()
        assert host[:2].sum() == 40.0 and host[2:].sum() == 0.0

    def test_cross_device_copy_rejected(self, device):
        other = Device(K20X, VirtualClock())
        a = ArrayData(Box([0, 0], [1, 1]), device, fill=1.0)
        b = ArrayData(Box([0, 0], [1, 1]), other, fill=0.0)
        with pytest.raises(ValueError):
            b.copy_from(a, Box([0, 0], [1, 1]))

    def test_pack_path_crosses_pcie_once(self, device):
        """Fig. 4: pack kernel -> contiguous device buffer -> D2H."""
        ad = ArrayData(Box([0, 0], [7, 7]), device, fill=3.0)
        region = Box([2, 2], [5, 5])
        d2h0 = device.stats.bytes_d2h
        n0 = device.stats.transfers_d2h
        k0 = device.stats.launches_by_name.get("pdat.pack", 0)
        live = device.bytes_allocated
        buf = ad.pack(region)
        assert device.stats.launches_by_name["pdat.pack"] == k0 + 1
        assert device.stats.bytes_d2h - d2h0 == region.size() * 8
        assert device.stats.transfers_d2h == n0 + 1
        assert device.bytes_allocated == live  # staging buffer released
        assert buf.shape == (16,)
        assert np.all(buf == 3.0)

    def test_unpack_path(self, device):
        ad = ArrayData(Box([0, 0], [7, 7]), device, fill=0.0)
        region = Box([1, 1], [2, 2])
        h2d0 = device.stats.bytes_h2d
        k0 = device.stats.launches_by_name.get("pdat.unpack", 0)
        live = device.bytes_allocated
        ad.unpack(np.arange(4.0), region)
        assert device.stats.bytes_h2d - h2d0 == 32
        assert device.stats.launches_by_name["pdat.unpack"] == k0 + 1
        assert device.bytes_allocated == live
        host = ad.to_host_array()
        assert np.array_equal(host[1:3, 1:3].reshape(-1), np.arange(4.0))

    def test_staging_freed_when_unpack_raises(self, device):
        ad = ArrayData(Box([0, 0], [3, 3]), device)
        live = device.bytes_allocated
        with pytest.raises(IndexError):
            ad.unpack(np.zeros(4), Box([7, 7], [8, 8]))  # outside the frame
        assert device.bytes_allocated == live

    def test_free_releases_memory(self, device):
        ad = ArrayData(Box([0, 0], [31, 31]), device)
        assert device.bytes_allocated > 0
        ad.free()
        assert device.bytes_allocated == 0
        with pytest.raises(RuntimeError, match="use after free"), \
                device._memcpy_scope():
            ad.array


@pytest.mark.parametrize("cls,kwargs", [
    (CudaCellData, {}),
    (CudaNodeData, {}),
    (CudaSideData, {"axis": 0}),
    (CudaSideData, {"axis": 1}),
])
class TestCudaCentrings(CentringCases):
    def test_resident_flag(self, device, cls, kwargs):
        pd = self.make(device, cls, kwargs)
        assert is_resident(pd) and pd.space is device
        # the same class in the host space is not
        assert not is_resident(self.make(HOST, cls, kwargs))

    def test_storage_shape(self, device, cls, kwargs):
        extra = self.make(device, cls, kwargs).var.offset
        self.check_storage_shape(device, cls, kwargs, extra)

    def test_interior_needs_a_launch(self, device, cls, kwargs):
        pd = self.make(device, cls, kwargs)
        with pytest.raises(MemorySpaceError):
            pd.interior()

    def test_stream_roundtrip(self, device, cls, kwargs):
        self.check_stream_roundtrip(device, cls, kwargs)

    def test_copy_region(self, device, cls, kwargs):
        self.check_copy_region(device, cls, kwargs)

    def test_copy_is_device_kernel(self, device, cls, kwargs):
        a = self.make(device, cls, kwargs)
        b = self.make(device, cls, kwargs)
        a.fill(9.0)
        pcie = device.stats.bytes_d2h + device.stats.bytes_h2d
        b.copy(a, Box([0, 0], [2, 2]))
        # on-device copy must not touch the PCIe bus
        assert device.stats.bytes_d2h + device.stats.bytes_h2d == pcie

    def test_stream_size(self, device, cls, kwargs):
        self.check_stream_size(device, cls, kwargs)

    def test_timestamp(self, device, cls, kwargs):
        self.check_timestamp(device, cls, kwargs)

    def test_restart_roundtrip(self, device, cls, kwargs):
        self.check_restart_roundtrip(device, cls, kwargs)


class TestResidencyAccounting:
    def test_memory_model_tracks_full_field_set(self, device):
        """18 CleverLeaf fields on a 64x64 patch fit easily in 6 GB."""
        from repro.hydro.fields import declare_fields
        from repro.mesh.variables import CudaDataFactory

        class FakeRank:
            pass

        rank = FakeRank()
        rank.device = device
        factory = CudaDataFactory()
        box = Box([0, 0], [63, 63])
        pds = [factory.allocate(v, box, rank) for v in declare_fields()]
        assert device.bytes_allocated == sum(p.data.buf.nbytes for p in pds)
        assert device.bytes_allocated < K20X.memory_bytes
        for pd in pds:
            pd.free()
        assert device.bytes_allocated == 0
