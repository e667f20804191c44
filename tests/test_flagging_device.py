"""Tests for the GPU flagging path: tag kernel, compression, skip."""

import numpy as np
import pytest

from repro.comm.simcomm import SimCommunicator
from repro.gpu.device import K20X
from repro.hydro.fields import declare_fields
from repro.mesh.box import Box
from repro.mesh.geometry import CartesianGridGeometry
from repro.mesh.hierarchy import PatchHierarchy
from repro.mesh.variables import CudaDataFactory, HostDataFactory
from repro.perf.machines import FDR_INFINIBAND, IPA_CPU_NODE
from repro.regrid.flagging import TagThresholds, flag_patch
from counts import gpu_launches, pcie_bytes


def make_patch(gpus: bool, with_jump: bool):
    comm = SimCommunicator(1, IPA_CPU_NODE, FDR_INFINIBAND, K20X)
    geom = CartesianGridGeometry(Box([0, 0], [15, 15]), (0, 0), (1, 1))
    hier = PatchHierarchy(geom, 1)
    reg = declare_fields()
    level = hier.make_level(0, [Box([0, 0], [15, 15])], [0])
    level.allocate_all(reg, CudaDataFactory() if gpus else HostDataFactory(),
                       comm)
    hier.set_level(level)
    patch = level.patches[0]
    for name in ("density0", "energy0", "pressure"):
        pd = patch.data(name)
        shape = tuple(pd.get_ghost_box().shape())
        host = np.ones(shape)
        if with_jump:
            host[: shape[0] // 2, :] = 8.0
        if gpus:
            pd.from_host(host)
        else:
            pd.data.array[...] = host
    return comm, patch


class TestDevicePath:
    def test_gpu_matches_cpu_tags(self):
        _, p_cpu = make_patch(False, True)
        comm, p_gpu = make_patch(True, True)
        t_cpu = flag_patch(p_cpu, comm.rank(0), TagThresholds())
        t_gpu = flag_patch(p_gpu, comm.rank(0), TagThresholds())
        assert np.array_equal(t_cpu, t_gpu)

    def test_tagged_patch_transfers_bits_only(self):
        comm, patch = make_patch(True, True)
        dev = comm.rank(0).device
        before = pcie_bytes(dev, "d2h")
        tags = flag_patch(patch, comm.rank(0), TagThresholds())
        assert tags.any()
        moved = pcie_bytes(dev, "d2h") - before
        # 4-byte flag + 256 cells -> 32 bytes of bits
        assert moved == 4 + 32

    def test_untagged_patch_skips_transfer(self):
        comm, patch = make_patch(True, False)
        dev = comm.rank(0).device
        before = pcie_bytes(dev, "d2h")
        tags = flag_patch(patch, comm.rank(0), TagThresholds())
        assert not tags.any()
        assert pcie_bytes(dev, "d2h") - before == 4  # only the flag word

    def test_compression_kernel_launched(self):
        comm, patch = make_patch(True, True)
        dev = comm.rank(0).device
        k0 = gpu_launches(dev, "regrid.tag_compress")
        flag_patch(patch, comm.rank(0), TagThresholds())
        assert gpu_launches(dev, "regrid.tag_compress") == k0 + 1

    def test_tag_kernel_charged_per_cell(self):
        comm, patch = make_patch(True, True)
        dev = comm.rank(0).device
        k0 = gpu_launches(dev, "regrid.tag")
        flag_patch(patch, comm.rank(0), TagThresholds())
        assert gpu_launches(dev, "regrid.tag") == k0 + 1
