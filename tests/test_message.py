"""Tests for batched message-stream pack/unpack/copy (xfer.message)."""

import numpy as np
import pytest

from fig3 import CellData, CudaCellData, CudaNodeData, NodeData

from repro.comm.simcomm import SimCommunicator
from repro.gpu.device import K20X
from repro.mesh.box import Box
from repro.pdat import HOST, Arena
from repro.perf.machines import FDR_INFINIBAND, IPA_CPU_NODE
from repro.xfer.message import (
    batch_size_bytes,
    copy_batch_local,
    pack_batch,
    unpack_batch,
)
from counts import gpu_launches, pcie_transfers

BOX = Box([0, 0], [7, 7])


@pytest.fixture
def comm():
    return SimCommunicator(2, IPA_CPU_NODE, FDR_INFINIBAND, K20X)


def make_host_batch():
    rng = np.random.default_rng(0)
    c = CellData(BOX, 2)
    c.data.array[...] = rng.random(c.data.array.shape)
    n = NodeData(BOX, 2)
    n.data.array[...] = rng.random(n.data.array.shape)
    return [(c, Box([0, 0], [3, 3])), (n, Box([2, 2], [6, 6]))]


class TestHostBatches:
    def test_size(self):
        items = make_host_batch()
        assert batch_size_bytes(items) == (16 + 25) * 8

    def test_pack_unpack_roundtrip(self, comm):
        items = make_host_batch()
        buf = pack_batch(items, comm.rank(0))
        assert buf.size == 16 + 25
        dst = [(CellData(BOX, 2, fill=0.0), items[0][1]),
               (NodeData(BOX, 2, fill=0.0), items[1][1])]
        unpack_batch(buf, dst, comm.rank(1))
        for (src_pd, region), (dst_pd, _) in zip(items, dst):
            assert np.array_equal(dst_pd.view(region), src_pd.view(region))

    def test_unpack_size_mismatch(self, comm):
        dst = [(CellData(BOX, 2, fill=0.0), Box([0, 0], [1, 1]))]
        with pytest.raises(ValueError):
            unpack_batch(np.zeros(99), dst, comm.rank(0))

    def test_pack_is_one_charged_pass(self, comm):
        items = make_host_batch()
        t0 = comm.rank(0).clock.time
        pack_batch(items, comm.rank(0))
        # exactly one kernel_overhead charge (not one per item)
        cost = comm.rank(0).clock.time - t0
        assert cost < 2 * IPA_CPU_NODE.kernel_overhead + 1e-6


class TestDeviceBatches:
    def make_device_batch(self, device):
        rng = np.random.default_rng(1)
        c = CudaCellData(BOX, 2, device)
        c.from_host(rng.random(tuple(c.get_ghost_box().shape())))
        n = CudaNodeData(BOX, 2, device)
        n.from_host(rng.random(tuple(n.get_ghost_box().shape())))
        return [(c, Box([0, 0], [3, 3])), (n, Box([2, 2], [6, 6]))]

    def test_one_kernel_one_transfer(self, comm):
        device = comm.rank(0).device
        items = self.make_device_batch(device)
        k0 = gpu_launches(device, "pdat.pack")
        d0 = pcie_transfers(device, "d2h")
        pack_batch(items, comm.rank(0))
        assert gpu_launches(device, "pdat.pack") == k0 + 1
        assert pcie_transfers(device, "d2h") == d0 + 1

    def test_roundtrip_across_devices(self, comm):
        d0, d1 = comm.rank(0).device, comm.rank(1).device
        items = self.make_device_batch(d0)
        buf = pack_batch(items, comm.rank(0))
        dst = [(CudaCellData(BOX, 2, d1, fill=0.0), items[0][1]),
               (CudaNodeData(BOX, 2, d1, fill=0.0), items[1][1])]
        unpack_batch(buf, dst, comm.rank(1))
        for (src_pd, region), (dst_pd, _) in zip(items, dst):
            sl = region.slices_in(src_pd.get_ghost_box())
            # frames differ between cell and node; compare region contents
            src_full = src_pd.to_host()
            dst_full = dst_pd.to_host()
            assert np.array_equal(
                dst_full[region.slices_in(dst_pd.get_ghost_box())],
                src_full[sl],
            )


class TestLocalCopyBatch:
    def test_host_fused_copy(self, comm):
        a = CellData(BOX, 2, fill=1.0)
        b = CellData(BOX, 2, fill=2.0)
        dst = CellData(BOX, 2, fill=0.0)
        items = [(dst, a, Box([0, 0], [3, 7])), (dst, b, Box([4, 0], [7, 7]))]
        copy_batch_local(items, comm.rank(0))
        assert np.all(dst.view(Box([0, 0], [3, 7])) == 1.0)
        assert np.all(dst.view(Box([4, 0], [7, 7])) == 2.0)

    def test_device_fused_copy_is_single_launch(self, comm):
        device = comm.rank(0).device
        a = CudaCellData(BOX, 2, device, fill=3.0)
        dst = CudaCellData(BOX, 2, device, fill=0.0)
        items = [(dst, a, Box([0, 0], [1, 7])), (dst, a, Box([6, 0], [7, 7]))]
        k0 = gpu_launches(device, "pdat.copy")
        copy_batch_local(items, comm.rank(0))
        assert gpu_launches(device, "pdat.copy") == k0 + 1
        full = dst.to_host()
        assert full[2, 2] == 3.0 and full[9, 5] == 3.0 and full[5, 5] == 0.0


def _arena_row(space, nboxes, fill=None, seed=None, ragged=False):
    """Arena-backed CellData members in ``space``: a row of same-shape
    boxes, or with ``ragged`` a last box one cell taller (non-uniform)."""
    boxes = [Box([i * 8, 0], [i * 8 + 7, 7]) for i in range(nboxes)]
    if ragged:
        boxes[-1] = Box([(nboxes - 1) * 8, 0], [nboxes * 8 - 1, 8])
    shapes = [tuple(b.grow(2).shape()) for b in boxes]
    arena = Arena(space, sum(a * b for a, b in shapes))
    pds = []
    rng = np.random.default_rng(seed) if seed is not None else None
    for b, shape in zip(boxes, shapes):
        pd = CellData(b, 2, space, member=arena.place(shape))
        if rng is not None:
            pd.from_host(rng.random(shape))
        elif fill is not None:
            pd.fill(fill)
        pds.append(pd)
    return arena, pds


def _stacked(rank, kernel):
    """(regions, flat-index ops) the rank counted for ``kernel``."""
    return (rank.metrics.value("stack.regions", kernel=kernel),
            rank.metrics.value("stack.ops", kernel=kernel))


def _interior(pd):
    return pd.to_host()[pd.box.slices_in(pd.get_ghost_box())]


@pytest.fixture(params=["host", "device"])
def space(request, comm):
    return HOST if request.param == "host" else comm.rank(0).device


class TestStackedCopies:
    """Arena-backed batches collapse to one flat-index op per arena pair,
    whatever the member shapes and wherever the regions sit."""

    def _check_stacked_copy(self, space, rank):
        _, srcs = _arena_row(space, 3, seed=7)
        _, dsts = _arena_row(space, 3, fill=0.0)
        copy_batch_local([(d, s, d.box) for d, s in zip(dsts, srcs)], rank)
        for d, s in zip(dsts, srcs):
            assert np.array_equal(_interior(d), _interior(s))
        assert _stacked(rank, "pdat.copy") == (3, 1)

    def test_host_stacked_copy_matches_per_region(self, comm):
        self._check_stacked_copy(HOST, comm.rank(0))

    def test_device_stacked_copy_matches_per_region(self, comm):
        self._check_stacked_copy(comm.rank(0).device, comm.rank(0))

    def test_ragged_regions_fall_back_per_region(self, comm):
        self._check_ragged_regions_fall_back(HOST, comm.rank(0))

    def test_device_ragged_regions_fall_back_per_region(self, comm):
        self._check_ragged_regions_fall_back(comm.rank(0).device, comm.rank(0))

    def _check_ragged_regions_fall_back(self, space, rank):
        _, srcs = _arena_row(space, 3, seed=11)
        _, dsts = _arena_row(space, 3, fill=0.0)
        # Different relative regions (and sizes) per member: flat indices
        # do not care, the three still run as one op.
        items = [(dsts[0], srcs[0], Box([0, 0], [3, 3])),
                 (dsts[1], srcs[1], Box([9, 2], [13, 5])),
                 (dsts[2], srcs[2], Box([16, 4], [23, 7]))]
        copy_batch_local(items, rank)
        for d, s, region in items:
            sl = region.slices_in(d.get_ghost_box())
            assert np.array_equal(d.to_host()[sl], s.to_host()[sl])
            outside = np.ones(d.to_host().shape, dtype=bool)
            outside[sl] = False
            assert not d.to_host()[outside].any()  # nothing else written
        assert _stacked(rank, "pdat.copy") == (3, 1)

    def test_ragged_arena_keeps_the_per_region_path(self, comm, space):
        """Non-uniform arena: two shape buckets, no whole-arena stacked
        view; members still alias the slab, transfers run by flat index
        all the same, the slab still round-trips."""
        arena, srcs = _arena_row(space, 3, seed=13, ragged=True)
        _, dsts = _arena_row(space, 3, fill=0.0, ragged=True)
        rank = comm.rank(0)
        assert len(arena.buckets) > 1
        assert [(first, n) for first, n, _ in arena.buckets] == [(0, 2), (2, 1)]
        with pytest.raises(ValueError, match="uniform"):
            arena.stacked_view()
        copy_batch_local([(d, s, d.box) for d, s in zip(dsts, srcs)], rank)
        buffer = pack_batch([(s, s.box) for s in srcs], rank)
        for d, s in zip(dsts, srcs):
            assert np.array_equal(_interior(d), _interior(s))
        assert np.array_equal(
            buffer, np.concatenate([_interior(s).ravel() for s in srcs]))
        for kernel in ("pdat.copy", "pdat.pack"):
            assert _stacked(rank, kernel) == (3, 1)
        slab = arena.to_host_slab()
        for i, s in enumerate(srcs):
            n = arena.shapes[i][0] * arena.shapes[i][1]
            assert np.array_equal(
                slab[arena.offsets[i]:arena.offsets[i] + n].reshape(
                    arena.shapes[i]), s.to_host())
        arena.from_host_slab(np.zeros_like(slab))
        assert all(not s.to_host().any() for s in srcs)

    def test_standalone_data_is_its_own_one_member_store(self, comm, space):
        """Patch data allocated on its own runs by flat index too: its
        buffer is a store whose one member sits at offset 0, and the
        regions on one buffer share one op."""
        a = CellData(BOX, 2, space, fill=1.0)
        b = CellData(BOX, 2, space, fill=2.0)
        dst = CellData(BOX, 2, space, fill=0.0)
        rank = comm.rank(0)
        copy_batch_local([(dst, a, Box([0, 0], [3, 7])),
                          (dst, b, Box([4, 0], [7, 3])),
                          (dst, b, Box([4, 4], [7, 7]))], rank)
        assert np.all(_interior(dst)[:4] == 1.0)
        assert np.all(_interior(dst)[4:] == 2.0)
        assert _stacked(rank, "pdat.copy") == (3, 2)
        buffer = pack_batch([(dst, Box([2, 2], [5, 5])), (a, BOX)], rank)
        assert np.array_equal(buffer, np.concatenate(
            [_interior(dst)[2:6, 2:6].ravel(), _interior(a).ravel()]))

    def _check_stacked_pack_unpack(self, space, rank):
        _, srcs = _arena_row(space, 4, seed=3)
        _, dsts = _arena_row(space, 4, fill=0.0)
        buffer = pack_batch([(s, s.box) for s in srcs], rank)
        expected = np.concatenate([_interior(s).ravel() for s in srcs])
        assert np.array_equal(buffer, expected)
        unpack_batch(buffer, [(d, d.box) for d in dsts], rank)
        for d, s in zip(dsts, srcs):
            assert np.array_equal(_interior(d), _interior(s))
        assert _stacked(rank, "pdat.pack") == (4, 1)
        assert _stacked(rank, "pdat.unpack") == (4, 1)

    def test_host_stacked_pack_unpack_roundtrip(self, comm):
        self._check_stacked_pack_unpack(HOST, comm.rank(0))

    def test_device_stacked_pack_unpack_roundtrip(self, comm):
        self._check_stacked_pack_unpack(comm.rank(0).device, comm.rank(0))

    def test_device_stacked_pack_single_launch_and_transfer(self, comm):
        rank = comm.rank(0)
        device = rank.device
        _, pds = _arena_row(device, 3, seed=5)
        k0 = gpu_launches(device, "pdat.pack")
        d0 = pcie_transfers(device, "d2h")
        pack_batch([(pd, pd.box) for pd in pds], rank)
        assert gpu_launches(device, "pdat.pack") == k0 + 1
        assert pcie_transfers(device, "d2h") == d0 + 1
        assert _stacked(rank, "pdat.pack") == (3, 1)


# -- a batch transfer that raises leaves no staging buffer behind -----------------

OUTSIDE = Box([40, 40], [43, 43])  # not in BOX's frame: the kernel body raises


@pytest.mark.parametrize("verb", ["pack_batch", "unpack_batch",
                                  "pack_batch_staged", "unpack_batch_staged"])
def test_staging_buffer_freed_when_a_batch_transfer_raises(comm, verb):
    rank = comm.rank(0)
    backend, device = rank.resident_backend, rank.device
    pd = CudaCellData(BOX, 2, device, fill=0.0)
    items = [(pd, OUTSIDE)]
    host = np.zeros(OUTSIDE.size())
    live = device.bytes_allocated
    with pytest.raises(IndexError) as excinfo:
        if verb == "pack_batch":
            backend.pack_batch(items)
        elif verb == "pack_batch_staged":
            backend.pack_batch_staged(items)
        elif verb == "unpack_batch":
            backend.unpack_batch(host, items)
        else:
            backend.unpack_batch_staged(backend.copy_in(host), items)
    # excinfo keeps the traceback, and with it every frame local, alive:
    # only an explicit free (not a buffer's __del__) can have run
    assert excinfo.traceback
    assert device.bytes_allocated == live
