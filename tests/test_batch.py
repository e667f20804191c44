"""Units for the level-batched execution layer (:mod:`repro.pdat.arena`,
:mod:`repro.exec.batch`).

End-to-end bitwise parity of ``--batch`` lives in
``test_backend_parity.py``; these tests pin the building blocks: arena
slab layout and lifetime, arena-pooled factory allocation, member
fusion bookkeeping, and ``run_batched`` edge cases.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest

from repro.exec.backend import UNCHARGED_HOST
from repro.exec.batch import BatchMember, BatchSlot, LaunchBatcher, union_pds
from repro.gpu.device import K20X, Device
from repro.mesh.box import Box
from repro.mesh.box_array import BoxArray
from repro.mesh.variables import (
    CudaDataFactory,
    HostDataFactory,
    Variable,
)
from repro.pdat import HOST, Arena
from repro.util.clock import VirtualClock


# -- one arena, two memory spaces --------------------------------------------
#
# The same assertions run against the host space and a simulated device;
# only the device has an allocation ledger to check them against.


@pytest.fixture
def device():
    return Device(K20X, VirtualClock())


def _scope(space):
    """Where a space's buffers may be touched (anywhere on the host)."""
    return getattr(space, "_memcpy_scope", nullcontext)()


def _check_members_are_disjoint_segments_of_one_slab(space):
    arena = Arena(space, 6 + 12)
    a = arena.place((2, 3))
    b = arena.place((3, 4))
    assert a.shape == (2, 3) and b.shape == (3, 4)
    assert arena.offsets == [0, 6] and (a.offset, b.offset) == (0, 6)
    assert (a.index, b.index) == (0, 1) and a.arena is arena
    with _scope(space):
        # both are views of the same slab, laid out back-to-back
        flat = arena.slab.kernel_view()
        assert np.shares_memory(a.kernel_view(), flat)
        assert np.shares_memory(b.kernel_view(), flat)
        a.kernel_view()[...] = 1.0
        b.kernel_view()[...] = 2.0
        assert np.array_equal(flat[:6], np.ones(6))
        assert np.array_equal(flat[6:], np.full(12, 2.0))


def test_host_arena_places_views_into_one_slab():
    _check_members_are_disjoint_segments_of_one_slab(HOST)


def test_device_arena_slices_are_disjoint_segments(device):
    _check_members_are_disjoint_segments_of_one_slab(device)


def _check_overflow_raises(space):
    arena = Arena(space, 10)
    arena.place((2, 4))
    with pytest.raises(ValueError, match="arena overflow"):
        arena.place((3,))


def test_host_arena_overflow_raises():
    _check_overflow_raises(HOST)


def test_device_arena_overflow_raises(device):
    _check_overflow_raises(device)


def _check_member_lifetime(space):
    """Idempotent free, use-after-free raises, the last member frees the
    slab (and not before)."""
    arena = Arena(space, 20)
    a, b = arena.place((10,)), arena.place((10,))
    a.free()
    a.free()  # must not double-release the slab
    with pytest.raises(RuntimeError, match="use after free"), _scope(space):
        a.kernel_view()
    with _scope(space):
        b.kernel_view()[...] = 1.0  # slab still live
    b.free()
    with pytest.raises(RuntimeError, match="use after free"), _scope(space):
        arena.slab.kernel_view()


def test_host_arena_member_lifetime():
    _check_member_lifetime(HOST)


def test_device_arena_use_after_free_raises(device):
    _check_member_lifetime(device)


def test_device_arena_is_one_allocation(device):
    before = device.bytes_allocated
    arena = Arena(device, 100)
    assert device.bytes_allocated == before + 100 * 8
    s1 = arena.place((5, 10))
    s2 = arena.place((50,))
    # slices carve the slab; no further device memory is allocated
    assert device.bytes_allocated == before + 100 * 8
    assert (s1.offset, s2.offset) == (0, 50)
    assert s1.nbytes == 50 * 8 and s2.size == 50


def test_device_arena_slab_freed_with_last_slice(device):
    arena = Arena(device, 60)
    slices = [arena.place((20,)) for _ in range(3)]
    for s in slices[:-1]:
        s.free()
    assert device.bytes_allocated == 60 * 8  # slab still live
    slices[-1].free()
    assert device.bytes_allocated == 0


def test_device_arena_slice_free_is_idempotent(device):
    arena = Arena(device, 20)
    a, b = arena.place((10,)), arena.place((10,))
    a.free()
    a.free()  # must not double-release the slab
    assert device.bytes_allocated == 20 * 8
    b.free()
    assert device.bytes_allocated == 0


# -- arena-pooled factory allocation ------------------------------------------


class _StubPatch:
    def __init__(self, box, owner=0):
        self.box = box
        self.owner = owner
        self.pds = {}

    def set_data(self, name, pd):
        self.pds[name] = pd


class _StubLevel:
    def __init__(self, patches):
        self.patches = patches
        self.box_array = BoxArray.from_boxes([p.box for p in patches])

    def frames(self, var):
        return var.frame(self.box_array)

    def local_patches(self, owner):
        return [p for p in self.patches if p.owner == owner]


class _StubComm:
    def __init__(self, ranks):
        self._ranks = ranks

    def rank(self, index):
        return self._ranks[index]


class _StubRank:
    def __init__(self, device):
        self.device = device


def _level():
    return _StubLevel([
        _StubPatch(Box((0, 0), (7, 7))),
        _StubPatch(Box((8, 0), (15, 7))),
        _StubPatch(Box((0, 8), (7, 15))),
    ])


def _check_factory_pools_level_into_one_slab(level, factory, comm, space):
    var = Variable("density", "cell", ghosts=2)
    factory.allocate_level(level, [var], comm)
    pds = [p.pds["density"] for p in level.patches]
    arena = pds[0]._arena
    assert all(pd._arena is arena and pd.space is space for pd in pds)
    assert [pd._arena_index for pd in pds] == [0, 1, 2]
    assert [pd.data.buf.index for pd in pds] == [0, 1, 2]
    frame = var.frame(level.patches[0].box)
    assert tuple(pds[0].data.buf.shape) == tuple(frame.shape())
    # one slab covering all three frames, members aliasing it
    assert arena.slab.size == 3 * frame.size() and len(arena.buckets) == 1
    with _scope(space):
        assert all(np.shares_memory(pd.data.array, arena.slab.kernel_view())
                   for pd in pds)
    return frame


def test_host_factory_pools_level_into_one_slab_per_variable():
    _check_factory_pools_level_into_one_slab(
        _level(), HostDataFactory(), _StubComm({}), HOST)


def test_cuda_factory_pools_level_into_one_device_slab(device):
    level = _level()  # holds the allocation while the ledger is read
    frame = _check_factory_pools_level_into_one_slab(
        level, CudaDataFactory(),
        _StubComm({0: _StubRank(device)}), device)
    assert device.bytes_allocated == 3 * frame.size() * 8


# -- union_pds / BatchMember --------------------------------------------------


def test_union_pds_is_identity_union_in_order():
    x, y, z = [0], [0], [1]  # x == y but distinct objects
    assert union_pds([(x, y), (x, z), (y,)]) == (x, y, z)
    assert union_pds([]) == ()


def test_batch_member_defaults():
    m = BatchMember(4, lambda: None)
    assert (m.elements, m.reads, m.writes, m.ghost_reads, m.marks) == \
        (4, (), (), (), ())


# -- run_batched edge cases ---------------------------------------------------


def test_run_batched_empty_returns_none():
    assert UNCHARGED_HOST.run_batched("k", []) is None


def test_run_batched_single_member_passthrough():
    hits = []
    m = BatchMember(3, lambda: hits.append("ran") or 7)
    assert UNCHARGED_HOST.run_batched("k", [m]) == 7
    assert hits == ["ran"]


def test_run_batched_combines_in_member_order():
    order = []

    def make(i):
        def body():
            order.append(i)
            return float(i)
        return BatchMember(1, body)

    result = UNCHARGED_HOST.run_batched(
        "hydro.calc_dt", [make(3), make(1), make(2)], combine=min)
    assert result == 1.0
    assert order == [3, 1, 2]  # bodies replay in collection order


# -- LaunchBatcher ------------------------------------------------------------


class _RecordingBackend:
    def __init__(self):
        self.calls = []
        self.transfers = []

    def run_batched(self, kernel, members, combine=None, ghost_only=False):
        self.calls.append((kernel, list(members)))
        results = [m.body() for m in members]
        return combine(results) if combine is not None else None

    def charge_transfer(self, direction, nbytes, stream=None):
        self.transfers.append((direction, nbytes))


class _Rank:
    def __init__(self, index):
        self.index = index


def _sink():
    """The immediate sink, as the inline driver's sweeps use it."""
    from repro.xfer.message import ImmediateSink

    return ImmediateSink(comm=None)


def test_batcher_groups_by_backend_kernel_level():
    b1, b2 = _RecordingBackend(), _RecordingBackend()
    batcher = LaunchBatcher(fuse=True)
    ms = [BatchMember(1, lambda: None) for _ in range(5)]
    batcher.collect(b1, _Rank(0), "hydro.pdv", ms[0], level=0)
    batcher.collect(b1, _Rank(0), "hydro.pdv", ms[1], level=0)
    batcher.collect(b1, _Rank(0), "hydro.pdv", ms[2], level=1)   # other level
    batcher.collect(b1, _Rank(0), "hydro.accel", ms[3], level=0)  # other kernel
    batcher.collect(b2, _Rank(1), "hydro.pdv", ms[4], level=0)   # other backend
    _sink().flush_fusion(batcher)
    assert [(k, len(m)) for k, m in b1.calls] == \
        [("hydro.pdv", 2), ("hydro.pdv", 1), ("hydro.accel", 1)]
    assert [(k, len(m)) for k, m in b2.calls] == [("hydro.pdv", 1)]
    assert b1.calls[0][1] == ms[:2]  # first-seen order, members in order
    # without fusion the same collector issues the per-patch launch shape
    unfused = LaunchBatcher(fuse=False)
    for m in ms[:2]:
        unfused.collect(b2, _Rank(1), "hydro.pdv", m, level=0)
    _sink().flush_fusion(unfused)
    assert b2.calls[1:] == [("hydro.pdv", [ms[0]]), ("hydro.pdv", [ms[1]])]


def test_batcher_flush_clears_state():
    backend = _RecordingBackend()
    batcher = LaunchBatcher(fuse=True)
    batcher.collect(backend, _Rank(0), "k", BatchMember(1, lambda: None),
                    level=0)
    sink = _sink()
    sink.flush_fusion(batcher)
    sink.flush_fusion(batcher)
    assert len(backend.calls) == 1


def test_batcher_reduction_hands_back_one_readback_per_group():
    backend = _RecordingBackend()
    batcher = LaunchBatcher(fuse=True)
    for v in (0.5, 0.25, 0.75):
        batcher.collect(backend, _Rank(3), "hydro.calc_dt",
                        BatchMember(1, lambda v=v: v), level=0, combine=min)
    [(owner, handle)] = _sink().flush_fusion(batcher)  # one per group
    assert owner == 3
    assert isinstance(handle, BatchSlot) and handle.result == 0.25
    # one 8-byte scalar crosses the bus per fused group, not one per patch
    assert backend.transfers == [("d2h", 8)]


def test_batcher_non_reduction_hands_back_nothing():
    batcher = LaunchBatcher(fuse=True)
    batcher.collect(_RecordingBackend(), _Rank(0), "k",
                    BatchMember(1, lambda: None), level=0)
    assert _sink().flush_fusion(batcher) == []
