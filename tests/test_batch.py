"""Units for the level-batched execution layer (:mod:`repro.pdat.arena`,
:mod:`repro.cupdat.arena`, :mod:`repro.exec.batch`).

End-to-end bitwise parity of ``--batch`` lives in
``test_backend_parity.py``; these tests pin the building blocks: arena
slab layout and lifetime, arena-pooled factory allocation, member
fusion bookkeeping, and ``run_batched`` edge cases.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cupdat.arena import DeviceArena
from repro.exec.backend import UNCHARGED_HOST
from repro.exec.batch import BatchMember, BatchSlot, LaunchBatcher, union_pds
from repro.gpu.device import K20X, Device
from repro.mesh.box import Box
from repro.mesh.variables import (
    CudaDataFactory,
    HostDataFactory,
    Variable,
)
from repro.pdat.arena import HostArena, frame_box_of
from repro.util.clock import VirtualClock


# -- host arena ---------------------------------------------------------------


def test_host_arena_places_views_into_one_slab():
    arena = HostArena(6 + 12)
    a = arena.place((2, 3))
    b = arena.place((3, 4))
    assert a.shape == (2, 3) and b.shape == (3, 4)
    assert arena.offsets == [0, 6]
    # both are views of the same slab, laid out back-to-back
    assert a.base is not None and a.base is b.base
    a[...] = 1.0
    b[...] = 2.0
    assert np.array_equal(arena.slab[:6], np.ones(6))
    assert np.array_equal(arena.slab[6:], np.full(12, 2.0))


def test_host_arena_overflow_raises():
    arena = HostArena(10)
    arena.place((2, 4))
    with pytest.raises(ValueError, match="arena overflow"):
        arena.place((3,))


# -- device arena -------------------------------------------------------------


@pytest.fixture
def device():
    return Device(K20X, VirtualClock())


def test_device_arena_is_one_allocation(device):
    before = device.bytes_allocated
    arena = DeviceArena(device, 100)
    assert device.bytes_allocated == before + 100 * 8
    s1 = arena.place((5, 10))
    s2 = arena.place((50,))
    # slices carve the slab; no further device memory is allocated
    assert device.bytes_allocated == before + 100 * 8
    assert (s1.offset, s2.offset) == (0, 50)
    assert s1.nbytes == 50 * 8 and s2.size == 50


def test_device_arena_slab_freed_with_last_slice(device):
    arena = DeviceArena(device, 60)
    slices = [arena.place((20,)) for _ in range(3)]
    for s in slices[:-1]:
        s.free()
    assert device.bytes_allocated == 60 * 8  # slab still live
    slices[-1].free()
    assert device.bytes_allocated == 0


def test_device_arena_slice_free_is_idempotent(device):
    arena = DeviceArena(device, 20)
    a, b = arena.place((10,)), arena.place((10,))
    a.free()
    a.free()  # must not double-release the slab
    assert device.bytes_allocated == 20 * 8
    b.free()
    assert device.bytes_allocated == 0


def test_device_arena_use_after_free_raises(device):
    arena = DeviceArena(device, 10)
    s = arena.place((10,))
    s.free()
    with pytest.raises(RuntimeError, match="use after free"):
        s.kernel_view()


def test_device_arena_slices_are_disjoint_segments(device):
    arena = DeviceArena(device, 12)
    a, b = arena.place((2, 3)), arena.place((6,))
    with device._memcpy_scope():
        a.kernel_view()[...] = 1.0
        b.kernel_view()[...] = 2.0
        flat = arena.slab.kernel_view()
        assert np.array_equal(flat[:6], np.ones(6))
        assert np.array_equal(flat[6:], np.full(6, 2.0))


def test_device_arena_overflow_raises(device):
    arena = DeviceArena(device, 8)
    arena.place((8,))
    with pytest.raises(ValueError, match="arena overflow"):
        arena.place((1,))


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


def test_host_factory_pools_level_into_one_slab_per_variable():
    level = _level()
    var = Variable("density", "cell", ghosts=2)
    HostDataFactory(arena=True).allocate_level(level, [var], _StubComm({}))
    arrays = [p.pds["density"].array for p in level.patches]
    assert all(a.base is not None for a in arrays)
    assert all(a.base is arrays[0].base for a in arrays)
    frame = tuple(frame_box_of(var, level.patches[0].box).shape())
    assert arrays[0].shape == frame


def test_cuda_factory_pools_level_into_one_device_slab(device):
    level = _level()
    var = Variable("density", "cell", ghosts=2)
    comm = _StubComm({0: _StubRank(device)})
    CudaDataFactory(arena=True).allocate_level(level, [var], comm)
    darrs = [p.pds["density"].data.darr for p in level.patches]
    assert all(d.arena is darrs[0].arena for d in darrs)
    # one slab allocation covering all three frames
    frame_elems = frame_box_of(var, level.patches[0].box).size()
    assert device.bytes_allocated == 3 * frame_elems * 8


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
