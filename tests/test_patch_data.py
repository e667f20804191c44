"""Tests for the one patch-data stack, in both memory spaces.

Every assertion is written once, against a ``space`` (the host space or a
simulated device) and, where it matters, a centring.  The case classes
below are bound to the host space in this file and to a device in
``test_cupdat.py``, which also holds the assertions only a device can make
(residency enforced, storage ops are kernels, PCIe crossed once, the
ledger).  ``fig3.py`` keeps the paper's Fig. 3 class names as constructors
for the (centring, space) pair each one names.
"""

import numpy as np
import pytest
from fig3 import CellData, NodeData, SideData
from hypothesis import given
from hypothesis import strategies as st

from repro.mesh.box import Box
from repro.mesh.variables import Variable
from repro.pdat import HOST, ArrayData
from repro.xfer.overlap import frame_box_for, index_box_for

BOX = Box([0, 0], [7, 7])


# -- index spaces: one definition ------------------------------------------------

CENTRINGS = [("cell", 0, (0, 0)), ("node", 0, (1, 1)),
             ("side", 0, (1, 0)), ("side", 1, (0, 1))]


class TestFrames:
    def test_cell_frame(self):
        assert Variable("q", "cell", 2).frame(BOX) == Box([-2, -2], [9, 9])

    def test_node_frame(self):
        assert Variable("q", "node", 2).frame(BOX) == Box([-2, -2], [10, 10])

    def test_side_frame_x(self):
        assert Variable("q", "side", 2, 0).frame(BOX) == Box([-2, -2], [10, 9])

    def test_side_frame_y(self):
        assert Variable("q", "side", 2, 1).frame(BOX) == Box([-2, -2], [9, 10])

    @pytest.mark.parametrize("centring,axis,offset", CENTRINGS)
    @pytest.mark.parametrize("ghosts", [0, 1, 2, 3])
    def test_frame_is_index_box_of_grown_box(self, centring, axis, offset, ghosts):
        var = Variable("q", centring, ghosts, axis)
        assert tuple(var.offset) == offset
        frame = var.frame(BOX)
        assert frame == var.index_box(BOX.grow(ghosts)) == frame_box_for(var, BOX)
        assert index_box_for(var, BOX) == Box(
            [0, 0], [7 + offset[0], 7 + offset[1]])
        assert frame == Box([-ghosts] * 2, [7 + ghosts + offset[0],
                                            7 + ghosts + offset[1]])
        # cell_box inverts it: a zero-ghost block over that cell box has
        # exactly this frame
        cells = var.cell_box(frame)
        assert cells == BOX.grow(ghosts)
        assert Variable("t", centring, 0, axis).frame(cells) == frame


# -- the array store ---------------------------------------------------------------


class StoreCases:
    """``ArrayData`` behaviour in whatever ``space`` the binding provides."""

    def test_shape_matches_frame(self, space):
        ad = ArrayData(Box([-1, -1], [4, 4]), space)
        assert ad.to_host_array().shape == (6, 6)

    def test_fill_and_view(self, space):
        ad = ArrayData(Box([0, 0], [3, 3]), space, fill=0.0)
        ad.fill(5.0, Box([1, 1], [2, 2]))
        host = ad.to_host_array()
        assert host.sum() == 20.0
        assert host[1, 1] == 5.0

    def test_copy_from(self, space):
        a = ArrayData(Box([0, 0], [3, 3]), space, fill=1.0)
        b = ArrayData(Box([0, 0], [3, 3]), space, fill=0.0)
        b.copy_from(a, Box([0, 0], [1, 3]))
        host = b.to_host_array()
        assert host[:2].sum() == 8.0
        assert host[2:].sum() == 0.0

    def test_copy_with_shift(self, space):
        a = ArrayData(Box([0, 0], [3, 3]), space)
        data = np.arange(16.0).reshape(4, 4)
        a.from_host_array(data)
        b = ArrayData(Box([0, 0], [3, 3]), space, fill=0.0)
        b.copy_from(a, Box([0, 0], [0, 3]), src_shift=(2, 0))
        assert np.array_equal(b.to_host_array()[0], data[2])

    def test_pack_unpack_roundtrip(self, space):
        frame = Box([-2, -2], [5, 5])
        src = ArrayData(frame, space)
        data = np.random.default_rng(0).random(tuple(frame.shape()))
        src.from_host_array(data)
        dst = ArrayData(frame, space, fill=0.0)
        region = Box([-1, 0], [3, 2])
        buf = src.pack(region)
        assert buf.shape == (region.size(),)
        dst.unpack(buf, region)
        sl = region.slices_in(frame)
        assert np.array_equal(dst.to_host_array()[sl], data[sl])

    def test_unpack_size_mismatch(self, space):
        a = ArrayData(Box([0, 0], [3, 3]), space)
        with pytest.raises(ValueError):
            a.unpack(np.zeros(3), Box([0, 0], [1, 1]))

    def test_preallocated_storage_must_match_frame(self, space):
        with pytest.raises(ValueError, match="frame shape"):
            ArrayData(Box([0, 0], [3, 3]), space, buf=space.empty((4, 5)))

    def test_host_mirror_never_aliases_storage(self, space):
        ad = ArrayData(Box([0, 0], [3, 3]), space, fill=1.0)
        ad.to_host_array()[...] = 9.0
        assert np.all(ad.to_host_array() == 1.0)


class TestArrayData(StoreCases):
    @pytest.fixture
    def space(self):
        return HOST

    def test_host_array_is_addressable_anywhere(self):
        ad = ArrayData(Box([-1, -1], [4, 4]), HOST, fill=2.0)
        assert ad.array.shape == (6, 6) and np.all(ad.array == 2.0)
        assert ad.view(Box([1, 1], [1, 1]))[0, 0] == 2.0


# -- PatchData over each centring --------------------------------------------------


class CentringCases:
    """The Fig. 2 interface, in whatever ``space`` the binding provides.

    Parametrised by the binding over ``(cls, kwargs, ...)`` rows whose
    ``cls`` is a Fig. 3 constructor taking ``space=``."""

    def make(self, space, cls, kwargs, ghosts=2):
        return cls(BOX, ghosts, space=space, **kwargs)

    def check_storage_shape(self, space, cls, kwargs, extra):
        pd = self.make(space, cls, kwargs)
        assert tuple(pd.get_ghost_box().shape()) == (
            8 + 4 + extra[0], 8 + 4 + extra[1])
        assert pd.box == BOX and pd.var.ghosts == 2

    def check_copy_region(self, space, cls, kwargs):
        a = self.make(space, cls, kwargs)
        b = self.make(space, cls, kwargs)
        a.fill(3.0)
        b.fill(0.0)
        region = Box([0, 0], [2, 2])
        b.copy(a, region)
        sl = region.slices_in(b.get_ghost_box())
        assert b.to_host()[sl].sum() == 27.0
        assert b.to_host().sum() == 27.0

    def check_stream_roundtrip(self, space, cls, kwargs):
        a = self.make(space, cls, kwargs)
        data = np.random.default_rng(1).random(tuple(a.get_ghost_box().shape()))
        a.from_host(data)
        region = Box([-1, 0], [2, 3])
        buf = a.pack_stream(region)
        assert buf.ndim == 1 and buf.size == region.size()
        b = self.make(space, cls, kwargs)
        b.fill(0.0)
        b.unpack_stream(buf, region)
        sl = region.slices_in(a.get_ghost_box())
        assert np.array_equal(b.to_host()[sl], data[sl])

    def check_stream_size(self, space, cls, kwargs):
        pd = self.make(space, cls, kwargs)
        assert pd.get_data_stream_size(Box([0, 0], [3, 1])) == 8 * 8

    def check_timestamp(self, space, cls, kwargs):
        pd = self.make(space, cls, kwargs)
        pd.set_time(1.25)
        assert pd.get_time() == 1.25

    def check_restart_roundtrip(self, space, cls, kwargs):
        a = self.make(space, cls, kwargs)
        data = np.random.default_rng(2).random(tuple(a.get_ghost_box().shape()))
        a.from_host(data)
        a.set_time(0.7)
        db = {}
        a.put_to_restart(db)
        a.fill(-1.0)  # a checkpoint database never aliases live storage
        assert np.array_equal(db["array"], data)
        b = self.make(space, cls, kwargs)
        b.fill(0.0)
        b.get_from_restart(db)
        assert np.array_equal(b.to_host(), data)
        assert b.get_time() == 0.7


@pytest.mark.parametrize("cls,kwargs,extra", [
    (CellData, {}, (0, 0)),
    (NodeData, {}, (1, 1)),
    (SideData, {"axis": 0}, (1, 0)),
    (SideData, {"axis": 1}, (0, 1)),
])
class TestCentrings(CentringCases):
    def test_storage_shape(self, cls, kwargs, extra):
        self.check_storage_shape(HOST, cls, kwargs, extra)

    def test_interior_shape(self, cls, kwargs, extra):
        pd = self.make(HOST, cls, kwargs)
        assert pd.interior().shape == (8 + extra[0], 8 + extra[1])

    def test_copy_region(self, cls, kwargs, extra):
        self.check_copy_region(HOST, cls, kwargs)

    def test_pack_unpack_stream(self, cls, kwargs, extra):
        self.check_stream_roundtrip(HOST, cls, kwargs)

    def test_stream_size(self, cls, kwargs, extra):
        self.check_stream_size(HOST, cls, kwargs)

    def test_timestamp(self, cls, kwargs, extra):
        self.check_timestamp(HOST, cls, kwargs)

    def test_restart_roundtrip(self, cls, kwargs, extra):
        self.check_restart_roundtrip(HOST, cls, kwargs)


class TestSideDataSpecifics:
    def test_axis_validation(self):
        with pytest.raises(ValueError, match="bad axis"):
            SideData(BOX, 2, axis=5)

    def test_copy_axis_mismatch(self):
        a = SideData(BOX, 2, axis=0)
        b = SideData(BOX, 2, axis=1)
        with pytest.raises(ValueError):
            a.copy(b, Box([0, 0], [1, 1]))


@given(st.integers(0, 3), st.integers(0, 3), st.integers(1, 4), st.integers(1, 4))
def test_pack_unpack_property(lo0, lo1, e0, e1):
    """Pack→unpack into a fresh CellData reproduces any region exactly."""
    region = Box([lo0, lo1], [lo0 + e0 - 1, lo1 + e1 - 1])
    a = CellData(BOX, 2)
    rng = np.random.default_rng(lo0 * 64 + lo1 * 16 + e0 * 4 + e1)
    a.data.array[...] = rng.random(a.data.array.shape)
    b = CellData(BOX, 2, fill=0.0)
    b.unpack_stream(a.pack_stream(region), region)
    assert np.array_equal(a.view(region), b.view(region))
