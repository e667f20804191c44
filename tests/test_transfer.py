"""Region transfers through the sink verbs every schedule uses.

A same-rank move is ``ImmediateSink.copy`` (one fused copy in the data's
memory space); a cross-rank move is ``ImmediateSink.stream_batch``: pack
kernel → D2H → one message → H2D → unpack kernel (paper Fig. 4).  The
recorded twin, ``GraphBuilder.stream_batch``, is pinned in ``test_sched.py``.
"""

import numpy as np
import pytest
from fig3 import CellData, CudaCellData

from repro.comm.simcomm import SimCommunicator
from repro.gpu.device import K20X
from repro.mesh.box import Box
from repro.perf.machines import FDR_INFINIBAND, IPA_CPU_NODE
from repro.xfer.message import MESSAGE_HEADER_BYTES, ImmediateSink

BOX = Box([0, 0], [7, 7])
REGION = Box([2, 2], [5, 5])


@pytest.fixture
def comm():
    return SimCommunicator(2, IPA_CPU_NODE, FDR_INFINIBAND, K20X)


@pytest.fixture
def posted(comm, monkeypatch):
    """Every message handed to the network when a sink closes."""
    seen = []
    exchange = comm.exchange
    monkeypatch.setattr(
        comm, "exchange", lambda msgs: (seen.extend(msgs), exchange(msgs))[1])
    return seen


def host_pd(value):
    return CellData(BOX, 2, fill=value)


def device_pd(device, value):
    return CudaCellData(BOX, 2, device, fill=value)


def region_of(pd):
    return pd.to_host()[REGION.slices_in(pd.get_ghost_box())]


class TestSameRank:
    def test_host_to_host(self, comm):
        src, dst = host_pd(3.0), host_pd(0.0)
        ImmediateSink(comm).copy(comm.rank(0), [(dst, src, REGION)], "copy")
        assert np.all(dst.view(REGION) == 3.0)
        assert dst.array.sum() == 3.0 * 16

    def test_device_to_device(self, comm):
        dev = comm.rank(0).device
        src, dst = device_pd(dev, 4.0), device_pd(dev, 0.0)
        pcie0 = dev.stats.bytes_d2h + dev.stats.bytes_h2d
        ImmediateSink(comm).copy(comm.rank(0), [(dst, src, REGION)], "copy")
        assert dev.stats.bytes_d2h + dev.stats.bytes_h2d == pcie0  # no PCIe
        assert dst.to_host().sum() == 4.0 * 16

    def test_empty_region_noop(self, comm):
        src, dst = host_pd(1.0), host_pd(0.0)
        ImmediateSink(comm).copy(
            comm.rank(0), [(dst, src, Box.empty())], "copy")
        assert np.all(dst.data.array == 0.0)


class TestCrossRank:
    def test_host_cross_rank(self, comm, posted):
        src, dst = host_pd(6.0), host_pd(0.0)
        sink = ImmediateSink(comm)
        sink.stream_batch(comm.rank(0), comm.rank(1), [(src, REGION)],
                          [(dst, REGION)], "halo")
        assert np.all(dst.view(REGION) == 6.0)
        assert posted == []  # the network is charged once, at close
        sink.close()
        assert len(posted) == 1
        m = posted[0]
        assert (m.src, m.dst) == (0, 1)
        assert m.nbytes == REGION.size() * 8 + MESSAGE_HEADER_BYTES

    def test_device_cross_rank_full_path(self, comm, posted):
        """Fig. 4: pack kernel -> D2H -> MPI -> H2D -> unpack kernel."""
        d0, d1 = comm.rank(0).device, comm.rank(1).device
        src = device_pd(d0, 7.0)
        dst = device_pd(d1, 0.0)
        live = (d0.bytes_allocated, d1.bytes_allocated)
        sink = ImmediateSink(comm)
        sink.stream_batch(comm.rank(0), comm.rank(1), [(src, REGION)],
                          [(dst, REGION)], "halo")
        sink.close()
        assert d0.stats.bytes_d2h == REGION.size() * 8
        assert d1.stats.bytes_h2d == REGION.size() * 8
        assert d0.stats.launches_by_name.get("pdat.pack", 0) == 1
        assert d1.stats.launches_by_name.get("pdat.unpack", 0) == 1
        assert [m.nbytes for m in posted] == [
            REGION.size() * 8 + MESSAGE_HEADER_BYTES]
        assert (d0.bytes_allocated, d1.bytes_allocated) == live
        assert np.all(region_of(dst) == 7.0)

    def test_clock_charges_on_both_ranks(self, comm):
        src = device_pd(comm.rank(0).device, 1.0)
        dst = device_pd(comm.rank(1).device, 0.0)
        t0 = (comm.rank(0).clock.time, comm.rank(1).clock.time)
        ImmediateSink(comm).stream_batch(
            comm.rank(0), comm.rank(1), [(src, REGION)], [(dst, REGION)],
            "halo")
        assert comm.rank(0).clock.time > t0[0]  # pack + D2H
        assert comm.rank(1).clock.time > t0[1]  # H2D + unpack
