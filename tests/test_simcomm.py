"""Tests for the simulated MPI layer and its clock accounting."""

import math

import pytest

from repro.comm.simcomm import Message, SimCommunicator
from repro.gpu.device import K20X
from repro.perf.machines import FDR_INFINIBAND, GEMINI, IPA_CPU_NODE


def make(nranks, gpus=False, net=FDR_INFINIBAND):
    return SimCommunicator(nranks, IPA_CPU_NODE, net, K20X if gpus else None)


class TestConstruction:
    def test_size(self):
        assert make(4).size == 4

    def test_zero_ranks_rejected(self):
        with pytest.raises(ValueError):
            make(0)

    def test_gpu_per_rank(self):
        comm = make(2, gpus=True)
        assert comm.rank(0).device is not None
        assert comm.rank(0).device is not comm.rank(1).device

    def test_no_gpu(self):
        assert make(1).rank(0).device is None


class TestCollectives:
    def test_allreduce_min_value(self):
        comm = make(4)
        assert comm.allreduce_min([4.0, 2.0, 3.0, 9.0]) == 2.0

    def test_allreduce_synchronises_clocks(self):
        comm = make(4)
        comm.rank(2).cpu_charge(1.0)  # one slow rank
        comm.allreduce_min([0.0] * 4)
        times = [r.clock.time for r in comm.ranks]
        assert all(t == times[0] for t in times)
        assert times[0] > 1.0

    def test_allreduce_cost_scales_with_log_p(self):
        costs = {}
        for p in (2, 16):
            comm = make(p)
            comm.allreduce_min([0.0] * p)
            costs[p] = comm.max_time()
        assert costs[16] == pytest.approx(costs[2] * 4, rel=1e-9)

    def test_single_rank_allreduce_free(self):
        comm = make(1)
        comm.allreduce_min([1.0])
        assert comm.max_time() == 0.0

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError):
            make(2).allreduce_min([1.0])

    def test_allgather_charges_total_bytes(self):
        comm = make(4)
        comm.allgather([1000] * 4)
        expected = (math.ceil(math.log2(4)) * FDR_INFINIBAND.latency
                    + 4000 / FDR_INFINIBAND.bandwidth)
        assert comm.max_time() == pytest.approx(expected)


class TestExchange:
    def test_self_message_free(self):
        comm = make(2)
        comm.exchange([Message(0, 0, 10**6)])
        assert comm.max_time() == 0.0

    def test_receiver_waits_for_sender(self):
        comm = make(2)
        comm.rank(0).cpu_charge(1.0)  # sender is behind
        comm.exchange([Message(0, 1, 8000)])
        assert comm.rank(1).clock.time >= 1.0

    def test_sends_serialise_on_one_rank(self):
        comm = make(3)
        comm.exchange([Message(0, 1, 10**6), Message(0, 2, 10**6)])
        expected = 2 * FDR_INFINIBAND.message_cost(10**6)
        assert comm.rank(0).clock.time == pytest.approx(expected)

    def test_bandwidth_model(self):
        comm = make(2, net=GEMINI)
        comm.exchange([Message(0, 1, 4_700_000)])
        # 4.7 MB over 4.7 GB/s = 1 ms plus latency
        assert comm.rank(1).clock.time == pytest.approx(1e-3, rel=1e-2)


class TestNonBlocking:
    def test_isend_leaves_the_sender_and_wait_recv_blocks_the_receiver(self):
        comm = make(2)
        handle = comm.isend(Message(0, 1, 10**6))
        cost = FDR_INFINIBAND.message_cost(10**6)
        assert handle.done == pytest.approx(cost)
        assert comm.rank(0).clock.time == 0.0  # the host did not block
        comm.wait_recv(handle)
        assert comm.rank(1).clock.time == pytest.approx(cost)

    def test_a_ranks_nic_serialises_its_sends(self):
        comm = make(3)
        comm.rank(0).cpu_charge(1.0)
        first = comm.isend(Message(0, 1, 10**6))
        second = comm.isend(Message(0, 2, 10**6))
        cost = FDR_INFINIBAND.message_cost(10**6)
        assert first.done == pytest.approx(1.0 + cost)  # from the host time
        assert second.done == pytest.approx(first.done + cost)

    def test_self_message_completes_at_once(self):
        comm = make(2)
        comm.rank(1).cpu_charge(0.5)
        assert comm.isend(Message(1, 1, 10**6)).done == 0.5
        comm.wait_all_sends()
        assert comm.rank(0).clock.time == 0.0

    def test_wait_all_sends_waits_for_each_ranks_own_nic(self):
        comm = make(3)
        comm.isend(Message(0, 2, 10**6))
        comm.isend(Message(0, 1, 10**6))
        comm.isend(Message(1, 2, 8))
        comm.wait_all_sends()
        assert comm.rank(0).clock.time == pytest.approx(
            2 * FDR_INFINIBAND.message_cost(10**6))
        assert comm.rank(1).clock.time == pytest.approx(
            FDR_INFINIBAND.message_cost(8))
        assert comm.rank(2).clock.time == 0.0  # receivers wait in wait_recv


class TestCpuModel:
    def test_bandwidth_bound_kernel(self):
        comm = make(1)
        r = comm.rank(0)
        t0 = r.clock.time
        r.cpu_run("hydro.reset_field", 10**6, lambda: None)  # 96 B/elem
        cost = r.clock.time - t0
        expect = IPA_CPU_NODE.kernel_overhead + 96e6 / IPA_CPU_NODE.dram_bandwidth
        assert cost == pytest.approx(expect)

    def test_returns_function_value(self):
        comm = make(1)
        assert comm.rank(0).cpu_run("x", 1, lambda: 42) == 42

    def test_negative_charge_rejected(self):
        comm = make(1)
        with pytest.raises(ValueError):
            comm.rank(0).cpu_charge(-1.0)
