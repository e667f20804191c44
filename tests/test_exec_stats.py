"""Tests for the backend observability layer: modelled events counted in
the rank's metrics registry, read by repro.exec.stats."""

from __future__ import annotations

import numpy as np
import pytest

from repro import make_communicator
from repro.exec.stats import (attribution_report, kernel_category,
                              tuning_signals)
from repro.mesh.box import Box, IntVector
from repro.obs.metrics import MetricsRegistry
from counts import count_event


def box2(nx, ny):
    return Box(IntVector((0, 0)), IntVector((nx - 1, ny - 1)))


def _kernel(reg, name, elements, seconds, on):
    count_event(reg, "kernel", (name, on), 1, elements, seconds)


class TestExecStats:
    def test_record_and_totals(self):
        s = MetricsRegistry()
        _kernel(s, "hydro.pdv", 100, 0.5, "gpu")
        _kernel(s, "hydro.pdv", 50, 0.25, "gpu")
        _kernel(s, "hydro.pdv", 10, 0.1, "cpu")
        count_event(s, "transfer", ("d2h",), 1, 800, 0.01)
        got = tuple(s.value(f"kernel.{f}", kernel="hydro.pdv", on="gpu")
                    for f in ("launches", "elements", "seconds"))
        assert got == (2, 150, 0.75)
        assert s.value("kernel.launches", kernel="hydro.pdv", on="cpu") == 1
        assert s.total("kernel.seconds") == pytest.approx(0.85)
        assert s.total("transfer.seconds") == pytest.approx(0.01)

    def test_merge_and_reset(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        _kernel(a, "k", 1, 1.0, "cpu")
        _kernel(b, "k", 2, 2.0, "cpu")
        count_event(b, "transfer", ("h2d",), 1, 8, 0.1)
        merged = MetricsRegistry.merged([a, b])
        assert merged.value("kernel.launches", kernel="k", on="cpu") == 2
        assert merged.value("transfer.bytes", direction="h2d") == 8
        # merging copies: the ranks' own stores are left as they were
        assert a.value("kernel.launches", kernel="k", on="cpu") == 1
        assert not MetricsRegistry.merged([]).snapshot()["counters"]

    def test_tuning_signals_of_an_empty_registry_are_neutral(self):
        assert tuning_signals(MetricsRegistry()) == {
            "kernel_launches": 0.0, "batched_launches": 0.0,
            "patches_per_launch": 1.0, "slab_fused": 0.0,
            "slab_fallback_rate": 0.0, "kernel_seconds": 0.0,
            "transfer_seconds": 0.0,
            # nothing overlapped: every async second would be exposed
            "exposed_wait_fraction": 1.0, "schedule_cache_hit_rate": 0.0}

    def test_tuning_signals_distil_the_counters(self):
        s = MetricsRegistry()
        _kernel(s, "hydro.pdv", 100, 0.5, "gpu")
        # (launches, members, saved, host seconds, slab fused, fallback)
        count_event(s, "batch", ("hydro.pdv",), 2, 12, 0.0, 0.0, 3, 1)
        # never slab-fused: its fallback is not evidence against slab
        count_event(s, "batch", ("pdat.pack",), 2, 4, 0.0, 0.0, 0, 5)
        count_event(s, "schedule_cache", ("refine",), 3, 1)
        s.record_overlap(2.0, 0.5)
        sig = tuning_signals(s)
        assert sig["batched_launches"] == 4.0
        assert sig["patches_per_launch"] == 4.0
        assert sig["slab_fused"] == 3.0
        assert sig["slab_fallback_rate"] == 0.25
        assert sig["exposed_wait_fraction"] == 0.25
        assert sig["schedule_cache_hit_rate"] == 0.75
        assert sig["kernel_launches"] == 1.0

    def test_kernel_categories(self):
        assert kernel_category("hydro.pdv") == "hydro"
        assert kernel_category("hydro.calc_dt") == "timestep"
        assert kernel_category("pdat.pack") == "data-motion"
        assert kernel_category("geom.refine") == "data-motion"
        assert kernel_category("regrid.tag") == "regrid"
        assert kernel_category("mystery") == "other"

    def test_report_renders(self):
        s = MetricsRegistry()
        _kernel(s, "hydro.pdv", 100, 0.5, "gpu")
        count_event(s, "transfer", ("d2h",), 1, 1000, 0.02)
        s.gauge("phase.seconds", phase="hydro").set(0.5)
        text = "\n".join(attribution_report(s))
        assert "hydro.pdv" in text
        assert "d2h" in text
        assert "virtual time" in text


class TestRankRecording:
    def test_cpu_run_records(self):
        comm = make_communicator("IPA", 1, gpus=False)
        rank = comm.rank(0)
        rank.cpu_run("pdat.copy", 64, lambda: None)
        m = rank.metrics
        assert m.value("kernel.launches", kernel="pdat.copy", on="cpu") == 1
        assert m.value("kernel.elements", kernel="pdat.copy", on="cpu") == 64
        assert m.value("kernel.seconds", kernel="pdat.copy", on="cpu") > 0

    def test_device_shares_rank_sink(self):
        comm = make_communicator("IPA", 1, gpus=True)
        rank = comm.rank(0)
        assert rank.device.metrics is rank.metrics
        rank.device.launch("pdat.fill", 128, lambda: None)
        assert rank.metrics.value("kernel.launches", kernel="pdat.fill",
                                  on="gpu") == 1

    def test_memcpy_directions_recorded(self):
        comm = make_communicator("IPA", 1, gpus=True)
        rank = comm.rank(0)
        host = np.zeros(16)
        darr = rank.device.from_host(host)
        rank.device.to_host(darr)
        m = rank.metrics
        assert m.value("transfer.bytes", direction="h2d") == host.nbytes
        assert m.value("transfer.bytes", direction="d2h") == host.nbytes
        assert m.value("transfer.count", direction="h2d") == 1


class TestBackendDispatch:
    def test_backend_for_follows_data(self):
        from repro.exec.backend import backend_for
        from repro.mesh.variables import CudaDataFactory, HostDataFactory, Variable

        comm = make_communicator("IPA", 1, gpus=True)
        rank = comm.rank(0)
        var = Variable("q", "cell", 2)
        host_pd = HostDataFactory().allocate(var, box2(8, 8), rank)
        dev_pd = CudaDataFactory().allocate(var, box2(8, 8), rank)
        assert backend_for(host_pd, rank) is rank.host_backend
        assert backend_for(dev_pd, rank) is rank.resident_backend

    def test_nonresident_backend_requires_device(self):
        comm = make_communicator("IPA", 1, gpus=False)
        with pytest.raises(ValueError, match="needs a device"):
            comm.rank(0).nonresident_backend

    def test_stats_report_api(self):
        comm = make_communicator("IPA", 1, gpus=False)
        rank = comm.rank(0)
        rank.cpu_run("hydro.pdv", 10, lambda: None)
        report = "\n".join(attribution_report(rank.metrics))
        assert "hydro.pdv" in report and "kernel attribution" in report
        assert "virtual time" not in report  # no phase was timed
