"""The observability layer: tracing is observation-only, traces are
schema-valid, and the metrics registry merges ranks correctly.

The load-bearing guarantee (DESIGN.md §10) is that emission reads
virtual clocks but never advances them: a traced run must be bitwise-
and virtual-time-identical to an untraced run on every backend, under
both ablation toggles that reshape the execution (``--overlap`` and
``--batch``).  The rest of this file pins the Chrome-trace schema and
the rank-merge semantics (counters sum, gauges max, histograms pool).
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.api import (ExecutionPolicy, ObservabilityConfig, RegridPolicy,
                       RunConfig, run)
from repro.hydro.diagnostics import gather_level_field
from repro.hydro.problems import SodProblem
from repro.obs import (
    CATEGORIES,
    ChromeTraceSink,
    Counter,
    Gauge,
    Histogram,
    MemorySink,
    MetricsRegistry,
    Span,
    Tracer,
    canonical_lane,
    chrome_trace_events,
    validate_chrome_trace,
    validate_file,
)
from counts import count_event

FIELDS = ("density0", "energy0", "pressure", "xvel0", "yvel0")

#: backend x execution-shape matrix for the parity guarantee
PARITY_CASES = [
    ("host-overlap", dict(use_gpu=False,
                          execution=ExecutionPolicy(overlap=True))),
    ("host-batch", dict(use_gpu=False, execution=ExecutionPolicy(batch=True))),
    ("resident-overlap", dict(use_gpu=True, resident=True,
                              execution=ExecutionPolicy(overlap=True))),
    ("resident-batch", dict(use_gpu=True, resident=True,
                            execution=ExecutionPolicy(batch=True))),
    ("nonresident-overlap", dict(use_gpu=True, resident=False,
                                 execution=ExecutionPolicy(overlap=True))),
    ("nonresident-batch", dict(use_gpu=True, resident=False,
                               execution=ExecutionPolicy(batch=True))),
]


def _config(trace: bool, **kwargs) -> RunConfig:
    return RunConfig(
        problem=SodProblem((32, 32)),
        nranks=2,
        max_levels=2,
        max_patch_size=16,
        regrid=RegridPolicy(interval=3),
        max_steps=5,
        observability=ObservabilityConfig(trace=trace),
        **kwargs,
    )


@pytest.fixture(scope="module")
def parity_runs():
    return {label: (run(_config(False, **kw)), run(_config(True, **kw)))
            for label, kw in PARITY_CASES}


# -- tracing is observation-only ----------------------------------------------


@pytest.mark.parametrize("label", [c[0] for c in PARITY_CASES])
def test_traced_run_bitwise_identical(parity_runs, label):
    """Tracing changes no field bit on any backend or execution shape."""
    plain, traced = parity_runs[label]
    assert traced.steps == plain.steps
    assert traced.sim.hierarchy.num_levels == plain.sim.hierarchy.num_levels
    for lnum in range(plain.sim.hierarchy.num_levels):
        for field in FIELDS:
            a = gather_level_field(plain.sim.hierarchy.level(lnum), field)
            b = gather_level_field(traced.sim.hierarchy.level(lnum), field)
            assert np.array_equal(a, b, equal_nan=True), (
                f"{field} diverged on level {lnum} under tracing ({label})"
            )


@pytest.mark.parametrize("label", [c[0] for c in PARITY_CASES])
def test_traced_run_virtual_time_identical(parity_runs, label):
    """Emission never advances a clock: modelled time matches exactly."""
    plain, traced = parity_runs[label]
    assert traced.runtime == plain.runtime
    assert traced.dt_history == plain.dt_history


@pytest.mark.parametrize("label", [c[0] for c in PARITY_CASES])
def test_traced_run_collected_spans(parity_runs, label):
    """The traced twin actually recorded a timeline."""
    _, traced = parity_runs[label]
    assert traced.trace_spans
    assert all(s.category in CATEGORIES for s in traced.trace_spans)
    ranks = {s.rank for s in traced.trace_spans}
    assert ranks == {0, 1}


def test_untraced_run_collects_nothing(parity_runs):
    plain, _ = parity_runs["resident-overlap"]
    assert plain.trace_spans == []
    assert plain.trace_path is None


# -- Chrome-trace schema (golden file) ----------------------------------------


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "sod.json"
    res = run(RunConfig(
        problem=SodProblem((32, 32)),
        nranks=2,
        max_levels=2,
        max_patch_size=16,
        max_steps=5,
        # mode="auto" so the tuner's probes land tune-category spans in
        # the same file the run's kernel/transfer/comm spans go to
        execution=ExecutionPolicy(mode="auto", overlap=True, batch=True),
        observability=ObservabilityConfig(trace_path=str(path)),
    ))
    return res, path


def test_trace_file_written_and_schema_valid(trace_file):
    res, path = trace_file
    assert res.trace_path == str(path)
    assert validate_file(str(path)) == []


def test_trace_file_covers_all_span_categories(trace_file):
    """An overlapped, batched multi-rank run exercises every category:
    kernels, fused launches, transfers, comm, tasks, waits, phases."""
    _, path = trace_file
    assert validate_file(str(path),
                         require_categories=sorted(CATEGORIES)) == []


def test_trace_file_has_one_track_per_rank_stream(trace_file):
    res, path = trace_file
    with open(path) as f:
        doc = json.load(f)
    named = {(e["pid"], e["args"]["name"]) for e in doc["traceEvents"]
             if e["ph"] == "M" and e["name"] == "thread_name"}
    # every (rank, lane) the tracer saw has a named track in the file
    expected = {(s.rank, s.lane) for s in res.trace_spans}
    assert named == expected
    assert validate_file(str(path), require_tracks=len(expected)) == []


def test_chrome_trace_events_structure():
    spans = [
        Span("k", "kernel", 0, "compute", 0.0, 1.0),
        Span("x", "transfer", 0, "d2h", 1.0, 2.0, payload={"bytes": 8}),
        Span("s", "comm", 1, "net", 0.0, 0.5),
    ]
    events = chrome_trace_events(spans)
    meta = [e for e in events if e["ph"] == "M"]
    complete = [e for e in events if e["ph"] == "X"]
    assert len(complete) == 3
    # one thread_name per (rank, lane), one process_name per rank
    assert sum(e["name"] == "thread_name" for e in meta) == 3
    assert sum(e["name"] == "process_name" for e in meta) == 2
    xfer = next(e for e in complete if e["cat"] == "transfer")
    assert xfer["args"]["bytes"] == 8
    assert xfer["ts"] == pytest.approx(1e6)
    assert xfer["dur"] == pytest.approx(1e6)
    assert validate_chrome_trace(
        {"traceEvents": events, "displayTimeUnit": "ms"}) == []


def test_validator_rejects_bad_documents():
    assert validate_chrome_trace([]) == ["top level is not a JSON object"]
    assert validate_chrome_trace({}) == ["missing or non-list 'traceEvents'"]
    bad = {"traceEvents": [
        {"name": "k", "cat": "nonsense", "ph": "X", "pid": 0, "tid": 0,
         "ts": 0.0, "dur": -1.0},
    ], "displayTimeUnit": "ms"}
    errors = validate_chrome_trace(bad)
    assert any("negative 'dur'" in e for e in errors)
    assert any("unknown category" in e for e in errors)
    assert any("no thread_name" in e for e in errors)


def _three_track_spans():
    return [Span("k", "kernel", 0, "compute", 0.0, 1.0),
            Span("x", "transfer", 0, "d2h", 1.0, 2.0),
            Span("s", "comm", 1, "net", 0.0, 0.5)]


def test_validate_command_accepts_what_the_sink_writes(tmp_path, capsys):
    from repro.obs.validate import main

    path = str(tmp_path / "t.json")
    ChromeTraceSink(path).write(_three_track_spans())
    assert main([path, "--require-tracks", "3",
                 "--require-categories", "kernel", "comm"]) == 0
    assert capsys.readouterr().out == f"{path}: trace schema valid\n"


def test_validate_command_exits_with_its_error_count(tmp_path, capsys):
    from repro.obs.validate import main

    path = str(tmp_path / "t.json")
    ChromeTraceSink(path).write(_three_track_spans())
    assert main([path, "--require-tracks", "4",
                 "--require-categories", "fused"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out == ["only 3 (rank, stream) track(s), required >= 4",
                   "required span category 'fused' never appears",
                   "2 trace schema error(s)"]
    assert main([str(tmp_path / "missing.json")]) == 1


# -- tracer mechanics ---------------------------------------------------------


def test_tracer_canonicalises_lanes_and_tracks():
    t = Tracer()
    t.emit("a", "kernel", 0, "HtoD", 0.0, 1.0)
    t.emit("b", "kernel", 1, "CPU", 0.0, 1.0)
    assert [(s.rank, s.lane) for s in t.spans] == [(0, "h2d"), (1, "host")]


def test_tracer_close_flushes_sinks_once():
    sink = MemorySink()
    t = Tracer([sink])
    t.emit("a", "kernel", 0, "compute", 0.0, 1.0)
    t.close()
    t.close()  # idempotent
    assert len(sink.spans) == 1


def test_activate_tracer_installs_one_tracer_at_a_time():
    from repro.obs import activate_tracer, active_tracer, deactivate_tracer

    assert active_tracer() is None
    t = Tracer()
    activate_tracer(t)
    try:
        assert active_tracer() is t
        with pytest.raises(RuntimeError):
            activate_tracer(Tracer())
    finally:
        deactivate_tracer()
    assert active_tracer() is None


def test_canonical_lane_folds_aliases():
    assert canonical_lane("HtoD") == "h2d"
    assert canonical_lane("dtoh") == "d2h"
    assert canonical_lane("NIC") == "net"
    assert canonical_lane("cpu") == "host"
    # unknown ad hoc stream labels pass through lower-cased
    assert canonical_lane("Stream3") == "stream3"


# -- metrics registry: rank-merge semantics -----------------------------------


def test_counters_merge_by_summing():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("kernel.launches", kernel="advec").inc(3)
    b.counter("kernel.launches", kernel="advec").inc(4)
    b.counter("kernel.launches", kernel="pdv").inc(1)
    a.merge(b)
    assert a.counter("kernel.launches", kernel="advec").value == 7
    assert a.counter("kernel.launches", kernel="pdv").value == 1


def test_gauges_merge_by_max():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.gauge("device.peak_bytes").set(100.0)
    b.gauge("device.peak_bytes").set(250.0)
    a.merge(b)
    assert a.gauge("device.peak_bytes").value == 250.0
    # merging a smaller peak does not lower the gauge
    c = MetricsRegistry()
    c.gauge("device.peak_bytes").set(10.0)
    a.merge(c)
    assert a.gauge("device.peak_bytes").value == 250.0


def test_histograms_merge_by_pooling():
    a, b = MetricsRegistry(), MetricsRegistry()
    for v in (1.0, 2.0):
        a.histogram("dt").observe(v)
    for v in (0.5, 4.0):
        b.histogram("dt").observe(v)
    a.merge(b)
    h = a.histogram("dt")
    assert h.count == 4
    assert h.total == 7.5
    assert h.min == 0.5
    assert h.max == 4.0
    assert h.mean == pytest.approx(1.875)


def test_merged_equals_pairwise_merges():
    regs = []
    for i in range(3):
        r = MetricsRegistry()
        r.counter("n").inc(i + 1)
        r.gauge("g").set(float(i))
        regs.append(r)
    merged = MetricsRegistry.merged(regs)
    assert merged.counter("n").value == 6
    assert merged.gauge("g").value == 2.0


def test_snapshot_flattens_labels_deterministically():
    r = MetricsRegistry()
    r.counter("kernel.launches", on="gpu", kernel="advec").inc(2)
    r.counter("kernel.launches", kernel="advec", on="gpu").inc(1)  # same key
    r.histogram("dt")  # empty histogram: min/max are None in JSON
    snap = r.snapshot()
    assert snap["counters"] == {
        "kernel.launches{kernel=advec,on=gpu}": 3.0}
    assert snap["histograms"]["dt"]["min"] is None
    json.dumps(snap)  # JSON-able end to end


def test_instrument_primitives():
    c = Counter()
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    g = Gauge()
    g.set_max(1.0)
    g.set_max(0.5)
    assert g.value == 1.0
    h = Histogram()
    assert h.mean == 0.0 and h.min == math.inf
    h.observe(2.0)
    assert (h.count, h.total, h.min, h.max) == (1, 2.0, 2.0, 2.0)


# -- the registry is the one store of modelled events -------------------------


def test_scoped_view_stamps_its_labels_and_call_labels_win():
    reg = MetricsRegistry()
    alice = reg.scoped(tenant="alice", kind="batch")
    alice.counter("jobs.completed").inc(2)
    alice.counter("jobs.completed", kind="interactive").inc()
    reg.scoped(tenant="bob").counter("jobs.completed").inc(5)
    assert alice.counter("jobs.completed") is reg.counter(
        "jobs.completed", tenant="alice", kind="batch")
    assert reg.value("jobs.completed", tenant="alice", kind="batch") == 2
    assert reg.value("jobs.completed", tenant="alice", kind="interactive") == 1
    assert reg.total("jobs.completed", tenant="alice") == 3
    assert reg.total("jobs.completed") == 8
    alice.histogram("slice.seconds").observe(0.5)
    assert reg.histogram("slice.seconds", tenant="alice",
                         kind="batch").count == 1


def test_read_helpers_create_no_instrument():
    r = MetricsRegistry()
    count_event(r, "kernel", ("hydro.pdv", "gpu"), 1, 10, 0.5)
    before = r.snapshot()
    assert r.value("kernel.launches", kernel="hydro.pdv", on="cpu") == 0
    assert r.value("transfer.bytes", direction="h2d") == 0
    assert r.total("schedule_cache.hits") == 0
    assert r.total("kernel.launches", on="cpu") == 0
    assert r.variants("slab_fused") == {}
    assert r.snapshot() == before
    assert r.value("kernel.elements", kernel="hydro.pdv", on="gpu") == 10
    assert r.total("kernel.seconds", on="gpu") == 0.5
    assert r.variants("kernel.launches") == {("hydro.pdv", "gpu"): 1}


def test_record_creates_a_family_together_under_canonical_lanes():
    r = MetricsRegistry()
    count_event(r, "schedule_cache", ("fill",), 1, 0)
    count_event(r, "stream", ("D2H",), 1, 0.5)
    count_event(r, "stream", ("d2h",), 1, 0.25)  # same counters as "D2H"
    assert r.snapshot()["counters"] == {
        "schedule_cache.hits{kind=fill}": 1.0,
        "schedule_cache.misses{kind=fill}": 0.0,
        "stream.busy_seconds{stream=d2h}": 0.75,
        "stream.ops{stream=d2h}": 2.0,
    }


def test_manifest_counters_are_the_ranks_stores_summed(parity_runs):
    """A 2-rank overlapped run that regrids: the manifest's counters,
    gauges and histograms (the run's ``dt`` aside) are the ranks' own
    registries merged — nothing added, nothing translated — and its
    ``timers`` are the merged ``phase.seconds`` gauges.  (Read now, not
    from ``res.metrics``: the result's field summary reads fields back
    after the manifest was taken.)"""
    from repro.obs import run_manifest

    res, _ = parity_runs["resident-overlap"]
    manifest = run_manifest(res.sim)
    merged = MetricsRegistry.merged(
        r.metrics for r in res.sim.comm.ranks).snapshot()
    assert manifest["counters"] == merged["counters"]
    assert manifest["gauges"] == merged["gauges"]
    assert {k: v for k, v in manifest["histograms"].items()
            if k != "dt"} == merged["histograms"]
    phases = {k.removeprefix("phase.seconds{phase=").removesuffix("}"): v
              for k, v in merged["gauges"].items()
              if k.startswith("phase.seconds{")}
    assert phases and manifest["timers"] == phases
    # the step-graph and regrid counts reach the manifest from rank 0's
    # store, and launches are counted once (per kernel, not rolled up)
    counters = manifest["counters"]
    assert counters["sched.captures"] > 0 and counters["regrid.regrids"] > 0
    assert "device.kernel_launches" not in counters
    assert manifest["gauges"]["device.peak_bytes"] == max(
        r.device.peak_bytes for r in res.sim.comm.ranks)


# -- the end-of-run manifest --------------------------------------------------


def test_run_manifest_schema(parity_runs):
    from repro.obs import MANIFEST_SCHEMA

    _, traced = parity_runs["resident-overlap"]
    m = traced.metrics
    assert m["schema"] == MANIFEST_SCHEMA
    assert m["ranks"] == 2
    assert m["steps"] == traced.steps
    assert m["cells"] == traced.cells
    for section in ("counters", "gauges", "histograms", "timers"):
        assert section in m
    # the three unified surfaces all land in the one namespace
    counters = m["counters"]
    assert any(k.startswith("kernel.launches") for k in counters)
    assert any(k.startswith("sched.") for k in counters)
    assert any(k.startswith("phase.seconds") for k in m["gauges"])
    # dt history is pooled into a histogram
    assert m["histograms"]["dt"]["count"] == traced.steps
    json.dumps(m)


def test_manifest_scheduler_counters_match_execution(parity_runs):
    _, traced = parity_runs["resident-overlap"]
    counters = traced.metrics["counters"]
    assert counters["sched.graphs"] > 0
    assert counters["sched.tasks"] > counters["sched.graphs"]
    assert (counters["sched.captures"] + counters["sched.replays"]
            == counters["sched.graphs"])


def test_families_exist_only_where_they_are_recorded():
    """The ``regrid`` family is created at the first regrid and the
    ``sched`` family with the step scheduler: a one-level run without
    overlap carries neither key, and still its phase seconds and its
    device high-water mark."""
    res = run(RunConfig(problem=SodProblem((16, 16)), use_gpu=True,
                        max_levels=1, max_patch_size=16, max_steps=2))
    m = res.metrics
    assert not [k for k in m["counters"]
                if k.startswith(("regrid.", "sched."))]
    assert m["gauges"]["device.peak_bytes"] > 0
    assert m["timers"]["hydro"] > 0
