"""Self-tests of the benchmark harness (run explicitly, not tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

import layers  # noqa: E402
import spans  # noqa: E402
from compare import compare_suites  # noqa: E402
from measure import END_TO_END, PUBLISHED, run_pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.api import RunConfig, SodProblem  # noqa: E402


# -- self-time arithmetic ----------------------------------------------------------


def test_self_time_with_overlapping_and_adjacent_children():
    #        name   layer    t0   t1  parent run
    tree = [["root", "harness", 0.0, 10.0, -1, 0],
            ["a", "xfer", 1.0, 4.0, 0, 0],      # overlaps b on [3, 4]
            ["b", "exec", 3.0, 6.0, 0, 0],      # touches c at 6
            ["c", "gpu", 6.0, 8.0, 0, 0],
            ["a1", "mesh", 2.0, 3.0, 1, 0],
            ["late", "gpu", 9.0, 12.0, 0, 0]]   # clipped to the root's end
    assert spans.self_times(tree) == pytest.approx([2.0, 2.0, 3.0, 2.0, 1.0, 3.0])


def test_layer_shares_sum_to_one():
    tree = [["setup", "harness", 0.0, 5.0, -1, 0],
            ["RefineSchedule.__init__", "xfer", 1.0, 4.0, 0, 0],
            ["step", "harness", 10.0, 20.0, -1, 1],
            ["LagrangianEulerianIntegrator.step", "hydro", 10.5, 19.5, 2, 1],
            ["RefineSchedule.fill", "xfer", 11.0, 15.0, 3, 1],
            ["Device.launch", "gpu", 12.0, 14.0, 4, 1],
            ["kernel_body", "pdat", 12.5, 13.5, 5, 1]]
    m = layers.layer_metrics(tree, {}, {})
    shares = [m[f"{layer}.share"] for layer in spans.LAYERS]
    assert sum(shares) + m["harness.unattributed_share"] == pytest.approx(1.0)
    assert m["xfer.self_s"] == pytest.approx(2.0)      # set-up span excluded
    assert m["hydro.self_s"] == pytest.approx(5.0)
    assert m["pdat.kernel_body_s"] == pytest.approx(1.0)
    assert m["gpu.host_us_per_launch"] == pytest.approx(1e6)
    assert m["harness.unattributed_share"] == pytest.approx(0.1)


# -- patching --------------------------------------------------------------------------


def _raw_attributes():
    seen = []
    for target in [p.target for p in spans.WRAP_POINTS] + list(spans.COUNT_POINTS):
        owner, attr, _ = spans.resolve(target)
        seen.append((owner, attr, vars(owner)[attr]))
    return seen


@pytest.mark.parametrize("installer", [
    lambda: spans.tracing(spans.SpanRecorder()), spans.counting])
def test_wrappers_restore_originals_also_on_exception(installer):
    before = _raw_attributes()
    with installer():
        assert any(vars(o)[a] is not raw for o, a, raw in before)
    assert all(vars(o)[a] is raw for o, a, raw in before)
    with pytest.raises(RuntimeError), installer():
        raise RuntimeError("boom")
    assert all(vars(o)[a] is raw for o, a, raw in before)


def test_overriding_subclasses_are_wrapped_too():
    from repro.exec.backend import Backend, ResidentDeviceBackend

    with spans.tracing(spans.SpanRecorder()):
        assert hasattr(vars(Backend)["copy_batch"], "__wrapped__")
        assert hasattr(vars(ResidentDeviceBackend)["copy_batch"], "__wrapped__")


def test_missing_wrap_point_fails_loudly_naming_the_symbol():
    gone = spans.WrapPoint(
        "repro.xfer.refine_schedule.RefineSchedule.fill_all", "xfer")
    with pytest.raises(spans.WrapPointError, match="RefineSchedule.fill_all"):
        with spans.tracing(spans.SpanRecorder(), [gone]):
            pass
    with pytest.raises(spans.WrapPointError, match="no importable module"):
        spans.resolve("nonesuch.module.f")


def test_wrapped_run_is_bitwise_equal_to_unwrapped():
    cfg = RunConfig(problem=SodProblem((16, 16)), max_levels=2,
                    max_patch_size=8, max_steps=2)
    plain = run_pass(cfg).out
    recorder = spans.SpanRecorder()
    with spans.tracing(recorder):
        traced = run_pass(cfg, recorder).out
    with spans.counting() as counts:
        counted = run_pass(cfg).out
    assert plain.same_as(traced) and plain.same_as(counted)
    assert counts["Box.__init__"] > 0 and counts["IntVector.__new__"] > 0
    names = {s[spans.NAME] for s in recorder.spans}
    assert {"step", "setup", "kernel_body", "RefineSchedule.fill"} <= names


# -- --compare -------------------------------------------------------------------------


def _suite():
    run = {
        "workload": "sod_uniform", "seed": 0, "trace": 0, "correct": True,
        "metrics": {"setup_s": 0.03, "cell_updates_per_s": 6.5e5,
                    "step_wall_ms_p50": 220.0, "peak_rss_mb": 112.0,
                    "modelled_grind_ns": 12.9, "device_peak_mb": 27.2,
                    "mass_drift_rel": 2e-16, "failure_rate": 0.0},
        "info": {"calib_ms": [31.0, 31.4], "repeats": {
            "setup_s": [0.029, 0.03, 0.03, 0.031],
            "cell_updates_per_s": [6.45e5, 6.5e5, 6.55e5],
            "step_wall_ms_p50": [219.0, 220.0, 221.0]}},
    }
    return {"schema": "repro.e2e_bench/1", "seed": 0, "runs": [run]}


def test_compare_with_itself_is_all_ok():
    rows, moved = compare_suites(_suite(), _suite())
    assert len(rows) == len(END_TO_END) and not moved
    assert {row.verdict for row in rows} == {"ok"}


def test_injected_slowdown_is_regressed_and_noise_is_unresolved():
    bound = {spec[0]: spec[3] for spec in END_TO_END}["step_wall_ms_p50"]
    factor = 1.0 + 1.2 * bound   # the issue's "+20 % against a 10 % bound"
    slow = copy.deepcopy(_suite())
    run = slow["runs"][0]
    run["metrics"]["step_wall_ms_p50"] *= factor
    run["info"]["repeats"]["step_wall_ms_p50"] = [
        factor * v for v in run["info"]["repeats"]["step_wall_ms_p50"]]
    verdicts = {r.metric: r.verdict for r in compare_suites(_suite(), slow)[0]}
    assert verdicts["step_wall_ms_p50"] == "regressed"
    assert verdicts["cell_updates_per_s"] == "ok"

    noisy = copy.deepcopy(slow)
    noisy["runs"][0]["info"]["calib_ms"] = [31.0, 31.0 * (1.0 + 1.2 * bound)]
    verdicts = {r.metric: r.verdict for r in compare_suites(_suite(), noisy)[0]}
    assert verdicts["step_wall_ms_p50"] == "unresolved"
    assert verdicts["modelled_grind_ns"] == "ok"    # not a real-clock metric


# -- the manifest repeats the tables ----------------------------------------------------


def test_benchmark_json_repeats_the_tables():
    doc = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert doc["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == [
        spec[:4] for spec in END_TO_END if spec[0] in PUBLISHED]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        tuple(spec) for spec in layers.PER_LAYER]
