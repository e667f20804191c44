"""``repro check perf``: the performance-trajectory gate.

Exit-code contract (what CI keys on): 0 = every gated modelled metric
within tolerance, 1 = a grind regressed past tolerance, 2 = structural
mismatch (missing files, schema bump, kernel-set asymmetry).  The
manifests gated here come from one real tiny run, then get perturbed in
controlled ways — a 2x injected per-kernel grind regression must trip
the gate, a schema bump must refuse to compare, and the explicit
``--update-baselines --reason`` workflow must record its history.
"""

from __future__ import annotations

import copy
import json
import re
from pathlib import Path

import pytest

from repro.api import ExecutionPolicy, RegridPolicy, RunConfig, run
from repro.check.perf import (
    PERF_BASELINE_SCHEMA,
    compare_perf,
    extract_perf,
    make_baseline,
    perf_main,
)
from repro.hydro.problems import SodProblem

NAME = "gate_smoke"


@pytest.fixture(scope="module")
def manifest():
    res = run(RunConfig(
        problem=SodProblem((32, 32)), nranks=1, use_gpu=True,
        max_levels=2, max_patch_size=16,
        regrid=RegridPolicy(interval=3), max_steps=4,
        execution=ExecutionPolicy(batch=True),
    ))
    return res.metrics


def _results_dir(tmp_path, manifest) -> Path:
    d = tmp_path / "results"
    d.mkdir()
    (d / f"BENCH_{NAME}.json").write_text(json.dumps(
        {"name": NAME, "metrics_manifest": manifest}))
    return d


def _capture(d: Path, reason="seed") -> int:
    return perf_main([NAME, "--results", str(d),
                      "--update-baselines", "--reason", reason])


def _rewrite_bench(d: Path, manifest) -> None:
    (d / f"BENCH_{NAME}.json").write_text(json.dumps(
        {"name": NAME, "metrics_manifest": manifest}))


def _inflate_kernel(manifest, factor):
    """A copy of the manifest with one kernel's modelled seconds scaled."""
    out = copy.deepcopy(manifest)
    key = next(k for k in out["counters"]
               if re.match(r"^kernel\.seconds\{", k))
    out["counters"][key] *= factor
    return out, key


# -- extraction ---------------------------------------------------------------


def test_the_gated_grind_is_the_whole_runs(monkeypatch):
    """``extract_perf``'s grind divides the whole run's modelled time,
    set-up included, while ``RunResult.grind_time`` starts after set-up:
    a change to set-up alone (here, set-up ending at t=1.0 s or 1.5 s —
    one binade, so every later clock sum rounds alike) moves the first
    and leaves the second ``==``."""
    from repro.hydro.integrator import LagrangianEulerianIntegrator

    initialise = LagrangianEulerianIntegrator.initialise
    results = []
    for end in (1.0, 1.5):
        def slow_set_up(sim, end=end):
            initialise(sim)
            for rank in sim.comm.ranks:
                rank.sync_device()
                rank.clock.advance_to(end)
                rank.device.default_stream.clock.advance_to(end)

        monkeypatch.setattr(LagrangianEulerianIntegrator, "initialise",
                            slow_set_up)
        results.append(run(RunConfig(
            problem=SodProblem((24, 24)), nranks=1, use_gpu=True,
            max_levels=2, max_patch_size=12,
            regrid=RegridPolicy(interval=2), max_steps=3)))
    fast, slow = results
    assert fast.grind_time == slow.grind_time
    assert fast.dt_history == slow.dt_history
    assert (extract_perf(slow.metrics)["grind"]
            > extract_perf(fast.metrics)["grind"])


def test_extract_perf_shapes(manifest):
    perf = extract_perf(manifest)
    assert perf["grind"] > 0.0
    assert perf["kernels"], "per-kernel grinds expected"
    for key, val in perf["kernels"].items():
        assert "@" in key and val > 0.0
    assert "hydro" in perf["phases"]


# -- the capture workflow -----------------------------------------------------


def test_update_requires_reason(tmp_path, manifest):
    d = _results_dir(tmp_path, manifest)
    with pytest.raises(SystemExit):
        perf_main([NAME, "--results", str(d), "--update-baselines"])


def test_capture_writes_history_and_sha(tmp_path, manifest):
    d = _results_dir(tmp_path, manifest)
    assert _capture(d, reason="initial capture") == 0
    baseline = json.loads((d / f"BASELINE_{NAME}.json").read_text())
    assert baseline["schema"] == PERF_BASELINE_SCHEMA
    assert baseline["manifest_schema"] == manifest["schema"]
    assert [h["reason"] for h in baseline["history"]] == ["initial capture"]
    assert "git_sha" in baseline["history"][0]
    # a re-capture appends, never rewrites, the history
    assert _capture(d, reason="second capture") == 0
    baseline = json.loads((d / f"BASELINE_{NAME}.json").read_text())
    assert [h["reason"] for h in baseline["history"]] == \
        ["initial capture", "second capture"]


def test_capture_records_policies(tmp_path, manifest):
    d = _results_dir(tmp_path, manifest)
    _capture(d)
    baseline = json.loads((d / f"BASELINE_{NAME}.json").read_text())
    assert baseline["policies"]["execution"]["batch"] is True


# -- gating -------------------------------------------------------------------


def test_clean_gate_passes(tmp_path, manifest):
    d = _results_dir(tmp_path, manifest)
    _capture(d)
    assert perf_main([NAME, "--results", str(d)]) == 0


def test_missing_baseline_is_structural(tmp_path, manifest):
    d = _results_dir(tmp_path, manifest)
    assert perf_main([NAME, "--results", str(d)]) == 2


def test_missing_bench_manifest_is_structural(tmp_path, manifest):
    d = _results_dir(tmp_path, manifest)
    _capture(d)
    (d / f"BENCH_{NAME}.json").unlink()
    assert perf_main([NAME, "--results", str(d)]) == 2


def test_no_baselines_at_all_is_structural(tmp_path, manifest):
    d = _results_dir(tmp_path, manifest)
    assert perf_main(["--results", str(d)]) == 2


def test_injected_kernel_regression_fails_the_gate(tmp_path, manifest):
    d = _results_dir(tmp_path, manifest)
    _capture(d)
    slow, key = _inflate_kernel(manifest, 2.0)
    _rewrite_bench(d, slow)
    assert perf_main([NAME, "--results", str(d)]) == 1


def test_tolerance_override_absorbs_the_regression(tmp_path, manifest):
    d = _results_dir(tmp_path, manifest)
    _capture(d)
    slow, _ = _inflate_kernel(manifest, 2.0)
    _rewrite_bench(d, slow)
    assert perf_main([NAME, "--results", str(d), "--tolerance", "1.5"]) == 0


def test_improvement_passes_but_is_reported(tmp_path, manifest, capsys):
    d = _results_dir(tmp_path, manifest)
    _capture(d)
    fast, key = _inflate_kernel(manifest, 0.25)
    _rewrite_bench(d, fast)
    assert perf_main([NAME, "--results", str(d)]) == 0
    assert "improved" in capsys.readouterr().out


def test_manifest_schema_bump_is_structural(tmp_path, manifest):
    d = _results_dir(tmp_path, manifest)
    _capture(d)
    bumped = copy.deepcopy(manifest)
    bumped["schema"] = "repro.metrics/999"
    _rewrite_bench(d, bumped)
    assert perf_main([NAME, "--results", str(d)]) == 2


def test_baseline_schema_bump_is_structural(tmp_path, manifest):
    d = _results_dir(tmp_path, manifest)
    _capture(d)
    path = d / f"BASELINE_{NAME}.json"
    baseline = json.loads(path.read_text())
    baseline["schema"] = "repro.perf_baseline/999"
    path.write_text(json.dumps(baseline))
    assert perf_main([NAME, "--results", str(d)]) == 2


def test_kernel_asymmetry_both_directions(manifest):
    baseline = make_baseline(NAME, manifest, reason="seed")
    # a kernel the baseline never saw
    grown = copy.deepcopy(manifest)
    src = next(k for k in grown["counters"]
               if k.startswith("kernel.seconds{"))
    grown["counters"][src.replace("kernel=", "kernel=made_up.")] = 1.0
    grown["counters"][src.replace("kernel=", "kernel=made_up.")
                         .replace(".seconds", ".elements")] = 10.0
    findings = compare_perf(NAME, baseline, grown)
    assert any(f.level == "structural" and "absent from baseline"
               in f.message for f in findings)
    # a kernel that vanished from the run
    shrunk = copy.deepcopy(manifest)
    for k in list(shrunk["counters"]):
        if "kernel=hydro.pdv" in k:
            del shrunk["counters"][k]
    findings = compare_perf(NAME, baseline, shrunk)
    assert any(f.level == "structural" and "absent from run"
               in f.message for f in findings)


def test_kernel_asymmetry_exits_structural(tmp_path, manifest):
    d = _results_dir(tmp_path, manifest)
    _capture(d)
    shrunk = copy.deepcopy(manifest)
    for k in list(shrunk["counters"]):
        if "kernel=hydro.pdv" in k:
            del shrunk["counters"][k]
    _rewrite_bench(d, shrunk)
    assert perf_main([NAME, "--results", str(d)]) == 2
