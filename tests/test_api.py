"""The ``repro.api`` facade: configuration validation, build selection,
the backend factory and the run result contract.

``repro.api.run`` is the one public entry point (everything outside the
package imports it and nothing else — the ``api`` lint rule), so its
contract is pinned here: validated configs, the right simulation objects
per build kind, and a structured :class:`RunResult`.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    ObservabilityConfig,
    RunConfig,
    RunResult,
    build_simulation,
    run,
    scaled,
)
from repro.exec import UNCHARGED_HOST, make_backend
from repro.hydro.patch_integrator import NonResidentGpuPatchIntegrator
from repro.hydro.problems import SodProblem


def _config(**kwargs) -> RunConfig:
    base = dict(problem=SodProblem((32, 32)), nranks=1, max_levels=2,
                max_patch_size=32, max_steps=4)
    base.update(kwargs)
    return RunConfig(**base)


# -- config validation --------------------------------------------------------


def test_trace_path_implies_trace():
    obs = ObservabilityConfig(trace_path="t.json")
    assert obs.trace is True


def test_metrics_interval_must_be_positive():
    with pytest.raises(ValueError, match="metrics_interval"):
        ObservabilityConfig(metrics_interval=0)
    with pytest.raises(ValueError, match="metrics_interval"):
        ObservabilityConfig(metrics_interval=-3)
    assert ObservabilityConfig(metrics_interval=1).metrics_interval == 1


def test_run_needs_a_budget():
    with pytest.raises(ValueError, match="max_steps or end_time"):
        run(_config(max_steps=None, end_time=None))


def test_scaled_replaces_fields():
    cfg = _config()
    bigger = scaled(cfg, nranks=4, max_steps=10)
    assert (bigger.nranks, bigger.max_steps) == (4, 10)
    assert cfg.nranks == 1  # original untouched
    assert bigger.problem is cfg.problem


@pytest.mark.parametrize("flat", [
    "use_scheduler", "overlap", "batch_launches", "kernels",
    "regrid_interval", "regrid_incremental", "balance"])
def test_flat_execution_kwargs_are_gone(flat):
    """The PR-10 shims are deleted: RunConfig is a plain dataclass, so the
    old flat names fail like any unknown keyword."""
    with pytest.raises(TypeError, match=flat):
        _config(**{flat: True})
    with pytest.raises(TypeError, match=flat):
        scaled(_config(), **{flat: True})
    assert not hasattr(_config(), flat)


# -- build selection ----------------------------------------------------------


def test_gpu_resident_build():
    sim = build_simulation(_config(use_gpu=True, resident=True))
    assert sim.comm.rank(0).device is not None
    assert sim.factory.location == "device"


def test_cpu_build():
    sim = build_simulation(_config(use_gpu=False))
    assert sim.comm.rank(0).device is None
    assert sim.factory.location == "host"


def test_nonresident_build():
    sim = build_simulation(_config(use_gpu=True, resident=False))
    assert isinstance(sim.patch_integrator, NonResidentGpuPatchIntegrator)
    assert sim.factory.location == "host"  # data stays on the host
    assert sim.comm.rank(0).device is not None


def test_machine_selection():
    sim = build_simulation(_config(machine="Titan", nranks=2))
    assert sim.comm.size == 2
    assert sim.comm.network.name == "Cray Gemini"


# -- the backend factory ------------------------------------------------------


def test_make_backend_cpu_without_rank_is_uncharged_host():
    assert make_backend(_config(use_gpu=False)) is UNCHARGED_HOST


def test_make_backend_gpu_without_rank_raises():
    with pytest.raises(ValueError, match="rank"):
        make_backend(_config(use_gpu=True))


def test_make_backend_selects_per_build_kind():
    sim = build_simulation(_config(use_gpu=True))
    rank = sim.comm.rank(0)
    assert make_backend(_config(use_gpu=True, resident=True), rank) \
        is rank.resident_backend
    assert make_backend(_config(use_gpu=True, resident=False), rank) \
        is rank.nonresident_backend
    assert make_backend(_config(use_gpu=False), rank) is rank.host_backend


def test_make_backend_resident_needs_a_device():
    sim = build_simulation(_config(use_gpu=False))
    rank = sim.comm.rank(0)
    with pytest.raises(ValueError, match="no device"):
        make_backend(_config(use_gpu=True, resident=True), rank)


# -- the run result contract --------------------------------------------------


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    ckpt = tmp_path_factory.mktemp("api") / "end.npz"
    return run(_config(
        observability=ObservabilityConfig(metrics_interval=2),
        checkpoint_path=str(ckpt),
    )), ckpt


def test_result_is_structured(result):
    res, _ = result
    assert isinstance(res, RunResult)
    assert res.steps == 4
    assert res.runtime > 0.0
    assert res.cells > 0
    assert res.grind_time == res.runtime / (res.cells * res.steps)
    assert res.timers["hydro"] > 0


def test_end_time_budget():
    res = run(_config(max_steps=None, end_time=0.02))
    assert res.sim.time >= 0.02


def test_nonresident_is_slower_and_moves_far_more_pcie_bytes():
    """The headline ablation: copy-per-kernel loses to resident."""
    res_r = run(_config(use_gpu=True, resident=True, max_steps=5))
    res_n = run(_config(use_gpu=True, resident=False, max_steps=5))
    assert res_n.runtime > res_r.runtime

    def pcie(res):
        d = res.sim.comm.rank(0).device.stats
        return d.bytes_d2h + d.bytes_h2d
    assert pcie(res_n) > 10 * pcie(res_r)


def test_result_dt_history_covers_every_step(result):
    res, _ = result
    assert len(res.dt_history) == res.steps
    assert all(isinstance(dt, float) and dt > 0.0 for dt in res.dt_history)


def test_result_final_fields_are_plain_floats(result):
    """JSON-able summary: conserved quantities as builtin floats."""
    res, _ = result
    assert res.final_fields
    for value in res.final_fields.values():
        assert type(value) is float
    json.dumps(res.final_fields)


def test_result_metrics_history_snapshots_at_interval(result):
    res, _ = result
    assert [step for step, _ in res.metrics_history] == [2, 4]
    for _, snap in res.metrics_history:
        assert set(snap) == {"counters", "gauges", "histograms"}


def test_result_checkpoint_written_and_loadable(result):
    res, ckpt = result
    assert res.checkpoint_path == str(ckpt)
    assert Path(ckpt).exists()
    with np.load(ckpt, allow_pickle=False) as data:
        assert len(data.files) > 0


def test_result_without_tracing_has_no_trace(result):
    res, _ = result
    assert res.trace_path is None
    assert res.trace_spans == []
    assert res.sanitize_counters is None


def test_app_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        import repro.app  # noqa: F401  # samrcheck: ok(api): asserting removal


def test_unknown_kwarg_raises():
    with pytest.raises(TypeError, match="no_such_flag"):
        _config(no_such_flag=True)


# -- the api lint rule --------------------------------------------------------


def _lint_source(tmp_path, relpath: str, source: str):
    from repro.check.static import run_checks

    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return run_checks([path], do_static=False)[0]


def test_lint_flags_app_import_everywhere(tmp_path):
    violations = _lint_source(tmp_path, "benchmarks/bench_x.py", """
        from repro.app import RunConfig, run_simulation
    """)
    assert [v.rule for v in violations] == ["api"]
    assert "repro.api" in violations[0].message

    violations = _lint_source(tmp_path, "examples/demo.py", """
        import repro.app
    """)
    assert [v.rule for v in violations] == ["api"]

    # the shim module is gone, so even package internals are flagged
    violations = _lint_source(tmp_path, "src/repro/compat.py", """
        from repro.app import run_simulation
    """)
    assert [v.rule for v in violations] == ["api"]


def test_lint_allows_api_imports_everywhere(tmp_path):
    assert _lint_source(tmp_path, "benchmarks/bench_y.py", """
        from repro.api import RunConfig, run
        import repro.api
    """) == []


def test_repo_callers_import_only_the_facade():
    """cli, benchmarks and examples are clean under the api rule."""
    from repro.check.static import run_checks

    root = Path(__file__).resolve().parent.parent
    violations = [v for v in run_checks(
        [root / "benchmarks", root / "examples", root / "src" / "repro" / "cli.py"],
        do_static=False)[0]
        if v.rule == "api"]
    assert violations == []
