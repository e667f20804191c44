"""The auto-tuner (``repro.tune``) and the single policy resolver.

The contract under test: ``resolve_policies`` is the *only* place the
``"auto"`` literals become concrete values, over the policy's two axes
(``batch`` x ``overlap``), and ``ExecutionPolicy(mode="auto")`` drives probe measurement that (a)
picks the paper's fast path on the many-small-patch configuration the
ablation benchmarks use, (b) never changes the physics, and (c) records
every decision in the manifest and the full config fingerprint.
"""

from __future__ import annotations

import pytest

from repro.api import (
    AUTO,
    ExecutionPolicy,
    PolicyError,
    RegridPolicy,
    RunConfig,
    fingerprint,
    resolve_config,
    resolve_policies,
    run,
)
from repro.hydro.problems import SodProblem
from repro.tune import needs_tuning
from repro.tune.tuner import tune_policies

# -- resolve_policies: the one auto-resolution seam ---------------------------


def test_fixed_mode_resolves_autos_conservatively():
    ep, rp = resolve_policies(ExecutionPolicy(), RegridPolicy())
    assert ep.as_dict() == {"mode": "fixed", "overlap": False, "batch": False}
    assert rp.incremental is False


@pytest.mark.parametrize("gone", ["scheduler", "kernels"])
def test_policy_has_exactly_two_axes(gone):
    """What ``scheduler``/``kernels`` selected is derived (task graphs iff
    overlap, whole-slab iff batch); the fields themselves are gone."""
    with pytest.raises(TypeError, match=gone):
        ExecutionPolicy(**{gone: AUTO})


def test_auto_mode_without_decisions_raises():
    with pytest.raises(PolicyError, match="auto"):
        resolve_policies(ExecutionPolicy(mode="auto"), RegridPolicy())


def test_auto_mode_takes_decisions():
    ep, rp = resolve_policies(
        ExecutionPolicy(mode="auto"), RegridPolicy(),
        decisions={"overlap": False, "batch": True, "incremental": True})
    assert (ep.overlap, ep.batch, rp.incremental) == (False, True, True)


def test_needs_tuning():
    assert needs_tuning(ExecutionPolicy(mode="auto"), RegridPolicy())
    assert not needs_tuning(ExecutionPolicy(), RegridPolicy())


# -- the tuner on the ablation configuration ----------------------------------

#: the many-small-patch Sod setup bench_ablation_batch sweeps: 8^2
#: patches of a 48^2 domain -> launch overhead dominates, so the tuner
#: must find the batched fast path
def _ablation_cfg(**kwargs):
    base = dict(
        problem=SodProblem((48, 48)),
        machine="IPA",
        nranks=1,
        use_gpu=True,
        max_levels=2,
        max_patch_size=8,
        max_steps=8,
        execution=ExecutionPolicy(mode="auto"),
    )
    base.update(kwargs)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def auto_run():
    return run(_ablation_cfg())


@pytest.fixture(scope="module")
def hand_run(auto_run):
    """The hand-flagged twin of whatever the tuner chose."""
    chosen = auto_run.policies["tuned"]["chosen"]
    return run(_ablation_cfg(
        execution=ExecutionPolicy(overlap=chosen["overlap"],
                                  batch=chosen["batch"]),
        regrid=RegridPolicy(incremental=chosen["incremental"]),
    ))


def test_tuner_picks_batched_on_small_patches(auto_run):
    tuned = auto_run.policies["tuned"]
    assert tuned["winner"] in ("batch", "overlap+batch")
    assert tuned["chosen"]["batch"] is True
    assert auto_run.policies["execution"]["batch"] is True


def test_tuned_grind_within_ten_percent_of_hand_flagged(auto_run, hand_run):
    assert auto_run.grind_time <= hand_run.grind_time * 1.10


def test_tuned_run_is_bitwise_identical_to_hand_flagged(auto_run, hand_run):
    assert auto_run.dt_history == hand_run.dt_history
    assert auto_run.final_fields == hand_run.final_fields


def test_probe_evidence_recorded_in_manifest(auto_run):
    tuned = auto_run.policies["tuned"]
    assert tuned["probe_steps"] >= 1
    labels = [p["label"] for p in tuned["probes"]]
    assert labels == ["serial", "batch", "overlap+batch"]  # the whole ladder
    for probe in tuned["probes"]:
        assert probe["grind"] > 0.0
        assert "slab_fallback_rate" in probe["signals"]


def test_manifest_schema_carries_policies(auto_run):
    assert auto_run.metrics["schema"] == "repro.metrics/2"
    assert set(auto_run.policies) == {"execution", "regrid", "tuned"}


def test_tuned_decisions_enter_the_full_fingerprint(auto_run):
    auto_cfg = resolve_config(_ablation_cfg())
    hand_cfg = _ablation_cfg(
        execution=ExecutionPolicy(
            **{k: v for k, v in auto_cfg.tuned.chosen.items()
               if k != "incremental"}),
        regrid=RegridPolicy(incremental=auto_cfg.tuned.chosen["incremental"]))
    assert fingerprint(auto_cfg, full=True) == fingerprint(hand_cfg, full=True)
    serial = _ablation_cfg(execution=ExecutionPolicy(mode="fixed"))
    assert fingerprint(auto_cfg, full=True) != fingerprint(serial, full=True)


def test_full_fingerprint_refuses_unresolved_auto():
    with pytest.raises(PolicyError, match="auto"):
        fingerprint(_ablation_cfg(), full=True)
    # init-scope fingerprints never depend on execution policy
    assert fingerprint(_ablation_cfg())


def test_resolve_config_is_idempotent():
    cfg = resolve_config(_ablation_cfg())
    assert cfg.tuned is not None
    again = resolve_config(cfg)
    assert again is cfg


# -- pinned fields and probe mechanics ----------------------------------------


def test_pinned_fields_are_never_overridden():
    ep, rp, decisions = tune_policies(_ablation_cfg(
        execution=ExecutionPolicy(mode="auto", batch=False)))
    assert ep.batch is False
    assert all(p.execution.batch is False for p in decisions.probes)


def test_fully_pinned_auto_skips_probing():
    ep, rp, decisions = tune_policies(_ablation_cfg(
        execution=ExecutionPolicy(mode="auto", overlap=False, batch=True),
        regrid=RegridPolicy(incremental=True)))
    assert decisions.winner == "pinned"
    assert decisions.probes == []
    assert (ep.overlap, ep.batch, rp.incremental) == (False, True, True)


def test_probe_steps_clamped_to_budget():
    _, _, decisions = tune_policies(_ablation_cfg(max_steps=2))
    assert decisions.probe_steps == 2


def test_tune_spans_emitted_when_tracing():
    from repro.api import ObservabilityConfig

    res = run(_ablation_cfg(
        max_steps=4,
        observability=ObservabilityConfig(trace=True)))
    tune_spans = [s for s in res.trace_spans if s.category == "tune"]
    names = {s.name for s in tune_spans}
    assert any(n.startswith("tune.probe:") for n in names)
    assert "tune.decision" in names


def test_tuner_never_touches_the_real_run_budget(auto_run):
    assert auto_run.steps == 8
    assert len(auto_run.dt_history) == 8
