"""``repro check perf``: the performance-trajectory gate.

The benchmarks emit schema-versioned metrics manifests
(``benchmarks/results/BENCH_<name>.json``, see
:func:`repro.obs.metrics.run_manifest`) that until now nothing consumed
— any PR could silently regress the reproduced wins (batched-launch
grind, overlap hiding, incremental-regrid avoidance).  This module
closes the loop: committed **baselines**
(``benchmarks/results/BASELINE_<name>.json``) pin the expected per-run,
per-kernel and per-phase grinds, and ``repro check perf`` diffs the
current bench manifests against them.

Only *modelled* (virtual-time) metrics are gated: they are
deterministic, so they carry zero CI jitter — any drift is a code
change, either a regression to fix or an intended change to record via
the explicit update workflow (``--update-baselines --reason "..."``,
with the reason and sha appended to the baseline's history).

Exit codes (CI gates on nonzero):

* ``0`` — every gated metric within tolerance of its baseline;
* ``1`` — at least one performance regression (a grind above baseline
  by more than the tolerance);
* ``2`` — structural mismatch: missing baseline or bench manifest,
  manifest-schema bump, or a kernel present on one side only.  These
  are not perf regressions but mean the comparison is meaningless until
  baselines are re-captured.
"""

from __future__ import annotations

import argparse
import json
import os
import re
from dataclasses import dataclass

__all__ = [
    "PERF_BASELINE_SCHEMA",
    "PerfFinding",
    "extract_perf",
    "compare_perf",
    "make_baseline",
    "update_baselines",
    "gate_baselines",
    "perf_main",
]

#: bumped whenever the baseline JSON layout changes meaning
PERF_BASELINE_SCHEMA = "repro.perf_baseline/1"

#: fractional headroom a grind may grow before it counts as a regression;
#: modelled metrics are deterministic, so this absorbs only *intended*
#: small cost-model shifts, not machine jitter
DEFAULT_TOLERANCE = 0.10

#: where the benchmarks write their manifests: src/repro/check/perf.py ->
#: the repository root is four directories up
RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))), "benchmarks", "results")

_KERNEL_SECONDS = re.compile(r"^kernel\.seconds\{kernel=(.+),on=(.+)\}$")


@dataclass
class PerfFinding:
    """One gate observation: a regression, a structural break, or a win."""

    level: str      # "regression" | "structural" | "improved"
    name: str       # baseline name this was found under
    metric: str     # which gated quantity
    message: str

    def __str__(self):
        return f"perf[{self.name}] {self.level}: {self.metric}: {self.message}"


def extract_perf(manifest: dict) -> dict:
    """Distil a metrics manifest into the gated (modelled) quantities.

    * ``grind`` — virtual seconds per cell-step for the whole run, set-up
      included (the manifest's ``virtual_runtime``), so a change to
      set-up alone moves it; ``RunResult.grind_time`` starts after
      set-up and does not move;
    * ``kernels`` — per-kernel modelled seconds per *element* processed
      (``kernel.seconds / kernel.elements``), keyed ``name@resource``;
    * ``phases`` — per-phase virtual seconds per cell-step.
    """
    advanced = manifest.get("cells", 0) * max(manifest.get("steps", 0), 1)
    counters = manifest.get("counters", {})
    kernels: dict[str, float] = {}
    for flat, seconds in counters.items():
        m = _KERNEL_SECONDS.match(flat)
        if not m:
            continue
        kernel, resource = m.group(1), m.group(2)
        elements = counters.get(
            f"kernel.elements{{kernel={kernel},on={resource}}}", 0)
        if elements:
            kernels[f"{kernel}@{resource}"] = seconds / elements
    phases = {
        phase: seconds / advanced
        for phase, seconds in manifest.get("timers", {}).items()
        if advanced
    }
    return {
        "grind": (manifest.get("virtual_runtime", 0.0) / advanced
                  if advanced else 0.0),
        "kernels": kernels,
        "phases": phases,
    }


def make_baseline(name: str, manifest: dict, *, reason: str,
                  git_sha: str | None = None,
                  previous: dict | None = None,
                  tolerance: float | None = None) -> dict:
    """A baseline record for a manifest (appending to prior history)."""
    history = list(previous.get("history", [])) if previous else []
    history.append({"reason": reason, "git_sha": git_sha})
    out = {
        "schema": PERF_BASELINE_SCHEMA,
        "name": name,
        "manifest_schema": manifest.get("schema"),
        "perf": extract_perf(manifest),
        "history": history,
    }
    if "policies" in manifest:
        out["policies"] = manifest["policies"]
    if tolerance is not None:
        out["tolerance"] = tolerance
    elif previous and "tolerance" in previous:
        out["tolerance"] = previous["tolerance"]
    return out


def _gate_scalar(findings, name, metric, base, cur, tol):
    if base <= 0.0:
        return
    ratio = cur / base
    if ratio > 1.0 + tol:
        findings.append(PerfFinding(
            "regression", name, metric,
            f"baseline {base:.6e}, current {cur:.6e} "
            f"({ratio:.3f}x, tolerance {1.0 + tol:.2f}x)"))
    elif ratio < 1.0 - tol:
        findings.append(PerfFinding(
            "improved", name, metric,
            f"baseline {base:.6e}, current {cur:.6e} ({ratio:.3f}x) — "
            f"consider --update-baselines to bank the win"))


def compare_perf(name: str, baseline: dict, manifest: dict,
                 tolerance: float | None = None) -> list[PerfFinding]:
    """Diff a run manifest against one committed baseline."""
    findings: list[PerfFinding] = []
    if baseline.get("schema") != PERF_BASELINE_SCHEMA:
        findings.append(PerfFinding(
            "structural", name, "baseline.schema",
            f"baseline schema {baseline.get('schema')!r} != "
            f"{PERF_BASELINE_SCHEMA!r}; re-capture with --update-baselines"))
        return findings
    if manifest.get("schema") != baseline.get("manifest_schema"):
        findings.append(PerfFinding(
            "structural", name, "manifest.schema",
            f"run manifest schema {manifest.get('schema')!r} != baseline's "
            f"{baseline.get('manifest_schema')!r}; metrics may have changed "
            "meaning — re-capture baselines"))
        return findings
    tol = (tolerance if tolerance is not None
           else baseline.get("tolerance", DEFAULT_TOLERANCE))
    base, cur = baseline.get("perf", {}), extract_perf(manifest)

    _gate_scalar(findings, name, "grind", base.get("grind", 0.0),
                 cur["grind"], tol)
    bk, ck = base.get("kernels", {}), cur["kernels"]
    for key in sorted(set(ck) - set(bk)):
        findings.append(PerfFinding(
            "structural", name, f"kernel[{key}]",
            "present in run but absent from baseline — new kernel? "
            "re-capture baselines"))
    for key in sorted(set(bk) - set(ck)):
        findings.append(PerfFinding(
            "structural", name, f"kernel[{key}]",
            "present in baseline but absent from run — kernel vanished? "
            "re-capture baselines"))
    for key in sorted(set(bk) & set(ck)):
        _gate_scalar(findings, name, f"kernel[{key}]", bk[key], ck[key], tol)
    bp, cp = base.get("phases", {}), cur["phases"]
    for key in sorted(set(bp) & set(cp)):
        _gate_scalar(findings, name, f"phase[{key}]", bp[key], cp[key], tol)
    return findings


# -- the driver ---------------------------------------------------------------


def _load_json(path: str):
    with open(path) as f:
        return json.load(f)


def _bench_manifest(results_dir: str, name: str) -> dict | None:
    path = os.path.join(results_dir, f"BENCH_{name}.json")
    if not os.path.exists(path):
        return None
    manifest = _load_json(path).get("metrics_manifest")
    return manifest or None


def _git_sha() -> str | None:
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def update_baselines(names, results_dir: str, reason: str,
                     tolerance: float | None = None) -> tuple[int, list[str]]:
    """(Re-)capture baselines from the current BENCH manifests (all of
    them without ``names``).  Returns ``(exit code, report lines)``."""
    if not names:
        names = sorted(
            f[len("BENCH_"):-len(".json")]
            for f in os.listdir(results_dir)
            if f.startswith("BENCH_") and f.endswith(".json")
            and _bench_manifest(results_dir, f[len("BENCH_"):-len(".json")]))
    sha = _git_sha()
    lines = []
    for name in names:
        manifest = _bench_manifest(results_dir, name)
        if manifest is None:
            return 2, [*lines, f"perf[{name}]: no BENCH_{name}.json manifest "
                               "to capture — run the benchmark first"]
        path = os.path.join(results_dir, f"BASELINE_{name}.json")
        previous = _load_json(path) if os.path.exists(path) else None
        baseline = make_baseline(name, manifest, reason=reason,
                                 git_sha=sha, previous=previous,
                                 tolerance=tolerance)
        with open(path, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
        lines.append(f"perf[{name}]: baseline written ({path})")
    return 0, [*lines,
               f"perf: {len(lines)} baseline(s) updated — reason: {reason}"]


def gate_baselines(names, results_dir: str,
                   tolerance: float | None = None) -> tuple[int, list[str]]:
    """Diff the current BENCH manifests against the committed baselines
    (every ``BASELINE_*.json`` without ``names``).  Returns ``(exit code,
    report lines)``: one line per finding, then the tally."""
    if not names:
        names = sorted(
            f[len("BASELINE_"):-len(".json")]
            for f in os.listdir(results_dir)
            if f.startswith("BASELINE_") and f.endswith(".json"))
        if not names:
            return 2, [f"perf: no BASELINE_*.json in {results_dir} — capture "
                       "some with `repro check perf --update-baselines "
                       "--reason '...'`"]

    findings: list[PerfFinding] = []
    gated = 0
    for name in names:
        bpath = os.path.join(results_dir, f"BASELINE_{name}.json")
        if not os.path.exists(bpath):
            findings.append(PerfFinding(
                "structural", name, "baseline",
                f"missing baseline file {bpath} — capture it with "
                "--update-baselines --reason '...'"))
            continue
        manifest = _bench_manifest(results_dir, name)
        if manifest is None:
            findings.append(PerfFinding(
                "structural", name, "manifest",
                f"no BENCH_{name}.json manifest to gate — run the "
                "benchmark first"))
            continue
        findings.extend(compare_perf(name, _load_json(bpath), manifest,
                                     tolerance=tolerance))
        gated += 1

    regressions = [f for f in findings if f.level == "regression"]
    structural = [f for f in findings if f.level == "structural"]
    improved = [f for f in findings if f.level == "improved"]
    lines = [*map(str, findings),
             f"perf: gated {gated} baseline(s): "
             f"{len(regressions)} regression(s), {len(structural)} structural, "
             f"{len(improved)} improvement(s)"]
    return (2 if structural else 1 if regressions else 0), lines


def perf_main(argv=None) -> int:
    """Entry point for ``repro check perf``."""
    p = argparse.ArgumentParser(
        prog="repro check perf",
        description="gate benchmark metrics manifests against committed "
                    "perf baselines (exit 0 ok / 1 regression / "
                    "2 structural mismatch)")
    p.add_argument("names", nargs="*",
                   help="baseline names to gate (default: every committed "
                        "BASELINE_*.json)")
    p.add_argument("--results", default=None, metavar="DIR",
                   help="directory holding BENCH_*.json and BASELINE_*.json "
                        "(default: benchmarks/results)")
    p.add_argument("--tolerance", type=float, default=None, metavar="FRAC",
                   help="override the allowed fractional grind growth "
                        f"(default: per-baseline, else {DEFAULT_TOLERANCE})")
    p.add_argument("--update-baselines", action="store_true",
                   help="(re-)capture baselines from the current BENCH "
                        "manifests instead of gating; requires --reason")
    p.add_argument("--reason", default=None,
                   help="why the baselines moved — recorded in the baseline "
                        "JSON history (required with --update-baselines)")
    args = p.parse_args(argv)
    results_dir = args.results or RESULTS_DIR
    if args.update_baselines:
        if not args.reason:
            p.error("--update-baselines requires --reason "
                    "(recorded in the baseline history)")
        code, lines = update_baselines(args.names, results_dir, args.reason,
                                       args.tolerance)
    else:
        code, lines = gate_baselines(args.names, results_dir, args.tolerance)
    print("\n".join(lines))
    return code
