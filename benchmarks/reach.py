#!/usr/bin/env python3
"""Reachability map: which functions of ``src/repro`` does nothing run?

Runs every entry point of the system in-process under a call profiler
(``sys.setprofile`` / ``threading.setprofile``), walks every ``def`` in
``src/repro`` with :mod:`ast`, and compares the ones no entry point
called with the checked-in list ``benchmarks/unreached.txt``.  The list
is a ratchet: an unreached ``def`` that is not on it fails the run, so
dead code cannot build up again; entries that are reached or gone are
printed for removal but do not fail.

A ``def`` is keyed ``path:Qual.name`` (path relative to ``src/repro``),
spans from its first decorator to its last line, and an unreached
``def`` nested in an unreached one counts once, under the outer one.
An ``@abc.abstractmethod`` is a declaration whose body never runs, so
the walker skips it.
Each list line is ``key  lines  reason``; the reason is one of
:data:`REASONS`.

Run from the repository root (standard library only, ~4 min on 2 CPUs):

    PYTHONPATH=src python benchmarks/reach.py

Exit 0: every unreached ``def`` is listed and every entry point ran
cleanly.  Exit 1: an unlisted unreached ``def`` (its list lines are
printed, ready to paste after a reason is chosen), an invalid list
line, or an entry point that raised or exited non-zero — a broken entry
point would otherwise silently shrink the reached set.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import runpy
import shutil
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
LIST_PATH = ROOT / "benchmarks" / "unreached.txt"

#: why a ``def`` may stay unreached:
#: ``wrap-point`` — named in the protected ``benchmarks/e2e/spans.py``, or
#: called only by one; ``pinned`` — test ids pinned outside the repo;
#: ``error-path`` — runs only when something fails; ``debug`` —
#: ``__repr__``/``__str__``
REASONS = ("wrap-point", "pinned", "error-path", "debug")


# -- the walker ----------------------------------------------------------------


@dataclass(frozen=True)
class Def:
    key: str            # "gpu/device.py:Device.launch"
    file: str           # absolute path, as code objects name it
    first: int          # first decorator line == code.co_firstlineno
    lines: int          # first decorator to last line
    outer: str | None   # key of the enclosing def, if any


def walk(root: Path) -> list[Def]:
    """Every ``def`` under ``root``, in file and source order."""
    return [d for path in sorted(root.rglob("*.py"))
            for d in _walk_file(path, path.relative_to(root).as_posix())]


def _walk_file(path: Path, rel: str) -> list[Def]:
    defs: list[Def] = []
    seen: dict[str, int] = {}

    def visit(node, qual: tuple[str, ...], outer: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, (*qual, child.name), outer)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(ast.unparse(d).endswith("abstractmethod")
                       for d in child.decorator_list):
                    continue
                key = f"{rel}:{'.'.join((*qual, child.name))}"
                seen[key] = seen.get(key, 0) + 1
                if seen[key] > 1:  # a property setter, a redefinition
                    key = f"{key}[{seen[key]}]"
                first = min([d.lineno for d in child.decorator_list]
                            + [child.lineno])
                defs.append(Def(key, str(path), first,
                                child.end_lineno - first + 1, outer))
                visit(child, (*qual, child.name), key)
            else:
                visit(child, qual, outer)

    visit(ast.parse(path.read_text(), filename=str(path)), (), None)
    return defs


def unreached(defs: list[Def], called: set[tuple[str, int]]) -> list[Def]:
    """The defs never called, each nested one dropped when its outer is."""
    missed = {d.key for d in defs if (d.file, d.first) not in called}
    by_key = {d.key: d for d in defs}

    def inside_missed(d: Def) -> bool:
        while d.outer is not None:
            if d.outer in missed:
                return True
            d = by_key[d.outer]
        return False

    return [d for d in defs if d.key in missed and not inside_missed(d)]


# -- the list and the comparer --------------------------------------------------


def parse_list(text: str) -> dict[str, tuple[int, str]]:
    """``key  lines  reason`` lines (and ``#`` comment lines) -> {key: (lines, reason)}."""
    entries: dict[str, tuple[int, str]] = {}
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3 or not parts[1].isdigit():
            raise ValueError(f"line {n}: expected 'key  lines  reason': {raw!r}")
        key, lines, reason = parts
        if reason not in REASONS:
            raise ValueError(f"line {n}: reason {reason!r} not one of "
                             f"{', '.join(REASONS)}")
        if key in entries:
            raise ValueError(f"line {n}: {key} listed twice")
        entries[key] = (int(lines), reason)
    return entries


def format_entry(d: Def, reason: str = "?") -> str:
    return f"{d.key}  {d.lines}  {reason}"


@dataclass
class Comparison:
    missing: list[Def]      # unreached and not listed: fails the run
    stale: list[str]        # listed but reached or gone: remove them
    resized: list[str]      # listed with another line count: update them

    @property
    def ok(self) -> bool:
        return not self.missing


def compare(found: list[Def], listed: dict[str, tuple[int, str]]) -> Comparison:
    by_key = {d.key: d for d in found}
    return Comparison(
        missing=[d for d in found if d.key not in listed],
        stale=[k for k in listed if k not in by_key],
        resized=[format_entry(by_key[k], listed[k][1]) for k in listed
                 if k in by_key and by_key[k].lines != listed[k][0]],
    )


def report(cmp: Comparison, found: list[Def], total_defs: int) -> list[str]:
    lines = [f"reach: {len(found)} of {total_defs} defs unreached, "
             f"{sum(d.lines for d in found)} def-lines"]
    if cmp.missing:
        lines.append(f"reach: {len(cmp.missing)} unreached def(s) not in "
                     f"{LIST_PATH.name} — delete them, or list them with a "
                     f"reason ({', '.join(REASONS)}):")
        lines += [f"  {format_entry(d)}" for d in cmp.missing]
    if cmp.stale:
        lines.append(f"reach: {len(cmp.stale)} listed def(s) now reached or "
                     "gone — remove them from the list:")
        lines += [f"  {k}" for k in cmp.stale]
    if cmp.resized:
        lines.append("reach: listed def(s) whose line count changed:")
        lines += [f"  {e}" for e in cmp.resized]
    return lines


# -- the profiler ---------------------------------------------------------------

_CALLED: set[tuple[str, int]] = set()


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _CALLED.add((code.co_filename, code.co_firstlineno))


# -- the entry points -----------------------------------------------------------

#: the small CLI run every option below is added to
CLI_BASE = ("--resolution", "32", "32", "--levels", "2", "--steps", "2")

#: option sets of ``python -m repro``, each run at :data:`CLI_BASE`
CLI_MODES = (
    ("--profile",), ("--cpu",), ("--cpu", "--overlap"), ("--non-resident",),
    ("--auto", "--regrid-incremental"), ("--auto", "--overlap", "--batch"),
    ("--sanitize", "--overlap", "--batch"),
    ("--trace", "cli_trace.json", "--checkpoint", "cli.npz", "--vtk", "vtk"),
    ("--problem", "sod"), ("--problem", "triple_point"), ("--problem", "blast"),
    ("--balance", "sfc"), ("--balance", "hilbert"), ("--balance", "lpt"),
    ("--machine", "IPA"), ("--machine", "Titan"),
    ("--metrics-interval", "1"), ("--end-time", "0.0005"),
)

_SANITIZE = ("--problem", "sod", "--sanitize")

#: the baselines CI gates
GATED = ("fig9_serial", "ablation_overlap", "ablation_batch",
         "ablation_regrid", "ablation_resident")

#: the ``python -m repro…`` steps of ``.github/workflows/ci.yml``, at their
#: own sizes, in order; ``{root}`` is the repository root and ``{results}``
#: a scratch copy of ``benchmarks/results``
CI_COMMANDS = (
    *(("repro", *_SANITIZE, *a.split()) for a in (
        "--resolution 24 24 --levels 2 --max-patch 12 --steps 3 --overlap",
        "--resolution 24 24 --levels 2 --max-patch 12 --steps 3 --batch",
        "--resolution 24 24 --levels 2 --max-patch 12 --steps 3 --batch --overlap",
        "--resolution 24 24 --levels 2 --max-patch 12 --steps 3 --cpu --batch",
        "--resolution 24 23 --levels 2 --max-patch 8 --steps 3 --batch",
        "--resolution 25 23 --levels 3 --max-patch 7 --steps 3 --batch",
        "--resolution 25 23 --levels 3 --max-patch 7 --nodes 2 --steps 3 "
        "--batch",
        "--resolution 24 23 --levels 2 --max-patch 8 --nodes 2 --steps 3 "
        "--batch --overlap",
        "--resolution 24 24 --levels 2 --max-patch 8 --nodes 2 --steps 8 "
        "--regrid-interval 3 --batch --overlap",
        "--resolution 24 23 --levels 2 --max-patch 8 --steps 3",
        "--resolution 24 23 --levels 2 --max-patch 8 --nodes 2 --steps 3",
        "--resolution 24 23 --levels 2 --max-patch 8 --steps 3 --non-resident",
        "--resolution 24 23 --levels 2 --max-patch 8 --steps 3 --non-resident "
        "--batch",
        "--resolution 96 96 --levels 1 --max-patch 48 --steps 3 --batch",
        "--resolution 384 192 --levels 1 --max-patch 96 --steps 3 --batch "
        "--overlap",
    )),
    *(("repro", "--problem", "triple_point", "--resolution", "28", "12",
       "--levels", "3", "--max-patch", "8", "--regrid-interval", "1",
       "--steps", "3", "--nodes", "2", *a.split(), "--sanitize")
      for a in ("--batch", "", "--non-resident --batch")),
    ("repro", "--problem", "triple_point", "--resolution", "28", "12",
     "--levels", "3", "--max-patch", "8", "--regrid-interval", "1",
     "--steps", "4", "--nodes", "2", "--regrid-incremental", "--sanitize"),
    ("repro", "--problem", "sod", "--resolution", "32", "32", "--levels", "2",
     "--max-patch", "16", "--nodes", "2", "--steps", "5", "--overlap",
     "--batch", "--trace", "trace.json", "--profile"),
    ("repro.obs.validate", "trace.json", "--require-tracks", "4",
     "--require-categories", "kernel", "transfer", "comm", "fused"),
    ("repro", "check", "--lint", "{root}/src/repro/serve"),
    ("repro.serve.smoke",),
    ("repro", "--problem", "sod", "--resolution", "48", "48", "--levels", "2",
     "--max-patch", "8", "--steps", "8", "--auto"),
    *(("repro", "check", "--all", "--format", fmt, "--output", f"check.{fmt}",
       "{root}/src", "{root}/benchmarks", "{root}/examples",
       "{root}/tests/fill_oracle.py", "{root}/tests/kernel_oracle.py",
       "{root}/tests/geometry_oracle.py", "{root}/tests/fig3.py")
      for fmt in ("text", "json", "sarif")),
    ("repro", "check", "perf", "--results", "{results}", "--update-baselines",
     "--reason", "reachability map", *GATED),
    ("repro", "check", "perf", "--results", "{results}", *GATED),
)


def _module_main(module: str, *args: str) -> None:
    """``python -m module args…``, in-process (its exit is a SystemExit)."""
    saved = sys.argv
    sys.argv = [module, *args]
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    finally:
        sys.argv = saved


def _e2e_workloads(state: dict) -> None:
    sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
    import workloads
    from repro.api import run

    for w in workloads.WORKLOADS:
        res = run(w.config(0))
        state.setdefault("manifest", res.metrics)


def _bench_points() -> None:
    """One smallest point of each bench module, through its own functions.

    ``bench_serve_throughput`` has no point smaller than the whole bench;
    ``repro.serve.smoke`` runs the same scheduler at the same size.
    """
    import importlib

    sys.path.insert(0, str(ROOT / "benchmarks"))
    b = {name: importlib.import_module(name) for name in (
        "bench_ablation_batch", "bench_ablation_design", "bench_ablation_overlap",
        "bench_ablation_regrid", "bench_ablation_resident",
        "bench_ablation_tagbits", "bench_amr_savings", "bench_fig10_strong",
        "bench_fig11_weak", "bench_fig9_serial", "bench_table1_machines")}
    b["bench_table1_machines"].render_table1()
    b["bench_fig10_strong"].RES = 64  # its 1-node point, on a small mesh
    b["bench_fig10_strong"].run_point(1, True)
    b["bench_fig9_serial"].run_point(25, True)
    b["bench_fig9_serial"].run_point(25, False)
    b["bench_ablation_batch"].run_point(b["bench_ablation_batch"].RES, True)
    b["bench_ablation_design"].run_point(steps=2)
    b["bench_ablation_overlap"].run_case(True)
    b["bench_ablation_regrid"].run_case(True, True)
    b["bench_ablation_resident"].run_point(True)
    b["bench_fig11_weak"].run_point(1)
    b["bench_fig11_weak"].run_regrid_point(16, True)
    tagbits = b["bench_ablation_tagbits"]  # its point is its fixtures
    tagbits.strategies.__wrapped__(tagbits.mid_run_sim.__wrapped__())
    amr = b["bench_amr_savings"]
    res = amr.run_case(max_levels=2, base=32)
    amr.l1_error_fine(res.sim, 64)
    from repro.hydro.diagnostics import amr_savings
    amr_savings(res.sim.hierarchy)


def _examples() -> None:
    for path in sorted((ROOT / "examples").glob("*.py")):
        runpy.run_path(str(path), run_name="__main__")


def entry_points(state: dict, results: str) -> list[tuple[str, object]]:
    """(label, thunk) for every entry point; a thunk fails by raising
    (``SystemExit`` with a non-zero code included)."""
    def cli(*args):
        return lambda: _module_main("repro", *args)

    def ci(cmd):
        return lambda: _module_main(*cmd)

    def gated_manifests():
        for name in GATED:
            with open(os.path.join(results, f"BENCH_{name}.json"), "w") as f:
                json.dump({"metrics_manifest": state["manifest"]}, f)

    return [
        ("e2e workloads", lambda: _e2e_workloads(state)),
        *((f"repro {' '.join(m)}", cli(*CLI_BASE, *m)) for m in CLI_MODES),
        ("bench manifests for check perf", gated_manifests),
        *((f"python -m {' '.join(c)}", ci(c)) for c in (
            [a.format(root=ROOT, results=results) for a in cmd]
            for cmd in CI_COMMANDS)),
        ("repro submit", cli("submit", "--queue", "queue.jsonl", "--name",
                             "reach", "--resolution", "32", "--levels", "2",
                             "--steps", "2")),
        ("repro serve", cli("serve", "--queue", "queue.jsonl", "--devices", "1",
                            "--events")),
        ("examples", _examples),
        ("bench points", _bench_points),
    ]


def run_entry_points() -> list[str]:
    """Run every entry point under the profiler; returns the failures."""
    failures = []
    state: dict = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        os.chdir(tmp)
        results = os.path.join(tmp, "results")
        shutil.copytree(ROOT / "benchmarks" / "results", results,
                        ignore=shutil.ignore_patterns("BENCH_*", "*.txt"))
        threading.setprofile(_profile)
        sys.setprofile(_profile)
        try:
            for label, thunk in entry_points(state, results):
                t0 = time.perf_counter()
                out = io.StringIO()
                code = None
                try:
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(out):
                        thunk()
                except SystemExit as e:
                    code = e.code
                except Exception:
                    code = "raised:\n" + traceback.format_exc()
                if code:
                    failures.append(f"{label}: exit {code}\n{out.getvalue()[-2000:]}")
                print(f"reach: {time.perf_counter() - t0:7.1f} s  {label}"
                      f"{'  FAILED' if code else ''}", file=sys.stderr)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            os.chdir(cwd)
    return failures


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    # walked first: the line numbers keying each def are then the ones
    # the profiler sees, even if a file is edited while the entry points run
    defs = walk(PACKAGE)
    failures = run_entry_points()
    found = unreached(defs, _CALLED)
    try:
        listed = parse_list(LIST_PATH.read_text()) if LIST_PATH.exists() else {}
    except ValueError as e:
        print(f"reach: {LIST_PATH.name}: {e}")
        return 1
    cmp = compare(found, listed)
    print("\n".join(report(cmp, found, len(defs))))
    for f in failures:
        print(f"reach: entry point failed — {f}")
    return 0 if cmp.ok and not failures else 1


if __name__ == "__main__":
    sys.exit(main())
