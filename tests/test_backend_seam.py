"""Guard tests for the execution-backend seam.

The whole point of ``repro.exec`` is that residency is decided in exactly
one place, and the point of the one ``repro.pdat`` stack is that *nothing*
in it decides on residency at all (the memory-space object answers) and
that index-space geometry never switches on the centring string (the
variable's offset answers).  These tests grep the source tree so neither
can silently re-fragment.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: the only places allowed to ask where a patch-data object's bytes live
ALLOWED = ("exec", "pdat")

DISPATCH_PATTERNS = [
    re.compile(r"\bspace\.resident\b"),
    re.compile(r"\bis_resident\("),
    # the class flag of the two former hierarchies must not come back
    re.compile(r'getattr\(\s*\w+\s*,\s*["\']RESIDENT["\']'),
    re.compile(r"\bRESIDENT\b\s*="),
    re.compile(r"\bRESIDENT\b"),
]

#: a ``centring ==`` / ``centring in`` comparison is legitimate only where
#: the *physics* differs by centring: declaration validation, face-likeness
#: under reflection, and the interpolation stencil's reach
CENTRING_SWITCH = re.compile(r"\bcentring\s*(==|!=|(not\s+)?in\b)")
CENTRING_SWITCH_ALLOWED = {
    "mesh/variables.py": None,
    "hydro/boundary.py": None,
    "xfer/refine_schedule.py": "needed_coarse_frame",
}


def _source_files_outside_seam():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if rel.parts and rel.parts[0] in ALLOWED:
            continue
        yield path


def test_src_layout_assumption():
    assert SRC.is_dir(), f"expected package source at {SRC}"
    assert (SRC / "exec" / "backend.py").is_file()


@pytest.mark.parametrize("pattern", DISPATCH_PATTERNS, ids=lambda p: p.pattern)
def test_no_residency_dispatch_outside_seam(pattern):
    offenders = []
    for path in _source_files_outside_seam():
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if pattern.search(line):
                offenders.append(f"{path.relative_to(SRC)}:{lineno}: {line.strip()}")
    assert not offenders, (
        "residency dispatch leaked outside repro/exec and repro/pdat "
        "— route it through a Backend instead:\n"
        + "\n".join(offenders)
    )


def test_patch_data_never_branches_on_its_memory_space():
    """Inside ``repro/pdat`` every host/device difference is an answer of
    the space object; no method body tests residency."""
    pattern = re.compile(
        r"is_resident|RESIDENT|\.resident\b|device is (not )?None|isinstance\(")
    offenders = [
        f"{path.relative_to(SRC)}:{lineno}: {line.strip()}"
        for path in sorted((SRC / "pdat").glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)]
    assert not offenders, "\n".join(offenders)


def test_index_space_geometry_never_switches_on_the_centring_string():
    import ast

    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        text = path.read_text()
        hits = [n for n, line in enumerate(text.splitlines(), start=1)
                if CENTRING_SWITCH.search(line.split("#")[0])]
        if not hits:
            continue
        if rel not in CENTRING_SWITCH_ALLOWED:
            offenders += [f"{rel}:{n}" for n in hits]
            continue
        only_in = CENTRING_SWITCH_ALLOWED[rel]
        if only_in is not None:
            fn = next(n for n in ast.walk(ast.parse(text))
                      if isinstance(n, ast.FunctionDef) and n.name == only_in)
            offenders += [f"{rel}:{n}" for n in hits
                          if not fn.lineno <= n <= fn.end_lineno]
    assert not offenders, (
        "index-space geometry derives from Variable.offset; a centring "
        "comparison belongs only where the physics differs:\n"
        + "\n".join(offenders))


def test_backends_are_the_only_launch_dispatchers():
    """`device.launch(` outside exec/ should only appear in the gpu runtime
    itself and in the data packages (whose ops are self-charging)."""
    pattern = re.compile(r"\.device\.launch\(")
    offenders = []
    for path in _source_files_outside_seam():
        rel = path.relative_to(SRC)
        if rel.parts[0] in ("gpu",):
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if pattern.search(line):
                offenders.append(f"{rel}:{lineno}: {line.strip()}")
    assert not offenders, (
        "direct device.launch dispatch outside the exec seam:\n"
        + "\n".join(offenders)
    )


def test_batched_sweeps_are_stated_over_buckets_not_replanned_per_launch():
    """A batched sweep's units are the level's shape buckets; the
    per-launch planner that used to recover them from per-patch members
    (and the hand-listed ``scalars`` keys it partitioned by) stays gone.
    So do the hand-written per-region fill program beside the compiled
    one and the factories' ``arena=`` switch that selected it, and the
    per-transaction sync program with its temporaries and the per-region
    slice arm of the transfer bodies."""
    import ast

    pattern = re.compile(
        r"SlabSpec|_slab_plan|_stacked_call|_interpolate|_group_copies"
        r"|_fused_refine|_clamp_member|_apply_boundary|arena="
        r"|alloc_temp|free_temps|temp_box_for|def chunks|_coarsen_one"
        r"|\.rest\b|fallback_regions")
    offenders = [
        f"{path.relative_to(SRC)}:{lineno}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)]
    assert not offenders, "\n".join(offenders)

    tree = ast.parse((SRC / "hydro" / "patch_integrator.py").read_text())
    scalars = [f"{fn.name}:{fn.lineno}" for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef)
               and "scalars" in {a.arg for a in fn.args.args + fn.args.kwonlyargs}]
    assert not scalars, f"a `scalars` parameter is back: {scalars}"
