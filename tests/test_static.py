"""Tests for the static half of samrcheck (``repro.check.static``).

Covers AST effect inference on synthetic and real kernels, dispatch-site
resolution and declaration checking (including an injected
mis-declaration caught without running the simulation), the module
layering DAG with cycle detection, waiver round-trips, SARIF output, and
the load-bearing guarantee that removing the over-declared reads this PR
fixed does not change the derived task-DAG edges.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.check import dispatch, layers
from repro.check.effects import CONDITIONAL, DEFINITE, analyze_source
from repro.check.lint import parse_waiver
from repro.check.static import check_main
from repro.sched import GraphBuilder, TaskKind

KERNELS_PY = "src/repro/hydro/kernels.py"


def _effects(source: str):
    return analyze_source(textwrap.dedent(source), "<test>")


# -- effect inference on synthetic kernels ------------------------------------

def test_store_only_kernel():
    eff = _effects("""
        def k(a, n):
            a[0:n] = 1.0
    """)["k"]
    assert "a" in eff.stores and "a" not in eff.loads


def test_load_store_pair():
    eff = _effects("""
        def k(src, dst, n):
            dst[0:n] = src[0:n] * 2.0
    """)["k"]
    assert eff.loads.get("src") == DEFINITE
    assert "dst" in eff.stores and "dst" not in eff.loads


def test_ufunc_out_operand_is_a_store():
    eff = _effects("""
        def win(arr, i0, j0, n0, n1):
            return arr[..., i0:i0 + n0, j0:j0 + n1]

        def k(src, dst, acc, n, g):
            w = win(dst, g, g, n, n)
            np.multiply(win(src, g, g, n, n), 2.0, out=w)
            np.add(w, 1.0, out=w)
            np.add(acc[0:n], src[0:n], out=acc[0:n])
    """)["k"]
    assert "src" in eff.loads and "src" not in eff.stores
    # the second ufunc reads back what the first stored: not incoming
    assert eff.stores.get("dst") == DEFINITE and "dst" not in eff.loads
    # an in-place accumulation reads the operand before it stores it
    assert "acc" in eff.loads and eff.stores.get("acc") == DEFINITE


def test_augmented_assign_is_load_and_store():
    eff = _effects("""
        def k(acc, inc, n):
            acc[0:n] += inc[0:n]
    """)["k"]
    assert "acc" in eff.loads and "acc" in eff.stores
    assert "inc" in eff.loads and "inc" not in eff.stores


def test_read_after_covering_write_is_not_an_incoming_read():
    eff = _effects("""
        def k(tmp, out, src):
            tmp[:] = src[:] + 1.0
            out[:] = tmp[:] * 2.0
    """)["k"]
    assert "tmp" not in eff.loads  # upward-exposed loads only
    assert "tmp" in eff.stores and "src" in eff.loads


def test_branch_conditional_store_does_not_kill_other_arm():
    eff = _effects("""
        def k(a, b, flag):
            if flag:
                a[:] = 0.0
            else:
                b[:] = a[:]
    """)["k"]
    # the store on the taken arm must not hide the load on the other
    assert "a" in eff.loads
    assert eff.stores.get("a") == CONDITIONAL


def test_alias_assignment_tracks_base_array():
    eff = _effects("""
        def k(a, b, flag):
            x = a if flag else b
            x[:] = 1.0
    """)["k"]
    assert eff.stores.get("a") == CONDITIONAL
    assert eff.stores.get("b") == CONDITIONAL


def test_win_ghost_classification():
    eff = _effects("""
        def win(arr, i0, j0, n0, n1):
            return arr[..., i0:i0 + n0, j0:j0 + n1]

        def k(a, b, c, out, n0, n1, g, e):
            out_w = win(out, g, g, n0, n1)
            out_w[...] = (win(a, g - 1, g, n0, n1)   # definite ghost read
                          + win(b, g - e, g, n0, n1)  # unresolvable offset
                          + win(c, g + 1, g, n0, n1))  # high side: centring
    """)["k"]
    assert eff.ghost_loads.get("a") == DEFINITE
    assert eff.ghost_loads.get("b") == CONDITIONAL
    assert "c" not in eff.ghost_loads
    assert "out" in eff.stores and all(p in eff.loads for p in "abc")


def test_constant_loop_unroll_resolves_offsets():
    eff = _effects("""
        def win(arr, i0, j0, n0, n1):
            return arr[..., i0:i0 + n0, j0:j0 + n1]

        def k(a, out, n0, n1, g):
            acc = win(a, g, g, n0, n1) * 0.0
            for off in (-1, 0, 1):
                acc = acc + win(a, g + off, g, n0, n1)
            w = win(out, g, g, n0, n1)
            w[...] = acc
    """)["k"]
    assert eff.ghost_loads.get("a") == DEFINITE


def test_lambda_and_helper_inlining():
    eff = _effects("""
        def win(arr, i0, j0, n0, n1):
            return arr[..., i0:i0 + n0, j0:j0 + n1]

        def k(p, d, out, n0, n1, g):
            pw = lambda di: win(p, g + di, g, n0, n1)

            def denom():
                return win(d, g - 1, g, n0, n1)

            w = win(out, g, g, n0, n1)
            w[...] = (pw(1) - pw(-1)) / denom()
    """)["k"]
    assert eff.loads.get("p") == DEFINITE
    assert eff.ghost_loads.get("p") == DEFINITE
    assert eff.ghost_loads.get("d") == DEFINITE
    assert "out" in eff.stores


# -- real-kernel spot checks --------------------------------------------------

def test_pdv_does_not_load_its_outputs():
    eff = analyze_source(open(KERNELS_PY).read(), KERNELS_PY)["pdv"]
    assert "density1" not in eff.loads and "energy1" not in eff.loads
    assert eff.stores.get("density1") and eff.stores.get("energy1")
    assert eff.loads.get("density0") == DEFINITE
    assert eff.loads.get("pressure") == DEFINITE


def test_advec_cell_never_loads_mass_fluxes():
    eff = analyze_source(open(KERNELS_PY).read(), KERNELS_PY)["advec_cell"]
    assert "mass_flux_x" not in eff.loads
    assert "mass_flux_y" not in eff.loads
    # they are (conditionally) written — the swept direction's only
    assert eff.stores.get("mass_flux_x") == CONDITIONAL
    assert eff.stores.get("mass_flux_y") == CONDITIONAL


def test_viscosity_reads_pressure_ghosts():
    eff = analyze_source(open(KERNELS_PY).read(), KERNELS_PY)["viscosity"]
    assert eff.ghost_loads.get("pressure") == DEFINITE
    assert "visc" in eff.stores


# -- dispatch-site resolution over the real tree ------------------------------

def test_every_dispatch_site_in_src_repro_is_resolved():
    sites, findings = dispatch.scan_paths(["src/repro"])
    levels = {}
    for s in sites:
        levels[s.level] = levels.get(s.level, 0) + 1
    assert levels.get(dispatch.UNRESOLVED, 0) == 0
    # the nine integrator funnel sites bind all the way to kernel ASTs
    assert levels[dispatch.FULL] == 9
    assert len(sites) >= 20
    # the repo itself carries no unwaived declaration mismatch: the only
    # remaining finding is advec_cell's intentionally-declared vacuous
    # read, which its waiver absorbs in repro.check.static
    assert all("advec_cell" in f.message for f in findings)


def test_repo_check_all_is_clean():
    assert check_main(["--all", "src/repro"]) == 0


# -- injected mis-declarations caught statically ------------------------------

@pytest.fixture
def synthetic_pkg(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "kernels.py").write_text(textwrap.dedent("""
        def axpy(alpha, beta, n, g):
            beta[0:n] += alpha[0:n]
    """))
    return pkg


def _run_source(reads, writes):
    """A ``backend.run`` site whose body subscripts a name -> array dict."""
    return textwrap.dedent(f"""
        from . import kernels as K

        class Thing:
            def go(self, backend, arrs, n, g):
                def body():
                    a = arrs
                    K.axpy(a["alpha"], a["beta"], n, g)
                backend.run("hydro.axpy", n, body,
                            reads={reads!r}, writes={writes!r})
    """)


def _funnel_source(reads, writes):
    """An integrator-funnel site: the kernel over positional operands."""
    return textwrap.dedent(f"""
        from . import kernels as K

        class Thing:
            def go(self, patch, rank, n, g):
                names = ("alpha", "beta")

                def fn(a, b):
                    K.axpy(a, b, n, g)
                self._run(patch, rank, "hydro.axpy", n, fn, names, (n, g),
                          reads={reads!r}, writes={writes!r})
    """)


SOURCES = pytest.mark.parametrize("source", [_run_source, _funnel_source])


@SOURCES
def test_injected_underdeclared_read_is_caught(synthetic_pkg, source):
    (synthetic_pkg / "integ.py").write_text(
        source(reads=("beta",), writes=("beta",)))
    sites, findings = dispatch.scan_paths([synthetic_pkg])
    assert [s.level for s in sites] == [dispatch.FULL]
    rules = {f.rule for f in findings}
    assert "decl-under-read" in rules
    assert any("alpha" in f.message for f in findings)


@SOURCES
def test_injected_overdeclared_read_names_phantom_edge(synthetic_pkg, source):
    (synthetic_pkg / "integ.py").write_text(
        source(reads=("alpha", "beta", "gamma"), writes=("beta",)))
    sites, findings = dispatch.scan_paths([synthetic_pkg])
    over = [f for f in findings if f.rule == "decl-over-read"]
    assert len(over) == 1 and "gamma" in over[0].message
    assert "phantom" in over[0].message


@SOURCES
def test_correct_declaration_is_clean(synthetic_pkg, source):
    (synthetic_pkg / "integ.py").write_text(
        source(reads=("alpha", "beta"), writes=("beta",)))
    _sites, findings = dispatch.scan_paths([synthetic_pkg])
    assert findings == []


# -- layering -----------------------------------------------------------------

def _mk(tree: dict, root):
    for rel, text in tree.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(text))
    return root


def test_layer_violation_flagged_and_lazy_import_exempt(tmp_path):
    root = _mk({
        "repro/__init__.py": "",
        "repro/util/__init__.py": "",
        "repro/util/bad.py": "from ..hydro import thing\n",
        "repro/util/good.py": """
            def f():
                from ..hydro import thing
                return thing
        """,
        "repro/hydro/__init__.py": "",
        "repro/hydro/thing.py": "",
    }, tmp_path)
    findings, _ = layers.check_layers(root / "repro")
    assert len(findings) == 1
    assert findings[0].rule == "layer"
    assert "bad.py" in str(findings[0].path)
    assert "foundation" in findings[0].message


def test_serve_layer_resolves_aliased_and_reexported_imports(tmp_path):
    root = _mk({
        "repro/__init__.py": "",
        "repro/api.py": "",
        "repro/serve/__init__.py": "",
        # aliased relative import of a physics package: violation
        "repro/serve/bad.py": "from .. import hydro as h\n",
        # facade import through the package root: allowed
        "repro/serve/good.py": "from .. import api\n",
        "repro/hydro/__init__.py": "",
    }, tmp_path)
    findings, _ = layers.check_layers(root / "repro")
    assert len(findings) == 1
    assert "hydro" in findings[0].message
    assert "bad.py" in str(findings[0].path)


def test_init_reexport_charges_defining_module(tmp_path):
    root = _mk({
        "repro/__init__.py": "",
        "repro/pdat/__init__.py": "from .core import Thing\n",
        "repro/pdat/core.py": "",
        "repro/mesh/__init__.py": "",
        "repro/mesh/user.py": "from ..pdat import Thing\n",
    }, tmp_path)
    _, graph = layers.check_layers(root / "repro")
    assert "repro.pdat.core" in graph["repro.mesh.user"]


def test_import_cycle_detected(tmp_path):
    root = _mk({
        "repro/__init__.py": "",
        "repro/mesh/__init__.py": "",
        "repro/mesh/a.py": "from . import b\n",
        "repro/mesh/b.py": "from . import a\n",
    }, tmp_path)
    findings, _ = layers.check_layers(root / "repro")
    cycles = [f for f in findings if f.rule == "layer-cycle"]
    assert len(cycles) == 1
    assert "repro.mesh.a" in cycles[0].message
    assert "repro.mesh.b" in cycles[0].message


def test_repo_layering_is_clean():
    findings, graph = layers.check_layers("src/repro")
    assert findings == []
    assert len(graph) > 50  # the whole tree was actually scanned


# -- waivers ------------------------------------------------------------------

def test_parse_waiver_forms():
    assert parse_waiver("x = 1") is None
    rules, reason = parse_waiver("x  # samrcheck: ok")
    assert rules is None and reason is None
    rules, reason = parse_waiver("x  # samrcheck: ok(slab): kept path")
    assert rules == frozenset({"slab"}) and reason == "kept path"
    rules, reason = parse_waiver("x  # samrcheck: ok(a, b) — legacy text")
    assert rules == frozenset({"a", "b"}) and reason == "legacy text"


def test_waiver_round_trip(tmp_path, capsys):
    bad = tmp_path / "repro" / "util"
    bad.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (bad / "__init__.py").write_text("")
    line = "from ..hydro import thing"
    f = bad / "mod.py"

    # unwaived: one layer finding
    f.write_text(line + "\n")
    assert check_main(["--static", str(tmp_path / "repro")]) == 1
    assert "[layer]" in capsys.readouterr().out

    # waived with the right rule and a reason: clean
    f.write_text(line + "  # samrcheck: ok(layer): test fixture\n")
    assert check_main(["--static", str(tmp_path / "repro")]) == 0
    capsys.readouterr()

    # waived with the wrong rule: finding survives, waiver is stale
    f.write_text(line + "  # samrcheck: ok(slab): wrong rule\n")
    rc = check_main(["--static", str(tmp_path / "repro")])
    out = capsys.readouterr().out
    assert rc == 2
    assert "[layer]" in out and "[waiver-unused]" in out

    # stale waiver on a clean line is itself a finding
    f.write_text("x = 1  # samrcheck: ok(layer): nothing here\n")
    rc = check_main(["--static", str(tmp_path / "repro")])
    out = capsys.readouterr().out
    assert rc == 1 and "[waiver-unused]" in out

    # bare waiver lacks a reason
    f.write_text(line + "  # samrcheck: ok\n")
    rc = check_main(["--static", str(tmp_path / "repro")])
    out = capsys.readouterr().out
    assert rc == 1 and "[waiver-reason]" in out
    assert "[layer]" not in out  # the waiver still waives

    # waiver syntax quoted in a docstring is not a live waiver
    f.write_text('"""example: # samrcheck: ok"""\n')
    assert check_main(["--static", str(tmp_path / "repro")]) == 0
    capsys.readouterr()


# -- output formats -----------------------------------------------------------

def test_sarif_output_shape(tmp_path, capsys):
    pkg = tmp_path / "repro" / "util"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text("from ..hydro import thing\n")
    out_file = tmp_path / "report.sarif"
    rc = check_main(["--static", "--format", "sarif",
                     "--output", str(out_file), str(tmp_path / "repro")])
    capsys.readouterr()
    assert rc == 1
    doc = json.loads(out_file.read_text())
    assert doc["version"] == "2.1.0"
    assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "samrcheck"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    result = run["results"][0]
    assert result["ruleId"] in rule_ids
    assert result["message"]["text"]
    loc = result["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"].endswith("mod.py")
    assert loc["region"]["startLine"] >= 1


def test_json_output_includes_sites(capsys):
    rc = check_main(["--static", "--format", "json", "src/repro"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["summary"]["findings"] == 0
    kinds = {s["kind"] for s in doc["sites"]}
    assert {"run", "run_batched", "batch_member",
            "integrator_run"} <= kinds


# -- entry points -------------------------------------------------------------

def test_repro_check_subcommand():
    from repro.cli import main as cli_main

    assert cli_main(["check", "--all", "src/repro"]) == 0


# -- the fixed over-declaration is inert in the DAG ---------------------------

class _Datum:
    def __init__(self, name):
        self.var_name = name


def _noop(stream):
    return None


def _edges(reads, writes):
    gb = GraphBuilder(comm=None)
    writer_targets = list(reads) + [w for w in writes if w not in reads]
    gb.add(TaskKind.KERNEL, 0, "hydro.writer", _noop,
           writes=writer_targets)
    t = gb.add(TaskKind.KERNEL, 0, "hydro.pdv", _noop,
               reads=reads, writes=writes)
    return sorted(d.label for d in set(t.deps))


def test_removing_vacuous_read_of_own_output_adds_no_edges():
    """pdv declared ``reads=names`` including density1/energy1, which it
    only writes; dropping those reads must not change the derived
    edges (the WAW edge against the last writer subsumes the RAW)."""
    d0, d1, e0, e1 = (_Datum(n) for n in
                      ("density0", "density1", "energy0", "energy1"))
    over_declared = _edges(reads=[d0, e0, d1, e1], writes=[d1, e1])
    fixed = _edges(reads=[d0, e0], writes=[d1, e1])
    assert over_declared == fixed
