"""Tests for the static half of samrcheck (``repro.check.static``).

Covers AST effect inference on synthetic and real kernels, dispatch-site
resolution and declaration checking (including an injected
mis-declaration caught without running the simulation), the module
layering DAG with cycle detection, waiver round-trips, SARIF output, and
the load-bearing guarantee that removing the over-declared reads this PR
fixed does not change the derived task-DAG edges.
"""

from __future__ import annotations

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro.check import dispatch, static
from repro.check.layers import find_cycles, module_name_for
from repro.check.effects import CONDITIONAL, DEFINITE, analyze_module
from repro.check.static import check_main, parse_waiver, run_checks
from repro.sched import GraphBuilder, TaskKind

KERNELS_PY = "src/repro/hydro/kernels.py"


def _effects(source: str):
    return analyze_module(ast.parse(textwrap.dedent(source)))


def _unwaived(monkeypatch, paths, rules):
    """The findings of ``rules`` (rule-name prefixes), sites and import
    graph over ``paths``, with every waiver ignored."""
    monkeypatch.setattr(static, "parse_waiver", lambda line: None)
    findings, sites, graph = run_checks(paths, do_lint=False)
    return [f for f in findings if f.rule.startswith(rules)], sites, graph


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


def test_imported_win_is_the_window_helper():
    eff = _effects("""
        from .kernels import win

        def k(a, out, n0, n1, g):
            w = win(out, g, g, n0, n1)
            w[...] = win(a, g - 1, g, n0, n1)
    """)["k"]
    assert eff.ghost_loads.get("a") == DEFINITE
    assert "out" in eff.stores and "out" not in eff.loads


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


@pytest.mark.parametrize("body", [
    "while n:\n    a[0:n] = 1.0",
    "with ctx:\n    a[0:n] = 1.0",
    "for i in range(n):\n    a[i] = 1.0",
    "for i in (-1, 0, 1):\n    a[0:n] = 1.0",
    "for i in {1, 2}:\n    a[0:n] = 1.0",
    "for i in ({[1]},):\n    a[0:n] = 1.0",
    "a[0:n] = [x for x in b]",
    "a[0:n] = np.add(*b)",
    "def h(x):\n    x[0:n] = 1.0\nh(x=a)",
    "x, y = (a, b) if n else (b, a)\nx[0:n] = 1.0",
])
def test_kernel_outside_the_language_is_unanalyzable(body):
    """Anything the analyzer does not model voids the whole summary
    instead of dropping the accesses it could not see."""
    eff = _effects("def k(a, b, n, ctx):\n"
                   + textwrap.indent(body, "    ") + "\n")["k"]
    assert not eff.analyzable
    assert _effects("def k(a, n):\n    a[0:n] = 1.0\n")["k"].analyzable


# -- real-kernel spot checks --------------------------------------------------

def test_pdv_does_not_load_its_outputs():
    eff = _effects(open(KERNELS_PY).read())["pdv"]
    assert "density1" not in eff.loads and "energy1" not in eff.loads
    assert eff.stores.get("density1") and eff.stores.get("energy1")
    assert eff.loads.get("density0") == DEFINITE
    assert eff.loads.get("pressure") == DEFINITE


def test_advec_cell_never_loads_mass_fluxes():
    eff = _effects(open(KERNELS_PY).read())["advec_cell"]
    assert "mass_flux_x" not in eff.loads
    assert "mass_flux_y" not in eff.loads
    # they are (conditionally) written — the swept direction's only
    assert eff.stores.get("mass_flux_x") == CONDITIONAL
    assert eff.stores.get("mass_flux_y") == CONDITIONAL


def test_viscosity_reads_pressure_ghosts():
    eff = _effects(open(KERNELS_PY).read())["viscosity"]
    assert eff.ghost_loads.get("pressure") == DEFINITE
    assert "visc" in eff.stores


# -- dispatch-site resolution over the real tree ------------------------------

def test_every_dispatch_site_in_src_repro_is_resolved(monkeypatch):
    findings, sites, _ = _unwaived(monkeypatch, ["src/repro"],
                                   ("decl-", "dispatch-", "parse"))
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
    assert findings
    assert all("advec_cell" in f.message for f in findings)


def test_repo_check_all_is_clean():
    assert check_main(["--all", "src/repro"]) == 0


def test_each_file_is_read_and_parsed_once(monkeypatch):
    """Every rule, the kernel effect analysis and the import resolver
    share one read and one parse per file."""
    files = sorted(Path("src/repro").rglob("*.py"))
    parsed, read = [], []
    parse, read_text = ast.parse, Path.read_text

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed.append(Path(filename).resolve())
        return parse(source, filename, *args, **kwargs)

    def counting_read_text(self, *args, **kwargs):
        read.append(self.resolve())
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    monkeypatch.setattr(Path, "read_text", counting_read_text)
    run_checks(["src/repro"])
    assert sorted(parsed) == sorted(read) == sorted(f.resolve() for f in files)


# -- injected mis-declarations caught statically ------------------------------

@pytest.fixture
def synthetic_pkg(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "kernels.py").write_text(textwrap.dedent("""
        def win(arr, i0, j0, n0, n1):
            return arr[..., i0:i0 + n0, j0:j0 + n1]

        def axpy(alpha, beta, n, g):
            beta[0:n] += alpha[0:n]

        def smooth(alpha, beta, n, g):
            w = win(beta, g, g, n, n)
            w[...] = win(alpha, g - 1, g, n, n)

        def pick(alpha, beta, n, g):
            match n:
                case 0:
                    beta[0:n] = alpha[0:n]
    """))
    return pkg


def _decls(reads, writes, ghost_reads):
    text = f"reads={reads!r}, writes={writes!r}"
    if ghost_reads is not None:
        text += f", ghost_reads={ghost_reads!r}"
    return text


def _run_source(reads, writes, kernel="axpy", ghost_reads=None):
    """A ``backend.run`` site whose body subscripts a name -> array dict."""
    return textwrap.dedent(f"""
        from . import kernels as K

        class Thing:
            def go(self, backend, arrs, n, g):
                def body():
                    a = arrs
                    K.{kernel}(a["alpha"], a["beta"], n, g)
                backend.run("hydro.{kernel}", n, body,
                            {_decls(reads, writes, ghost_reads)})
    """)


def _funnel_source(reads, writes, kernel="axpy", ghost_reads=None):
    """An integrator-funnel site: the kernel over positional operands."""
    return textwrap.dedent(f"""
        from . import kernels as K

        class Thing:
            def go(self, patch, rank, n, g):
                names = ("alpha", "beta")

                def fn(a, b):
                    K.{kernel}(a, b, n, g)
                self._run(patch, rank, "hydro.{kernel}", n, fn, names, (n, g),
                          {_decls(reads, writes, ghost_reads)})
    """)


SOURCES = pytest.mark.parametrize("source", [_run_source, _funnel_source])


@SOURCES
def test_injected_underdeclared_read_is_caught(synthetic_pkg, source):
    (synthetic_pkg / "integ.py").write_text(
        source(reads=("beta",), writes=("beta",)))
    findings, sites, _ = run_checks([synthetic_pkg], do_lint=False)
    assert [s.level for s in sites] == [dispatch.FULL]
    rules = {f.rule for f in findings}
    assert "decl-under-read" in rules
    assert any("alpha" in f.message for f in findings)


@SOURCES
def test_injected_overdeclared_read_names_phantom_edge(synthetic_pkg, source):
    (synthetic_pkg / "integ.py").write_text(
        source(reads=("alpha", "beta", "gamma"), writes=("beta",)))
    findings, sites, _ = run_checks([synthetic_pkg], do_lint=False)
    over = [f for f in findings if f.rule == "decl-over-read"]
    assert len(over) == 1 and "gamma" in over[0].message
    assert "phantom" in over[0].message


@SOURCES
def test_correct_declaration_is_clean(synthetic_pkg, source):
    (synthetic_pkg / "integ.py").write_text(
        source(reads=("alpha", "beta"), writes=("beta",)))
    findings, _sites, _ = run_checks([synthetic_pkg], do_lint=False)
    assert findings == []


#: one mis-declaration per mismatch rule the tests above do not reach:
#: (kernel, declarations, the one finding it must produce)
MISDECLARED = pytest.mark.parametrize("kernel, decls, rule, message", [
    ("axpy", {"reads": ("alpha", "beta"), "writes": ()},
     "decl-under-write",
     "kernel 'hydro.axpy' writes 'beta' (definite in parameter 'beta') "
     "but the site declares no write — missing WAW/WAR edges (latent "
     "race)"),
    ("smooth", {"reads": ("alpha",), "writes": ("beta",)},
     "decl-under-ghost",
     "kernel 'hydro.smooth' reads the ghost region of 'alpha' (parameter "
     "'alpha') but the site declares no ghost_read — halo staleness "
     "would go unchecked"),
    ("axpy", {"reads": ("alpha", "beta"), "writes": ("beta", "gamma")},
     "decl-over-write",
     "declared write of 'gamma' is not an operand of kernel 'hydro.axpy' "
     "— induces phantom WAW/WAR edges"),
    ("axpy", {"reads": ("alpha", "beta"), "writes": ("alpha", "beta")},
     "decl-over-write",
     "declared write of 'alpha' is never stored by kernel 'hydro.axpy' — "
     "induces phantom WAW/WAR edges serializing against every other "
     "access of 'alpha'"),
    ("axpy", {"reads": ("alpha", "beta"), "writes": ("beta",),
              "ghost_reads": ("alpha",)},
     "decl-over-ghost",
     "declared ghost read of 'alpha' never leaves the interior — forces "
     "a vacuous halo-fill ordering"),
])


@SOURCES
@MISDECLARED
def test_injected_misdeclaration_is_caught(synthetic_pkg, source, kernel,
                                           decls, rule, message):
    (synthetic_pkg / "integ.py").write_text(source(kernel=kernel, **decls))
    findings, sites, _ = run_checks([synthetic_pkg], do_lint=False)
    assert [s.level for s in sites] == [dispatch.FULL]
    assert [(f.rule, f.message) for f in findings] == [(rule, message)]


@SOURCES
@pytest.mark.parametrize("writes", [("beta",), ()])
def test_kernel_outside_the_language_is_unresolved(synthetic_pkg, source,
                                                   writes):
    """``pick`` loads ``alpha`` and stores ``beta`` only inside a
    ``match``, which the effect analyzer does not model: the site must
    not bind to a kernel that seems to touch nothing (a correct
    declaration would read as over-declared, and ``writes=()`` as
    clean) but report itself unresolved."""
    (synthetic_pkg / "integ.py").write_text(
        source(reads=("alpha",), writes=writes, kernel="pick"))
    findings, sites, _ = run_checks([synthetic_pkg], do_lint=False)
    assert [s.level for s in sites] == [dispatch.UNRESOLVED]
    assert [f.rule for f in findings] == ["dispatch-unresolved"]


def test_subscript_by_an_unknown_name_is_unresolved(synthetic_pkg):
    """``a[k]`` could be any field: binding it to none would read a
    correct declaration as over-declared."""
    (synthetic_pkg / "integ.py").write_text(textwrap.dedent("""
        from . import kernels as K

        def go(backend, a, k, n, g):
            def body():
                K.axpy(a[k], a["beta"], n, g)
            backend.run("hydro.axpy", n, body,
                        reads=("alpha", "beta"), writes=("beta",))
    """))
    findings, sites, _ = run_checks([synthetic_pkg], do_lint=False)
    assert [s.level for s in sites] == [dispatch.UNRESOLVED]
    assert [f.rule for f in findings] == ["dispatch-unresolved"]


#: launch and declaration forms besides the ones ``_run_source`` and
#: ``_funnel_source`` build: (site source, its declared read of
#: ``alpha``, which ``{read}`` stands for)
LAUNCH_FORMS = pytest.mark.parametrize("text, read", [
    pytest.param("""
        from . import kernels as K

        def go(backend, a, n, g):
            backend.run("hydro.axpy", n,
                        lambda: K.axpy(a["alpha"], a["beta"], n, g),
                        reads=({read} "beta"), writes=("beta",))
    """, '"alpha",', id="lambda body"),
    pytest.param("""
        from . import kernels as K

        def go(backend, a, n, g):
            def body():
                K.axpy(a["alpha"], a["beta"], n, g)
            backend.run("hydro.axpy", n, body=body,
                        reads=({read} "beta"), writes=("beta",))
    """, '"alpha",', id="keyword body"),
    pytest.param("""
        from .kernels import axpy

        def go(backend, a, n, g):
            def body():
                axpy(a["alpha"], a["beta"], n, g)
            backend.run("hydro.axpy", n, body,
                        reads=({read} "beta"), writes=("beta",))
    """, '"alpha",', id="function alias"),
    pytest.param("""
        from . import kernels as K

        def go(backend, a, n, g):
            name = "alpha"

            def body():
                K.axpy(a[name], a["beta"], n, g)
            backend.run("hydro.axpy", n, body,
                        reads=({read} "beta"), writes=("beta",))
    """, "name,", id="string local"),
    pytest.param("""
        from . import kernels as K

        def go(backend, a, n, g):
            dname = "alpha" if n else "gamma"

            def body():
                K.axpy(a[dname], a["beta"], n, g)
            backend.run("hydro.axpy", n, body,
                        reads=({read} "beta"), writes=("beta",))
    """, "dname,", id="symbol"),
    pytest.param("""
        from . import kernels as K

        def go(backend, a, n, g):
            names = ("alpha", "beta")

            def body():
                K.axpy(a["alpha"], a["beta"], n, g)
            backend.run("hydro.axpy", n, body, reads=({read} *names[1:],),
                        writes=names[1:], ghost_reads=None)
    """, "names[0],", id="index, starred entry, no ghosts"),
])


@LAUNCH_FORMS
def test_launch_forms_bind_the_kernel(synthetic_pkg, text, read):
    """Each form resolves in full: the correct declaration is clean, and
    one without the read of ``alpha`` is caught."""
    for decl, rules in ((read, []), ("", ["decl-under-read"])):
        (synthetic_pkg / "integ.py").write_text(
            textwrap.dedent(text).format(read=decl))
        findings, sites, _ = run_checks([synthetic_pkg], do_lint=False)
        assert [s.level for s in sites] == [dispatch.FULL]
        assert [f.rule for f in findings] == rules


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
    findings, _, _ = run_checks([root / "repro"], do_lint=False)
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
    findings, _, _ = run_checks([root / "repro"], do_lint=False)
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
    _, _, graph = run_checks([root / "repro"], do_lint=False)
    assert "repro.pdat.core" in graph["repro.mesh.user"]


def test_import_cycle_detected(tmp_path):
    root = _mk({
        "repro/__init__.py": "",
        "repro/mesh/__init__.py": "",
        "repro/mesh/a.py": "from . import b\n",
        "repro/mesh/b.py": "from . import a\n",
    }, tmp_path)
    findings, _, _ = run_checks([root / "repro"], do_lint=False)
    cycles = [f for f in findings if f.rule == "layer-cycle"]
    assert len(cycles) == 1
    assert "repro.mesh.a" in cycles[0].message
    assert "repro.mesh.b" in cycles[0].message


def test_repo_layering_is_clean(monkeypatch):
    findings, _, graph = _unwaived(monkeypatch, ["src/repro"],
                                   ("layer", "parse"))
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


def test_parse_error_is_one_finding_in_every_mode(tmp_path, capsys):
    bad = tmp_path / "repro" / "util" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def f(:\n    x = (1,\n")
    for mode in ("--all", "--lint", "--static"):
        assert check_main([mode, str(bad)]) == 1
        assert capsys.readouterr().out.count("[parse]") == 1


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


def test_find_cycles_reports_each_cycle_once_at_its_first_member():
    graph = {
        "repro.a": {"repro.b": ("a.py", 3), "numpy": ("a.py", 1)},
        "repro.b": {"repro.c": ("b.py", 4)},
        "repro.c": {"repro.a": ("c.py", 5), "repro.d": ("c.py", 6)},
        "repro.d": {"repro.d": ("d.py", 7)},
        "repro.e": {"repro.a": ("e.py", 8)},
    }
    flags = []
    find_cycles(graph, lambda *f: flags.append(f))
    assert sorted(flags) == [
        ("a.py", 3, "layer-cycle", "import cycle at module granularity: "
         "repro.a -> repro.b -> repro.c -> repro.a"),
        ("d.py", 7, "layer-cycle", "import cycle at module granularity: "
         "repro.d -> repro.d"),
    ]


def test_find_cycles_is_silent_on_a_dag():
    graph = {"repro.a": {"repro.b": ("a.py", 1), "repro.c": ("a.py", 2)},
             "repro.b": {"repro.c": ("b.py", 1)}, "repro.c": {}}
    flags = []
    find_cycles(graph, lambda *f: flags.append(f))
    assert flags == []


def test_module_name_for_roots_at_the_last_repro_directory():
    assert module_name_for(Path("/w/src/repro/mesh/box.py")) == "repro.mesh.box"
    assert module_name_for(Path("/w/src/repro/mesh/__init__.py")) == "repro.mesh"
    assert module_name_for(Path("/w/src/repro/__init__.py")) == "repro"
    assert module_name_for(Path("/repro/w/src/repro/cli.py")) == "repro.cli"
    assert module_name_for(Path("/w/tests/test_box.py")) is None
