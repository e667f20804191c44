"""Static seam lint (``repro check --lint``).

An AST pass over the source tree enforcing the two disciplines the
dynamic checker can only observe at runtime:

* **seam** — patch-data storage internals (``.data.array``, ``.data.view``,
  ``.data.frame``, ``.data.buf``, ``to_host``/``from_host`` and friends)
  may only be touched inside the backend seam packages (``exec``,
  ``pdat``, ``gpu``) and this checker.  Everything
  else must go through :func:`repro.exec.backend.array_of` /
  :func:`~repro.exec.backend.frame_of` or a Backend method, so residency
  stays decided in one place.
* **device** — raw device memory (``DeviceArray``, ``.kernel_view()``)
  may only be handled by the gpu runtime, the seam, and the patch-data
  package (whose store runs in either memory space).
* **decl** — every ``Backend.run`` call site
  naming a kernel must declare its data accesses (``reads=``/``writes=``),
  because the scheduler derives dependency edges from exactly those
  declarations.
* **api** — all code must import the public facade :mod:`repro.api`:
  the old :mod:`repro.app` shim is removed, so any import of it is
  flagged.
* **slab** — kernel dispatch inside a per-patch ``for patch in level:``
  loop defeats whole-slab execution (``--batch`` runs one
  vectorized op per shape bucket of a level); new dispatch sites should
  emit batch members and let ``run_batched`` fuse them.  Reference-path loops
  (kept for bitwise comparison) carry a waiver.
* **serve** — the service layer (:mod:`repro.serve`) may only enter
  simulations through the :mod:`repro.api` facade (plus the
  observability/util/capacity layers it orchestrates with); importing
  the simulation internals (``hydro``, ``mesh``, ``exec``, ``xfer``,
  ``comm``, …) from serve code couples the service to layers whose
  contract is owned by ``repro.api``.

A violating line can be waived with a ``# samrcheck: ok(rule): reason``
comment (the legacy bare ``# samrcheck: ok`` waives any rule on the
line); waivers are greppable and audited by :mod:`repro.check.static`,
which reports unused waivers and waivers without a reason.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from .layers import SERVE_ALLOWED, ImportResolver, module_name_for, repo_root_of

__all__ = [
    "lint_file", "lint_file_full", "lint_paths", "Violation",
    "parse_waiver", "SERVE_ALLOWED",
]

#: directories (relative to the ``repro`` package root) allowed to touch
#: patch-data storage internals
SEAM_DIRS = frozenset({"exec", "pdat", "gpu", "check"})
#: directories allowed to handle raw device memory
DEVICE_DIRS = frozenset({"gpu", "exec", "pdat", "check"})
# SERVE_ALLOWED (packages the serve layer may import) now lives in
# repro.check.layers with the rest of the layering table; re-exported
# here for compatibility.

_STORAGE_ATTRS = frozenset({
    "array", "view", "frame", "buf", "space",
})
_SEAM_CALLS = frozenset({
    "to_host", "from_host", "to_host_array", "from_host_array",
})
_DEVICE_NAMES = frozenset({"DeviceArray"})
_DEVICE_CALLS = frozenset({"kernel_view"})
_KERNEL_PREFIXES = ("hydro.", "pdat.", "geom.", "regrid.")
#: method calls that dispatch (or collect) kernel work — finding one
#: inside a per-patch loop marks the loop as a per-patch dispatch site
_DISPATCH_CALLS = frozenset({
    "run", "run_batched", "calc_dt", "ideal_gas", "viscosity", "pdv",
    "accelerate", "flux_calc", "advec_cell", "advec_mom", "reset_field",
    "apply", "apply_weighted",
})

WAIVER = "samrcheck: ok"

#: matches the waiver comment forms ``samrcheck: ok`` and
#: ``samrcheck: ok(rule1,rule2): reason`` (the legacy em-dash
#: separator ``ok — reason`` is accepted too)
_WAIVER_RE = re.compile(
    r"#\s*samrcheck:\s*ok"
    r"(?:\((?P<rules>[^)]*)\))?"
    r"\s*(?:[:—–-]+\s*(?P<reason>\S.*))?"
)


def parse_waiver(line: str):
    """Parse a waiver comment on ``line``.

    Returns ``None`` when the line carries no waiver, else
    ``(rules, reason)`` where ``rules`` is a frozenset of rule names
    the waiver is scoped to (``None`` = any rule) and ``reason`` is the
    stated justification (``None`` when missing — which
    :mod:`repro.check.static` reports as ``waiver-reason``).
    """
    m = _WAIVER_RE.search(line)
    if m is None:
        return None
    raw_rules = m.group("rules")
    rules = None
    if raw_rules:
        rules = frozenset(r.strip() for r in raw_rules.split(",")
                          if r.strip()) or None
    reason = (m.group("reason") or "").strip() or None
    return rules, reason


class Violation:
    """One lint finding."""

    __slots__ = ("path", "line", "rule", "message")

    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _package_dir(path: Path) -> str:
    """First directory under the ``repro`` package root, or ''."""
    parts = path.parts
    if "repro" in parts:
        rest = parts[parts.index("repro") + 1:]
        return rest[0] if len(rest) > 1 else ""
    return ""


class _Linter(ast.NodeVisitor):
    def __init__(self, path: Path, lines: list[str]):
        self.path = path
        self.lines = lines
        self.pkg = _package_dir(path)
        self.violations: list[Violation] = []
        #: line numbers whose waiver actually suppressed a violation —
        #: repro.check.static uses this to report stale waivers
        self.used_waivers: set[int] = set()
        self._modname = module_name_for(path)
        self._resolver = (ImportResolver(repo_root_of(path.parent))
                          if self.pkg == "serve" and self._modname
                          else None)

    def _waived(self, node, rule) -> bool:
        line = self.lines[node.lineno - 1] if node.lineno <= len(self.lines) else ""
        waiver = parse_waiver(line)
        if waiver is None:
            return False
        rules, _reason = waiver
        if rules is None or rule in rules:
            self.used_waivers.add(node.lineno)
            return True
        return False

    def _flag(self, node, rule, message):
        if not self._waived(node, rule):
            self.violations.append(
                Violation(self.path, node.lineno, rule, message))

    # -- seam + device rules ---------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute):
        # X.data.<storage attr> outside the seam packages
        if (self.pkg not in SEAM_DIRS
                and node.attr in _STORAGE_ATTRS
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "data"):
            self._flag(node, "seam",
                       f"patch-data storage access '.data.{node.attr}' "
                       "outside the backend seam — use array_of()/frame_of() "
                       "or a Backend method")
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name):
        if self.pkg not in DEVICE_DIRS and node.id in _DEVICE_NAMES:
            self._flag(node, "device",
                       f"raw device memory ({node.id}) outside the gpu "
                       "runtime and the backend seam")
        self.generic_visit(node)

    # -- slab rule -------------------------------------------------------------

    @staticmethod
    def _is_level_iter(node) -> bool:
        """Does this ``for`` iterate over a patch level?"""
        if isinstance(node, ast.Name):
            return "level" in node.id.lower()
        if isinstance(node, ast.Attribute):
            return ("level" in node.attr.lower()
                    or _Linter._is_level_iter(node.value))
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Attribute) and f.attr == "local_patches":
                return True
            return _Linter._is_level_iter(f)
        return False

    def visit_For(self, node: ast.For):
        target_is_patch = (isinstance(node.target, ast.Name)
                           and "patch" in node.target.id.lower())
        if target_is_patch or self._is_level_iter(node.iter):
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in _DISPATCH_CALLS):
                    self._flag(node, "slab",
                               f"per-patch kernel dispatch "
                               f"('.{sub.func.attr}()' inside a patch loop) "
                               "defeats whole-slab execution — emit batch "
                               "members and fuse with run_batched")
                    break
        self.generic_visit(node)

    # -- api rule --------------------------------------------------------------

    def visit_Import(self, node: ast.Import):
        for alias in node.names:
            if alias.name == "repro.app" or alias.name.startswith("repro.app."):
                self._flag(node, "api",
                           "import of removed 'repro.app' — use the "
                           "'repro.api' facade")
        self._check_serve_imports(node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom):
        if node.module is not None:
            if node.module == "repro.app" or node.module.startswith("repro.app."):
                self._flag(node, "api",
                           "import from removed 'repro.app' — use the "
                           "'repro.api' facade")
        self._check_serve_imports(node)
        self.generic_visit(node)

    def _check_serve_imports(self, node) -> None:
        """Resolve a serve-layer import (aliases, relative forms, and
        ``__init__`` re-exports included) and flag disallowed targets."""
        if self._resolver is None:
            return
        for target in self._resolver.resolve(node, self._modname):
            parts = target.split(".")
            top = parts[1] if len(parts) > 1 else ""
            if top in SERVE_ALLOWED:
                continue
            what = f"repro.{top}" if top else "the repro package root"
            self._flag(node, "serve",
                       f"serve-layer import of {what} — the service may "
                       "only enter simulations through the 'repro.api' "
                       "facade")

    def visit_Call(self, node: ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute):
            if self.pkg not in SEAM_DIRS and func.attr in _SEAM_CALLS:
                self._flag(node, "seam",
                           f"host/device crossing '.{func.attr}()' outside "
                           "the backend seam — go through repro.exec")
            if self.pkg not in DEVICE_DIRS and func.attr in _DEVICE_CALLS:
                self._flag(node, "device",
                           f"device-memory access '.{func.attr}()' outside "
                           "the gpu runtime and the backend seam")
            if func.attr == "run":
                self._check_run_call(node)
        self.generic_visit(node)

    # -- declaration rules -----------------------------------------------------

    def _check_run_call(self, node: ast.Call):
        """``<backend>.run("pkg.kernel", ...)`` must declare accesses."""
        if not node.args:
            return
        first = node.args[0]
        if not (isinstance(first, ast.Constant) and isinstance(first.value, str)
                and first.value.startswith(_KERNEL_PREFIXES)):
            return
        kwnames = {kw.arg for kw in node.keywords}
        if not kwnames & {"reads", "writes"}:
            self._flag(node, "decl",
                       f"kernel call site {first.value!r} passes no reads=/"
                       "writes= declaration — the scheduler derives "
                       "dependency edges from these")


def lint_file_full(path: Path) -> tuple[list[Violation], set[int]]:
    """Violations plus the line numbers whose waivers were exercised."""
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as e:
        return [Violation(path, e.lineno or 0, "parse", str(e))], set()
    linter = _Linter(path, source.splitlines())
    linter.visit(tree)
    return linter.violations, linter.used_waivers


def lint_file(path: Path) -> list[Violation]:
    return lint_file_full(path)[0]


def lint_paths(paths) -> list[Violation]:
    violations: list[Violation] = []
    for root in paths:
        root = Path(root)
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for f in files:
            violations.extend(lint_file(f))
    return violations
