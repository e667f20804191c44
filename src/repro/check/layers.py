"""Module-layering enforcement: one declared table, no ad-hoc rules.

The tree has always had an implicit layering — patch data below
execution, execution below scheduling, physics below the facade, the
service above everything — but it was enforced piecemeal (a serve
whitelist here, an api rule there).  This module declares the whole
graph once:

====== =========== =========================================
height group       packages
====== =========== =========================================
0      foundation  util, obs, gpu, perf, check
1      data        mesh, pdat, exec
2      comm        comm
3      physics     geom, hydro, xfer, regrid, sched
4      facade      api, tune
5      serve       serve
6      entry       cli, __main__, __init__
====== =========== =========================================

A module at height *h* may import ``repro`` packages at height ≤ *h*;
imports within a group are unrestricted (mesh/pdat/exec are one data
layer, hydro/regrid one physics layer).  :mod:`repro.serve` is special:
height alone would let it import the physics internals, but the service
contract is that it enters simulations only through :mod:`repro.api` —
so serve is checked against the explicit :data:`SERVE_ALLOWED`
whitelist instead (the same table the seam lint's ``serve`` rule uses).

Only **top-level** imports are constrained: a lazy import inside a
function creates no import-time coupling and is the sanctioned escape
hatch (``cli`` pulls ``serve`` in lazily, for example).  Imports under
``if TYPE_CHECKING:`` are ignored entirely.

On top of the layer rule, :func:`check_layers` detects **import
cycles** at module granularity over the same top-level import graph,
resolving ``from . import x as y`` aliasing and ``__init__``
re-exports (``from repro.pdat import PatchData`` charges the module
that defines ``PatchData``, not the package ``__init__``).
"""

from __future__ import annotations

import ast
from pathlib import Path

__all__ = [
    "LAYER_GROUPS", "SERVE_ALLOWED", "LayerFinding", "check_layers",
    "module_name_for", "resolve_imports", "ImportResolver", "repo_root_of",
]

#: (height, group name, packages) — the whole layering DAG in one table
LAYER_GROUPS = (
    (0, "foundation", frozenset({"util", "obs", "gpu", "perf", "check"})),
    (1, "data", frozenset({"mesh", "pdat", "exec"})),
    (2, "comm", frozenset({"comm"})),
    (3, "physics", frozenset({"geom", "hydro", "xfer", "regrid", "sched"})),
    (4, "facade", frozenset({"api", "tune"})),
    (5, "serve", frozenset({"serve"})),
    (6, "entry", frozenset({"cli", "__main__", "__init__"})),
)

#: packages the serve layer may import — the one exception to
#: height-ordering (serve must go through the api facade, not reach
#: physics directly even though physics is below it)
SERVE_ALLOWED = frozenset({
    "api", "obs", "util", "gpu", "check", "perf", "serve",
})

_PACKAGE_HEIGHT: dict[str, tuple[int, str]] = {
    pkg: (height, group)
    for height, group, pkgs in LAYER_GROUPS
    for pkg in pkgs
}


class LayerFinding:
    __slots__ = ("path", "line", "rule", "message")

    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def module_name_for(path: Path) -> str | None:
    """Dotted module name of a source file, rooted at ``repro``."""
    parts = list(path.parts)
    if "repro" not in parts:
        return None
    i = len(parts) - 1 - parts[::-1].index("repro")
    rel = parts[i:]
    if rel[-1].endswith(".py"):
        rel[-1] = rel[-1][:-3]
    if rel[-1] == "__init__" and len(rel) > 1:
        rel = rel[:-1]
    return ".".join(rel)


def _top_package(dotted: str) -> str:
    parts = dotted.split(".")
    if parts[0] != "repro":
        return ""
    return parts[1] if len(parts) > 1 else "__init__"


# -- import resolution --------------------------------------------------------

def _is_type_checking(test) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _iter_import_nodes(body, top_level=True, type_checking=False):
    """Yield (node, top_level, type_checking) for every import statement."""
    for stmt in body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            yield stmt, top_level, type_checking
        elif isinstance(stmt, ast.If):
            tc = type_checking or _is_type_checking(stmt.test)
            yield from _iter_import_nodes(stmt.body, top_level, tc)
            yield from _iter_import_nodes(stmt.orelse, top_level,
                                          type_checking)
        elif isinstance(stmt, ast.Try):
            for blk in (stmt.body, stmt.orelse, stmt.finalbody):
                yield from _iter_import_nodes(blk, top_level, type_checking)
            for handler in stmt.handlers:
                yield from _iter_import_nodes(handler.body, top_level,
                                              type_checking)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            yield from _iter_import_nodes(stmt.body, False, type_checking)
        elif isinstance(stmt, ast.With):
            yield from _iter_import_nodes(stmt.body, top_level,
                                          type_checking)


class ImportResolver:
    """Resolves import statements to repro module names, following
    ``from . import x as y`` aliasing and ``__init__`` re-exports."""

    def __init__(self, repo_root: Path):
        self.repo_root = repo_root  # directory CONTAINING the repro package
        self._reexport_cache: dict[str, dict[str, str]] = {}

    def _module_file(self, dotted: str) -> Path | None:
        base = self.repo_root.joinpath(*dotted.split("."))
        if base.with_suffix(".py").is_file():
            return base.with_suffix(".py")
        if (base / "__init__.py").is_file():
            return base / "__init__.py"
        return None

    def _is_package(self, dotted: str) -> bool:
        p = self._module_file(dotted)
        return p is not None and p.name == "__init__.py"

    def _reexports(self, pkg: str) -> dict[str, str]:
        """name -> defining submodule, from a package ``__init__``."""
        if pkg in self._reexport_cache:
            return self._reexport_cache[pkg]
        table: dict[str, str] = {}
        init = self._module_file(pkg)
        if init is not None and init.name == "__init__.py":
            try:
                tree = ast.parse(init.read_text(), filename=str(init))
            except SyntaxError:
                tree = ast.Module(body=[], type_ignores=[])
            for node in tree.body:
                if isinstance(node, ast.ImportFrom) and node.level == 1 \
                        and node.module is not None:
                    target = f"{pkg}.{node.module}"
                    for alias in node.names:
                        table[alias.asname or alias.name] = target
        self._reexport_cache[pkg] = table
        return table

    def resolve(self, node, modname: str):
        """Target repro modules of one import statement.

        Returns a list of dotted module names under ``repro``; each
        imported name is charged to the module that defines it (a
        package ``__init__`` re-export redirects to the submodule).
        """
        targets: list[str] = []
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    targets.append(alias.name)
            return targets
        # ImportFrom
        if node.level > 0:
            base_parts = modname.split(".")
            # drop the module leaf, then one package per extra level
            is_pkg = self._is_package(modname)
            drop = node.level - 1 if is_pkg else node.level
            if drop >= len(base_parts):
                return targets
            base = ".".join(base_parts[:len(base_parts) - drop]
                            if drop else base_parts)
            dotted = f"{base}.{node.module}" if node.module else base
        else:
            dotted = node.module or ""
        if not (dotted == "repro" or dotted.startswith("repro.")):
            return targets
        for alias in node.names:
            sub = f"{dotted}.{alias.name}"
            if self._module_file(sub) is not None:
                targets.append(sub)          # from pkg import submodule
            elif self._is_package(dotted):
                targets.append(              # __init__ re-export redirect
                    self._reexports(dotted).get(alias.name, dotted))
            else:
                targets.append(dotted)       # plain symbol from a module
        return targets


def resolve_imports(path: Path, tree: ast.Module, repo_root: Path):
    """Every repro-internal import in a module.

    Yields ``(node, target, top_level)`` where ``target`` is the dotted
    repro module charged with the dependency.
    """
    modname = module_name_for(path)
    if modname is None:
        return
    resolver = ImportResolver(repo_root)
    for node, top_level, type_checking in _iter_import_nodes(tree.body):
        if type_checking:
            continue
        for target in resolver.resolve(node, modname):
            yield node, target, top_level


# -- the checks ---------------------------------------------------------------

def repo_root_of(root: Path) -> Path:
    """Directory containing the ``repro`` package, given a scan root."""
    parts = list(root.resolve().parts)
    if "repro" in parts:
        i = len(parts) - 1 - parts[::-1].index("repro")
        return Path(*parts[:i])
    return root.resolve()


def check_layers(root: Path):
    """Layer violations and import cycles under ``root``.

    Returns ``(findings, graph)`` where ``graph`` maps each scanned
    module to the repro modules its top-level imports reach (useful for
    tests and tooling).
    """
    root = Path(root).resolve()
    repo_root = repo_root_of(root)
    findings: list[LayerFinding] = []
    graph: dict[str, dict[str, tuple[Path, int]]] = {}
    files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
    for path in files:
        modname = module_name_for(path)
        if modname is None:
            continue
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError as e:
            findings.append(LayerFinding(path, e.lineno or 0, "parse",
                                         str(e)))
            continue
        src_pkg = _top_package(modname)
        edges = graph.setdefault(modname, {})
        for node, target, top_level in resolve_imports(path, tree,
                                                       repo_root):
            dst_pkg = _top_package(target)
            if top_level and target != modname:
                edges.setdefault(target, (path, node.lineno))
            if not top_level or dst_pkg == src_pkg:
                continue
            if src_pkg == "serve":
                if dst_pkg not in SERVE_ALLOWED:
                    findings.append(LayerFinding(
                        path, node.lineno, "layer",
                        f"serve-layer import of repro.{dst_pkg} — the "
                        "service enters simulations only through the "
                        "'repro.api' facade"))
                continue
            src = _PACKAGE_HEIGHT.get(src_pkg)
            dst = _PACKAGE_HEIGHT.get(dst_pkg)
            if src is None or dst is None:
                missing = src_pkg if src is None else dst_pkg
                findings.append(LayerFinding(
                    path, node.lineno, "layer",
                    f"package '{missing}' is not in the declared layer "
                    "table (repro.check.layers.LAYER_GROUPS) — add it "
                    "to a layer"))
                continue
            if dst[0] > src[0]:
                findings.append(LayerFinding(
                    path, node.lineno, "layer",
                    f"{modname} (layer {src[1]}/{src[0]}) imports "
                    f"repro.{dst_pkg} (layer {dst[1]}/{dst[0]}) — "
                    "imports must not reach above their own layer"))
    findings.extend(_find_cycles(graph))
    return findings, graph


def _find_cycles(graph) -> list[LayerFinding]:
    """Tarjan SCCs over the top-level import graph; any SCC larger than
    one module (or a self-loop) is a cycle finding."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    sccs: list[list[str]] = []

    def strongconnect(v):
        # iterative Tarjan: (node, edge iterator) frames
        work = [(v, iter(sorted(graph.get(v, {}))))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in graph:
                    continue
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(graph.get(w, {})))))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                sccs.append(scc)

    for v in sorted(graph):
        if v not in index:
            strongconnect(v)

    findings = []
    for scc in sccs:
        is_cycle = len(scc) > 1 or (scc[0] in graph.get(scc[0], {}))
        if not is_cycle:
            continue
        members = sorted(scc)
        anchor_mod = members[0]
        # anchor the finding at the first member's import into the cycle
        path, line = None, 0
        for target, loc in sorted(graph[anchor_mod].items()):
            if target in scc:
                path, line = loc
                break
        findings.append(LayerFinding(
            path, line, "layer-cycle",
            "import cycle at module granularity: "
            + " -> ".join(members + [members[0]])))
    return findings
