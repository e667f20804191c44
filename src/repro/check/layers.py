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

On top of the layer rule, :func:`find_cycles` detects **import
cycles** at module granularity over the same top-level import graph.
Both see imports through :class:`ImportResolver`, which follows
``from . import x as y`` aliasing and ``__init__`` re-exports (``from
repro.pdat import PatchData`` charges the module that defines
``PatchData``, not the package ``__init__``).  The checker's one walk
(:mod:`repro.check.static`) calls :func:`check_import` on every import
statement of a file.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import NamedTuple

__all__ = [
    "LAYER_GROUPS", "SERVE_ALLOWED", "Binding", "ImportResolver",
    "check_import", "find_cycles", "module_name_for", "repro_parts",
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


def repro_parts(path: Path) -> tuple[Path | None, tuple[str, ...]]:
    """``(directory containing the repro package, path parts from the
    last 'repro' on)`` of a resolved path; ``(None, ())`` outside one."""
    parts = path.parts
    if "repro" not in parts:
        return None, ()
    i = len(parts) - 1 - parts[::-1].index("repro")
    return Path(*parts[:i]), parts[i:]


def module_name_for(path: Path) -> str | None:
    """Dotted module name of a resolved source path, rooted at ``repro``."""
    rel = list(repro_parts(path)[1])
    if not rel:
        return None
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

class Binding(NamedTuple):
    """One name an import binds: the module ``module`` itself (``symbol``
    None) or its attribute ``symbol``; ``file`` is ``module``'s source
    when it exists."""

    name: str
    module: str
    symbol: str | None
    file: Path | None

class ImportResolver:
    """Resolves import statements to the modules they bind, following
    ``from . import x as y`` aliasing and ``__init__`` re-exports.

    ``load(path)`` returns the checker's one parse of a file; package
    ``__init__`` re-export tables are built from it once per run.
    """

    def __init__(self, load):
        self.load = load
        self._reexports: dict[Path, dict[str, tuple[str, str]]] = {}

    @staticmethod
    def module_file(root: Path, dotted: str) -> Path | None:
        base = root.joinpath(*dotted.split("."))
        if base.with_suffix(".py").is_file():
            return base.with_suffix(".py")
        if (base / "__init__.py").is_file():
            return base / "__init__.py"
        return None

    def _reexport(self, init: Path, pkg: str, name: str):
        """(defining submodule, its name for ``name``) of a package
        ``__init__`` re-export, or None."""
        if init not in self._reexports:
            tree = self.load(init).tree
            self._reexports[init] = {
                alias.asname or alias.name: (f"{pkg}.{node.module}",
                                             alias.name)
                for node in (tree.body if tree else ())
                if isinstance(node, ast.ImportFrom) and node.level == 1
                and node.module is not None
                for alias in node.names}
        return self._reexports[init].get(name)

    def bindings(self, node, path: Path) -> list[Binding]:
        """The names one import statement in the file at resolved
        ``path`` binds.

        Absolute imports resolve only under ``repro``, from a file inside
        a repro package; relative ones resolve from any file (outside a
        repro package, the file's directory is its package).
        """
        root, rel = repro_parts(path)
        in_repro = root is not None
        if not in_repro:
            root, rel = path.parent.parent, path.parts[-2:]
        if isinstance(node, ast.Import):
            return [Binding(alias.asname or alias.name.split(".")[0],
                            alias.name, None,
                            self.module_file(root, alias.name))
                    for alias in node.names
                    if in_repro and alias.name.split(".")[0] == "repro"]
        package = rel[:-1]
        if node.level > 0:
            if node.level > len(package):
                return []
            base = ".".join(package[:len(package) - node.level + 1])
            dotted = f"{base}.{node.module}" if node.module else base
        else:
            dotted = node.module or ""
            if not in_repro or dotted.split(".")[0] != "repro":
                return []
        source = self.module_file(root, dotted)
        out = []
        for alias in node.names:
            name = alias.asname or alias.name
            sub = f"{dotted}.{alias.name}"
            sub_file = self.module_file(root, sub)
            if sub_file is not None:               # from pkg import module
                out.append(Binding(name, sub, None, sub_file))
            elif source is not None and source.name == "__init__.py" \
                    and self._reexport(source, dotted, alias.name):
                module, symbol = self._reexport(source, dotted, alias.name)
                out.append(Binding(name, module, symbol,
                                   self.module_file(root, module)))
            else:                                  # a name from a module
                out.append(Binding(name, dotted, alias.name, source))
        return out


# -- the checks ---------------------------------------------------------------

def check_import(node, path, modname: str, targets, top_level: bool,
                 edges: dict, flag) -> None:
    """The layer rule on one import (not under ``TYPE_CHECKING``) of
    module ``modname`` that reaches the repro modules ``targets``: a
    top-level import adds ``target -> (path, line)`` to the module's
    import-graph ``edges``; ``flag(line, rule, message)`` reports."""
    src_pkg = _top_package(modname)
    for target in targets:
        dst_pkg = _top_package(target)
        if top_level and target != modname:
            edges.setdefault(target, (path, node.lineno))
        if not top_level or dst_pkg == src_pkg:
            continue
        if src_pkg == "serve":
            if dst_pkg not in SERVE_ALLOWED:
                flag(node.lineno, "layer",
                     f"serve-layer import of repro.{dst_pkg} — the "
                     "service enters simulations only through the "
                     "'repro.api' facade")
            continue
        src = _PACKAGE_HEIGHT.get(src_pkg)
        dst = _PACKAGE_HEIGHT.get(dst_pkg)
        if src is None or dst is None:
            missing = src_pkg if src is None else dst_pkg
            flag(node.lineno, "layer",
                 f"package '{missing}' is not in the declared layer "
                 "table (repro.check.layers.LAYER_GROUPS) — add it "
                 "to a layer")
            continue
        if dst[0] > src[0]:
            flag(node.lineno, "layer",
                 f"{modname} (layer {src[1]}/{src[0]}) imports "
                 f"repro.{dst_pkg} (layer {dst[1]}/{dst[0]}) — "
                 "imports must not reach above their own layer")


def find_cycles(graph: dict, flag) -> None:
    """Tarjan SCCs over the top-level import graph (module -> {target:
    (path, line)}); ``flag(path, line, rule, message)`` reports any SCC
    larger than one module (or a self-loop) as a cycle."""
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
        flag(path, line, "layer-cycle",
             "import cycle at module granularity: "
             + " -> ".join(members + [members[0]]))
