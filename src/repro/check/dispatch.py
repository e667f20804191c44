"""Dispatch-site resolution: bind declared accesses to inferred effects.

Every kernel launch in the tree goes through one of three call families —
``Backend.run``, ``Backend.run_batched``, ``BatchMember(...)`` (what the
sinks' ``kernel_task`` verb launches) — plus the integrator funnel
``self._run(...)`` that feeds all three.  This module enumerates every
such site under a source root and resolves each one to a :class:`Site`
at one of three levels:

* **full** — the declared ``reads=``/``writes=``/``ghost_reads=`` names
  evaluate to field-name sets (constants, ``names[:2] + names[3:]``
  slices, conditional tuples), the launch body's kernel call is bound
  parameter-by-parameter to those fields, and the declaration is
  compared against the kernel's inferred effects
  (:mod:`repro.check.effects`).  Mismatches become findings:
  ``decl-under-*`` (a latent race the runtime sanitizer would only catch
  on the right config) and ``decl-over-*`` (a phantom DAG edge, reported
  with the edges it would induce).
* **delegated** — the site forwards declarations it received
  (``reads=member.reads``, a passthrough parameter, fused
  ``run_batched`` members): the operands are checked where they were
  constructed, not at the forwarding hop.
* **partial** — declarations are live operand objects
  (``reads=(coarse_pd,)``) whose body is not expressed through an
  analyzable kernel module; the declaration's presence and shape are
  checked (the lint ``decl`` rule), effects are not compared.

A site that fits none of these is **unresolved** and is itself a
finding — the coverage contract is that ``repro check --static`` leaves
zero unresolved sites in ``src/repro`` (asserted by tests).

Field names bind symbolically: a declaration ``reads=(dname, ename)``
against a body ``K.ideal_gas(a[dname], a[ename], ...)`` matches on the
*variable* ``dname`` (whose constant alternatives the evaluator also
records), so predictor/corrector name-swapping needs no special cases.
The integrator funnel states its kernel over positional operand arrays
— ``self._run(..., fn, names, ...)`` with ``def fn(d, e, ...)`` — so
there ``fn``'s i-th parameter binds to the i-th entry of ``names``.
"""

from __future__ import annotations

import ast
from pathlib import Path

from .effects import CONDITIONAL, DEFINITE, analyze_path

__all__ = ["Site", "DeclFinding", "scan_paths", "KERNEL_PREFIXES"]

KERNEL_PREFIXES = ("hydro.", "pdat.", "geom.", "regrid.")
#: declaration keywords whose presence marks a ``.run()`` dispatch site
#: even when the kernel name is forwarded through a variable
_DECL_KWARGS = frozenset({
    "reads", "writes", "ghost_reads", "ghost_only", "marks",
})

FULL = "full"
DELEGATED = "delegated"
PARTIAL = "partial"
UNRESOLVED = "unresolved"


class DeclFinding:
    """One declaration mismatch at a dispatch site."""

    __slots__ = ("path", "line", "rule", "message")

    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class Site:
    """One resolved kernel dispatch site."""

    __slots__ = ("path", "line", "kind", "kernel", "level")

    def __init__(self, path, line, kind, kernel, level):
        self.path = path
        self.line = line
        self.kind = kind
        self.kernel = kernel
        self.level = level

    def as_dict(self):
        return {"path": str(self.path), "line": self.line,
                "kind": self.kind, "kernel": self.kernel,
                "level": self.level}

    def __repr__(self):
        return (f"Site({self.path}:{self.line} {self.kind} "
                f"{self.kernel or '<forwarded>'} [{self.level}])")


# -- declaration evaluation ---------------------------------------------------
# decl entries are (key, flag) where key is ("str", fieldname) for a
# constant or ("sym", varname) for a conditional-constant local; flag is
# effects.DEFINITE / effects.CONDITIONAL

class _Delegated(Exception):
    """Declaration forwards another site's declarations."""


class _Operands(Exception):
    """Declaration holds live operand objects, not names."""


def _const_str(node):
    return node.value if isinstance(node, ast.Constant) \
        and isinstance(node.value, str) else None


class _FuncEnv:
    """Constant/symbol bindings of one enclosing function."""

    def __init__(self, fnode: ast.FunctionDef | None):
        self.consts: dict[str, object] = {}   # name -> tuple entries | str
        self.syms: dict[str, tuple] = {}      # name -> constant alternatives
        self.passthrough: set[str] = set()    # locals derived from params
        self.params: set[str] = set()
        if fnode is None:
            return
        a = fnode.args
        self.params = {p.arg for p in
                       a.posonlyargs + a.args + a.kwonlyargs}
        for stmt in fnode.body:
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target, value = stmt.targets[0], stmt.value
            if isinstance(target, ast.Name):
                self._bind(target.id, value)
            elif isinstance(target, ast.Tuple) \
                    and isinstance(value, ast.IfExp):
                # dname, ename = ("density1", ...) if predict else (...)
                arms = (value.body, value.orelse)
                if all(isinstance(arm, (ast.Tuple, ast.List))
                       and len(arm.elts) == len(target.elts)
                       for arm in arms):
                    for i, t in enumerate(target.elts):
                        if isinstance(t, ast.Name):
                            alts = tuple(_const_str(arm.elts[i])
                                         for arm in arms)
                            if all(s is not None for s in alts):
                                self.syms[t.id] = alts

    def _bind(self, name: str, value):
        s = _const_str(value)
        if s is not None:
            self.consts[name] = s
            return
        if isinstance(value, (ast.Tuple, ast.List)):
            self.consts[name] = value
            return
        if isinstance(value, ast.IfExp):
            alts = (_const_str(value.body), _const_str(value.orelse))
            if all(a is not None for a in alts):
                self.syms[name] = alts
                return
        if isinstance(value, (ast.ListComp, ast.GeneratorExp)):
            it = value.generators[0].iter
            if isinstance(it, ast.Name) and it.id in self.params:
                self.passthrough.add(name)
            return
        if isinstance(value, ast.Call):
            # union_pds(m.reads for m in members) and friends: an
            # aggregation over a declaration-carrying parameter is a
            # passthrough, not a fresh declaration
            for a in value.args:
                if isinstance(a, (ast.ListComp, ast.GeneratorExp)):
                    it = a.generators[0].iter
                    if isinstance(it, ast.Name) and it.id in self.params:
                        self.passthrough.add(name)
                        return


def _eval_decl(node, env: _FuncEnv, flag=DEFINITE) -> list[tuple]:
    """Evaluate a declaration expression to [(key, flag), ...]."""
    if node is None:
        return []
    if isinstance(node, ast.Constant):
        if node.value is None:
            return []
        if isinstance(node.value, str):
            return [(("str", node.value), flag)]
        raise _Operands
    if isinstance(node, (ast.Tuple, ast.List)):
        out = []
        for e in node.elts:
            out.extend(_eval_decl_element(e, env, flag))
        return out
    if isinstance(node, ast.Name):
        if node.id in env.passthrough or node.id in env.params:
            raise _Delegated
        bound = env.consts.get(node.id)
        if isinstance(bound, (ast.Tuple, ast.List)):
            return _eval_decl(bound, env, flag)
        if node.id in env.syms:
            return [(("sym", node.id), flag)]
        raise _Operands
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return (_eval_decl(node.left, env, flag)
                + _eval_decl(node.right, env, flag))
    if isinstance(node, ast.Subscript):
        base = _eval_decl(node.value, env, flag)
        sl = node.slice
        if isinstance(sl, ast.Constant) and isinstance(sl.value, int):
            return [base[sl.value]]
        if isinstance(sl, ast.Slice):
            def part(p):
                if p is None:
                    return None
                if isinstance(p, ast.Constant) and isinstance(p.value, int):
                    return p.value
                raise _Operands
            return base[slice(part(sl.lower), part(sl.upper),
                              part(sl.step))]
        raise _Operands
    if isinstance(node, ast.IfExp):
        return (_eval_decl(node.body, env, CONDITIONAL)
                + _eval_decl(node.orelse, env, CONDITIONAL))
    if isinstance(node, ast.Attribute):
        raise _Delegated
    if isinstance(node, ast.Call):
        fn = node.func
        name = fn.id if isinstance(fn, ast.Name) else None
        if name in ("list", "tuple", "sorted") and node.args:
            return _eval_decl(node.args[0], env, flag)
        raise _Operands
    if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
        if len(node.generators) == 1 \
                and isinstance(node.generators[0].iter, ast.Name) \
                and node.generators[0].iter.id in env.params:
            raise _Delegated
        raise _Operands
    raise _Operands


def _eval_decl_element(node, env: _FuncEnv, flag) -> list[tuple]:
    """One element inside a tuple display (a single name, not a splice
    — unless it resolves to a tuple, which is spliced)."""
    s = _const_str(node)
    if s is not None:
        return [(("str", s), flag)]
    if isinstance(node, ast.Name):
        if node.id in env.syms:
            return [(("sym", node.id), flag)]
        bound = env.consts.get(node.id)
        if isinstance(bound, str):
            return [(("str", bound), flag)]
        if isinstance(bound, (ast.Tuple, ast.List)):
            return _eval_decl(bound, env, flag)
        if node.id in env.passthrough or node.id in env.params:
            raise _Delegated
        raise _Operands
    if isinstance(node, ast.IfExp):
        return (_eval_decl_element(node.body, env, CONDITIONAL)
                + _eval_decl_element(node.orelse, env, CONDITIONAL))
    if isinstance(node, ast.Starred):
        return _eval_decl(node.value, env, flag)
    return _eval_decl(node, env, flag)


# -- import resolution for kernel-module binding ------------------------------

def _resolve_module_path(file_path: Path, level: int,
                         dotted: list[str]) -> Path | None:
    """Filesystem path of an imported module, if it exists."""
    if level > 0:
        base = file_path.parent
        for _ in range(level - 1):
            base = base.parent
    else:
        if not dotted or dotted[0] != "repro":
            return None
        parts = list(file_path.parts)
        if "repro" not in parts:
            return None
        i = len(parts) - 1 - parts[::-1].index("repro")
        base = Path(*parts[:i + 1])
        dotted = dotted[1:]
    for part in dotted:
        base = base / part
    if base.with_suffix(".py").is_file():
        return base.with_suffix(".py")
    if (base / "__init__.py").is_file():
        return base / "__init__.py"
    return None


def _kernel_imports(tree: ast.Module, file_path: Path):
    """(module aliases, function aliases) importing analyzable modules."""
    mods: dict[str, Path] = {}
    funcs: dict[str, tuple[Path, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            dotted = node.module.split(".") if node.module else []
            if node.module is None:
                # from . import kernels as K
                for alias in node.names:
                    p = _resolve_module_path(file_path, node.level,
                                             [alias.name])
                    if p is not None:
                        mods[alias.asname or alias.name] = p
            else:
                p = _resolve_module_path(file_path, node.level, dotted)
                if p is not None and p.name != "__init__.py":
                    for alias in node.names:
                        funcs[alias.asname or alias.name] = (p, alias.name)
                elif node.level > 0 or dotted[:1] == ["repro"]:
                    # from .hydro import kernels (module-as-name)
                    for alias in node.names:
                        sub = _resolve_module_path(
                            file_path, node.level, dotted + [alias.name])
                        if sub is not None:
                            mods[alias.asname or alias.name] = sub
        elif isinstance(node, ast.Import):
            for alias in node.names:
                dotted = alias.name.split(".")
                p = _resolve_module_path(file_path, 0, dotted)
                if p is not None:
                    mods[alias.asname or dotted[-1]] = p
    return mods, funcs


# -- site scanning ------------------------------------------------------------

def _kernel_name(node: ast.Call, index: int) -> str | None:
    if len(node.args) > index:
        s = _const_str(node.args[index])
        if s is not None and s.startswith(KERNEL_PREFIXES):
            return s
    return None


def _decl_exprs(node: ast.Call, kind: str) -> dict:
    """The reads/writes/ghost_reads expressions at this site."""
    kw = {k.arg: k.value for k in node.keywords if k.arg is not None}
    out = {"reads": kw.get("reads"), "writes": kw.get("writes"),
           "ghost_reads": kw.get("ghost_reads")}
    pos = {"batch_member": {"reads": 2, "writes": 3, "ghost_reads": 4}}
    for name, i in pos.get(kind, {}).items():
        if out[name] is None and len(node.args) > i:
            out[name] = node.args[i]
    return out


class _FileScanner:
    def __init__(self, path: Path, tree: ast.Module):
        self.path = path
        self.tree = tree
        self.mods, self.funcs = _kernel_imports(tree, path)
        self.sites: list[Site] = []
        self.findings: list[DeclFinding] = []
        self._parents: dict = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    def _enclosing_function(self, node):
        n = self._parents.get(node)
        while n is not None and not isinstance(n, ast.FunctionDef):
            n = self._parents.get(n)
        return n

    def scan(self):
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            if isinstance(fn, ast.Attribute):
                if fn.attr == "run":
                    kernel = _kernel_name(node, 0)
                    has_decl = any(k.arg in _DECL_KWARGS
                                   for k in node.keywords)
                    if kernel is not None or has_decl:
                        self._site(node, "run", kernel)
                elif fn.attr == "run_batched":
                    self._site(node, "run_batched", _kernel_name(node, 0),
                               forced_level=DELEGATED)
                elif fn.attr == "_run" and _kernel_name(node, 2):
                    self._site(node, "integrator_run",
                               _kernel_name(node, 2))
            elif isinstance(fn, ast.Name) and fn.id == "BatchMember":
                self._site(node, "batch_member", None)
        return self.sites, self.findings

    def _site(self, node: ast.Call, kind: str, kernel,
              forced_level=None):
        line = node.lineno
        if forced_level is not None:
            self.sites.append(Site(self.path, line, kind, kernel,
                                   forced_level))
            return
        enclosing = self._enclosing_function(node)
        env = _FuncEnv(enclosing)
        exprs = _decl_exprs(node, kind)
        decls, level = {}, FULL
        for name, expr in exprs.items():
            try:
                decls[name] = _eval_decl(expr, env)
            except _Delegated:
                level = DELEGATED if level != PARTIAL else level
                decls[name] = None
            except _Operands:
                level = PARTIAL
                decls[name] = None
        if level == FULL:
            bound = self._bind_body(node, kind, enclosing)
            if bound is None:
                # names resolved but the body has no analyzable kernel
                # call — declarations checked for shape only
                level = PARTIAL
            else:
                self._compare(node, kernel, decls, bound)
        self.sites.append(Site(self.path, line, kind, kernel, level))

    # -- body binding ----------------------------------------------------------

    def _body_arg(self, node: ast.Call, kind: str):
        index = {"run": 2, "integrator_run": 4, "batch_member": 1}.get(kind)
        if index is not None and len(node.args) > index:
            return node.args[index]
        kw = {k.arg: k.value for k in node.keywords if k.arg}
        return kw.get("body") or kw.get("fn")

    def _bind_body(self, node: ast.Call, kind: str, enclosing):
        """[(param, key, effects)] binding of the body's kernel call."""
        body_expr = self._body_arg(node, kind)
        body_def = None
        if isinstance(body_expr, ast.Name) and enclosing is not None:
            for sub in ast.walk(enclosing):
                if isinstance(sub, ast.FunctionDef) \
                        and sub.name == body_expr.id:
                    body_def = sub
                    break
        elif isinstance(body_expr, ast.Lambda):
            body_def = body_expr
        if body_def is None:
            return None
        env = _FuncEnv(enclosing)
        operands = {}
        if kind == "integrator_run" and len(node.args) > 5:
            # fn(d, e, ...) takes the arrays of names[0], names[1], ...
            try:
                keys = [key for key, _ in _eval_decl(node.args[5], env)]
            except (_Delegated, _Operands):
                keys = []
            operands = dict(zip((a.arg for a in body_def.args.args), keys))
        for call in ast.walk(body_def):
            if not isinstance(call, ast.Call):
                continue
            eff = self._kernel_effects(call)
            if eff is None:
                continue
            binding = []
            for i, arg in enumerate(call.args):
                if i >= len(eff.params):
                    break
                key = self._field_key(arg, env, operands)
                if key is not None:
                    binding.append((eff.params[i], key))
            for kwarg in call.keywords:
                if kwarg.arg in eff.params:
                    key = self._field_key(kwarg.value, env, operands)
                    if key is not None:
                        binding.append((kwarg.arg, key))
            return binding, eff
        return None

    def _kernel_effects(self, call: ast.Call):
        fn = call.func
        try:
            if isinstance(fn, ast.Attribute) \
                    and isinstance(fn.value, ast.Name) \
                    and fn.value.id in self.mods:
                return analyze_path(self.mods[fn.value.id]).get(fn.attr)
            if isinstance(fn, ast.Name) and fn.id in self.funcs:
                path, fname = self.funcs[fn.id]
                return analyze_path(path).get(fname)
        except (OSError, SyntaxError):
            return None
        return None

    @staticmethod
    def _field_key(arg, env: _FuncEnv, operands: dict):
        """('str', field) / ('sym', var) for a patch-field argument."""
        if isinstance(arg, ast.Name):
            return operands.get(arg.id)
        if isinstance(arg, ast.Subscript):
            s = _const_str(arg.slice)
            if s is not None:
                return ("str", s)
            if isinstance(arg.slice, ast.Name):
                name = arg.slice.id
                if name in env.syms:
                    return ("sym", name)
                bound = env.consts.get(name)
                if isinstance(bound, str):
                    return ("str", bound)
        return None

    # -- declaration vs effects ------------------------------------------------

    def _compare(self, node: ast.Call, kernel, decls, bound):
        binding, eff = bound
        line = node.lineno
        reads = dict(decls.get("reads") or [])
        writes = dict(decls.get("writes") or [])
        ghosts = dict(decls.get("ghost_reads") or [])
        kname = kernel or eff.name
        by_key = {}
        for param, key in binding:
            by_key[key] = param
            label = key[1] if key[0] == "str" else f"<{key[1]}>"
            if param in eff.loads and key not in reads \
                    and key not in ghosts:
                self._flag(line, "decl-under-read",
                           f"kernel '{kname}' reads '{label}' "
                           f"({eff.loads[param]} in parameter "
                           f"'{param}') but the site declares no read — "
                           "a missing RAW edge (latent race)")
            if param in eff.stores and key not in writes:
                self._flag(line, "decl-under-write",
                           f"kernel '{kname}' writes '{label}' "
                           f"({eff.stores[param]} in parameter "
                           f"'{param}') but the site declares no write — "
                           "missing WAW/WAR edges (latent race)")
            if eff.ghost_loads.get(param) == DEFINITE \
                    and key not in ghosts:
                self._flag(line, "decl-under-ghost",
                           f"kernel '{kname}' reads the ghost region of "
                           f"'{label}' (parameter '{param}') but the "
                           "site declares no ghost_read — halo staleness "
                           "would go unchecked")
        for key in reads:
            label = key[1] if key[0] == "str" else f"<{key[1]}>"
            param = by_key.get(key)
            if param is None:
                self._flag(line, "decl-over-read",
                           f"declared read of '{label}' is not an "
                           f"operand of kernel '{kname}' — induces a "
                           "phantom RAW edge from its last writer")
            elif param not in eff.loads:
                extra = (" (edge subsumed by this site's declared write)"
                         if key in writes else "")
                self._flag(line, "decl-over-read",
                           f"declared read of '{label}' is never loaded "
                           f"by kernel '{kname}' — induces a phantom RAW "
                           f"edge from the last writer of '{label}'"
                           f"{extra}")
        for key in writes:
            label = key[1] if key[0] == "str" else f"<{key[1]}>"
            param = by_key.get(key)
            if param is None:
                self._flag(line, "decl-over-write",
                           f"declared write of '{label}' is not an "
                           f"operand of kernel '{kname}' — induces "
                           "phantom WAW/WAR edges")
            elif param not in eff.stores:
                self._flag(line, "decl-over-write",
                           f"declared write of '{label}' is never "
                           f"stored by kernel '{kname}' — induces "
                           "phantom WAW/WAR edges serializing against "
                           f"every other access of '{label}'")
        for key in ghosts:
            label = key[1] if key[0] == "str" else f"<{key[1]}>"
            param = by_key.get(key)
            if param is not None and param in eff.loads \
                    and param not in eff.ghost_loads:
                self._flag(line, "decl-over-ghost",
                           f"declared ghost read of '{label}' never "
                           "leaves the interior — forces a vacuous "
                           "halo-fill ordering")

    def _flag(self, line, rule, message):
        self.findings.append(DeclFinding(self.path, line, rule, message))


def scan_file(path: Path):
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as e:
        return [], [DeclFinding(path, e.lineno or 0, "parse", str(e))]
    return _FileScanner(path, tree).scan()


def scan_paths(paths):
    """All dispatch sites and declaration findings under ``paths``."""
    sites: list[Site] = []
    findings: list[DeclFinding] = []
    for root in paths:
        root = Path(root)
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for f in files:
            s, v = scan_file(f)
            sites.extend(s)
            findings.extend(v)
    return sites, findings
