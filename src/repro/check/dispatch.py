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

A site bound to a kernel that leaves the effect analyzer's closed
language (:mod:`repro.check.effects`) is **unresolved**, and so is one
whose kernel call passes a field operand by keyword: both are findings
(``dispatch-unresolved``) — the coverage contract is that ``repro check
--static`` leaves zero unresolved sites in ``src/repro`` (asserted by
tests).

Field names bind symbolically: a declaration ``reads=(dname, ename)``
against a body ``K.ideal_gas(a[dname], a[ename], ...)`` matches on the
*variable* ``dname`` (whose constant alternatives the evaluator also
records), so predictor/corrector name-swapping needs no special cases;
a subscript by a constant or by a local bound to one binds that field
name, and one by any other name leaves the site unresolved.  The
integrator funnel states its kernel over positional operand arrays —
``self._run(..., fn, names, ...)`` with ``def fn(d, e, ...)`` — so
there ``fn``'s i-th parameter binds to the i-th entry of ``names``.
The body is a local ``def`` or a lambda, and the kernel is called as
``K.name(...)`` through a module alias or ``name(...)`` through a
function alias.

The checker's one walk (:mod:`repro.check.static`) feeds a
:class:`Scanner` every import and call of a file.
"""

from __future__ import annotations

import ast

from .effects import CONDITIONAL, DEFINITE

__all__ = ["Site", "Scanner", "KERNEL_PREFIXES", "FULL", "DELEGATED",
           "PARTIAL", "UNRESOLVED"]

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


# -- declaration evaluation ---------------------------------------------------
# decl entries are (key, flag) where key is ("str", fieldname) for a
# constant or ("sym", varname) for a conditional-constant local; flag is
# effects.DEFINITE / effects.CONDITIONAL

class _Delegated(Exception):
    """Declaration forwards another site's declarations."""


class _Operands(Exception):
    """Declaration holds live operand objects, not names (or the body
    binds no analyzable kernel call)."""


class _Unresolved(Exception):
    """The body's kernel call cannot be analyzed."""


def _const_str(node):
    return node.value if isinstance(node, ast.Constant) \
        and isinstance(node.value, str) else None


def _over_param(node, params) -> bool:
    """Is ``node`` a comprehension over one of ``params``?"""
    return isinstance(node, (ast.ListComp, ast.GeneratorExp)) \
        and isinstance(node.generators[0].iter, ast.Name) \
        and node.generators[0].iter.id in params


class _FuncEnv:
    """String/tuple/symbol bindings of one enclosing function."""

    def __init__(self, fnode: ast.FunctionDef | None):
        self.consts: dict[str, ast.expr] = {}  # name -> str or tuple display
        self.syms: dict[str, tuple] = {}       # name -> constant alternatives
        self.passthrough: set[str] = set()     # locals derived from params
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
        if _const_str(value) is not None \
                or isinstance(value, (ast.Tuple, ast.List)):
            self.consts[name] = value
        elif isinstance(value, ast.IfExp):
            alts = (_const_str(value.body), _const_str(value.orelse))
            if all(a is not None for a in alts):
                self.syms[name] = alts
        # union_pds(m.reads for m in members) and friends: an aggregation
        # over a declaration-carrying parameter is a passthrough, not a
        # fresh declaration
        elif _over_param(value, self.params) or isinstance(value, ast.Call) \
                and any(_over_param(a, self.params) for a in value.args):
            self.passthrough.add(name)


def _eval_decl(node, env: _FuncEnv, flag=DEFINITE) -> list[tuple]:
    """Evaluate a declaration expression to [(key, flag), ...]; tuples
    (and names bound to tuples, and starred entries) splice."""
    if node is None or isinstance(node, ast.Constant) and node.value is None:
        return []
    s = _const_str(node)
    if s is not None:
        return [(("str", s), flag)]
    if isinstance(node, (ast.Tuple, ast.List)):
        return [entry for e in node.elts for entry in _eval_decl(e, env, flag)]
    if isinstance(node, ast.Starred):
        return _eval_decl(node.value, env, flag)
    if isinstance(node, ast.Name):
        if node.id in env.syms:
            return [(("sym", node.id), flag)]
        if node.id in env.passthrough or node.id in env.params:
            raise _Delegated
        if node.id in env.consts:
            return _eval_decl(env.consts[node.id], env, flag)
        raise _Operands
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return (_eval_decl(node.left, env, flag)
                + _eval_decl(node.right, env, flag))
    if isinstance(node, ast.Subscript):
        base = _eval_decl(node.value, env, flag)

        def part(p):
            if p is None:
                return None
            if isinstance(p, ast.Constant) and isinstance(p.value, int):
                return p.value
            raise _Operands
        sl = node.slice
        if isinstance(sl, ast.Slice):
            return base[slice(part(sl.lower), part(sl.upper), part(sl.step))]
        i = part(sl)
        if i is None or not -len(base) <= i < len(base):
            raise _Operands
        return [base[i]]
    if isinstance(node, ast.IfExp):
        return (_eval_decl(node.body, env, CONDITIONAL)
                + _eval_decl(node.orelse, env, CONDITIONAL))
    if isinstance(node, ast.Attribute):
        raise _Delegated
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("list", "tuple", "sorted") and node.args:
        return _eval_decl(node.args[0], env, flag)
    raise _Operands


def _field_key(arg, operands: dict, env: _FuncEnv):
    """('str', field) / ('sym', var) for a patch-field argument: a body
    parameter bound to a funnel operand, or a subscript by a field name,
    a string local or a symbol.  A subscript by any other name could be
    any field: the site is unresolved."""
    if isinstance(arg, ast.Name):
        return operands.get(arg.id)
    key = arg.slice if isinstance(arg, ast.Subscript) else None
    if isinstance(key, ast.Name):
        if key.id in env.syms:
            return ("sym", key.id)
        if _const_str(env.consts.get(key.id)) is None:
            raise _Unresolved
        key = env.consts[key.id]
    s = _const_str(key)
    return None if s is None else ("str", s)


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
    if kind == "batch_member":
        for i, name in enumerate(("reads", "writes", "ghost_reads"), 2):
            if out[name] is None and len(node.args) > i:
                out[name] = node.args[i]
    return out


#: positional index of the launch body at each site kind
_BODY_ARG = {"run": 2, "integrator_run": 4, "batch_member": 1}


class Scanner:
    """The dispatch sites of one file.

    The checker's one walk passes every import's bindings to
    :meth:`bind` and every call, with its enclosing function, to
    :meth:`call`; :meth:`finish` resolves the candidate sites against
    the whole file's imports.  ``module_effects(path)`` is the effect
    summary table of a kernel module; ``flag(line, rule, message)``
    reports.
    """

    def __init__(self, path, module_effects, flag):
        self.path = path
        self.module_effects = module_effects
        self.flag = flag
        self.imports = {}       # name -> the layers.Binding importing it
        self.calls: list = []   # (call, kind, kernel, enclosing function)

    def bind(self, bindings) -> None:
        for b in bindings:
            if b.file is not None:
                self.imports[b.name] = b

    def call(self, node: ast.Call, function) -> None:
        fn = node.func
        if isinstance(fn, ast.Attribute):
            if fn.attr == "run":
                kernel = _kernel_name(node, 0)
                if kernel is not None or any(k.arg in _DECL_KWARGS
                                             for k in node.keywords):
                    self.calls.append((node, "run", kernel, function))
            elif fn.attr == "run_batched":
                self.calls.append((node, "run_batched",
                                   _kernel_name(node, 0), function))
            elif fn.attr == "_run" and _kernel_name(node, 2):
                self.calls.append((node, "integrator_run",
                                   _kernel_name(node, 2), function))
        elif isinstance(fn, ast.Name) and fn.id == "BatchMember":
            self.calls.append((node, "batch_member", None, function))

    def finish(self) -> list[Site]:
        return [Site(self.path, node.lineno, kind, kernel,
                     self._level(node, kind, kernel, function))
                for node, kind, kernel, function in self.calls]

    def _level(self, node: ast.Call, kind: str, kernel, function) -> str:
        if kind == "run_batched":   # fused members: checked where built
            return DELEGATED
        env = _FuncEnv(function)
        decls, level = {}, FULL
        for name, expr in _decl_exprs(node, kind).items():
            try:
                decls[name] = _eval_decl(expr, env)
            except _Delegated:
                level = DELEGATED if level != PARTIAL else level
            except _Operands:
                level = PARTIAL
        if level != FULL:
            return level
        try:
            binding, eff = self._bind_body(node, kind, function, env)
        except (_Delegated, _Operands):
            # names resolved but the body has no analyzable kernel
            # call — declarations checked for shape only
            return PARTIAL
        except _Unresolved:
            self.flag(node.lineno, "dispatch-unresolved",
                      f"could not resolve {kind} dispatch site "
                      f"({kernel or 'forwarded kernel'}) — declarations "
                      "unanalyzable")
            return UNRESOLVED
        self._compare(node.lineno, kernel, decls, binding, eff)
        return FULL

    # -- body binding ----------------------------------------------------------

    def _bind_body(self, node: ast.Call, kind: str, function, env):
        """``([(param, key)], effects)`` of the body's kernel call."""
        i = _BODY_ARG[kind]
        kw = {k.arg: k.value for k in node.keywords}
        body = node.args[i] if len(node.args) > i \
            else kw.get("body") or kw.get("fn")
        body_def = body if isinstance(body, ast.Lambda) else None
        if isinstance(body, ast.Name) and function is not None:
            body_def = next((sub for sub in ast.walk(function)
                             if isinstance(sub, ast.FunctionDef)
                             and sub.name == body.id), None)
        if body_def is None:
            raise _Operands
        operands = {}
        if kind == "integrator_run" and len(node.args) > 5:
            # fn(d, e, ...) takes the arrays of names[0], names[1], ...
            keys = [key for key, _ in _eval_decl(node.args[5], env)]
            operands = dict(zip((a.arg for a in body_def.args.args), keys))
        for call in ast.walk(body_def):
            eff = self._kernel_effects(call)
            if eff is None:
                continue
            if not eff.analyzable or any(
                    _field_key(kw.value, operands, env) is not None
                    for kw in call.keywords):
                raise _Unresolved
            binding = [(param, key)
                       for param, arg in zip(eff.params, call.args)
                       if (key := _field_key(arg, operands, env)) is not None]
            return binding, eff
        raise _Operands

    def _kernel_effects(self, call):
        """Effects of a call ``K.name(...)`` through a module alias or
        ``name(...)`` through a function alias; None for any other."""
        fn = call.func if isinstance(call, ast.Call) else None
        if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name):
            b = self.imports.get(fn.value.id)
            if b is not None and b.symbol is None:
                return self.module_effects(b.file).get(fn.attr)
        elif isinstance(fn, ast.Name):
            b = self.imports.get(fn.id)
            if b is not None and b.symbol is not None:
                return self.module_effects(b.file).get(b.symbol)
        return None

    # -- declaration vs effects ------------------------------------------------

    def _compare(self, line: int, kernel, decls, binding, eff):
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
                self.flag(line, "decl-under-read",
                          f"kernel '{kname}' reads '{label}' "
                          f"({eff.loads[param]} in parameter "
                          f"'{param}') but the site declares no read — "
                          "a missing RAW edge (latent race)")
            if param in eff.stores and key not in writes:
                self.flag(line, "decl-under-write",
                          f"kernel '{kname}' writes '{label}' "
                          f"({eff.stores[param]} in parameter "
                          f"'{param}') but the site declares no write — "
                          "missing WAW/WAR edges (latent race)")
            if eff.ghost_loads.get(param) == DEFINITE \
                    and key not in ghosts:
                self.flag(line, "decl-under-ghost",
                          f"kernel '{kname}' reads the ghost region of "
                          f"'{label}' (parameter '{param}') but the "
                          "site declares no ghost_read — halo staleness "
                          "would go unchecked")
        for key in reads:
            label = key[1] if key[0] == "str" else f"<{key[1]}>"
            param = by_key.get(key)
            if param is None:
                self.flag(line, "decl-over-read",
                          f"declared read of '{label}' is not an "
                          f"operand of kernel '{kname}' — induces a "
                          "phantom RAW edge from its last writer")
            elif param not in eff.loads:
                extra = (" (edge subsumed by this site's declared write)"
                         if key in writes else "")
                self.flag(line, "decl-over-read",
                          f"declared read of '{label}' is never loaded "
                          f"by kernel '{kname}' — induces a phantom RAW "
                          f"edge from the last writer of '{label}'"
                          f"{extra}")
        for key in writes:
            label = key[1] if key[0] == "str" else f"<{key[1]}>"
            param = by_key.get(key)
            if param is None:
                self.flag(line, "decl-over-write",
                          f"declared write of '{label}' is not an "
                          f"operand of kernel '{kname}' — induces "
                          "phantom WAW/WAR edges")
            elif param not in eff.stores:
                self.flag(line, "decl-over-write",
                          f"declared write of '{label}' is never "
                          f"stored by kernel '{kname}' — induces "
                          "phantom WAW/WAR edges serializing against "
                          f"every other access of '{label}'")
        for key in ghosts:
            label = key[1] if key[0] == "str" else f"<{key[1]}>"
            param = by_key.get(key)
            if param is not None and param in eff.loads \
                    and param not in eff.ghost_loads:
                self.flag(line, "decl-over-ghost",
                          f"declared ghost read of '{label}' never "
                          "leaves the interior — forces a vacuous "
                          "halo-fill ordering")
