"""Static effect inference over kernel functions (``repro.check.static``).

Given a module of NumPy kernels written in the :mod:`repro.hydro.kernels`
style — plain functions over array parameters plus geometry scalars, with
stencils expressed through the bounds-checked ``win(arr, i0, j0, n0, n1)``
window helper — this module infers, per function and per parameter:

* **loads** — *upward-exposed* reads: the parameter's incoming value is
  consumed on some path before the function overwrites it.  A value read
  only after the function itself stored it (read-after-write, e.g. the
  momentum-advection work arrays) is not an incoming read and derives no
  RAW edge, so it is excluded.
* **stores** — the parameter is written (subscript/slice assignment or
  augmented assignment, directly or through a window alias).
* **ghost_loads** — loads whose window starts below the interior origin:
  ``win(arr, g + c, ...)`` with constant ``c < 0`` is a *definite* ghost
  read; offsets the linear evaluator cannot resolve (data-dependent
  gathers, symbolic extents like ``g - ext``) are *conditional*.

Each access carries a flag: ``"definite"`` (happens on every path) or
``"conditional"`` (inside a branch or loop, through a branch-dependent
alias, or in a callee reached conditionally).  The dispatch checker
(:mod:`repro.check.dispatch`) reports an under-declaration for any
inferred access missing from a call site's ``reads=``/``writes=`` and an
over-declaration for declared accesses with no inferred access at all;
conditional accesses justify declarations but never refute them.

The analysis is flow-sensitive and inlines calls to same-module helpers,
local ``def``s and lambdas with the actual arguments bound, so constant
propagation decides branches like ``if axis == 0`` and window offsets
like ``o = g - e`` resolve exactly.  Branch-dependent aliasing is
tracked with path tags: after ``mf = mass_flux_x`` under ``direction ==
0``, a later load through ``mf`` is killed by a store that happened on
the *same* arm, but a store on one arm never kills a load on the other.

Approximations (all documented in DESIGN.md §13): stores are covering
(a store kills subsequent loads of the whole parameter, matching the
granularity of the declaration contract), early ``return`` does not cut
the fall-through path (code after ``if p: return`` is treated as
reachable on every path), and unknown calls (``np.*``) *read* their
array arguments and write only an ``out=`` operand (a ufunc destination,
a covering store like a slice assignment).
"""

from __future__ import annotations

import ast
from pathlib import Path

__all__ = [
    "DEFINITE", "CONDITIONAL", "FunctionEffects",
    "analyze_source", "analyze_path",
]

DEFINITE = "definite"
CONDITIONAL = "conditional"

#: inlining limits — deep enough for kernels -> helpers -> local defs ->
#: lambdas, shallow enough that pathological inputs terminate quickly
_MAX_DEPTH = 12
_MAX_UNROLL = 8


def _promote(table: dict, name: str, flag: str) -> None:
    if table.get(name) != DEFINITE:
        table[name] = flag if flag == DEFINITE else table.get(name, flag)


class FunctionEffects:
    """Inferred per-parameter access sets of one kernel function."""

    __slots__ = ("name", "params", "loads", "stores", "ghost_loads")

    def __init__(self, name: str, params: list[str]):
        self.name = name
        self.params = params
        self.loads: dict[str, str] = {}
        self.stores: dict[str, str] = {}
        self.ghost_loads: dict[str, str] = {}

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "params": list(self.params),
            "loads": dict(self.loads),
            "stores": dict(self.stores),
            "ghost_loads": dict(self.ghost_loads),
        }

    def __repr__(self):
        return (f"FunctionEffects({self.name}: loads={self.loads} "
                f"stores={self.stores} ghosts={self.ghost_loads})")


# -- abstract values ---------------------------------------------------------
# ("const", v)                      python constant
# ("param", name)                   parameter of the function under analysis
# ("window", param, ghost)          win() view into a parameter's frame
# ("either", id, [(arm, value)..])  branch-dependent alias
# ("tuple", [values])               tuple/list of abstract values
# ("func", node, scope)             local def / lambda, lexically scoped
# ("winfn",)                        the win() helper itself
# None                              unknown


class _Scope:
    """One lexical frame; lookups chain to the defining scope."""

    __slots__ = ("vars", "parent")

    def __init__(self, parent=None):
        self.vars: dict = {}
        self.parent = parent

    def lookup(self, name):
        s = self
        while s is not None:
            if name in s.vars:
                return s.vars[name]
            s = s.parent
        return None


def _linear(value):
    """``value`` as (coeff_of_g, const), or None if not linear in g."""
    if value is None:
        return None
    kind = value[0]
    if kind == "const":
        return (0, value[1]) if isinstance(value[1], (int, float)) else None
    if kind == "param":
        return (1, 0) if value[1] == "g" else None
    if kind == "lin":
        return value[1]
    if kind == "either":
        alts = {_linear(v) for _, v in value[2]}
        return alts.pop() if len(alts) == 1 else None
    return None


def _ghost_of_offset(lin) -> str | None:
    """Ghost classification of one window start offset."""
    if lin is None:
        return CONDITIONAL
    cg, cc = lin
    if cg == 1:
        return DEFINITE if cc < 0 else None
    return CONDITIONAL  # absolute or scaled offset: can't place vs g


class _Machine:
    """Abstract interpreter for one entry function."""

    def __init__(self, module_scope: _Scope, entry_name: str):
        self.module_scope = module_scope
        self.effects: FunctionEffects | None = None
        self.entry_name = entry_name
        # kills[param] = set of frozensets of path tags under which a
        # covering store happened; frozenset() = stored on every path
        self.kills: dict[str, set[frozenset]] = {}
        self.depth = 0
        self.callstack: list = []
        self.retstack: list[list] = []
        self.returned = False
        self._next_id = 0

    def fresh_id(self):
        self._next_id += 1
        return self._next_id

    # -- access recording ----------------------------------------------------

    def _killed(self, param: str, constraints: frozenset) -> bool:
        return any(kc <= constraints for kc in self.kills.get(param, ()))

    def record_store(self, param: str, constraints: frozenset):
        self.kills.setdefault(param, set()).add(constraints)
        _promote(self.effects.stores, param,
                 DEFINITE if not constraints else CONDITIONAL)

    def record_load(self, param: str, constraints: frozenset, ghost):
        if self._killed(param, constraints):
            return  # read-after-write: not an incoming read
        flag = DEFINITE if not constraints else CONDITIONAL
        _promote(self.effects.loads, param, flag)
        if ghost is not None:
            gflag = ghost if flag == DEFINITE else CONDITIONAL
            _promote(self.effects.ghost_loads, param, gflag)

    def maybe_load(self, value, chain, alias=()):
        """Record a load if ``value`` denotes parameter data."""
        if value is None:
            return
        kind = value[0]
        constraints = frozenset(chain) | frozenset(alias)
        if kind == "param":
            self.record_load(value[1], constraints, None)
        elif kind == "window":
            self.record_load(value[1], constraints, value[2])
        elif kind == "either":
            _, if_id, alts = value
            for arm, v in alts:
                self.maybe_load(v, chain, tuple(alias) + ((if_id, arm),))
        elif kind == "tuple":
            for v in value[1]:
                self.maybe_load(v, chain, alias)

    def maybe_store(self, value, chain, alias=(), *, also_load=False):
        if value is None:
            return
        kind = value[0]
        constraints = frozenset(chain) | frozenset(alias)
        if kind in ("param", "window"):
            if also_load:
                self.maybe_load(value, chain, alias)
            self.record_store(value[1], constraints)
        elif kind == "either":
            _, if_id, alts = value
            for arm, v in alts:
                self.maybe_store(v, chain, tuple(alias) + ((if_id, arm),),
                                 also_load=also_load)

    # -- expression evaluation -----------------------------------------------

    def eval(self, node, scope: _Scope, chain, use: bool):
        """Abstract value of ``node``; ``use`` marks a consuming context.

        Loads are recorded centrally here: whatever parameter-backed value
        an expression produces (a bare name, a ``win()`` window, a lambda
        returning one) is consumed when it appears in a use position.
        """
        v = self._eval(node, scope, chain, use)
        if use:
            self.maybe_load(v, chain)
        return v

    def _eval(self, node, scope: _Scope, chain, use: bool):
        if node is None:
            return None
        if isinstance(node, ast.Constant):
            return ("const", node.value)
        if isinstance(node, ast.Name):
            return scope.lookup(node.id)
        if isinstance(node, (ast.Tuple, ast.List)):
            return ("tuple", [self._eval(e, scope, chain, use)
                              for e in node.elts])
        if isinstance(node, ast.BinOp):
            left = self.eval(node.left, scope, chain, True)
            right = self.eval(node.right, scope, chain, True)
            return self._binop(node.op, left, right)
        if isinstance(node, ast.UnaryOp):
            v = self.eval(node.operand, scope, chain, True)
            if isinstance(node.op, ast.USub):
                lin = _linear(v)
                if lin is not None:
                    return ("lin", (-lin[0], -lin[1]))
                if v is not None and v[0] == "const" and \
                        isinstance(v[1], (int, float)):
                    return ("const", -v[1])
            if isinstance(node.op, ast.Not) and v is not None \
                    and v[0] == "const":
                return ("const", not v[1])
            return None
        if isinstance(node, ast.Compare):
            vals = [self.eval(node.left, scope, chain, True)]
            vals += [self.eval(c, scope, chain, True)
                     for c in node.comparators]
            return self._fold_compare(node, vals)
        if isinstance(node, ast.BoolOp):
            vals = [self.eval(v, scope, chain, True) for v in node.values]
            if all(v is not None and v[0] == "const" for v in vals):
                consts = [v[1] for v in vals]
                res = (all(consts) if isinstance(node.op, ast.And)
                       else any(consts))
                return ("const", res)
            return None
        if isinstance(node, ast.IfExp):
            test = self.eval(node.test, scope, chain, True)
            if test is not None and test[0] == "const":
                branch = node.body if test[1] else node.orelse
                return self.eval(branch, scope, chain, use)
            if_id = self.fresh_id()
            v0 = self.eval(node.body, scope, chain + ((if_id, 0),), use)
            v1 = self.eval(node.orelse, scope, chain + ((if_id, 1),), use)
            return ("either", if_id, [(0, v0), (1, v1)])
        if isinstance(node, ast.Lambda):
            return ("func", node, scope)
        if isinstance(node, ast.Call):
            return self._call(node, scope, chain)
        if isinstance(node, ast.Subscript):
            return self._subscript_load(node, scope, chain)
        if isinstance(node, ast.Attribute):
            self.eval(node.value, scope, chain, use)
            return None
        if isinstance(node, ast.Starred):
            return self.eval(node.value, scope, chain, use)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            for gen in node.generators:
                self.eval(gen.iter, scope, chain, True)
            return None
        if isinstance(node, ast.Slice):
            for part in (node.lower, node.upper, node.step):
                self.eval(part, scope, chain, True)
            return None
        if isinstance(node, ast.JoinedStr):
            return None
        # anything else: evaluate children as uses, result unknown
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval(child, scope, chain, True)
        return None

    @staticmethod
    def _binop(op, left, right):
        if isinstance(op, (ast.Add, ast.Sub)):
            ll, rl = _linear(left), _linear(right)
            if ll is not None and rl is not None:
                sign = 1 if isinstance(op, ast.Add) else -1
                return ("lin", (ll[0] + sign * rl[0], ll[1] + sign * rl[1]))
            if isinstance(op, ast.Add) and left is not None \
                    and right is not None and left[0] == right[0] == "tuple":
                return ("tuple", left[1] + right[1])
        if left is not None and right is not None \
                and left[0] == right[0] == "const" \
                and isinstance(left[1], (int, float)) \
                and isinstance(right[1], (int, float)):
            try:
                if isinstance(op, ast.Mult):
                    return ("const", left[1] * right[1])
                if isinstance(op, ast.FloorDiv):
                    return ("const", left[1] // right[1])
            except ZeroDivisionError:
                return None
        return None

    @staticmethod
    def _fold_compare(node, vals):
        if len(vals) != 2 or any(v is None or v[0] != "const" for v in vals):
            return None
        a, b = vals[0][1], vals[1][1]
        op = node.ops[0]
        try:
            if isinstance(op, ast.Eq):
                return ("const", a == b)
            if isinstance(op, ast.NotEq):
                return ("const", a != b)
            if isinstance(op, ast.Lt):
                return ("const", a < b)
            if isinstance(op, ast.Gt):
                return ("const", a > b)
            if isinstance(op, ast.LtE):
                return ("const", a <= b)
            if isinstance(op, ast.GtE):
                return ("const", a >= b)
        except TypeError:
            return None
        return None

    # -- calls ----------------------------------------------------------------

    def _call(self, node: ast.Call, scope: _Scope, chain):
        target = None
        if isinstance(node.func, ast.Name):
            target = scope.lookup(node.func.id)
        if target is not None and target[0] == "winfn":
            return self._win_call(node, scope, chain)
        if target is not None and target[0] == "func" \
                and self.depth < _MAX_DEPTH \
                and target[1] not in self.callstack:
            return self._inline(target[1], target[2], node, scope, chain)
        # unknown callee: reads its array arguments and writes only an
        # ``out=`` operand (a NumPy ufunc's destination), after reading
        for arg in node.args:
            self.eval(arg, scope, chain, True)
        out = None
        for kw in node.keywords:
            if kw.arg == "out":
                out = kw.value
            else:
                self.eval(kw.value, scope, chain, True)
        if isinstance(node.func, ast.Attribute):
            self.eval(node.func.value, scope, chain, True)
        if out is None:
            return None
        if isinstance(out, ast.Subscript):  # out=arr[...]: a slice store
            self.eval(out.slice, scope, chain, True)
            out = out.value
        base = self.eval(out, scope, chain, False)
        self.maybe_store(base, chain)
        return base

    def _win_call(self, node: ast.Call, scope: _Scope, chain):
        """``win(arr, i0, j0, n0, n1)`` -> window value with ghost flag."""
        if not node.args:
            return None
        base = self.eval(node.args[0], scope, chain, False)
        offs = [self.eval(a, scope, chain, False) for a in node.args[1:3]]
        ghost = None
        for off in offs:
            g = _ghost_of_offset(_linear(off))
            if g == DEFINITE:
                ghost = DEFINITE
                break
            if g == CONDITIONAL:
                ghost = CONDITIONAL

        def wrap(value):
            if value is None:
                return None
            if value[0] in ("param", "window"):
                return ("window", value[1], ghost)
            if value[0] == "either":
                _, if_id, alts = value
                return ("either", if_id,
                        [(arm, wrap(v)) for arm, v in alts])
            return None

        return wrap(base)

    def _inline(self, fnode, defscope: _Scope, call: ast.Call,
                scope: _Scope, chain):
        """Run a local def / lambda / module helper with actuals bound."""
        args = [self.eval(a, scope, chain, False) for a in call.args]
        kwargs = {kw.arg: self.eval(kw.value, scope, chain, False)
                  for kw in call.keywords if kw.arg is not None}
        fscope = _Scope(parent=defscope)
        fargs = fnode.args
        names = [a.arg for a in fargs.posonlyargs + fargs.args]
        for name, v in zip(names, args):
            fscope.vars[name] = v
        defaults = fargs.defaults
        for name, dflt in zip(names[len(names) - len(defaults):], defaults):
            if name not in fscope.vars:
                fscope.vars[name] = self.eval(dflt, defscope, chain, False)
        for a in fargs.kwonlyargs:
            names.append(a.arg)
        for name, v in kwargs.items():
            if name in names:
                fscope.vars[name] = v
        self.depth += 1
        self.callstack.append(fnode)
        saved_returned = self.returned
        self.returned = False
        try:
            if isinstance(fnode, ast.Lambda):
                return self.eval(fnode.body, fscope, chain, False)
            self.retstack.append([])
            try:
                self.exec_block(fnode.body, fscope, chain)
            finally:
                rets = self.retstack.pop()
            if rets and all(r == rets[0] for r in rets[1:]):
                return rets[0]
            return None
        finally:
            self.returned = saved_returned
            self.callstack.pop()
            self.depth -= 1

    # -- subscripts ------------------------------------------------------------

    def _subscript_load(self, node: ast.Subscript, scope: _Scope, chain):
        base = self.eval(node.value, scope, chain, False)
        idx = self.eval(node.slice, scope, chain, True)
        if base is not None and base[0] == "tuple" and idx is not None:
            if idx[0] == "const" and isinstance(idx[1], int):
                try:
                    return base[1][idx[1]]
                except IndexError:
                    return None
        # data access on parameter-backed storage
        self.maybe_load(base, chain)
        return None

    # -- statements ------------------------------------------------------------

    def exec_block(self, stmts, scope: _Scope, chain):
        for stmt in stmts:
            if self.returned:
                break
            self.exec_stmt(stmt, scope, chain)

    def exec_stmt(self, node, scope: _Scope, chain):
        if isinstance(node, ast.Expr):
            self.eval(node.value, scope, chain, True)
        elif isinstance(node, ast.Assign):
            value = self.eval(node.value, scope, chain, False)
            for target in node.targets:
                self._assign(target, value, node.value, scope, chain)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                value = self.eval(node.value, scope, chain, False)
                self._assign(node.target, value, node.value, scope, chain)
        elif isinstance(node, ast.AugAssign):
            self.eval(node.value, scope, chain, True)
            if isinstance(node.target, ast.Subscript):
                base = self.eval(node.target.value, scope, chain, False)
                self.eval(node.target.slice, scope, chain, True)
                self.maybe_store(base, chain, also_load=True)
            elif isinstance(node.target, ast.Name):
                v = scope.lookup(node.target.id)
                self.maybe_load(v, chain)
                scope.vars[node.target.id] = None
        elif isinstance(node, ast.If):
            self._exec_if(node, scope, chain)
        elif isinstance(node, ast.For):
            self._exec_for(node, scope, chain)
        elif isinstance(node, ast.While):
            self.eval(node.test, scope, chain, True)
            loop_tag = ("loop", self.fresh_id())
            self.exec_block(node.body, scope, chain + (loop_tag,))
        elif isinstance(node, ast.Return):
            v = self.eval(node.value, scope, chain, False)
            if self.retstack:
                self.retstack[-1].append(v)
            self.returned = True
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope.vars[node.name] = ("func", node, scope)
        elif isinstance(node, ast.Assert):
            self.eval(node.test, scope, chain, True)
        elif isinstance(node, ast.With):
            for item in node.items:
                self.eval(item.context_expr, scope, chain, True)
            self.exec_block(node.body, scope, chain)
        elif isinstance(node, ast.Try):
            self.exec_block(node.body, scope, chain)
            for handler in node.handlers:
                tag = ("loop", self.fresh_id())
                self.exec_block(handler.body, scope, chain + (tag,))
            self.exec_block(node.finalbody, scope, chain)
        elif isinstance(node, (ast.Pass, ast.Break, ast.Continue,
                               ast.Raise, ast.Import, ast.ImportFrom,
                               ast.Global, ast.Nonlocal, ast.Delete,
                               ast.ClassDef)):
            pass
        else:  # unhandled statement kind: visit expressions as uses
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.eval(child, scope, chain, True)

    def _assign(self, target, value, value_node, scope: _Scope, chain):
        if isinstance(target, ast.Name):
            scope.vars[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            elts = None
            if value is not None and value[0] == "tuple":
                elts = value[1]
            elif value is not None and value[0] == "either":
                _, if_id, alts = value
                if all(v is not None and v[0] == "tuple"
                       and len(v[1]) == len(target.elts)
                       for _, v in alts):
                    elts = [("either", if_id,
                             [(arm, v[1][i]) for arm, v in alts])
                            for i in range(len(target.elts))]
            if elts is not None and len(elts) == len(target.elts):
                for t, v in zip(target.elts, elts):
                    self._assign(t, v, None, scope, chain)
            else:
                for t in target.elts:
                    self._assign(t, None, None, scope, chain)
        elif isinstance(target, ast.Subscript):
            base = self.eval(target.value, scope, chain, False)
            self.eval(target.slice, scope, chain, True)
            self.maybe_store(base, chain)
            if value_node is not None:
                # the RHS was evaluated in alias (non-use) context; a
                # subscript store consumes it, so record its loads now
                self.maybe_load(value, chain)
        # attribute targets: not parameter data, ignore

    def _exec_if(self, node: ast.If, scope: _Scope, chain):
        test = self.eval(node.test, scope, chain, True)
        if test is not None and test[0] == "const":
            self.exec_block(node.body if test[1] else node.orelse,
                            scope, chain)
            return
        if_id = self.fresh_id()
        pre = dict(scope.vars)
        pre_returned = self.returned
        self.exec_block(node.body, scope, chain + ((if_id, 0),))
        vars0, ret0 = dict(scope.vars), self.returned
        scope.vars.clear()
        scope.vars.update(pre)
        self.returned = pre_returned
        self.exec_block(node.orelse, scope, chain + ((if_id, 1),))
        vars1, ret1 = dict(scope.vars), self.returned
        self.returned = pre_returned or (ret0 and ret1)
        merged = {}
        for key in set(vars0) | set(vars1):
            v0 = vars0.get(key, pre.get(key))
            v1 = vars1.get(key, pre.get(key))
            merged[key] = (v0 if v0 is v1 or v0 == v1
                           else ("either", if_id, [(0, v0), (1, v1)]))
        scope.vars.clear()
        scope.vars.update(merged)
        if node.orelse:
            # a parameter stored on both arms is stored, full stop
            base = frozenset(chain)
            for param, chains in self.kills.items():
                if base | {(if_id, 0)} in chains \
                        and base | {(if_id, 1)} in chains:
                    chains.add(base)
                    _promote(self.effects.stores, param,
                             DEFINITE if not base else CONDITIONAL)

    def _exec_for(self, node: ast.For, scope: _Scope, chain):
        unroll = None
        if isinstance(node.iter, (ast.Tuple, ast.List)):
            try:
                vals = ast.literal_eval(node.iter)
                if len(vals) <= _MAX_UNROLL:
                    unroll = [("const", v) for v in vals]
            except (ValueError, TypeError, SyntaxError):
                unroll = None
        elif isinstance(node.iter, ast.Call) \
                and isinstance(node.iter.func, ast.Name) \
                and node.iter.func.id == "range":
            try:
                vals = range(*[ast.literal_eval(a) for a in node.iter.args])
                if len(vals) <= _MAX_UNROLL:
                    unroll = [("const", v) for v in vals]
            except (TypeError, ValueError, SyntaxError):
                unroll = None
        if unroll is not None and isinstance(node.target, ast.Name):
            for v in unroll:
                scope.vars[node.target.id] = v
                self.exec_block(node.body, scope, chain)
            return
        self.eval(node.iter, scope, chain, True)
        if isinstance(node.target, ast.Name):
            scope.vars[node.target.id] = None
        loop_tag = ("loop", self.fresh_id())
        self.exec_block(node.body, scope, chain + (loop_tag,))

    # -- entry -----------------------------------------------------------------

    def analyze(self, fnode: ast.FunctionDef) -> FunctionEffects:
        fargs = fnode.args
        params = [a.arg for a in
                  fargs.posonlyargs + fargs.args + fargs.kwonlyargs]
        self.effects = FunctionEffects(fnode.name, params)
        scope = _Scope(parent=self.module_scope)
        for p in params:
            scope.vars[p] = ("param", p)
        self.callstack.append(fnode)
        try:
            self.exec_block(fnode.body, scope, ())
        finally:
            self.callstack.pop()
        return self.effects


def _module_scope(tree: ast.Module) -> _Scope:
    """Top-level bindings: constants, function table, the win() helper."""
    scope = _Scope()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            if node.name == "win":
                scope.vars["win"] = ("winfn",)
            else:
                scope.vars[node.name] = ("func", node, scope)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and isinstance(node.value, ast.Constant):
            scope.vars[node.targets[0].id] = ("const", node.value.value)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == "win":
                    scope.vars["win"] = ("winfn",)
    return scope


def analyze_source(source: str,
                   filename: str = "<string>") -> dict[str, FunctionEffects]:
    """Effect summaries for every top-level function in ``source``."""
    tree = ast.parse(source, filename=filename)
    scope = _module_scope(tree)
    out: dict[str, FunctionEffects] = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name != "win":
            out[node.name] = _Machine(scope, node.name).analyze(node)
    return out


_path_cache: dict[Path, dict[str, FunctionEffects]] = {}


def analyze_path(path) -> dict[str, FunctionEffects]:
    path = Path(path).resolve()
    if path not in _path_cache:
        _path_cache[path] = analyze_source(path.read_text(), str(path))
    return _path_cache[path]
