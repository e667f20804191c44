"""Static effect inference over kernel functions (``repro.check.static``).

Given a module of NumPy kernels written in the :mod:`repro.hydro.kernels`
style — plain functions over array parameters plus geometry scalars, with
stencils expressed through the bounds-checked ``win(arr, i0, j0, n0, n1)``
window helper the module defines or imports — this module infers, per
function and per parameter:

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
``"conditional"`` (inside a branch, through a branch-dependent
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

The kernel language is closed.  Statements: expressions, assignments
(to names, tuples and subscripts), augmented subscript assignments,
``if``, ``for`` over a literal tuple (unrolled), ``return`` and local
``def``.  Expressions: constants, names, tuples, lists, arithmetic,
unary and boolean operators, comparisons (``==`` folds), conditional
expressions, lambdas, calls, subscripts, slices and attributes.  A
function that uses anything else — ``while``, ``match``, ``with``,
comprehensions, a non-literal ``for`` — is *unanalyzable*
(:attr:`FunctionEffects.analyzable` is false) rather than summarised
with whatever loads and stores the analyzer happened to see, so a
dispatch site that launches it reports itself unresolved.

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

__all__ = [
    "DEFINITE", "CONDITIONAL", "FunctionEffects",
    "analyze_module",
]

DEFINITE = "definite"
CONDITIONAL = "conditional"

#: inlining limits — deep enough for kernels -> helpers -> local defs ->
#: lambdas; a kernel past them is unanalyzable
_MAX_DEPTH = 12
_MAX_UNROLL = 8


class _Unanalyzable(Exception):
    """The kernel steps outside the language this analyzer models."""


def _promote(table: dict, name: str, flag: str) -> None:
    if table.get(name) != DEFINITE:
        table[name] = flag if flag == DEFINITE else table.get(name, flag)


class FunctionEffects:
    """Inferred per-parameter access sets of one kernel function."""

    __slots__ = ("name", "params", "loads", "stores", "ghost_loads",
                 "analyzable")

    def __init__(self, name: str, params: list[str]):
        self.name = name
        self.params = params
        self.loads: dict[str, str] = {}
        self.stores: dict[str, str] = {}
        self.ghost_loads: dict[str, str] = {}
        #: false when the function leaves the kernel language; the
        #: access sets are then meaningless
        self.analyzable = True


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
    """Ghost classification of one window start offset: ``g + c`` is a
    ghost read iff ``c < 0``; any other offset can't be placed vs g."""
    if lin is None or lin[0] != 1:
        return CONDITIONAL
    return DEFINITE if lin[1] < 0 else None


class _Machine:
    """Abstract interpreter for one entry function."""

    def __init__(self, module_scope: _Scope):
        self.module_scope = module_scope
        self.effects: FunctionEffects | None = None
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
            lin = _linear(self.eval(node.operand, scope, chain, True))
            if isinstance(node.op, ast.USub) and lin is not None:
                return ("lin", (-lin[0], -lin[1]))
            return None
        if isinstance(node, ast.Compare):
            vals = [self.eval(v, scope, chain, True)
                    for v in (node.left, *node.comparators)]
            # only ``a == b`` over two constants folds
            if len(vals) == 2 and isinstance(node.ops[0], ast.Eq) \
                    and all(v is not None and v[0] == "const"
                            for v in vals):
                return ("const", vals[0][1] == vals[1][1])
            return None
        if isinstance(node, ast.BoolOp):
            for v in node.values:
                self.eval(v, scope, chain, True)
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
        if isinstance(node, ast.Slice):
            for part in (node.lower, node.upper, node.step):
                self.eval(part, scope, chain, True)
            return None
        raise _Unanalyzable(node)

    @staticmethod
    def _binop(op, left, right):
        if isinstance(op, (ast.Add, ast.Sub)):
            ll, rl = _linear(left), _linear(right)
            if ll is not None and rl is not None:
                sign = 1 if isinstance(op, ast.Add) else -1
                return ("lin", (ll[0] + sign * rl[0], ll[1] + sign * rl[1]))
        if isinstance(op, ast.Mult) and left is not None \
                and right is not None and left[0] == right[0] == "const" \
                and isinstance(left[1], (int, float)) \
                and isinstance(right[1], (int, float)):
            return ("const", left[1] * right[1])
        return None

    # -- calls ----------------------------------------------------------------

    def _call(self, node: ast.Call, scope: _Scope, chain):
        target = None
        if isinstance(node.func, ast.Name):
            target = scope.lookup(node.func.id)
        if target is not None and target[0] == "winfn":
            return self._win_call(node, scope, chain)
        if target is not None and target[0] == "func":
            if self.depth >= _MAX_DEPTH or target[1] in self.callstack:
                raise _Unanalyzable(node)
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
        if len(node.args) < 3:
            raise _Unanalyzable(node)
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
            if value is not None and value[0] in ("param", "window"):
                return ("window", value[1], ghost)
            if value is not None and value[0] == "either":
                _, if_id, alts = value
                return ("either", if_id,
                        [(arm, wrap(v)) for arm, v in alts])
            return None

        return wrap(base)

    def _inline(self, fnode, defscope: _Scope, call: ast.Call,
                scope: _Scope, chain):
        """Run a local def / lambda / module helper with positional
        actuals bound (keyword arguments are outside the language)."""
        if call.keywords:
            raise _Unanalyzable(call)
        args = [self.eval(a, scope, chain, False) for a in call.args]
        fscope = _Scope(parent=defscope)
        fargs = fnode.args
        names = [a.arg for a in fargs.posonlyargs + fargs.args]
        for name, v in zip(names, args):
            fscope.vars[name] = v
        defaults = fargs.defaults
        for name, dflt in zip(names[len(names) - len(defaults):], defaults):
            if name not in fscope.vars:
                fscope.vars[name] = self.eval(dflt, defscope, chain, False)
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
        if base is not None and base[0] == "tuple" and idx is not None \
                and idx[0] == "const" and isinstance(idx[1], int):
            if not -len(base[1]) <= idx[1] < len(base[1]):
                raise _Unanalyzable(node)
            return base[1][idx[1]]
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
        elif isinstance(node, ast.AugAssign) \
                and isinstance(node.target, ast.Subscript):
            self.eval(node.value, scope, chain, True)
            base = self.eval(node.target.value, scope, chain, False)
            self.eval(node.target.slice, scope, chain, True)
            self.maybe_store(base, chain, also_load=True)
        elif isinstance(node, ast.If):
            self._exec_if(node, scope, chain)
        elif isinstance(node, ast.For):
            self._exec_for(node, scope, chain)
        elif isinstance(node, ast.Return):
            v = self.eval(node.value, scope, chain, False)
            if self.retstack:
                self.retstack[-1].append(v)
            self.returned = True
        elif isinstance(node, ast.FunctionDef):
            scope.vars[node.name] = ("func", node, scope)
        else:
            raise _Unanalyzable(node)

    def _assign(self, target, value, value_node, scope: _Scope, chain):
        if isinstance(target, ast.Name):
            scope.vars[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            # unpack a tuple display or an unknown value; unpacking an
            # alias (a conditional tuple) is outside the language
            n = len(target.elts)
            if value is None:
                elts = [None] * n
            elif value[0] == "tuple" and len(value[1]) == n:
                elts = value[1]
            else:
                raise _Unanalyzable(target)
            for t, v in zip(target.elts, elts):
                self._assign(t, v, None, scope, chain)
        elif isinstance(target, ast.Subscript):
            base = self.eval(target.value, scope, chain, False)
            self.eval(target.slice, scope, chain, True)
            self.maybe_store(base, chain)
            if value_node is not None:
                # the RHS was evaluated in alias (non-use) context; a
                # subscript store consumes it, so record its loads now
                self.maybe_load(value, chain)
        else:
            raise _Unanalyzable(target)

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
        """A ``for`` over a short literal tuple, unrolled."""
        if not isinstance(node.iter, (ast.Tuple, ast.List)):
            raise _Unanalyzable(node)
        try:
            values = ast.literal_eval(node.iter)
        except (ValueError, TypeError):
            raise _Unanalyzable(node) from None
        if len(values) > _MAX_UNROLL or node.orelse \
                or not isinstance(node.target, ast.Name):
            raise _Unanalyzable(node)
        for v in values:
            scope.vars[node.target.id] = ("const", v)
            self.exec_block(node.body, scope, chain)

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
        except _Unanalyzable:
            self.effects.analyzable = False
        return self.effects


def _module_scope(tree: ast.Module) -> _Scope:
    """Top-level bindings: constants, function table, the win() helper
    (defined here or imported)."""
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
        elif isinstance(node, ast.ImportFrom) \
                and any((a.asname or a.name) == "win" for a in node.names):
            scope.vars["win"] = ("winfn",)
    return scope


def analyze_module(tree: ast.Module) -> dict[str, FunctionEffects]:
    """Effect summaries for every top-level function of a parsed module."""
    scope = _module_scope(tree)
    return {node.name: _Machine(scope).analyze(node) for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name != "win"}
