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
line); :mod:`repro.check.static` applies waivers to every rule's
findings and reports unused waivers and waivers without a reason.  The
rules run inside the checker's one walk, which calls :func:`check` on
every node of a file.
"""

from __future__ import annotations

import ast

from .dispatch import KERNEL_PREFIXES
from .layers import SERVE_ALLOWED

__all__ = ["RULES", "check"]

#: the rules ``repro check --lint`` reports
RULES = frozenset({"seam", "device", "decl", "api", "slab", "serve"})

#: directories (relative to the ``repro`` package root) allowed to touch
#: patch-data storage internals
SEAM_DIRS = frozenset({"exec", "pdat", "gpu", "check"})
#: directories allowed to handle raw device memory
DEVICE_DIRS = frozenset({"gpu", "exec", "pdat", "check"})

_STORAGE_ATTRS = frozenset({
    "array", "view", "frame", "buf", "space",
})
_SEAM_CALLS = frozenset({
    "to_host", "from_host", "to_host_array", "from_host_array",
})
_DEVICE_NAMES = frozenset({"DeviceArray"})
_DEVICE_CALLS = frozenset({"kernel_view"})
#: method calls that dispatch (or collect) kernel work — finding one
#: inside a per-patch loop marks the loop as a per-patch dispatch site
_DISPATCH_CALLS = frozenset({
    "run", "run_batched", "calc_dt", "ideal_gas", "viscosity", "pdv",
    "accelerate", "flux_calc", "advec_cell", "advec_mom", "reset_field",
    "apply", "apply_weighted",
})


def _is_level_iter(node) -> bool:
    """Does this ``for`` iterate over a patch level?"""
    if isinstance(node, ast.Name):
        return "level" in node.id.lower()
    if isinstance(node, ast.Attribute):
        return "level" in node.attr.lower() or _is_level_iter(node.value)
    if isinstance(node, ast.Call):
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr == "local_patches":
            return True
        return _is_level_iter(f)
    return False


def check(node, pkg: str, targets, flag) -> None:
    """The lint rules on one node of a file in ``repro`` package
    directory ``pkg`` ('' outside one).  ``targets`` are the repro modules
    an import node reaches; ``flag(line, rule, message)`` reports."""
    if isinstance(node, ast.Attribute):
        # X.data.<storage attr> outside the seam packages
        if (pkg not in SEAM_DIRS and node.attr in _STORAGE_ATTRS
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "data"):
            flag(node.lineno, "seam",
                 f"patch-data storage access '.data.{node.attr}' "
                 "outside the backend seam — use array_of()/frame_of() "
                 "or a Backend method")
    elif isinstance(node, ast.Name):
        if pkg not in DEVICE_DIRS and node.id in _DEVICE_NAMES:
            flag(node.lineno, "device",
                 f"raw device memory ({node.id}) outside the gpu "
                 "runtime and the backend seam")
    elif isinstance(node, ast.For):
        target_is_patch = (isinstance(node.target, ast.Name)
                           and "patch" in node.target.id.lower())
        if target_is_patch or _is_level_iter(node.iter):
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in _DISPATCH_CALLS):
                    flag(node.lineno, "slab",
                         f"per-patch kernel dispatch "
                         f"('.{sub.func.attr}()' inside a patch loop) "
                         "defeats whole-slab execution — emit batch "
                         "members and fuse with run_batched")
                    break
    elif isinstance(node, (ast.Import, ast.ImportFrom)):
        _check_import(node, pkg, targets, flag)
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        attr = node.func.attr
        if pkg not in SEAM_DIRS and attr in _SEAM_CALLS:
            flag(node.lineno, "seam",
                 f"host/device crossing '.{attr}()' outside "
                 "the backend seam — go through repro.exec")
        if pkg not in DEVICE_DIRS and attr in _DEVICE_CALLS:
            flag(node.lineno, "device",
                 f"device-memory access '.{attr}()' outside "
                 "the gpu runtime and the backend seam")
        # <backend>.run("pkg.kernel", ...) must declare accesses
        first = node.args[0] if node.args else None
        if attr == "run" and isinstance(first, ast.Constant) \
                and isinstance(first.value, str) \
                and first.value.startswith(KERNEL_PREFIXES) \
                and not {kw.arg for kw in node.keywords} \
                & {"reads", "writes"}:
            flag(node.lineno, "decl",
                 f"kernel call site {first.value!r} passes no reads=/"
                 "writes= declaration — the scheduler derives "
                 "dependency edges from these")


def _check_import(node, pkg: str, targets, flag) -> None:
    """The api rule, and the serve rule on the import's resolved targets
    (aliases, relative forms and ``__init__`` re-exports included)."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name == "repro.app" or alias.name.startswith("repro.app."):
                flag(node.lineno, "api",
                     "import of removed 'repro.app' — use the "
                     "'repro.api' facade")
    elif node.module is not None and (node.module == "repro.app"
                                      or node.module.startswith("repro.app.")):
        flag(node.lineno, "api",
             "import from removed 'repro.app' — use the "
             "'repro.api' facade")
    if pkg != "serve":
        return
    for target in targets:
        parts = target.split(".")
        top = parts[1] if len(parts) > 1 else ""
        if top in SERVE_ALLOWED:
            continue
        what = f"repro.{top}" if top else "the repro package root"
        flag(node.lineno, "serve",
             f"serve-layer import of {what} — the service may "
             "only enter simulations through the 'repro.api' "
             "facade")
