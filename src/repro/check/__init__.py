"""``samrcheck``: dynamic and static enforcement of the declared-access
contract (DESIGN.md §8).

The task-graph scheduler derives every dependency edge from the
``reads=``/``writes=`` sets callers declare, and the resident design rests
on all host/device crossings going through the :mod:`repro.exec` seam.
Nothing in the core framework verifies either claim; this package does:

* :class:`~repro.check.access.SanitizeChecker` — the ``--sanitize`` mode
  runtime: instrumented array handouts (read-only views for declared
  reads, shadow logs for undeclared accesses), ghost-generation stamping
  for stale-halo detection, and a happens-before replay of each executed
  task DAG that reports undeclared accesses and DAG-concurrent conflicts.
* :mod:`repro.check.context` — the process-wide activation switch and the
  seam-scope marker host-side device-data touches are validated against.
* :mod:`repro.check.static` — ``repro check``: reads, parses and walks
  each file once and runs every static rule on that one walk, with one
  finding type, one waiver pass and text/JSON/SARIF output
  (DESIGN.md §13).  The rules live in :mod:`repro.check.lint` (the seam
  lint enforcing the backend seam and the declaration discipline at
  every kernel call site, reported by ``--lint``),
  :mod:`repro.check.effects` / :mod:`repro.check.dispatch` (per-kernel
  load/store/ghost-read inference over a closed kernel language, and
  resolution of every dispatch site with declared-vs-inferred
  comparison: under-declarations are latent races, over-declarations
  phantom DAG edges, a kernel outside the language an unresolved site)
  and :mod:`repro.check.layers` (the declared module-layering DAG with
  import-cycle detection, and the one import resolver).

Everything here is observation-only: with a checker active the simulation
produces bitwise-identical fields (enforced by tests), and with no checker
active every hook collapses to a dict lookup returning ``None``.
"""

from .access import SanitizeChecker
from .context import activate, active, deactivate, in_seam, seam_scope
from .errors import (
    CheckError,
    DeclaredAccessError,
    RaceError,
    ResidencyViolation,
    StaleHaloError,
)

__all__ = [
    "SanitizeChecker",
    "activate",
    "active",
    "deactivate",
    "in_seam",
    "seam_scope",
    "CheckError",
    "DeclaredAccessError",
    "RaceError",
    "ResidencyViolation",
    "StaleHaloError",
]
