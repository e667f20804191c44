"""Typed execution/regrid policies and the one resolution function.

The execution policy has exactly the two axes that move the modelled
clock: ``batch`` (level-wide launches and rank-pair messages: one fused
launch per kernel and level, run as one stacked op per patch shape over
the level's arena slab, and one message per rank pair) and
``overlap`` (each step recorded into task graphs whose halo transfers
ride copy streams).  Everything else is derived — whole-slab execution
**iff** ``batch``, the task-graph driver **iff** ``overlap`` — so there
are four execution configurations, not nine.

* :class:`ExecutionPolicy` / :class:`RegridPolicy` are the typed
  sub-configs.  Every tunable field accepts the literal ``"auto"``; what
  ``"auto"`` means depends on ``ExecutionPolicy.mode``:

  - ``mode="fixed"`` (the default): ``"auto"`` resolves *statically* —
    overlap/batch/incremental fall to their off defaults, so
    ``ExecutionPolicy()`` is the serial per-patch reference path.
  - ``mode="auto"``: fields still ``"auto"`` after pinning are decided
    by measurement — the :mod:`repro.tune` tuner runs probe steps and
    supplies a ``decisions`` mapping.  Explicitly set fields stay
    pinned; the tuner only fills the holes.

* :func:`resolve_policies` is the **only** function that turns policies
  into concrete values.  ``RunConfig.simulation_config``, the CLI, the
  benchmarks, the serve admission path and the tuner itself all call it,
  so the auto-resolution rule exists exactly once.

Nothing here imports the rest of the package: the policy vocabulary is
pure data, shared by the facade above and the tuner beside it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = [
    "AUTO",
    "ExecutionPolicy",
    "RegridPolicy",
    "PolicyError",
    "resolve_policies",
    "needs_tuning",
]

#: the literal a policy field carries while its value is still undecided
AUTO = "auto"

_MODES = ("fixed", "auto")
_BALANCES = ("sfc", "hilbert", "lpt")
#: ExecutionPolicy fields the tuner may decide (RegridPolicy adds
#: "incremental"); also the order decisions are reported in
TUNABLE_FIELDS = ("overlap", "batch")


class PolicyError(ValueError):
    """A policy still carries ``"auto"`` where a concrete value is needed."""


def _check_flag(name: str, value) -> None:
    if value != AUTO and not isinstance(value, bool):
        raise ValueError(
            f"{name} must be True, False or {AUTO!r}, got {value!r}")


@dataclass
class ExecutionPolicy:
    """How a run executes: halo overlap × launch batching.

    Both tunable fields default to ``"auto"``; under the default
    ``mode="fixed"`` that resolves to off (serial call sequence,
    per-patch launches).  ``mode="auto"`` hands the still-``auto``
    fields to the measurement-driven tuner (:mod:`repro.tune`).
    """

    #: "fixed": static resolution of ``auto`` fields; "auto": the tuner
    #: probe-measures and decides the fields left at ``auto``
    mode: str = "fixed"
    #: record each step into task graphs (repro.sched) whose halo
    #: transfers ride per-rank copy streams; time, not bits
    overlap: bool | str = AUTO
    #: level-wide launches and rank-pair messages: one fused launch per
    #: (kernel, level), run as one stacked op per patch shape over the
    #: arena slab, and one message per (src rank, dst rank) per transfer;
    #: off, per-patch launches and patch-pair messages (storage is the
    #: same arenas either way)
    batch: bool | str = AUTO

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(
                f"ExecutionPolicy.mode must be one of {_MODES}, "
                f"got {self.mode!r}")
        for name in TUNABLE_FIELDS:
            _check_flag(f"ExecutionPolicy.{name}", getattr(self, name))

    @property
    def concrete(self) -> bool:
        """True when no field is left at ``"auto"``."""
        return self.overlap != AUTO and self.batch != AUTO

    def as_dict(self) -> dict:
        return {"mode": self.mode, "overlap": self.overlap,
                "batch": self.batch}


@dataclass
class RegridPolicy:
    """When and how the hierarchy is rebuilt and redistributed."""

    #: steps between regrids
    interval: int = 5
    #: tag-diff reuse + kept-level fast path (bitwise-identical; the
    #: tuner enables it when the probe observes regrid work to avoid)
    incremental: bool | str = AUTO
    #: distribution map: "sfc" | "hilbert" | "lpt"
    balance: str = "sfc"

    def __post_init__(self):
        if self.interval < 1:
            raise ValueError(
                f"RegridPolicy.interval must be >= 1, got {self.interval!r}")
        if self.balance not in _BALANCES:
            raise ValueError(
                f"RegridPolicy.balance must be one of {_BALANCES}, "
                f"got {self.balance!r}")
        _check_flag("RegridPolicy.incremental", self.incremental)

    @property
    def concrete(self) -> bool:
        return self.incremental != AUTO

    def as_dict(self) -> dict:
        return {"interval": self.interval, "incremental": self.incremental,
                "balance": self.balance}


def needs_tuning(execution: ExecutionPolicy,
                 regrid: RegridPolicy | None = None) -> bool:
    """True when resolution requires tuner measurements.

    Only ``mode="auto"`` policies ever reach the tuner; in fixed mode
    every ``auto`` has a static meaning.
    """
    if execution.mode != "auto":
        return False
    return (not execution.concrete
            or (regrid is not None and not regrid.concrete))


def resolve_policies(
    execution: ExecutionPolicy,
    regrid: RegridPolicy | None = None,
    decisions: dict | None = None,
) -> tuple[ExecutionPolicy, RegridPolicy]:
    """Resolve every ``"auto"`` to a concrete value — the only resolver.

    ``decisions`` maps field names (``overlap`` / ``batch`` /
    ``incremental``) to the tuner's measured
    choices; it is consulted only for fields still ``auto`` under
    ``mode="auto"``.  Raises :class:`PolicyError` when a measurement-
    driven field is unresolved and no decision covers it — callers that
    cannot tune (``build_simulation`` on a raw config) surface that
    instead of guessing.

    The static rules, in order:

    * pinned fields pass through untouched;
    * ``mode="auto"`` fields take their tuner decision;
    * remaining ``auto`` flags fall to ``False`` (fixed mode only).
    """
    regrid = regrid if regrid is not None else RegridPolicy()
    decisions = decisions or {}
    auto_mode = execution.mode == "auto"

    def pick(name: str, value):
        if value != AUTO:
            return value
        if auto_mode and name in decisions:
            return decisions[name]
        if auto_mode:
            raise PolicyError(
                f"policy field {name!r} is 'auto' in mode='auto' and no "
                "tuner decision was supplied — resolve the config through "
                "repro.api.resolve_config (or repro.api.run) first")
        return False  # static default

    resolved_exec = ExecutionPolicy(
        mode="fixed", overlap=bool(pick("overlap", execution.overlap)),
        batch=bool(pick("batch", execution.batch)))
    resolved_regrid = replace(
        regrid, incremental=bool(pick("incremental", regrid.incremental)))
    return resolved_exec, resolved_regrid
