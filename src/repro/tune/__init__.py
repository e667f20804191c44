"""``repro.tune``: policy vocabulary + the measurement-driven auto-tuner.

Two halves:

* :mod:`repro.tune.policy` — the typed :class:`ExecutionPolicy` /
  :class:`RegridPolicy` sub-configs of :class:`repro.api.RunConfig` and
  :func:`resolve_policies`, the single place the ``"auto"`` resolution
  rules live.  Pure data; imported eagerly by the facade.
* :mod:`repro.tune.tuner` — the runtime tuner behind
  ``ExecutionPolicy(mode="auto")``: it advances a few probe steps per
  candidate policy, and the candidate with the lowest probed modelled
  grind decides the fields the caller left at ``"auto"``.  Imported
  lazily by :func:`repro.api.resolve_config` so configs that never tune
  pay nothing.

The resolved decisions travel with the config (``RunConfig.tuned``),
land in the metrics manifest (``manifest["policies"]``), feed the full
config fingerprint, and are traced as ``tune``-category spans.
"""

from .policy import (
    AUTO,
    ExecutionPolicy,
    PolicyError,
    RegridPolicy,
    needs_tuning,
    resolve_policies,
)

__all__ = [
    "AUTO",
    "ExecutionPolicy",
    "PolicyError",
    "RegridPolicy",
    "needs_tuning",
    "resolve_policies",
]
