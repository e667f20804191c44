"""Process-wide tracer activation (mirror of :mod:`repro.check.context`).

Emission sites sit on hot paths (every kernel launch, every transfer),
so discovery must be one global read: :func:`active_tracer` returns the
installed :class:`~repro.obs.trace.Tracer` or None, and every site
guards with ``if tracer is not None``.  With no tracer installed the
whole observability layer costs one attribute load per site.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .trace import Tracer

__all__ = ["active_tracer", "activate_tracer", "deactivate_tracer"]

_ACTIVE: "Tracer | None" = None


def active_tracer() -> "Tracer | None":
    """The installed tracer, or None when tracing is off (the fast path)."""
    return _ACTIVE


def activate_tracer(tracer: "Tracer") -> None:
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a tracer is already active")
    _ACTIVE = tracer


def deactivate_tracer() -> None:
    global _ACTIVE
    _ACTIVE = None
