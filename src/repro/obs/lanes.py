"""Canonical timeline (lane) names used across the observability layer.

Every accounting surface — stream labels, scheduler lanes, transfer
directions, span tracks — historically spelled its own strings at each
call site ("h2d" here, "H2D" there).  These constants are the single
spelling; :func:`canonical_lane` folds every legacy alias onto it, and the
metrics registry (:meth:`~repro.obs.metrics.MetricsRegistry.record`) and
the tracer normalise through it at record time so no consumer ever has
to case-fold again.
"""

from __future__ import annotations

__all__ = [
    "COMPUTE",
    "D2H",
    "H2D",
    "D2D",
    "NET",
    "HOST",
    "KNOWN_LANES",
    "canonical_lane",
]

#: the device's default (compute) stream timeline
COMPUTE = "compute"
#: device → host PCIe copy engine
D2H = "d2h"
#: host → device PCIe copy engine
H2D = "h2d"
#: on-device copies (no PCIe hop)
D2D = "d2d"
#: the NIC timeline of non-blocking sends
NET = "net"
#: the rank's host clock (CPU kernels, framework work, blocking waits)
HOST = "host"

KNOWN_LANES = frozenset({COMPUTE, D2H, H2D, D2D, NET, HOST})

#: legacy / CUDA-API spellings folded onto the canonical names
_ALIASES = {
    "htod": H2D,
    "dtoh": D2H,
    "dtod": D2D,
    "pcie_h2d": H2D,
    "pcie_d2h": D2H,
    "cpu": HOST,
    "network": NET,
    "nic": NET,
}


def canonical_lane(label: str) -> str:
    """Fold any lane/stream/direction spelling onto the canonical name.

    Unknown labels (per-device stream names like ``stream3``) pass
    through lower-cased, so ad hoc stream labels still make stable track
    names without being mistaken for one of the known lanes.
    """
    low = label.lower()
    return _ALIASES.get(low, low)
