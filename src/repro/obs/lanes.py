"""Canonical timeline (lane) names used across the observability layer.

Every accounting surface — stream labels, scheduler lanes, transfer
directions, span tracks — spells its timelines with these constants, so
the metrics registry and the tracer record lanes as given and no
consumer ever has to case-fold.  A device stream made for no lane is
``stream{id}``; host-side spans also use the ``phase`` and ``tune``
tracks.
"""

from __future__ import annotations

__all__ = [
    "COMPUTE",
    "D2H",
    "H2D",
    "D2D",
    "NET",
    "HOST",
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
