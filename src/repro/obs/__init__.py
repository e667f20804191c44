"""``repro.obs``: span tracing and the unified metrics registry.

The observability layer of the execution stack (DESIGN.md §10).  Every
timeline the cost model maintains — device compute streams, the PCIe
copy engines, each rank's host clock, the NIC — can emit
:class:`~repro.obs.trace.Span` records into a per-run
:class:`~repro.obs.trace.Tracer` (activated via
:mod:`repro.obs.context`), and the default
:class:`~repro.obs.trace.ChromeTraceSink` renders them as a
Chrome-trace/Perfetto timeline with one track per (rank, stream).
:class:`~repro.obs.metrics.MetricsRegistry` is each rank's one store of
modelled events (kernels, transfers, stream busy time, fused launches,
schedule-cache lookups, step-graph and regrid counts) and of its phase
seconds and device high-water mark, each recorded once where it
happens; merged across ranks, and nothing added, it is the
schema-versioned end-of-run manifest.

Everything here is observation-only: emission reads virtual clocks,
never advances them, so traced runs are bitwise identical to untraced
runs (the samrcheck guarantee, enforced by ``tests/test_obs.py``).
"""

from .context import activate_tracer, active_tracer, deactivate_tracer
from .lanes import COMPUTE, D2D, D2H, H2D, HOST, NET, canonical_lane
from .metrics import (
    MANIFEST_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ScopedRegistry,
    registry_from_run,
    run_manifest,
)
from .trace import (
    CATEGORIES,
    ChromeTraceSink,
    MemorySink,
    Span,
    Tracer,
    chrome_trace_events,
)
from .validate import validate_chrome_trace, validate_file

__all__ = [
    "Span",
    "Tracer",
    "MemorySink",
    "ChromeTraceSink",
    "chrome_trace_events",
    "CATEGORIES",
    "active_tracer",
    "activate_tracer",
    "deactivate_tracer",
    "canonical_lane",
    "COMPUTE",
    "D2H",
    "H2D",
    "D2D",
    "NET",
    "HOST",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ScopedRegistry",
    "registry_from_run",
    "run_manifest",
    "MANIFEST_SCHEMA",
    "validate_chrome_trace",
    "validate_file",
]
