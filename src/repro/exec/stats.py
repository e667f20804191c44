"""Readers of the modelled-event counts: the attribution tables.

Every kernel launch, PCIe / on-device transfer, stream op, fused launch,
stacked region copy, schedule-cache lookup and step phase's virtual
seconds is recorded once, where it happens, in the owning rank's
:class:`~repro.obs.metrics.MetricsRegistry` (``rank.metrics``).  This
module reads a (usually rank-merged) registry:
:func:`attribution_report` renders the per-kernel / per-transfer tables
``--profile`` prints — the Parthenon-VIBE-style "where did the virtual
time go" view.  It creates no instrument.
"""

from __future__ import annotations

from ..obs.metrics import (
    FAMILIES,
    STEP_PHASES,
    MetricsRegistry,
    phase_seconds,
)

__all__ = [
    "kernel_category",
    "attribution_report",
]


def _family(reg: MetricsRegistry, family: str) -> dict[tuple, list[float]]:
    """``{label values: counter values}`` of every recorded member of a
    counter family, counters in :data:`~repro.obs.metrics.FAMILIES` order
    and members in recording order."""
    columns = [reg.variants(name) for name in FAMILIES[family][1]]
    return {key: [col.get(key, 0.0) for col in columns]
            for key in columns[0]}


#: kernels whose category is not what their name prefix suggests
_CATEGORY_OVERRIDES = {"hydro.calc_dt": "timestep"}

_PREFIX_CATEGORIES = {
    "hydro": "hydro",
    "pdat": "data-motion",
    "geom": "data-motion",
    "regrid": "regrid",
}


def kernel_category(name: str) -> str:
    """Map a kernel name to the paper's §V-B time categories.

    ``pdat.*`` and ``geom.*`` kernels serve both the halo fills inside the
    hydro phase and the fine-to-coarse sync, so they are reported as one
    "data-motion" category rather than guessed into either.
    """
    override = _CATEGORY_OVERRIDES.get(name)
    if override is not None:
        return override
    return _PREFIX_CATEGORIES.get(name.split(".", 1)[0], "other")


def _table(title: str, headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]

    def fmt(row):
        return "  ".join(s.rjust(w) for s, w in zip(row, widths))

    lines = [f"-- {title} --", fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return lines


def _n(count: float) -> str:
    return f"{count:.0f}"


def attribution_report(reg: MetricsRegistry) -> list[str]:
    """Render the per-kernel / per-transfer attribution tables as text lines.

    ``reg`` is a rank's registry or several merged (``--profile`` merges
    every rank's).  Its ``phase.seconds`` gauges, when there are any, add
    a closing line comparing attributed modelled seconds against the
    virtual-time components, so benchmarks can check the two
    decompositions agree.
    """
    kernels = _family(reg, "kernel")
    lines = _table(
        "kernel attribution",
        ["kernel", "on", "launches", "elements", "modelled s", "category"],
        [[name, on, _n(n), _n(e), f"{secs:.6f}", kernel_category(name)]
         for (name, on), (n, e, secs) in sorted(
             kernels.items(), key=lambda kv: kv[1][2], reverse=True)])

    transfers = _family(reg, "transfer")
    lines.append("")
    lines += _table(
        "transfer attribution (PCIe / on-device)",
        ["direction", "count", "MB", "modelled s"],
        [[d, _n(n), f"{b / 1e6:.3f}", f"{secs:.6f}"]
         for (d,), (n, b, secs) in sorted(transfers.items())])

    streams = _family(reg, "stream")
    if streams:
        lines.append("")
        lines += _table("stream busy time", ["stream", "ops", "busy s"],
                        [[label, _n(n), f"{secs:.6f}"]
                         for (label,), (n, secs) in sorted(streams.items())])
    async_s, exposed = _family(reg, "overlap").get((), (0.0, 0.0))
    if async_s > 0.0:
        lines.append(
            f"overlap won     : {max(0.0, async_s - exposed):.6f}s of "
            f"{async_s:.6f}s async transfer hidden under compute "
            f"({exposed:.6f}s exposed)")

    batches = sorted(_family(reg, "batch").items())
    if batches:
        lines.append("")
        lines += _table(
            "fused launches (--batch)",
            ["kernel", "launches", "members", "patches_per_launch",
             "launch_overhead_saved s", "host wall s"],
            [[name, _n(n), _n(m), f"{m / n:.1f}", f"{saved:.6f}",
              f"{host:.4f}"]
             for (name,), (n, m, saved, host, _, _) in batches])
        n, m, saved = (sum(b[i] for _, b in batches) for i in range(3))
        lines.append(
            f"launch fusion   : launches {_n(n)} covering {_n(m)} "
            f"member kernels  patches_per_launch {m / n:.1f}  "
            f"launch_overhead_saved {saved:.6f}s")

    stacks = _family(reg, "stack")
    if stacks:
        lines.append("")
        lines += _table("stacked region copies (batched halo path)",
                        ["kernel", "stacked_regions", "stacked_ops"],
                        [[name, _n(r), _n(ops)]
                         for (name,), (r, ops) in sorted(stacks.items())])

    if batches:  # slab counters are recorded with every fused launch
        lines.append("")
        lines += _table("slab execution (--batch)",
                        ["kernel", "fused", "fallback"],
                        [[name, _n(b[4]), _n(b[5])] for (name,), b in batches])
        lines.append(
            f"slab execution  : {_n(sum(b[4] for _, b in batches))} fused "
            f"whole-slab launches, {_n(sum(b[5] for _, b in batches))} "
            "per-patch fallbacks")

    lookups = _family(reg, "schedule_cache")
    if lookups:
        lines.append("")
        lines += _table(
            "schedule cache (xfer)",
            ["kind", "hits", "misses(rebuilds)", "hit rate"],
            [[kind, _n(h), _n(m), f"{h / (h + m):.1%}" if h + m else "-"]
             for (kind,), (h, m) in sorted(lookups.items())])

    by_cat: dict[str, float] = {}
    for (name, _), (_, _, secs) in kernels.items():
        cat = kernel_category(name)
        by_cat[cat] = by_cat.get(cat, 0.0) + secs
    kernel_s = sum(k[2] for k in kernels.values())
    transfer_s = sum(t[2] for t in transfers.values())
    lines.append("")
    lines.append("category totals : " + "  ".join(
        f"{cat} {by_cat[cat]:.6f}s" for cat in sorted(by_cat)))
    lines.append(
        f"attributed      : kernels {kernel_s:.6f}s"
        f" + transfers {transfer_s:.6f}s"
        f" = {kernel_s + transfer_s:.6f}s")
    timers = phase_seconds(reg)
    if timers:
        parts = "  ".join(f"{k} {timers.get(k, 0.0):.6f}s"
                          for k in STEP_PHASES)
        total = sum(timers.get(k, 0.0) for k in STEP_PHASES)
        lines.append(f"virtual time    : {parts}  (total {total:.6f}s)")
    return lines
