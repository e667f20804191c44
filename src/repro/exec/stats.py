"""Per-rank execution statistics: the observability side of the backend seam.

Every kernel launch and every modelled PCIe transfer that goes through a
:class:`~repro.exec.backend.Backend` (or through the simulated device and
CPU models underneath it) is recorded here with its element count, byte
count, and modelled cost, so any run can print a per-kernel /
per-transfer attribution table — the Parthenon-VIBE-style "where did the
virtual time go" view — without extra instrumentation at call sites.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.lanes import canonical_lane

__all__ = [
    "KernelCounter",
    "TransferCounter",
    "StreamCounter",
    "OverlapCounter",
    "BatchCounter",
    "SlabCounter",
    "StackCounter",
    "ScheduleCounter",
    "ExecStats",
    "combined_stats",
    "kernel_category",
    "attribution_report",
    "tuning_signals",
]


@dataclass
class KernelCounter:
    """Accumulated launches of one kernel on one resource."""

    launches: int = 0
    elements: int = 0
    seconds: float = 0.0


@dataclass
class TransferCounter:
    """Accumulated transfers in one direction (h2d / d2h / d2d)."""

    count: int = 0
    bytes: int = 0
    seconds: float = 0.0


@dataclass
class StreamCounter:
    """Busy time accumulated on one device stream timeline."""

    ops: int = 0
    seconds: float = 0.0


@dataclass
class BatchCounter:
    """Accounting for fused launches of one kernel (``--batch``).

    ``launches`` counts fused launches actually issued, ``members`` the
    per-patch kernels they covered, and ``overhead_saved_seconds`` the
    modelled fixed per-launch cost the fusion avoided —
    ``(members - launches) ×`` the resource's launch overhead.
    ``host_seconds`` is real host wall-clock (``perf_counter``) spent
    executing the fused launches — the number whole-slab execution
    improves; modelled time lives in :class:`KernelCounter`.
    """

    launches: int = 0
    members: int = 0
    overhead_saved_seconds: float = 0.0
    host_seconds: float = 0.0


@dataclass
class SlabCounter:
    """Accounting for whole-slab execution of one kernel (``--batch``).

    ``fused`` counts fused launches with a vectorized member — a shape
    bucket's stacked NumPy op, or a compiled transfer plan's flat-index
    ops (``BatchMember.count`` > 1); ``fallback`` counts multi-member
    launches of per-patch bodies only (work that still runs per region:
    physical-boundary members, the sync's coarsen bodies; a level whose
    patches all differ in shape).
    """

    fused: int = 0
    fallback: int = 0


@dataclass
class StackCounter:
    """Accounting for flat-index batched region copies (halo pack/copy path).

    ``copy_batch``/``pack_batch``/``unpack_batch`` run their regions as
    one flat-index NumPy op per store (pair) (:mod:`repro.exec.plan`).
    ``stacked`` counts the regions covered, ``groups`` the ops issued.
    """

    calls: int = 0
    stacked: int = 0
    groups: int = 0


@dataclass
class ScheduleCounter:
    """Transfer-schedule cache lookups of one kind (fill / coarsen / …).

    A hit replays a previously built schedule (the levels involved are
    unchanged since it was built); a miss rebuilds it — the host-side
    patch-pair intersection walk incremental regrid avoids for untouched
    levels.  Recorded once globally (on rank 0), since schedule
    construction is replicated host work, not per-rank work.
    """

    hits: int = 0
    misses: int = 0


@dataclass
class OverlapCounter:
    """Accounting for stream-overlapped transfers (paper §VI).

    ``async_seconds`` is modelled PCIe time charged to copy streams rather
    than the blocking host path; ``exposed_seconds`` is the part of it the
    host or compute timeline still had to wait for (event waits and
    end-of-graph drains).  The difference is transfer time genuinely
    hidden under compute — the "overlap won" row of the profile.
    """

    async_seconds: float = 0.0
    exposed_seconds: float = 0.0

    @property
    def hidden_seconds(self) -> float:
        return max(0.0, self.async_seconds - self.exposed_seconds)


class ExecStats:
    """Kernel and transfer counters for one rank.

    Keys are ``(resource, kernel_name)`` for kernels (resource is ``"cpu"``
    or ``"gpu"``) and the direction string for transfers.
    """

    def __init__(self):
        self.kernels: dict[tuple[str, str], KernelCounter] = {}
        self.transfers: dict[str, TransferCounter] = {}
        self.streams: dict[str, StreamCounter] = {}
        self.batches: dict[str, BatchCounter] = {}
        self.slab: dict[str, SlabCounter] = {}
        self.stacked: dict[str, StackCounter] = {}
        self.schedules: dict[str, ScheduleCounter] = {}
        self.overlap = OverlapCounter()
        #: per copy-lane high-water mark of virtual time already charged as
        #: exposed, so overlapping waits (an event wait and the later
        #: end-of-graph drain covering the same stream interval) count once
        self._exposed_hwm: dict[str, float] = {}

    # -- recording -----------------------------------------------------------

    def record_kernel(self, name: str, elements: int, seconds: float,
                      resource: str) -> None:
        c = self.kernels.setdefault((resource, name), KernelCounter())
        c.launches += 1
        c.elements += max(int(elements), 0)
        c.seconds += seconds

    def record_transfer(self, direction: str, nbytes: int, seconds: float) -> None:
        c = self.transfers.setdefault(canonical_lane(direction), TransferCounter())
        c.count += 1
        c.bytes += int(nbytes)
        c.seconds += seconds

    def record_stream(self, label: str, seconds: float) -> None:
        c = self.streams.setdefault(canonical_lane(label), StreamCounter())
        c.ops += 1
        c.seconds += seconds

    def record_batch(self, name: str, members: int,
                     overhead_saved_seconds: float,
                     host_seconds: float = 0.0) -> None:
        c = self.batches.setdefault(name, BatchCounter())
        c.launches += 1
        c.members += int(members)
        c.overhead_saved_seconds += overhead_saved_seconds
        c.host_seconds += host_seconds

    def record_slab(self, name: str, fused: bool) -> None:
        c = self.slab.setdefault(name, SlabCounter())
        if fused:
            c.fused += 1
        else:
            c.fallback += 1

    def record_stack(self, name: str, stacked: int, groups: int) -> None:
        c = self.stacked.setdefault(name, StackCounter())
        c.calls += 1
        c.stacked += int(stacked)
        c.groups += int(groups)

    def record_schedule(self, kind: str, hit: bool) -> None:
        c = self.schedules.setdefault(kind, ScheduleCounter())
        if hit:
            c.hits += 1
        else:
            c.misses += 1

    def record_exposed_wait(self, lane: str, before: float, after: float,
                            cap: float | None = None) -> None:
        """Charge a wait on a copy-lane timeline as exposed transfer time.

        ``before``/``after`` bracket the waiting clock's advance in virtual
        time.  The portion already charged for this lane (the high-water
        mark) is skipped, ``cap`` bounds the charge by the awaited task's
        own busy seconds (waits also absorb upstream latency baked into
        event timestamps), and the total is clamped so exposed can never
        exceed the async seconds actually put on copy streams.
        """
        lane = canonical_lane(lane)
        start = max(before, self._exposed_hwm.get(lane, 0.0))
        if after <= start:
            return
        self._exposed_hwm[lane] = after
        seconds = after - start
        if cap is not None:
            seconds = min(seconds, cap)
        room = self.overlap.async_seconds - self.overlap.exposed_seconds
        if seconds > 0.0 and room > 0.0:
            self.overlap.exposed_seconds += min(seconds, room)

    def reset(self) -> None:
        self.kernels.clear()
        self.transfers.clear()
        self.streams.clear()
        self.batches.clear()
        self.slab.clear()
        self.stacked.clear()
        self.schedules.clear()
        self.overlap = OverlapCounter()
        self._exposed_hwm.clear()

    # -- aggregation -----------------------------------------------------------

    def merge(self, other: "ExecStats") -> None:
        for key, c in other.kernels.items():
            mine = self.kernels.setdefault(key, KernelCounter())
            mine.launches += c.launches
            mine.elements += c.elements
            mine.seconds += c.seconds
        for key, c in other.transfers.items():
            mine = self.transfers.setdefault(key, TransferCounter())
            mine.count += c.count
            mine.bytes += c.bytes
            mine.seconds += c.seconds
        for key, c in other.streams.items():
            mine = self.streams.setdefault(key, StreamCounter())
            mine.ops += c.ops
            mine.seconds += c.seconds
        for key, c in other.batches.items():
            mine = self.batches.setdefault(key, BatchCounter())
            mine.launches += c.launches
            mine.members += c.members
            mine.overhead_saved_seconds += c.overhead_saved_seconds
            mine.host_seconds += c.host_seconds
        for key, c in other.slab.items():
            mine = self.slab.setdefault(key, SlabCounter())
            mine.fused += c.fused
            mine.fallback += c.fallback
        for key, c in other.stacked.items():
            mine = self.stacked.setdefault(key, StackCounter())
            mine.calls += c.calls
            mine.stacked += c.stacked
            mine.groups += c.groups
        for key, c in other.schedules.items():
            mine = self.schedules.setdefault(key, ScheduleCounter())
            mine.hits += c.hits
            mine.misses += c.misses
        self.overlap.async_seconds += other.overlap.async_seconds
        self.overlap.exposed_seconds += other.overlap.exposed_seconds

    @property
    def kernel_seconds(self) -> float:
        return sum(c.seconds for c in self.kernels.values())

    @property
    def transfer_seconds(self) -> float:
        return sum(c.seconds for c in self.transfers.values())


def combined_stats(stats_iter) -> ExecStats:
    """Merge many per-rank stats into one aggregate (sums, not maxima)."""
    out = ExecStats()
    for s in stats_iter:
        out.merge(s)
    return out


def tuning_signals(stats: ExecStats) -> dict[str, float]:
    """The scalar signals the auto-tuner (``repro.tune``) reads.

    Distils the counter surfaces into the quantities the tuner's
    decision rules are written in:

    * ``kernel_launches`` / ``patches_per_launch`` — how much per-launch
      overhead there is to fuse away (many small launches → batch wins);
    * ``slab_fused`` / ``slab_fallback_rate`` — whether whole-slab
      execution actually engages for this problem shape or keeps falling
      back to per-patch replay;
    * ``exposed_wait_fraction`` — the share of async transfer time the
      compute timeline still waited for (1.0 when nothing was overlapped,
      so a high value with transfer work present argues for ``overlap``);
    * ``transfer_seconds`` / ``kernel_seconds`` — the raw material the
      overlap decision weighs;
    * ``schedule_cache_hit_rate`` — how much host-side schedule rebuild
      work incremental regrid could avoid.
    """
    launches = sum(c.launches for c in stats.kernels.values())
    batched = sum(c.launches for c in stats.batches.values())
    members = sum(c.members for c in stats.batches.values())
    fused = sum(c.fused for c in stats.slab.values())
    # fallback rate over slab-*eligible* kernels only: a kernel that never
    # fused (halo exchange, interpolation — inherently per-patch) is not
    # evidence against slab execution, just work slab never claimed
    eligible = [c for c in stats.slab.values() if c.fused]
    fallback = sum(c.fallback for c in eligible)
    hits = sum(c.hits for c in stats.schedules.values())
    misses = sum(c.misses for c in stats.schedules.values())
    o = stats.overlap
    return {
        "kernel_launches": float(launches),
        "batched_launches": float(batched),
        "patches_per_launch": members / batched if batched else 1.0,
        "slab_fused": float(fused),
        "slab_fallback_rate": (fallback / (fused + fallback)
                               if fused + fallback else 0.0),
        "kernel_seconds": stats.kernel_seconds,
        "transfer_seconds": stats.transfer_seconds,
        "exposed_wait_fraction": (o.exposed_seconds / o.async_seconds
                                  if o.async_seconds else 1.0),
        "schedule_cache_hit_rate": (hits / (hits + misses)
                                    if hits + misses else 0.0),
    }


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


def attribution_report(stats: ExecStats,
                       timers: dict[str, float] | None = None) -> list[str]:
    """Render the per-kernel / per-transfer attribution tables as text lines.

    ``timers`` (the run's phase totals, e.g. from
    ``LagrangianEulerianIntegrator.timer_summary``) adds a closing line
    comparing attributed modelled seconds against the virtual-time
    components, so benchmarks can check the two decompositions agree.
    """
    lines: list[str] = []

    rows = [
        [name, resource, str(c.launches), str(c.elements),
         f"{c.seconds:.6f}", kernel_category(name)]
        for (resource, name), c in sorted(
            stats.kernels.items(),
            key=lambda kv: kv[1].seconds, reverse=True)
    ]
    lines += _table("kernel attribution",
                    ["kernel", "on", "launches", "elements", "modelled s",
                     "category"], rows)

    trows = [
        [direction, str(c.count), f"{c.bytes / 1e6:.3f}", f"{c.seconds:.6f}"]
        for direction, c in sorted(stats.transfers.items())
    ]
    lines.append("")
    lines += _table("transfer attribution (PCIe / on-device)",
                    ["direction", "count", "MB", "modelled s"], trows)

    if stats.streams:
        srows = [
            [label, str(c.ops), f"{c.seconds:.6f}"]
            for label, c in sorted(stats.streams.items())
        ]
        lines.append("")
        lines += _table("stream busy time",
                        ["stream", "ops", "busy s"], srows)
    if stats.overlap.async_seconds > 0.0:
        o = stats.overlap
        lines.append(
            f"overlap won     : {o.hidden_seconds:.6f}s of "
            f"{o.async_seconds:.6f}s async transfer hidden under compute "
            f"({o.exposed_seconds:.6f}s exposed)")

    if stats.batches:
        brows = [
            [name, str(c.launches), str(c.members),
             f"{c.members / c.launches:.1f}",
             f"{c.overhead_saved_seconds:.6f}", f"{c.host_seconds:.4f}"]
            for name, c in sorted(stats.batches.items())
        ]
        lines.append("")
        lines += _table("fused launches (--batch)",
                        ["kernel", "launches", "members",
                         "patches_per_launch", "launch_overhead_saved s",
                         "host wall s"],
                        brows)
        launches = sum(c.launches for c in stats.batches.values())
        members = sum(c.members for c in stats.batches.values())
        saved = sum(c.overhead_saved_seconds for c in stats.batches.values())
        lines.append(
            f"launch fusion   : launches {launches} covering {members} "
            f"member kernels  patches_per_launch {members / launches:.1f}  "
            f"launch_overhead_saved {saved:.6f}s")

    if stats.stacked:
        krows = [
            [name, str(c.calls), str(c.stacked), str(c.groups)]
            for name, c in sorted(stats.stacked.items())
        ]
        lines.append("")
        lines += _table("stacked region copies (batched halo path)",
                        ["kernel", "calls", "stacked_regions", "stacked_ops"],
                        krows)

    if stats.slab:
        srows = [
            [name, str(c.fused), str(c.fallback)]
            for name, c in sorted(stats.slab.items())
        ]
        lines.append("")
        lines += _table("slab execution (--batch)",
                        ["kernel", "fused", "fallback"], srows)
        fused = sum(c.fused for c in stats.slab.values())
        fallback = sum(c.fallback for c in stats.slab.values())
        lines.append(
            f"slab execution  : {fused} fused whole-slab launches, "
            f"{fallback} per-patch fallbacks")

    if stats.schedules:
        crows = [
            [kind, str(c.hits), str(c.misses),
             f"{c.hits / (c.hits + c.misses):.1%}" if c.hits + c.misses else "-"]
            for kind, c in sorted(stats.schedules.items())
        ]
        lines.append("")
        lines += _table("schedule cache (xfer)",
                        ["kind", "hits", "misses(rebuilds)", "hit rate"],
                        crows)

    by_cat: dict[str, float] = {}
    for (_, name), c in stats.kernels.items():
        cat = kernel_category(name)
        by_cat[cat] = by_cat.get(cat, 0.0) + c.seconds
    lines.append("")
    lines.append("category totals : " + "  ".join(
        f"{cat} {by_cat[cat]:.6f}s" for cat in sorted(by_cat)))
    lines.append(
        f"attributed      : kernels {stats.kernel_seconds:.6f}s"
        f" + transfers {stats.transfer_seconds:.6f}s"
        f" = {stats.kernel_seconds + stats.transfer_seconds:.6f}s")
    if timers:
        parts = "  ".join(f"{k} {timers.get(k, 0.0):.6f}s"
                          for k in ("hydro", "timestep", "sync", "regrid"))
        total = sum(timers.get(k, 0.0)
                    for k in ("hydro", "timestep", "sync", "regrid"))
        lines.append(f"virtual time    : {parts}  (total {total:.6f}s)")
    return lines
