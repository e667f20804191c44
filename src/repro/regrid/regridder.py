"""Hierarchy regeneration: flag → cluster → rebuild → the application's hook.

Implements the paper's three-step regridding procedure (§II): flagging
(with the GPU tag-compression path from :mod:`repro.regrid.flagging`),
clustering (Berger–Rigoutsos), and rebuilding the levels, whose data
the application's hook writes (see below).  Proper nesting is
maintained by augmenting each tag level with the buffered footprint of
the next finer *new* level before clustering, so a covering cluster
automatically nests its children.

Host-side framework costs (tag gathering, replicated clustering, patch
construction) are charged to the rank clocks — these are the serial
fractions whose growth the weak-scaling study exposes.  Two mechanisms
keep them from growing with every regrid:

* **Fused tag readback** — each level's per-patch compressed tag
  bitfields cross the PCIe bus as one transfer per rank (plus a packed
  per-patch "any tags?" header) instead of a per-patch latency chain.
* **Tag-diff incremental regrid** (``RegridConfig.incremental``) — the
  regridder keeps each level's previous *buffered* tag bitmap (packed
  with :func:`~repro.regrid.flagging.pack_tags`).  When a level's bitmap
  is unchanged, clustering is skipped and the previous boxes are reused
  (bitwise-identical by construction: Berger–Rigoutsos is a pure
  function of the tag set); when the reused boxes also match the
  installed level, the ``PatchLevel`` object itself is *kept* — no
  reallocation — and the application's hook is told so (it then skips
  the interior transfer, whose output the level already holds, so fields
  stay bit-identical).

The regridder owns geometry and storage only: tags, boxes, owners,
allocation, the zero-fill of new storage, installing and dropping
levels.  A level's data belongs to the application, which writes it
through the hook :meth:`Regridder.regrid` calls once per new or kept
level (SAMRAI's ``initializeLevelData``, AMReX's
``MakeNewLevelFromScratch`` / ``RemakeLevel``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from scipy import ndimage

from ..exec.backend import backend_for, zero_level
from ..gpu.ledger import ChargeLedger
from ..mesh.box import Box
from ..obs.context import active_tracer
from .berger_rigoutsos import cluster_tags
from .flagging import TAG_FIELDS, TagThresholds, pack_tags, tag_unit
from .load_balance import assign_owners, chop_boxes

if TYPE_CHECKING:  # pragma: no cover
    from ..comm.simcomm import SimCommunicator
    from ..mesh.hierarchy import PatchHierarchy
    from ..mesh.patch_level import PatchLevel
    from ..mesh.variables import VariableRegistry

__all__ = ["RegridConfig", "RegridStats", "Regridder"]

# Host-side cost constants (seconds): replicated clustering work per tag
# and per produced box, and per-patch level-construction overhead.
CLUSTER_COST_PER_TAG = 2.0e-8
CLUSTER_COST_PER_BOX = 2.0e-6
PATCH_CONSTRUCTION_COST = 2.0e-5
#: comparing a packed tag bitmap against the previous one (per byte)
TAG_DIFF_COST_PER_BYTE = 1.0e-9


@dataclass
class RegridConfig:
    """Parameters of the regridding procedure."""

    thresholds: TagThresholds = field(default_factory=TagThresholds)
    min_efficiency: float = 0.70
    min_patch_size: int = 4
    #: None inherits the run-level max patch size (SimulationConfig)
    max_patch_size: int | None = None
    nesting_buffer: int = 1
    tag_buffer: int = 2          # dilation of tags, protects moving features
    regrid_interval: int = 5
    #: tag-diff incremental regrid: skip reclustering levels whose
    #: buffered tag bitmap is unchanged and keep their PatchLevel objects
    #: alive (bitwise identical to a from-scratch regrid)
    incremental: bool = False
    #: distribution map: "sfc" (Morton curve), "hilbert", or "lpt"
    balance: str = "sfc"
    #: SFC→LPT fallback gate (max/mean load ratio); None disables
    imbalance_threshold: float | None = 1.5


@dataclass
class RegridStats:
    """What one regrid did; the run's sums are the ``regrid`` counter
    family on rank 0's metrics registry."""

    tags_per_level: dict = field(default_factory=dict)
    boxes_per_level: dict = field(default_factory=dict)
    cells_per_level: dict = field(default_factory=dict)
    #: tag levels whose bitmap changed and were re-clustered
    levels_reclustered: int = 0
    #: tag levels whose previous boxes were reused without clustering
    levels_reused: int = 0
    #: levels torn down and rebuilt (allocation + solution transfer)
    levels_rebuilt: int = 0
    #: levels whose PatchLevel object was kept alive (no reallocation)
    levels_kept: int = 0
    #: level numbers rebuilt or removed by this regrid (kept levels absent)
    changed_levels: set = field(default_factory=set)
    #: fused per-(level, rank) tag readbacks issued (resident builds)
    tag_readbacks: int = 0
    #: per-phase virtual seconds (max over ranks): collect/cluster/
    #: rebuild/transfer
    phase_seconds: dict = field(default_factory=dict)


class Regridder:
    """Rebuilds the fine levels of a hierarchy from fresh tags."""

    def __init__(
        self,
        hierarchy: "PatchHierarchy",
        comm: "SimCommunicator",
        factory,
        variables: "VariableRegistry",
        primary_fields,
        config: RegridConfig | None = None,
    ):
        self.hierarchy = hierarchy
        self.comm = comm
        self.factory = factory
        self.variables = variables
        #: what a kept level keeps; its other fields are zeroed like a
        #: new level's
        self.primary_fields = frozenset(primary_fields)
        self.config = config if config is not None else RegridConfig()
        self.last_stats = RegridStats()
        #: previous *buffered* tag bitmap per tag level, packed over the
        #: level domain (pack_tags) — the tag-diff baseline
        self._prev_bits: dict[int, np.ndarray] = {}
        #: the fine boxes the previous bitmap clustered into, per fine level
        self._prev_fine_boxes: dict[int, list[Box]] = {}

    # -- phase timing ----------------------------------------------------------

    @contextmanager
    def _timed(self, phase: str):
        """Charge a regrid sub-phase to every rank's
        ``phase.seconds{phase=regrid.<phase>}`` gauge and emit a trace
        span; accumulate the max-over-ranks delta into the current stats."""
        for r in self.comm.ranks:
            r.sync_device()
        starts = [r.clock.time for r in self.comm.ranks]
        try:
            yield
        finally:
            tracer = active_tracer()
            name = f"regrid.{phase}"
            worst = 0.0
            for r, t0 in zip(self.comm.ranks, starts):
                r.sync_device()
                delta = r.clock.time - t0
                worst = max(worst, delta)
                r.metrics.gauge("phase.seconds", phase=name).value += delta
                if tracer is not None and delta > 0.0:
                    tracer.emit(name, "phase", r.index, "phase",
                                t0, r.clock.time)
            stats = self.last_stats
            stats.phase_seconds[phase] = (
                stats.phase_seconds.get(phase, 0.0) + worst)

    # -- tag collection --------------------------------------------------------

    def _collect_tags(self, level: "PatchLevel") -> np.ndarray:
        """Flag every patch of a level; return global (N, 2) tag indices.

        The tags are computed one stacked sweep per shape bucket
        (:func:`~repro.regrid.flagging.tag_unit`, uncharged) and charged
        patch by patch in level order, from one ledger, as
        :func:`~repro.regrid.flagging.flag_patch` launches them.  Resident
        builds fuse the whole level's compressed tag bitfields into ONE
        D2H per rank — a packed per-patch "any tags?" header plus the
        concatenated bit arrays of the tagged patches — instead of a
        4-byte flag + bit-array transfer per patch.
        """
        comm = self.comm
        backends: dict = {}  # owner -> the backend its data lives in
        tagged = np.zeros(len(level.patches), dtype=bool)
        all_points = [np.empty((0, 2), dtype=np.int64)]
        for unit in level.buckets or level.patches:
            backend = backends.setdefault(unit.owner, backend_for(
                unit.fields("density0")[0], comm.rank(unit.owner)))
            tags = tag_unit(unit, backend, self.config.thresholds)
            ids = [p.global_id for p in unit.patches]
            tagged[ids] = tags.any(axis=(1, 2))
            k, i, j = np.nonzero(tags)
            all_points.append(np.stack((i, j), axis=1)
                              + level.box_array.lower[ids][k])
        ledger = ChargeLedger()
        bytes_per_rank = [0] * comm.size
        fused: dict = {}  # owner -> [backend, fused payload bytes, patches]
        cells = level.box_array.shape().prod(axis=1).tolist()
        for patch, n, hit in zip(level.patches, cells, tagged.tolist()):
            backend = backends[patch.owner]
            backend.record(ledger, "regrid.tag", n,
                           reads=[patch.data(f) for f in TAG_FIELDS])
            packed = -(-n // 8)  # what pack_tags yields
            bytes_per_rank[patch.owner] += packed
            if backend.resident:
                backend.record(ledger, "regrid.tag_compress", n)
                entry = fused.setdefault(patch.owner, [backend, 0, 0])
                entry[1] += packed * hit
                entry[2] += 1
        ledger.charge()
        for backend, payload, npatches in fused.values():
            # One fused readback per rank: 1 bit of "tagged?" per patch,
            # then the tagged patches' compressed bit arrays.
            backend.charge_transfer("d2h", -(-npatches // 8) + payload)
            self.last_stats.tag_readbacks += 1
        # SAMRAI gathers tag boxes globally before clustering.
        comm.allgather(bytes_per_rank)
        return np.concatenate(all_points)

    def _buffer_tags(self, points: np.ndarray, extra_boxes: list[Box],
                     domain: Box) -> np.ndarray:
        """Dilate tags by the tag buffer and union in footprint boxes."""
        buf = self.config.tag_buffer
        if len(points) == 0 and not extra_boxes:
            return points
        # Rasterise into a window covering everything plus the dilation.
        boxes = list(extra_boxes)
        if len(points):
            boxes.append(Box(points.min(axis=0).tolist(), points.max(axis=0).tolist()))
        window = boxes[0]
        for b in boxes[1:]:
            window = window.bounding(b)
        window = window.grow(buf).intersection(domain)
        mask = np.zeros(tuple(window.shape()), dtype=bool)
        if len(points):
            inside = (
                (points[:, 0] >= window.lower[0]) & (points[:, 0] <= window.upper[0])
                & (points[:, 1] >= window.lower[1]) & (points[:, 1] <= window.upper[1])
            )
            p = points[inside]
            mask[p[:, 0] - window.lower[0], p[:, 1] - window.lower[1]] = True
        if buf > 0 and mask.any():
            mask = ndimage.binary_dilation(mask, iterations=buf)
        for b in extra_boxes:
            bb = b.intersection(window)
            if not bb.is_empty():
                mask[bb.slices_in(window)] = True
        pts = np.argwhere(mask)
        pts[:, 0] += window.lower[0]
        pts[:, 1] += window.lower[1]
        return pts

    # -- tag-diff reuse --------------------------------------------------------

    def _pack_points(self, points: np.ndarray, domain: Box) -> np.ndarray:
        """Buffered tag points → packed bitmap over the level domain."""
        mask = np.zeros(tuple(domain.shape()), dtype=bool)
        if len(points):
            mask[points[:, 0] - domain.lower[0],
                 points[:, 1] - domain.lower[1]] = True
        return pack_tags(mask)

    def _reusable(self, tag_level: int, packed: np.ndarray) -> bool:
        """May the previous boxes for this tag level be reused?  Only if
        its buffered bitmap is unchanged (bitwise-identical boxes)."""
        prev = self._prev_bits.get(tag_level)
        if prev is None or (tag_level + 1) not in self._prev_fine_boxes:
            return False
        return prev.shape == packed.shape and np.array_equal(prev, packed)

    # -- box generation -------------------------------------------------------

    def generate_boxes(self) -> dict[int, list[Box]]:
        """New fine-level boxes, keyed by level number (fine index space).

        Processes tag levels from the second finest down to the coarsest
        (§II), augmenting each with the buffered coarsened footprint of
        the next finer new level so nesting holds by construction.
        """
        h = self.hierarchy
        ratio = h.refinement_ratio
        cfg = self.config
        new_boxes: dict[int, list[Box]] = {}
        stats = self.last_stats

        finest_tag_level = min(h.num_levels - 1, h.max_levels - 2)
        for l in range(finest_tag_level, -1, -1):
            level = h.level(l)
            with self._timed("collect"):
                points = self._collect_tags(level)
            stats.tags_per_level[l] = len(points)
            with self._timed("cluster"):
                # Nesting augmentation: the next finer new level, coarsened
                # to this level and grown by the nesting buffer, must be
                # covered.
                extra = []
                if (l + 2) in new_boxes:
                    for b in new_boxes[l + 2]:
                        extra.append(
                            b.coarsen(ratio * ratio).grow(cfg.nesting_buffer)
                            .intersection(level.domain)
                        )
                points = self._buffer_tags(points, extra, level.domain)
                if cfg.incremental:
                    packed = self._pack_points(points, level.domain)
                    for r in self.comm.ranks:
                        r.cpu_charge(TAG_DIFF_COST_PER_BYTE * packed.nbytes)
                    if self._reusable(l, packed):
                        fine = list(self._prev_fine_boxes[l + 1])
                        new_boxes[l + 1] = fine
                        stats.levels_reused += 1
                        stats.boxes_per_level[l + 1] = len(fine)
                        stats.cells_per_level[l + 1] = sum(
                            b.size() for b in fine)
                        continue
                    self._prev_bits[l] = packed
                # Charge the replicated host-side clustering to every rank.
                for r in self.comm.ranks:
                    r.cpu_charge(CLUSTER_COST_PER_TAG * len(points))
                if len(points) == 0:
                    new_boxes[l + 1] = []
                    if cfg.incremental:
                        self._prev_fine_boxes[l + 1] = []
                    continue
                boxes = cluster_tags(points, cfg.min_efficiency, cfg.min_patch_size)
                stats.levels_reclustered += 1
                boxes = [b.intersection(level.domain) for b in boxes]
                fine = [b.refine(ratio) for b in boxes if not b.is_empty()]
                fine = chop_boxes(fine, cfg.max_patch_size)
                new_boxes[l + 1] = fine
                if cfg.incremental:
                    self._prev_fine_boxes[l + 1] = list(fine)
                stats.boxes_per_level[l + 1] = len(fine)
                stats.cells_per_level[l + 1] = sum(b.size() for b in fine)
                for r in self.comm.ranks:
                    r.cpu_charge(CLUSTER_COST_PER_BOX * len(fine))
        return new_boxes

    # -- hierarchy reconstruction -------------------------------------------------

    def regrid(self, fill_level) -> RegridStats:
        """Regenerate every level finer than the base.

        Each new or kept level is built (or kept) and zero-filled in the
        ``rebuild`` sub-phase and installed; then, in the ``transfer``
        sub-phase, ``fill_level(level, old)`` writes its data.  ``old``
        is the level it replaces (None if there was none, ``level``
        itself if it was kept); the hook releases a replaced level once
        it has read what it needs of it.
        """
        h = self.hierarchy
        self.last_stats = RegridStats()
        stats = self.last_stats
        new_boxes = self.generate_boxes()
        for lnum in sorted(new_boxes):
            boxes = new_boxes[lnum]
            if not boxes:
                stats.changed_levels.update(range(lnum, h.num_levels))
                h.remove_finer_levels(lnum - 1)
                break
            owners = assign_owners(
                boxes, self.comm.size, method=self.config.balance,
                imbalance_threshold=self.config.imbalance_threshold)
            if self._can_keep(lnum, boxes, owners):
                level = old = h.level(lnum)
                with self._timed("rebuild"):
                    zero_level(level, [var.name for var in self.variables
                                       if var.name not in self.primary_fields])
                stats.levels_kept += 1
            else:
                old = h.level(lnum) if lnum < h.num_levels else None
                with self._timed("rebuild"):
                    level = self._build_level(lnum, boxes, owners)
                stats.levels_rebuilt += 1
                stats.changed_levels.add(lnum)
            with self._timed("transfer"):
                h.set_level(level)
                fill_level(level, old)
        self._count(stats)
        return stats

    def _build_level(self, lnum: int, boxes: list[Box],
                     owners: list[int]) -> "PatchLevel":
        """A new level over (boxes, owners), allocated and zero-filled so
        that untouched work arrays are defined."""
        level = self.hierarchy.make_level(lnum, boxes, owners)
        level.allocate_all(self.variables, self.factory, self.comm)
        for patch in level:
            self.comm.rank(patch.owner).cpu_charge(PATCH_CONSTRUCTION_COST)
        zero_level(level, [var.name for var in self.variables])
        return level

    def _count(self, stats: RegridStats) -> None:
        """Add one regrid's counts to the ``regrid`` family on rank 0's
        metrics registry (created here, so a run that never regrids has
        no ``regrid.*`` key)."""
        metrics = self.comm.rank(0).metrics
        regrids, reclustered, reused, rebuilt, kept, readbacks = (
            metrics.counters("regrid", ()))
        regrids.value += 1
        reclustered.value += stats.levels_reclustered
        reused.value += stats.levels_reused
        rebuilt.value += stats.levels_rebuilt
        kept.value += stats.levels_kept
        readbacks.value += stats.tag_readbacks
        for phase, secs in stats.phase_seconds.items():
            metrics.counter("regrid.phase_seconds", phase=phase).value += secs

    def _can_keep(self, lnum: int, boxes: list[Box],
                  owners: list[int]) -> bool:
        """Is the installed level already exactly (boxes, owners)?

        Only then can the PatchLevel object be kept alive: its patches,
        data and interiors *are* what a rebuild + interior transfer would
        produce.
        """
        h = self.hierarchy
        if not self.config.incremental or lnum >= h.num_levels:
            return False
        level = h.level(lnum)
        return ([p.box for p in level] == boxes
                and [p.owner for p in level] == owners)
