"""(src, dst)-keyed transfer-schedule cache (SAMRAI-style).

Building a :class:`~repro.xfer.refine_schedule.RefineSchedule` or
:class:`~repro.xfer.coarsen_schedule.CoarsenSchedule` walks every
patch-pair intersection of the levels involved — host-side work that
grows with patch count and used to be redone from scratch after every
regrid, for every level, even the untouched ones.  The cache keys each
schedule on the *structure* it depends on — the destination and source
level layouts (boxes + owners), the variable context (names and ghost
widths), and the schedule kind — and additionally validates that the
cached schedule's level objects are the ones currently installed in the
hierarchy (a rebuilt level with identical boxes is a new object holding
new patches, so its old schedule must not be replayed).

With incremental regrid (:class:`repro.regrid.regridder.Regridder`)
keeping untouched ``PatchLevel`` objects alive across regrids, entries
for quiescent levels stay valid and their schedule rebuilds are skipped
entirely.  The shared ``geometry_cache`` (variable-independent fill
transactions, see ``build_fill_geometry``) lives here too, so regrid
ghost fills and integrator halo fills share geometry for the same level
pair.

Lookups are counted once, as ``schedule_cache.hits{kind=…}`` /
``schedule_cache.misses{kind=…}`` in the cache's metrics registry — rank
0's inside a simulation (schedule construction is replicated host work,
so the rank-summed manifest carries the global counts once), a fresh
one for a bare cache — which the ``--profile`` attribution table, the
tuner and the metrics manifest read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from ..mesh.hierarchy import PatchHierarchy
    from ..mesh.patch_level import PatchLevel

__all__ = ["ScheduleCache", "level_token"]


def level_token(level: "PatchLevel | None"):
    """Structural identity of a level: number plus (box, owner) layout."""
    return None if level is None else level.layout_token


class ScheduleCache:
    """Caches transfer schedules keyed on (kind, src/dst layout, variables)."""

    def __init__(self, metrics: MetricsRegistry | None = None):
        #: where lookups are counted (hits and misses per kind)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: (kind, structural key) -> (level objects, schedule)
        self._entries: dict = {}
        #: shared variable-independent fill-transaction cache, keyed on
        #: (dst_level, coarse_level, src_level, interior, sig) — the level
        #: *objects*, so entries pin their levels and die with them
        self.geometry_cache: dict = {}
        self.builds = 0
        self.purged = 0
        #: bumped by every purge and clear: what a recorded step graph
        #: (``sched.driver``) is valid for
        self.purges = 0

    # -- lookup ----------------------------------------------------------------

    def get(self, kind: str, key, levels: tuple):
        """The cached schedule, or None.

        ``levels`` are the level objects the schedule would be built
        over; a structural match whose objects differ (level rebuilt with
        identical layout) is a miss — the old schedule references freed
        patches.
        """
        entry = self._entries.get((kind, key))
        hit = entry is not None and all(
            a is b for a, b in zip(entry[0], levels)
        )
        hits, misses = self.metrics.counters("schedule_cache", (kind,))
        if hit:
            hits.value += 1
            return entry[1]
        misses.value += 1
        return None

    def put(self, kind: str, key, levels: tuple, schedule) -> None:
        self.builds += 1
        self._entries[(kind, key)] = (tuple(levels), schedule)

    # -- invalidation ----------------------------------------------------------

    def purge(self, hierarchy: "PatchHierarchy") -> int:
        """Drop entries referencing levels no longer installed.

        Called after a regrid: entries for kept levels survive (their
        objects are still installed), entries for rebuilt or removed
        levels die.  Returns the number of schedule entries dropped.
        """
        self.purges += 1
        live = {id(lvl) for lvl in hierarchy}
        dead = [
            k for k, (levels, _) in self._entries.items()
            if any(lv is not None and id(lv) not in live for lv in levels)
        ]
        for k in dead:
            del self._entries[k]
        self.purged += len(dead)
        dead_geom = [
            k for k in self.geometry_cache
            if any(lv is not None and id(lv) not in live for lv in k[:3])
        ]
        for k in dead_geom:
            del self.geometry_cache[k]
        return len(dead)
