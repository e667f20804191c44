"""``run.py --compare A.json B.json``: is suite B worse than suite A?

One row per (end-to-end metric x workload): both values with the range
of their repeats, the ratio B/A (A is the base), the bound, and a
verdict —

* ``regressed``: B is worse than A by more than max(bound x A, floor);
* ``unresolved`` (real-clock metrics only): the measurement cannot tell —
  on one side the two best repeats (the run reports the best, see
  measure.py) differ by more than the bound or there is only one, so the
  noise floor was not reached twice; or the machine-speed probe
  (``calib_ms``, read before and after each run) differs by more than
  the bound between any two of the four readings, so the two suites did
  not see the same machine;
* ``ok``: otherwise.

Count-type per-layer metrics repeat exactly on one commit, so any that
differ between the two suites are listed as well.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

from layers import PER_LAYER
from measure import END_TO_END

__all__ = ["compare_suites", "compare_files", "Row"]


def _floor_gap(values: list[float], better: str) -> float:
    """Relative gap between the best and the second-best repeat."""
    if len(values) < 2:
        return math.inf
    best, second = sorted(values, reverse=better == "higher")[:2]
    return abs(second - best) / abs(best) if best else 0.0


class Row:
    """One (workload, metric) judgement."""

    def __init__(self, workload: str, spec, a: dict, b: dict):
        name, self.unit, self.better, self.bound, self.floor = spec
        self.workload, self.metric = workload, name
        # a run that produced nothing has no metrics: NaN reads as regressed
        self.a = a["metrics"].get(name, math.nan)
        self.b = b["metrics"].get(name, math.nan)
        self.a_repeats = a["info"].get("repeats", {}).get(name, [self.a])
        self.b_repeats = b["info"].get("repeats", {}).get(name, [self.b])
        #: 0 for the exact metrics; real-clock metrics are the ones that
        #: have repeats
        self.noise = 0.0
        if name in a["info"].get("repeats", {}):
            calib = [*a["info"]["calib_ms"], *b["info"]["calib_ms"]]
            self.noise = max(_floor_gap(self.a_repeats, self.better),
                             _floor_gap(self.b_repeats, self.better),
                             max(calib) / min(calib) - 1.0)

    @property
    def worse_by(self) -> float:
        """How much worse B is than A, in the metric's unit (<= 0: not)."""
        return self.b - self.a if self.better == "lower" else self.a - self.b

    @property
    def verdict(self) -> str:
        if math.isnan(self.a) or math.isnan(self.b):
            return "regressed"
        if self.noise > self.bound:
            return "unresolved"
        allowed = max(self.bound * abs(self.a), self.floor)
        return "regressed" if self.worse_by > allowed else "ok"

    def __str__(self) -> str:
        def side(value, repeats):
            extra = (f" [{len(repeats)} repeats {min(repeats):.5g}.."
                     f"{max(repeats):.5g}]" if len(repeats) > 1 else "")
            return f"{value:.6g}{extra}"

        ratio = f"{self.b / self.a:.4f}" if self.a else "n/a"
        return (f"{self.workload:24s} {self.metric:20s} "
                f"A={side(self.a, self.a_repeats)}  "
                f"B={side(self.b, self.b_repeats)}  {self.unit}  "
                f"B/A={ratio} (base A)  bound={self.bound:g}  {self.verdict}")


def _runs(suite: dict, trace: int) -> dict[str, dict]:
    return {r["workload"]: r for r in suite["runs"] if r["trace"] == trace}


def compare_suites(a: dict, b: dict) -> tuple[list[Row], list[str]]:
    """Rows for every end-to-end metric, and the exact counters that moved."""
    rows = []
    a0, b0 = _runs(a, 0), _runs(b, 0)
    for workload in a0:
        if workload not in b0:
            continue
        rows.extend(Row(workload, spec, a0[workload], b0[workload])
                    for spec in END_TO_END)
    moved = []
    a1, b1 = _runs(a, 1), _runs(b, 1)
    exact = [name for name, unit, _ in PER_LAYER if unit in ("count", "B")]
    for workload in a1:
        for name in exact:
            va = a1[workload]["metrics"].get(name)
            vb = b1.get(workload, {}).get("metrics", {}).get(name)
            if va != vb:
                moved.append(f"{workload:24s} {name:34s} A={va} B={vb}")
    return rows, moved


def compare_files(path_a: Path, path_b: Path) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    rows, moved = compare_suites(a, b)
    for row in rows:
        print(row)
    if moved:
        print("count-type layer metrics that differ:")
        print("\n".join(moved))
    verdicts = [row.verdict for row in rows]
    print(f"{verdicts.count('ok')} ok, {verdicts.count('unresolved')} "
          f"unresolved, {verdicts.count('regressed')} regressed; "
          f"{len(moved)} exact counters moved", file=sys.stderr)
    return 1 if "regressed" in verdicts else 0
