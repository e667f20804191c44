"""Chrome-trace schema validation: ``python -m repro.obs.validate t.json``.

The trace-smoke CI job (and the golden-file tests) validate every
``--trace`` output against the structural schema below instead of
eyeballing Perfetto:

* top level: an object with a ``traceEvents`` list and ``displayTimeUnit``;
* every event has ``name``/``ph``/``pid``/``tid``; complete events
  (``ph == "X"``) also carry numeric ``ts``, non-negative ``dur`` and a
  category from :data:`repro.obs.trace.CATEGORIES`;
* every (pid, tid) pair used by a complete event has a ``thread_name``
  metadata event — the one-track-per-(rank, stream) guarantee.

Exit status is the number of schema errors (0 = valid).  ``--require-tracks``
asserts a minimum number of distinct (rank, stream) tracks and
``--require-categories`` asserts that named span categories appear.
"""

from __future__ import annotations

import argparse
import json
import sys

from .trace import CATEGORIES

__all__ = ["validate_chrome_trace", "validate_file", "main"]


def validate_chrome_trace(doc, require_tracks: int = 0,
                          require_categories=()) -> list[str]:
    """Structural schema check; returns a list of error strings."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["top level is not a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    if "displayTimeUnit" not in doc:
        errors.append("missing 'displayTimeUnit'")

    named_tracks: set[tuple] = set()
    used_tracks: set[tuple] = set()
    seen_categories: set[str] = set()
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            errors.append(f"event {i}: not an object")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                errors.append(f"event {i}: missing {key!r}")
        ph = ev.get("ph")
        if ph == "M":
            if ev.get("name") == "thread_name":
                named_tracks.add((ev.get("pid"), ev.get("tid")))
        elif ph == "X":
            used_tracks.add((ev.get("pid"), ev.get("tid")))
            if not isinstance(ev.get("ts"), (int, float)):
                errors.append(f"event {i}: non-numeric 'ts'")
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"event {i}: missing or negative 'dur'")
            cat = ev.get("cat")
            if cat not in CATEGORIES:
                errors.append(f"event {i}: unknown category {cat!r}")
            else:
                seen_categories.add(cat)
        else:
            errors.append(f"event {i}: unknown phase {ph!r}")

    for track in sorted(used_tracks - named_tracks):
        errors.append(f"track {track}: spans but no thread_name metadata")
    if require_tracks and len(used_tracks) < require_tracks:
        errors.append(
            f"only {len(used_tracks)} (rank, stream) track(s), "
            f"required >= {require_tracks}")
    for cat in require_categories:
        if cat not in seen_categories:
            errors.append(f"required span category {cat!r} never appears")
    return errors


def validate_file(path: str, require_tracks: int = 0,
                  require_categories=()) -> list[str]:
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: unreadable trace ({e})"]
    return validate_chrome_trace(doc, require_tracks=require_tracks,
                                 require_categories=require_categories)


def report_lines(path: str, errors: list[str]) -> list[str]:
    """What the command reports for ``errors`` found in ``path``."""
    verdict = (f"{len(errors)} trace schema error(s)" if errors
               else f"{path}: trace schema valid")
    return [*errors, verdict]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        prog="repro.obs.validate",
        description="validate a --trace Chrome-trace JSON against the schema")
    p.add_argument("trace", help="path to the trace JSON")
    p.add_argument("--require-tracks", type=int, default=0,
                   help="minimum distinct (rank, stream) tracks")
    p.add_argument("--require-categories", nargs="*", default=(),
                   help="span categories that must appear")
    args = p.parse_args(argv)
    errors = validate_file(args.trace, require_tracks=args.require_tracks,
                           require_categories=args.require_categories)
    print("\n".join(report_lines(args.trace, errors)))
    return min(len(errors), 255)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
