"""Whole-program static analysis: ``repro check`` / ``python -m
repro.check.static``.

This is the driver that ties the static half of samrcheck together:

* the seam/device/decl/api/slab/serve **lint** (:mod:`repro.check.lint`),
* **effect inference + dispatch-site checking**
  (:mod:`repro.check.effects` + :mod:`repro.check.dispatch`): every
  kernel's loads/stores/ghost reads inferred from its AST, every
  ``Backend.run``/``run_batched``/``BatchMember``
  site resolved, declarations compared against inferred effects,
* the **module layering DAG** + import-cycle detection
  (:mod:`repro.check.layers`),
* **waiver hygiene**: every ``# samrcheck: ok`` must name a reason
  (``waiver-reason``), and a waiver on a line that no longer violates
  anything is itself a finding (``waiver-unused``).

Waiver syntax (on the flagged line)::

    something_flagged()  # samrcheck: ok(rule1,rule2): reason text
    something_flagged()  # samrcheck: ok — legacy form, waives any rule

A rule list scopes the waiver; without one it waives any rule on that
line.  The reason string is mandatory — a bare waiver is reported as
``waiver-reason``.  Waiver findings are themselves unwaivable (a stale
waiver cannot waive its own staleness).

Output formats: ``text`` (default), ``json``, and SARIF 2.1.0
(``--format sarif``) for CI code-scanning upload.  Exit status is the
number of unwaived findings, capped at 255.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import dispatch, layers
from .lint import WAIVER, Violation, lint_file_full, parse_waiver

__all__ = ["Finding", "run_static", "run_checks", "text_report",
           "structured_report", "check_main", "main"]

#: rules that cannot be waived — a waiver cannot vouch for itself
_UNWAIVABLE = frozenset({"waiver-unused", "waiver-reason", "parse"})

_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


class Finding:
    """One static-analysis finding (normalized across sub-checkers)."""

    __slots__ = ("path", "line", "rule", "message")

    def __init__(self, path, line, rule, message):
        self.path = Path(path)
        self.line = line
        self.rule = rule
        self.message = message

    def as_dict(self):
        return {"path": str(self.path), "line": self.line,
                "rule": self.rule, "message": self.message}

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _iter_files(paths):
    for root in paths:
        root = Path(root)
        if root.is_dir():
            yield from sorted(root.rglob("*.py"))
        else:
            yield root


def _line_of(cache: dict, path: Path, lineno: int) -> str:
    if path not in cache:
        try:
            cache[path] = path.read_text().splitlines()
        except OSError:
            cache[path] = []
    lines = cache[path]
    return lines[lineno - 1] if 0 < lineno <= len(lines) else ""


def _apply_waivers(raw, cache, used):
    """Drop findings waived on their own line; record waiver usage."""
    kept = []
    for f in raw:
        waiver = parse_waiver(_line_of(cache, f.path, f.line))
        if waiver is not None and f.rule not in _UNWAIVABLE:
            rules, _reason = waiver
            if rules is None or f.rule in rules:
                used.setdefault(f.path, set()).add(f.line)
                continue
        kept.append(Finding(f.path, f.line, f.rule, f.message))
    return kept


def _comment_lines(path: Path):
    """line -> comment text, from real COMMENT tokens only (waiver
    syntax quoted in docstrings must not look like a live waiver)."""
    import io
    import tokenize
    out: dict[int, str] = {}
    try:
        text = path.read_text()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.COMMENT:
                out[tok.start[0]] = tok.string
    except (OSError, tokenize.TokenizeError, SyntaxError,
            IndentationError):
        pass
    return out


def _waiver_hygiene(paths, used):
    """waiver-reason and waiver-unused findings across the file set."""
    findings = []
    for path in _iter_files(paths):
        for i, line in sorted(_comment_lines(path).items()):
            if WAIVER not in line:
                continue
            waiver = parse_waiver(line)
            if waiver is None:
                continue
            rules, reason = waiver
            if not reason:
                findings.append(Finding(
                    path, i, "waiver-reason",
                    "waiver without a reason — use "
                    "'# samrcheck: ok(rule): why this is intentional'"))
            if i not in used.get(path, set()):
                scope = ",".join(sorted(rules)) if rules else "any rule"
                findings.append(Finding(
                    path, i, "waiver-unused",
                    f"stale waiver ({scope}): this line no longer "
                    "violates anything — remove the waiver"))
    return findings


def run_static(paths):
    """Dispatch + layering findings and the resolved site list.

    Returns ``(findings, sites, used_waivers)`` with waivers already
    applied; ``used_waivers`` maps path -> waived line numbers so the
    caller can fold them into waiver-hygiene accounting.
    """
    cache: dict[Path, list[str]] = {}
    used: dict[Path, set[int]] = {}
    sites, raw = dispatch.scan_paths(paths)
    raw = list(raw)
    for site in sites:
        if site.level == dispatch.UNRESOLVED:
            raw.append(Finding(
                site.path, site.line, "dispatch-unresolved",
                f"could not resolve {site.kind} dispatch site "
                f"({site.kernel or 'forwarded kernel'}) — declarations "
                "unanalyzable"))
    for root in paths:
        lf, _graph = layers.check_layers(Path(root))
        raw.extend(lf)
    return _apply_waivers(raw, cache, used), sites, used


# -- output -------------------------------------------------------------------

def _to_sarif(findings) -> dict:
    rules = sorted({f.rule for f in findings})
    return {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "samrcheck",
                "informationUri":
                    "https://example.invalid/repro/check",
                "rules": [{"id": r,
                           "shortDescription": {"text": r}}
                          for r in rules],
            }},
            "results": [{
                "ruleId": f.rule,
                "level": "error",
                "message": {"text": f.message},
                "locations": [{
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": str(f.path),
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {"startLine": max(f.line, 1)},
                    },
                }],
            } for f in findings],
        }],
    }


def _site_summary(sites) -> str:
    by_level: dict[str, int] = {}
    for s in sites:
        by_level[s.level] = by_level.get(s.level, 0) + 1
    parts = [f"{by_level.get(k, 0)} {k}" for k in
             (dispatch.FULL, dispatch.DELEGATED, dispatch.PARTIAL)]
    if by_level.get(dispatch.UNRESOLVED):
        parts.append(f"{by_level[dispatch.UNRESOLVED]} UNRESOLVED")
    return f"{len(sites)} dispatch sites ({', '.join(parts)})"


def run_checks(paths, do_lint: bool = True,
               do_static: bool = True) -> tuple[list[Finding], list]:
    """The selected checkers over ``paths``: ``(findings, dispatch sites)``,
    findings sorted by location."""
    used: dict[Path, set[int]] = {}
    findings: list[Finding] = []
    sites = []

    # the lint always runs so waiver-usage accounting is complete; its
    # findings are only *reported* when the lint is selected
    lint_findings: list[Violation] = []
    for f in _iter_files(paths):
        violations, waived_lines = lint_file_full(f)
        lint_findings.extend(violations)
        if waived_lines:
            used.setdefault(f, set()).update(waived_lines)
    if do_lint:
        findings.extend(Finding(v.path, v.line, v.rule, v.message)
                        for v in lint_findings)

    if do_static:
        static_findings, sites, static_used = run_static(paths)
        findings.extend(static_findings)
        for path, lines in static_used.items():
            used.setdefault(path, set()).update(lines)
        findings.extend(_waiver_hygiene(paths, used))

    findings.sort(key=lambda f: (str(f.path), f.line, f.rule))
    return findings, sites


def text_report(findings, sites=None) -> list[str]:
    """One line per finding and the summary line (with the dispatch-site
    tally when ``sites`` is given)."""
    summary = [f"{len(findings)} finding(s)" if findings
               else "samrcheck static analysis clean"]
    if sites is not None:
        summary.append(_site_summary(sites))
    return [*map(str, findings), " — ".join(summary)]


def structured_report(findings, sites, fmt: str) -> str:
    """The ``json`` or ``sarif`` report document, serialised."""
    if fmt == "json":
        report = {
            "findings": [f.as_dict() for f in findings],
            "sites": [s.as_dict() for s in sites],
            "summary": {"findings": len(findings),
                        "sites": len(sites)},
        }
    else:
        report = _to_sarif(findings)
    return json.dumps(report, indent=2, sort_keys=True)


# -- CLI ----------------------------------------------------------------------

def check_main(argv=None) -> int:
    """``repro check [--lint] [--static] [--all] [paths...]``."""
    parser = argparse.ArgumentParser(
        prog="repro check",
        description="static analysis: seam lint, declared-access "
                    "effect checking, module layering",
    )
    parser.add_argument("paths", nargs="*",
                        help="files/directories to analyze "
                             "(default: the repro package sources)")
    parser.add_argument("--lint", action="store_true",
                        help="run the seam/decl/slab/serve lint")
    parser.add_argument("--static", action="store_true",
                        help="run effect inference, dispatch-site "
                             "checking, and layering")
    parser.add_argument("--all", action="store_true",
                        help="run everything (default when no mode "
                             "flag is given)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text")
    parser.add_argument("--output", metavar="FILE",
                        help="write json/sarif report to FILE "
                             "(text findings still go to stdout)")
    args = parser.parse_args(argv)

    do_lint = args.lint or args.all or not (args.lint or args.static)
    do_static = args.static or args.all or not (args.lint or args.static)
    paths = args.paths or [str(Path(__file__).resolve().parent.parent)]
    findings, sites = run_checks(paths, do_lint, do_static)
    if args.format == "text" or args.output:
        print("\n".join(text_report(findings, sites if do_static else None)))
    if args.format in ("json", "sarif"):
        text = structured_report(findings, sites, args.format)
        if args.output:
            Path(args.output).write_text(text + "\n")
        else:
            print(text)
    return min(len(findings), 255)


def main(argv=None) -> int:
    """``python -m repro.check.static`` entry point."""
    args = list(sys.argv[1:] if argv is None else argv)
    if not any(a in ("--lint", "--static", "--all") for a in args):
        args.insert(0, "--static")
    return check_main(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
