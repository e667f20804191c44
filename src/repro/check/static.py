"""Whole-program static analysis: ``repro check`` / ``python -m
repro.check.static``.

This is the driver that ties the static half of samrcheck together.  It
reads, parses and tokenizes each file once (a :class:`Source`), walks
each tree once, and feeds every node to the rules, which stay in their
modules:

* the seam/device/decl/api/slab/serve **lint** (:mod:`repro.check.lint`),
* **effect inference + dispatch-site checking**
  (:mod:`repro.check.effects` + :mod:`repro.check.dispatch`): every
  kernel's loads/stores/ghost reads inferred from its AST, every
  ``Backend.run``/``run_batched``/``BatchMember``
  site resolved, declarations compared against inferred effects,
* the **module layering DAG** + import-cycle detection
  (:mod:`repro.check.layers`, whose :class:`~repro.check.layers.
  ImportResolver` is the one import resolver every rule uses),
* **waiver hygiene**: every ``# samrcheck: ok`` must name a reason
  (``waiver-reason``), and a waiver on a line that no longer violates
  anything is itself a finding (``waiver-unused``).

The walk tracks the enclosing function and the import context (top
level or not, under ``if TYPE_CHECKING:`` or not).  Every rule emits a
raw :class:`Finding`; one waiver pass drops the waived ones and records
each waiver's use, and ``--lint`` / ``--static`` only filter what is
reported — every rule always runs, so waiver accounting is complete.

Waiver syntax (a comment on the flagged line)::

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
import ast
import io
import json
import re
import sys
import tokenize
from pathlib import Path

from . import dispatch, layers, lint
from .effects import analyze_module

__all__ = ["Finding", "Source", "parse_waiver", "run_checks", "text_report",
           "structured_report", "check_main", "main"]

_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: matches the waiver comment forms ``samrcheck: ok`` and
#: ``samrcheck: ok(rule1,rule2): reason`` (the legacy em-dash
#: separator ``ok — reason`` is accepted too)
_WAIVER_RE = re.compile(
    r"#\s*samrcheck:\s*ok"
    r"(?:\((?P<rules>[^)]*)\))?"
    r"\s*(?:[:—–-]+\s*(?P<reason>\S.*))?"
)


def parse_waiver(line: str):
    """Parse a waiver comment on ``line``.

    Returns ``None`` when the line carries no waiver, else
    ``(rules, reason)`` where ``rules`` is a frozenset of rule names
    the waiver is scoped to (``None`` = any rule) and ``reason`` is the
    stated justification (``None`` when missing — reported as
    ``waiver-reason``).
    """
    m = _WAIVER_RE.search(line)
    if m is None:
        return None
    raw_rules = m.group("rules")
    rules = None
    if raw_rules:
        rules = frozenset(r.strip() for r in raw_rules.split(",")
                          if r.strip()) or None
    reason = (m.group("reason") or "").strip() or None
    return rules, reason


class Finding:
    """One static-analysis finding, whichever rule raised it."""

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


class Source:
    """One file as every rule sees it: read, parsed and tokenized once."""

    __slots__ = ("tree", "error", "comments", "_effects")

    def __init__(self, path: Path):
        text = path.read_text()
        try:
            self.tree, self.error = ast.parse(text, filename=str(path)), None
        except SyntaxError as e:
            self.tree, self.error = None, e
        #: line -> comment text, from real COMMENT tokens only (waiver
        #: syntax quoted in a docstring must not look like a live waiver)
        self.comments: dict[int, str] = {}
        try:
            for tok in tokenize.generate_tokens(io.StringIO(text).readline):
                if tok.type == tokenize.COMMENT:
                    self.comments[tok.start[0]] = tok.string
        except (tokenize.TokenError, SyntaxError):
            pass
        self._effects = None

    def effects(self) -> dict:
        """Effect summaries of the module's functions, as a kernel module."""
        if self._effects is None:
            self._effects = analyze_module(self.tree) if self.tree else {}
        return self._effects


def _iter_files(paths):
    for root in paths:
        root = Path(root)
        if root.is_dir():
            yield from sorted(root.rglob("*.py"))
        else:
            yield root


def _is_type_checking(test) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _walk(node, visit, function=None, top_level=True, type_checking=False):
    """Pre-order walk: ``visit(node, function, top_level, type_checking)``
    on every node, with the innermost enclosing ``def``, whether no
    def/class encloses it, and whether an ``if TYPE_CHECKING:`` body
    does."""
    visit(node, function, top_level, type_checking)
    if isinstance(node, ast.FunctionDef):
        function = node
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        top_level = False
    guarded = isinstance(node, ast.If) and _is_type_checking(node.test)
    for child in ast.iter_child_nodes(node):
        _walk(child, visit, function, top_level,
              type_checking or guarded and child in node.body)


def _check_file(path: Path, src: Source, resolver, graph: dict, flag):
    """Every rule over one file, in one walk; returns its dispatch sites."""
    resolved = path.resolve()
    modname = layers.module_name_for(resolved)
    rel = layers.repro_parts(resolved)[1]
    pkg = rel[1] if len(rel) > 2 else ""
    edges = graph.setdefault(modname, {}) if modname else None
    scanner = dispatch.Scanner(path, lambda f: resolver.load(f).effects(),
                               flag)

    def visit(node, function, top_level, type_checking):
        targets = ()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bindings = resolver.bindings(node, resolved)
            scanner.bind(bindings)
            targets = [b.module for b in bindings]
            if modname and not type_checking:
                layers.check_import(node, path, modname, targets,
                                    top_level, edges, flag)
        elif isinstance(node, ast.Call):
            scanner.call(node, function)
        lint.check(node, pkg, targets, flag)

    _walk(src.tree, visit)
    return scanner.finish()


def _apply_waivers(raw, files: dict) -> list[Finding]:
    """Drop findings waived on their own line — the one place a waiver
    is matched and its use recorded — then add the waiver-hygiene
    findings: waivers without a reason, and waivers that waive nothing."""
    used = set()
    kept = []
    for f in raw:
        waiver = parse_waiver(files[f.path].comments.get(f.line, ""))
        if waiver is not None and f.rule != "parse" \
                and (waiver[0] is None or f.rule in waiver[0]):
            used.add((f.path, f.line))
        else:
            kept.append(f)
    for path, src in files.items():
        for line, comment in sorted(src.comments.items()):
            waiver = parse_waiver(comment)
            if waiver is None:
                continue
            rules, reason = waiver
            if not reason:
                kept.append(Finding(
                    path, line, "waiver-reason",
                    "waiver without a reason — use "
                    "'# samrcheck: ok(rule): why this is intentional'"))
            if (path, line) not in used:
                scope = ",".join(sorted(rules)) if rules else "any rule"
                kept.append(Finding(
                    path, line, "waiver-unused",
                    f"stale waiver ({scope}): this line no longer "
                    "violates anything — remove the waiver"))
    return kept


def run_checks(paths, do_lint: bool = True, do_static: bool = True):
    """Every rule over ``paths``, each file read, parsed and walked once.

    Returns ``(findings, dispatch sites, import graph)``: the unwaived
    findings of the selected rules (the lint's with ``do_lint``, the
    rest with ``do_static``, parse errors with either) and, with
    ``do_static``, the sites, both sorted by location, and the top-level
    import graph (module -> {target: (path, line)}).
    """
    sources: dict[Path, Source] = {}

    def load(path: Path) -> Source:
        key = path.resolve()
        if key not in sources:
            sources[key] = Source(path)
        return sources[key]

    scanned: dict[Path, Path] = {}
    for path in _iter_files(paths):
        scanned.setdefault(path.resolve(), path)
    files = {path: load(path) for path in scanned.values()}
    resolver = layers.ImportResolver(load)
    raw: list[Finding] = []
    sites: list[dispatch.Site] = []
    graph: dict[str, dict] = {}
    for path, src in files.items():
        def flag(line, rule, message, path=path):
            raw.append(Finding(path, line, rule, message))
        if src.tree is None:
            flag(src.error.lineno or 0, "parse", str(src.error))
        else:
            sites += _check_file(path, src, resolver, graph, flag)
    layers.find_cycles(graph, lambda *f: raw.append(Finding(*f)))

    findings = [f for f in _apply_waivers(raw, files)
                if f.rule == "parse"
                or (do_lint if f.rule in lint.RULES else do_static)]
    findings.sort(key=lambda f: (str(f.path), f.line, f.rule))
    sites.sort(key=lambda s: (str(s.path), s.line))
    return findings, (sites if do_static else []), graph


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
    findings, sites, _ = run_checks(paths, do_lint, do_static)
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
