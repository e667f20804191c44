"""The reachability map's walker and comparer (``benchmarks/reach.py``).

The map itself runs every entry point of the system under a profiler
(minutes); these tests drive its pieces on a two-module package built
in ``tmp_path``, with the profiler on only around the calls they make.
"""

import importlib.util
import os
import sys
import textwrap
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "reach", Path(__file__).resolve().parent.parent / "benchmarks" / "reach.py")
reach = sys.modules.setdefault("reach", importlib.util.module_from_spec(_spec))
_spec.loader.exec_module(reach)


@pytest.fixture
def package(tmp_path):
    """``pkg.a`` (a decorated function, an unreached one with a nested
    def, an abstract class) and ``pkg.b`` (a caller)."""
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "a.py").write_text(textwrap.dedent("""
        import abc
        import functools


        @functools.lru_cache(maxsize=None)
        def decorated(x):
            return x + 1


        def planted():
            def nested():
                return 0
            return nested()


        class Thing(abc.ABC):
            @abc.abstractmethod
            def hook(self):
                \"\"\"A declaration: its body never runs.\"\"\"

            def used(self):
                return decorated(1) + self.hook()

            def unused(self):
                return 2
    """))
    (root / "b.py").write_text(textwrap.dedent("""
        from .a import Thing


        def entry():
            class Concrete(Thing):
                def hook(self):
                    return 0

            return Concrete().used()
    """))
    sys.path.insert(0, str(tmp_path))
    try:
        yield root
    finally:
        sys.path.remove(str(tmp_path))
        for name in [m for m in sys.modules if m == "pkg" or m.startswith("pkg.")]:
            del sys.modules[name]


def _run_entry(package) -> set:
    """Call ``pkg.b.entry`` under the map's profiler; the called set."""
    import pkg.b

    reach._CALLED.clear()
    saved = sys.getprofile()
    sys.setprofile(reach._profile)
    try:
        pkg.b.entry()
    finally:
        sys.setprofile(saved)
    called = set(reach._CALLED)
    reach._CALLED.clear()
    return called


def test_walker_keys_by_qualified_name_and_spans_decorators(package):
    defs = {d.key: d for d in reach.walk(package)}
    # the abstract declaration is skipped; the nested class method is kept
    assert set(defs) == {"a.py:decorated", "a.py:planted", "a.py:planted.nested",
                         "a.py:Thing.used", "a.py:Thing.unused", "b.py:entry",
                         "b.py:entry.Concrete.hook"}
    assert defs["a.py:decorated"].lines == 3  # decorator, def, body
    assert defs["a.py:planted.nested"].outer == "a.py:planted"


def test_planted_function_is_reported_and_fails_the_check(package):
    found = reach.unreached(reach.walk(package), _run_entry(package))
    keys = [d.key for d in found]
    # the nested def counts once, under the unreached outer one
    assert keys == ["a.py:planted", "a.py:Thing.unused"]
    assert [d.lines for d in found] == [4, 2]
    cmp = reach.compare(found, reach.parse_list("a.py:Thing.unused  2  debug\n"))
    assert not cmp.ok
    assert [reach.format_entry(d) for d in cmp.missing] == ["a.py:planted  4  ?"]
    assert any("a.py:planted  4  ?" in line
               for line in reach.report(cmp, found, total_defs=7))


def test_decorated_function_counts_as_reached_when_called(package):
    found = {d.key for d in reach.unreached(reach.walk(package),
                                            _run_entry(package))}
    assert "a.py:decorated" not in found
    assert "a.py:Thing.used" not in found


def test_listed_entry_now_reached_is_stale_without_failing(package):
    found = reach.unreached(reach.walk(package), _run_entry(package))
    listed = reach.parse_list(textwrap.dedent("""
        # reached now: stale
        a.py:Thing.used  2  debug
        a.py:planted  4  error-path
        a.py:Thing.unused  2  debug
    """))
    cmp = reach.compare(found, listed)
    assert cmp.ok
    assert cmp.stale == ["a.py:Thing.used"]


def test_list_reasons_are_a_closed_set():
    with pytest.raises(ValueError, match="reason"):
        reach.parse_list("a.py:f  3  used-by-tests\n")
    with pytest.raises(ValueError, match="twice"):
        reach.parse_list("a.py:f  3  debug\na.py:f  3  debug\n")


def test_redefined_def_gets_an_occurrence_suffix(tmp_path):
    (tmp_path / "p.py").write_text(textwrap.dedent("""
        class Box:
            @property
            def size(self):
                return self._size

            @size.setter
            def size(self, value):
                self._size = value
    """))
    defs = reach.walk(tmp_path)
    assert [(d.key, d.first, d.lines) for d in defs] == [
        ("p.py:Box.size", 3, 3), ("p.py:Box.size[2]", 7, 3)]


def test_parse_list_skips_comments_and_rejects_malformed_lines():
    listed = reach.parse_list("# header\n\n  a.py:f  3  debug  \n"
                              "a.py:C.g 12 error-path\n")
    assert listed == {"a.py:f": (3, "debug"), "a.py:C.g": (12, "error-path")}
    for bad in ("a.py:f  debug", "a.py:f  three  debug", "a.py:f 3 debug x"):
        with pytest.raises(ValueError, match="line 2: expected"):
            reach.parse_list(f"# ok\n{bad}\n")


def test_resized_entry_is_reported_without_failing(package):
    found = reach.unreached(reach.walk(package), _run_entry(package))
    cmp = reach.compare(found, reach.parse_list(
        "a.py:planted  9  error-path\na.py:Thing.unused  2  debug\n"
        "a.py:gone  5  debug\n"))
    assert cmp.ok and not cmp.missing
    assert cmp.resized == ["a.py:planted  4  error-path"]
    assert cmp.stale == ["a.py:gone"]
    text = "\n".join(reach.report(cmp, found, total_defs=7))
    assert text.startswith("reach: 2 of 7 defs unreached, 6 def-lines")
    assert "now reached or gone" in text and "  a.py:gone" in text
    assert "line count changed" in text and "a.py:planted  4  error-path" in text
    assert "not in" not in text


def test_committed_list_is_valid_and_names_live_defs():
    """Every line of ``benchmarks/unreached.txt`` parses, names a def that
    exists in ``src/repro`` and carries that def's current line count."""
    listed = reach.parse_list(reach.LIST_PATH.read_text())
    defs = {d.key: d for d in reach.walk(reach.PACKAGE)}
    assert len(defs) == len(reach.walk(reach.PACKAGE))  # keys are unique
    assert [k for k in listed if k not in defs] == []
    assert [k for k, (lines, _) in listed.items()
            if defs[k].lines != lines] == []


def test_cli_entry_points_are_valid_options():
    """The map's CLI runs take minutes; a misspelt option must fail here."""
    from repro.cli import build_parser

    parser = build_parser()
    for mode in reach.CLI_MODES:
        parser.parse_args([*reach.CLI_BASE, *mode])
    runs = [cmd[1:] for cmd in reach.CI_COMMANDS
            if cmd[0] == "repro" and cmd[1] != "check"]
    assert len(runs) == 21
    for args in runs:
        parser.parse_args(list(args))


def test_failing_entry_points_are_collected_and_the_profiler_removed(
        monkeypatch):
    ran = []

    def fail():
        raise RuntimeError("boom")

    monkeypatch.setattr(reach, "entry_points", lambda state, results: [
        ("clean", lambda: ran.append(os.getcwd())),
        ("exit 0", lambda: sys.exit(0)),
        ("exit 2", lambda: sys.exit(2)),
        ("raises", fail),
    ])
    cwd = os.getcwd()
    failures = reach.run_entry_points()
    assert [f.split(":")[0] for f in failures] == ["exit 2", "raises"]
    assert "RuntimeError: boom" in failures[1]
    assert ran and ran[0] != cwd  # entry points run in a scratch directory
    assert os.getcwd() == cwd
    assert sys.getprofile() is None
    reach._CALLED.clear()


def test_main_fails_on_an_unlisted_def_or_a_failed_entry_point(
        package, tmp_path, monkeypatch, capsys):
    listing = tmp_path / "unreached.txt"
    failures: list[str] = []
    called = _run_entry(package)  # once: ``decorated`` caches its result

    def run_entry_points():
        reach._CALLED.update(called)
        return failures

    monkeypatch.setattr(reach, "run_entry_points", run_entry_points)
    monkeypatch.setattr(reach, "PACKAGE", package)
    monkeypatch.setattr(reach, "LIST_PATH", listing)
    try:
        assert reach.main() == 1  # no list: both unreached defs are unlisted
        assert "  a.py:planted  4  ?" in capsys.readouterr().out
        listing.write_text("a.py:planted  4  error-path\n"
                           "a.py:Thing.unused  2  debug\n")
        assert reach.main() == 0
        failures.append("examples: exit 1")
        assert reach.main() == 1
        assert "entry point failed — examples" in capsys.readouterr().out
        listing.write_text("a.py:planted  4  unused\n")
        assert reach.main() == 1
        assert "not one of" in capsys.readouterr().out
    finally:
        reach._CALLED.clear()


def test_a_file_edited_during_the_run_misreports_no_def(
        package, tmp_path, monkeypatch):
    """The source is walked before the entry points run, so a line added
    to a file meanwhile shifts no def off the line the profiler saw."""
    listing = tmp_path / "unreached.txt"
    listing.write_text("a.py:planted  4  error-path\n"
                       "a.py:Thing.unused  2  debug\n")
    called = _run_entry(package)

    def run_entry_points():
        reach._CALLED.update(called)
        source = package / "a.py"
        source.write_text('"""Edited mid-run."""\n' + source.read_text())
        return []

    monkeypatch.setattr(reach, "run_entry_points", run_entry_points)
    monkeypatch.setattr(reach, "PACKAGE", package)
    monkeypatch.setattr(reach, "LIST_PATH", listing)
    try:
        assert reach.main() == 0
    finally:
        reach._CALLED.clear()
