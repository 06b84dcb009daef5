"""Line coverage of ``src/ssagrad`` under the tier-1 suite, stdlib only.

Run from anywhere; extra arguments go to pytest:

    PYTHONPATH=src python tests/linecov.py [pytest args...]

It runs the suite under ``sys.settrace`` and prints, for each
``src/ssagrad`` module, the executable lines (those that start a
bytecode line, as ``dis.findlinestarts`` reports them) that no test
executes.  pytest does not collect this file.

A trace function that raises, as one does when a test exhausts Python's
stack, switches tracing off for the rest of the process.  So a plugin
arms the tracer again before each test's setup, call and teardown.

A test may fail only under tracing: the tests that count cyclic
garbage, say, if a trace function keeps frames alive.  The runner hides
no failure: it lists every test phase that failed, and exits with
pytest's status.
"""

from __future__ import annotations

import dis
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "ssagrad"
PREFIX = str(PKG) + os.sep


def _starts(code) -> set[int]:
    return {line for _, line in dis.findlinestarts(code) if line}  # a module starts at line 0


def executable_lines(path: Path) -> set[int]:
    """Every line that starts a bytecode line in the module or in any
    code object nested in it."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines |= _starts(code)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


class LineTracer:
    """Records the lines each ``src/ssagrad`` code object runs; a code
    object whose every line has run is no longer traced."""

    def __init__(self):
        self.hits: dict = {}  # code object -> (lines run, how many it has)
        self.skip: set = set()  # code objects not traced

    def __call__(self, frame, event, arg):
        code = frame.f_code
        if code in self.skip:
            return None
        got = self.hits.get(code)
        if got is None:
            if not os.path.abspath(code.co_filename).startswith(PREFIX):
                self.skip.add(code)
                return None
            got = self.hits[code] = (set(), len(_starts(code)))
        hit, want = got
        hit.add(frame.f_lineno)
        if len(hit) >= want:
            self.skip.add(code)
            return None
        return self.line

    def line(self, frame, event, arg):
        if event == "line":
            self.hits[frame.f_code][0].add(frame.f_lineno)
        return self.line

    def run_by_file(self) -> dict[str, set[int]]:
        out: dict[str, set[int]] = {}
        for code, (hit, _) in self.hits.items():
            out.setdefault(os.path.abspath(code.co_filename), set()).update(hit)
        return out


class Rearm:
    """A pytest plugin: arms the tracer before each test phase, and
    keeps the ids of the tests that fail."""

    def __init__(self, tracer: LineTracer):
        self.tracer = tracer
        self.failed: list[str] = []

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        sys.settrace(self.tracer)

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        sys.settrace(self.tracer)

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_teardown(self, item):
        sys.settrace(self.tracer)

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.failed.append(f"{report.nodeid} ({report.when})")


def _ranges(lines: list[int]) -> str:
    parts, start = [], None
    for i, n in enumerate(lines):
        if start is None:
            start = n
        if i + 1 == len(lines) or lines[i + 1] != n + 1:
            parts.append(str(start) if start == n else f"{start}-{n}")
            start = None
    return ", ".join(parts)


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    tracer = LineTracer()
    plugin = Rearm(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                              *argv], plugins=[plugin])
    finally:
        sys.settrace(None)
    run = tracer.run_by_file()
    print("\nlines no test executes, per src/ssagrad module:")
    total = missed = 0
    for path in sorted(PKG.glob("*.py")):
        want = executable_lines(path)
        gap = sorted(want - run.get(str(path), set()))
        total, missed = total + len(want), missed + len(gap)
        print(f"  {path.name}: {len(gap)} of {len(want)}" + (f": {_ranges(gap)}" if gap else ""))
    print(f"  all: {missed} of {total} executable lines unreached")
    if plugin.failed:
        print(f"\n{len(plugin.failed)} test phase(s) failed under tracing:")
        for nodeid in plugin.failed:
            print(f"  {nodeid}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
