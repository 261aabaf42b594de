"""Statement coverage of the ``lucascalc`` package, as a pytest plugin.

Usage:
    PYTHONPATH=src:tools python -m pytest -p linecov [PYTEST ARGS]

The plugin traces every line that runs in the package's modules, in the test
process and its threads, from before the package is imported.  At the end of
the session it prints each module's unrun statements by line and the total.
A statement is every ``ast`` statement except function and class definitions,
imports, ``global``/``nonlocal`` and docstrings; it counts as run when a line
of its header (the whole statement for a simple one, the lines before its body
for a compound one) runs.  Code that only a subprocess runs, such as the
``__main__`` guard, reads as unrun.  Standard library only; the trace makes a
run several times slower, so this is not part of the default test run.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import sys
import threading
from collections import defaultdict

PACKAGE = "lucascalc"
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)

_spec = importlib.util.find_spec(PACKAGE)
if _spec is None or not _spec.submodule_search_locations:
    raise ImportError(f"linecov: package {PACKAGE!r} is not importable; put its directory on PYTHONPATH")
ROOT = os.path.realpath(_spec.submodule_search_locations[0])

_hits: dict[str, set[int]] = defaultdict(set)
_traced: dict[str, bool] = {}


def _local(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    filename = frame.f_code.co_filename
    traced = _traced.get(filename)
    if traced is None:
        traced = _traced[filename] = os.path.realpath(filename).startswith(ROOT + os.sep)
    return _local if traced else None


def statements(source: str) -> dict[int, range]:
    """Each counted statement's first line, mapped to the lines of its header."""
    out = {}

    def visit(body, documented=False):
        for i, node in enumerate(body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(node.body, documented=True)
                continue
            is_docstring = (
                documented and i == 0 and isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
            )
            if isinstance(node, _SKIPPED) or is_docstring:
                continue
            inner = [getattr(node, name, None) for name in ("body", "orelse", "finalbody")]
            inner += [handler.body for handler in getattr(node, "handlers", ())]
            inner = [block for block in inner if isinstance(block, list) and block]
            if inner:
                first = min(block[0].lineno for block in inner)
                out[node.lineno] = range(node.lineno, max(first, node.lineno + 1))
                for block in inner:
                    visit(block)
            else:
                out[node.lineno] = range(node.lineno, node.end_lineno + 1)

    visit(ast.parse(source).body, documented=True)
    return out


def unrun() -> dict[str, tuple[int, list[int]]]:
    """Per module file name: the statement count and the first lines of the unrun ones."""
    report = {}
    for name in sorted(os.listdir(ROOT)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(ROOT, name)
        with open(path, encoding="utf-8") as fh:
            found = statements(fh.read())
        hits = set()
        for filename, lines in _hits.items():
            if os.path.realpath(filename) == path:
                hits |= lines
        report[name] = (len(found), sorted(line for line, span in found.items() if hits.isdisjoint(span)))
    return report


def pytest_configure(config):
    sys.settrace(_global)
    threading.settrace(_global)


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter):
    report = unrun()
    write = terminalreporter.write_line
    terminalreporter.section("linecov: unrun statements")
    for name, (count, lines) in report.items():
        if lines:
            write(f"{PACKAGE}/{name}: {len(lines)} of {count} unrun at lines {', '.join(map(str, lines))}")
    total = sum(count for count, _ in report.values())
    missed = sum(len(lines) for _, lines in report.values())
    write(f"total: {missed} of {total} statements unrun")
