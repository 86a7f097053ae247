#!/usr/bin/env python3
"""List every executable line of `src/perifold` that the Tier-1 suite never
runs.

The suite runs in this process under a line tracer, `sys.monitoring` where
the Python has it (3.12 on) and `sys.settrace` otherwise, with `src/` first
on `sys.path` so the package is imported from there.  A line is executable
when a statement starts on it and the compiler gives it code; lines that
only declare are skipped: `def`, `class`, decorators, docstrings, imports,
and `global`/`nonlocal`.  Each line that never ran is printed as
`path:line: text`, then their count.  The exit code is the suite's when it
fails, else 1 if any line is listed and 0 if none is.  Stdlib only, apart
from the pytest that runs the suite.

    python scripts/unrun_lines.py
"""

import ast
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "perifold"


def executable_lines(source: str, path: str) -> list[int]:
    tree = ast.parse(source, path)
    starts, skipped = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            starts.add(node.lineno)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            skipped.add(node.lineno)
            skipped.update(line for d in node.decorator_list
                           for line in range(d.lineno, d.end_lineno + 1))
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                skipped.add(first.lineno)
        if isinstance(node, (ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)):
            skipped.add(node.lineno)
    compiled, stack = set(), [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        compiled.update(line for _start, _end, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return sorted((starts & compiled) - skipped)


def trace(modules: set[str], ran: set[tuple[str, int]]) -> None:
    """Record into `ran` each (module path, line) that runs from now on."""
    known: dict[str, str | None] = {}  # co_filename -> its module path, or None

    def module_of(filename: str) -> str | None:
        path = known.get(filename, "")
        if path == "":
            real = os.path.realpath(filename)
            path = known[filename] = real if real in modules else None
        return path

    monitoring = getattr(sys, "monitoring", None)
    if monitoring is not None:
        tool = next(t for t in range(6) if monitoring.get_tool(t) is None)
        monitoring.use_tool_id(tool, "unrun_lines")

        def on_line(code, line):
            path = module_of(code.co_filename)
            if path is not None:
                ran.add((path, line))
            return monitoring.DISABLE  # each line is recorded once

        monitoring.register_callback(tool, monitoring.events.LINE, on_line)
        monitoring.set_events(tool, monitoring.events.LINE)
        return

    def local(frame, event, _arg):
        if event == "line":
            ran.add((module_of(frame.f_code.co_filename), frame.f_lineno))
        return local

    def on_call(frame, _event, _arg):
        return local if module_of(frame.f_code.co_filename) is not None else None

    sys.settrace(on_call)
    threading.settrace(on_call)


def main() -> int:
    files = sorted(str(p) for p in PACKAGE.glob("*.py"))
    sources = {}
    for path in files:
        with open(path, encoding="utf-8") as f:
            sources[path] = f.read()
    ran: set[tuple[str, int]] = set()
    sys.path.insert(0, str(ROOT / "src"))
    trace(set(files), ran)
    import pytest  # after the tracer, so that it sees the package imported

    status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                          "--rootdir", str(ROOT), str(ROOT / "tests")])
    unrun = 0
    for path in files:
        text = sources[path].splitlines()
        for line in executable_lines(sources[path], path):
            if (path, line) not in ran:
                unrun += 1
                print(f"{os.path.relpath(path, ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{unrun} unrun lines in {os.path.relpath(PACKAGE, ROOT)}")
    if status != 0:
        return int(status)
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main())
