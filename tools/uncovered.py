#!/usr/bin/env python3
"""Print each statement of the missmix package that the tests never run.

    python3 tools/uncovered.py                  # tier-1: every test under tests/
    python3 tools/uncovered.py tests/test_data.py -k csv

It needs no coverage package. It runs pytest in this process, with a
``sys.settrace`` line tracer on the files under src/missmix, then prints
``path:line: source`` for each line that holds compiled code and never ran,
and exits with pytest's exit code. Commands the tests start as subprocesses
are not traced, and neither are the workers `run_protocol` forks for a grid
of two or more stacks, so only what runs in the pytest process counts; grids of
one stack run in-process and cover the fitting code.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "missmix"


def statement_lines(path: Path) -> set[int]:
    """The lines of ``path`` that hold code, over every code object in it."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    ran = {os.path.realpath(p): set() for p in PACKAGE.glob("*.py")}
    # the ran-lines set of each code file name, None for files outside the package
    sets: dict[str, set[int] | None] = {}

    def trace_lines(frame, event, arg):
        if event == "line":
            sets[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in sets:
            sets[name] = ran.get(os.path.realpath(name))
        return trace_lines if sets[name] is not None else None

    import pytest  # before tracing starts, so only the package is traced

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        code = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(statement_lines(path) - ran[os.path.realpath(path)]):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
