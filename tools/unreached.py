"""List the statements of src/pacslab that no test runs.

    python3 tools/unreached.py [pytest arguments]    # default: -q tests

Runs pytest in this process under sys.settrace and threading.settrace,
recording line events in frames whose code comes from src/pacslab only, then
prints every statement of those modules that ran on none of its lines, as
``path:line: text``.  Docstrings, ``def`` and ``class`` lines, imports and
``global`` declarations are skipped.  A statement counts as run when any
line of its span ran, since a multi-line statement reports a line other
than its first.

Only this interpreter is traced: code that tests run in a fresh interpreter
(the CLI started as a subprocess, say) counts as not run.  The standard
library is all it needs; the trace roughly doubles the suite's time.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pacslab"


def _trace_lines(ran: set):
    """A global trace function that records (file, line) in src/pacslab."""
    prefix = str(SRC) + os.sep

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    return global_


def _statements(tree):
    """Every statement that does work: no def/class line, import, global
    declaration or docstring."""
    skip = (
        ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
        ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal,
    )
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, skip):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring: a bare constant does no work
        yield node


def unreached(ran: set) -> list[str]:
    """``path:line: text`` of each statement with no line in ``ran``, in
    file and line order."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        name, source = str(path), path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for node in sorted(_statements(ast.parse(source, name)), key=lambda n: n.lineno):
            if not any((name, line) in ran for line in range(node.lineno, node.end_lineno + 1)):
                text = lines[node.lineno - 1].strip()
                out.append(f"{path.relative_to(ROOT)}:{node.lineno}: {text}")
    return out


def main(argv) -> int:
    os.chdir(ROOT)
    ran: set = set()
    tracer = _trace_lines(ran)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        pytest.main(argv or ["-q", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for line in unreached(ran):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
