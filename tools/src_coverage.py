"""List the statements of ``src/extremogram`` that a pytest run never reaches.

Usage (from the repository root):
    python3 tools/src_coverage.py [PYTEST_ARGS ...]

The default arguments are ``tests --ignore=tests/test_acceptance.py -p
no:cacheprovider``: tier-1 without the slow acceptance criteria, writing no
cache into the repository. The script runs ``pytest.main`` in this process
under ``sys.settrace`` and ``threading.settrace`` and records the lines
executed in frames whose code lives in ``src/extremogram``. For each file it
then prints the statements none of whose own lines ran: for a compound
statement (``if``, ``for``, ``with``, ...) its header, for any other its
whole extent. Docstrings, ``def``/``class``/``import`` lines and statements
that compile to no code (``try``, ``global``, ``nonlocal``) are left out.

Only this process is traced. Forked children (the band functions' workers
in ``resample._split``) and subprocesses run untraced, so the lines only
they execute are listed as unreached. Uses only the standard library and
pytest. The exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "extremogram") + os.sep
DEFAULT_ARGS = ["tests", "--ignore=tests/test_acceptance.py", "-p", "no:cacheprovider"]
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
           ast.Try, ast.Global, ast.Nonlocal) + ((ast.TryStar,) if hasattr(ast, "TryStar") else ())
DOC_OWNERS = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def statements(path: str) -> list[tuple[int, range]]:
    """(first line, own lines) of every statement that should run."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    found = []
    for parent in ast.walk(tree):
        has_docstring = isinstance(parent, DOC_OWNERS) and ast.get_docstring(parent) is not None
        docstring = parent.body[0] if has_docstring else None
        for field in ("body", "orelse", "finalbody"):
            nodes = getattr(parent, field, None)
            for node in nodes if isinstance(nodes, list) else ():  # a lambda's body is one expression
                if isinstance(node, SKIPPED) or node is docstring:
                    continue
                children = [c.lineno for c in ast.iter_child_nodes(node) if isinstance(c, ast.stmt)]
                end = min(children) - 1 if children else node.end_lineno
                found.append((node.lineno, range(node.lineno, max(end, node.lineno) + 1)))
    return sorted(found)


def main(argv: list[str]) -> int:
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(PACKAGE):
            return None
        hits.setdefault(filename, set()).add(frame.f_lineno)
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(argv or DEFAULT_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    print("\nstatements never reached in this process (forked children and subprocesses "
          "are not traced):")
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = PACKAGE + name
        ran = hits.get(path, set())
        stmts = statements(path)
        missed = [first for first, own in stmts if not ran.intersection(own)]
        lines = ", ".join(str(line) for line in missed) or "none"
        print(f"src/extremogram/{name}: {len(stmts)} statements, {len(missed)} unreached: {lines}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
