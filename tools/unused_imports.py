"""Unused-import check with the stdlib ``ast`` module only.

pyflakes and ruff are not part of the toolchain, so this walks each
Python file, records every name an ``import`` statement binds, and
reports the ones nothing in the file reads.  A name counts as read
when it appears as a ``Name`` anywhere in the module (any scope), in a
string annotation, or in ``__all__``.  Exempt by design:

* ``__init__.py`` files, whose imports are the package's re-exports;
* ``from __future__ import ...``;
* lines carrying a bare ``# noqa`` or ``# noqa: F401``.

Usage::

    python tools/unused_imports.py                 # the default trees
    python tools/unused_imports.py src/repro/serve tests/serve

Exits 1 and prints ``path:line: 'name' imported but unused`` for each
finding, 0 when there are none.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: trees checked when no path is given
DEFAULT_TREES = ("src", "tests", "tools", "benchmarks", "examples", "perfbench")

_NOQA = re.compile(r"#\s*noqa(?!:)|#\s*noqa:[^#\n]*\bF401\b")


def _annotation_names(node: ast.AST) -> set[str]:
    """Names inside string annotations such as ``-> "np.ndarray"``."""
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names.update(
                n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)
            )
    return names


def _all_names(tree: ast.Module) -> set[str]:
    """String entries of a module-level ``__all__`` list or tuple."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                if isinstance(node.value, (ast.List, ast.Tuple)):
                    names.update(
                        e.value
                        for e in node.value.elts
                        if isinstance(e, ast.Constant) and isinstance(e.value, str)
                    )
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` for every import binding ``source`` never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound: list[tuple[int, str]] = []
    used: set[str] = _all_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    bound.append((node.lineno, alias.asname or alias.name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                used |= _annotation_names(node.returns)
    return [
        (line, name)
        for line, name in bound
        if name not in used and not _NOQA.search(lines[line - 1])
    ]


def _files(paths: list[Path]):
    for path in paths:
        candidates = [path] if path.is_file() else sorted(path.rglob("*.py"))
        for file in candidates:
            if file.name != "__init__.py":
                yield file


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    paths = [Path(a) for a in args] or [REPO_ROOT / t for t in DEFAULT_TREES]
    findings = 0
    for file in _files(paths):
        for line, name in unused_imports(file.read_text()):
            try:
                shown = file.resolve().relative_to(REPO_ROOT)
            except ValueError:
                shown = file
            print(f"{shown}:{line}: {name!r} imported but unused")
            findings += 1
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
