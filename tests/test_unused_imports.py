"""Every name the package, the tests and the demos import is read."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/trcalc", "tests", "demos")
# The acceptance gate is kept byte for byte, so its two unread imports stay.
KEPT = {("tests/test_acceptance.py", "pytest"), ("tests/test_acceptance.py", "DegenerateOrbitError")}


def unread_imports(source: str) -> list[str]:
    """The names one module imports and never reads, in `ast.walk` order.
    `__future__` imports and the names listed in `__all__` count as read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def test_the_scan_finds_an_unread_import():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "import json.decoder\n"
        "from a.b import c, d\n"
        "__all__ = ['d']\n"
        "os = system.argv\n"
        "json.decoder\n"
    )
    assert unread_imports(source) == ["os", "c"]


def test_every_import_is_read():
    found = {
        (path.relative_to(ROOT).as_posix(), name)
        for root in SCANNED
        for path in sorted((ROOT / root).rglob("*.py"))
        for name in unread_imports(path.read_text(encoding="utf-8"))
    }
    assert found == KEPT
