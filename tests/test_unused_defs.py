"""Every def and class of the package is named in code beyond its own
definition: in the package, the tests, the bench or the demos.  A name
counts only where code uses it, as a name, an attribute, an imported name
or a dotted-name string (`monkeypatch.setattr(module, "name", ...)`);
words in docstrings, comments or the README do not.  This file is not
scanned, so its exemption list names nothing."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "bench", "demos")
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
# called by the standard library rather than by name: `_replace` builds through `_make`
EXEMPT = {"_make"}


def defined_names(source: str) -> list[str]:
    """The non-dunder names one module defines with def or class, once per
    definition, in `ast.walk` order."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def code_names(source: str) -> set[str]:
    """The names one module's code uses: each name, attribute and imported
    name, and each part of a string constant that is a dotted name, except
    a string standing alone as a statement, such as a docstring."""
    names = set()
    nodes = list(ast.walk(ast.parse(source)))
    bare = {id(node.value) for node in nodes if isinstance(node, ast.Expr)}
    for node in nodes:
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in bare:
            if DOTTED.fullmatch(node.value):
                names.update(node.value.split("."))
    return names


def unnamed_defs(defined: list[str], used: set[str]) -> list[str]:
    """The names of `defined` that no code uses, sorted, once each."""
    return sorted(set(defined) - used - EXEMPT)


def test_the_scan_finds_a_def_named_only_where_it_is_defined():
    source = (
        "from pkg import imported\n"
        "class Kept:\n"
        "    def __init__(self): pass\n"
        "    def spare(self): pass\n"
        "    def called(self): pass\n"
        "def kept_too(): return Kept().called()\n"
        "def imported(): pass\n"
        "def patched(): pass\n"
        "def documented():\n"
        "    '''spare and documented are named only in words'''\n"
        "    # so is twice\n"
        "    'documented'\n"
        "def twice(): pass\n"
        "def twice(): pass\n"
        "setattr(kept_too, 'pkg.patched', 1)\n"
    )
    defined = defined_names(source)
    assert defined == ["Kept", "kept_too", "imported", "patched", "documented", "twice", "twice", "spare", "called"]
    assert unnamed_defs(defined, code_names(source)) == ["documented", "spare", "twice"]


def test_every_def_is_named_beyond_its_definition():
    this = Path(__file__).resolve()
    paths = [path for root in SEARCHED for path in sorted((ROOT / root).rglob("*.py")) if path != this]
    used = set().union(*(code_names(path.read_text(encoding="utf-8")) for path in paths))
    defined = [
        name
        for path in sorted((ROOT / "src" / "trcalc").glob("*.py"))
        for name in defined_names(path.read_text(encoding="utf-8"))
    ]
    assert unnamed_defs(defined, used) == []
