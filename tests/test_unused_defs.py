"""Every def and class of the package is named somewhere beyond its own
definition: in the package, the tests, the bench, the demos or the README."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "bench", "demos")


def defined_names(source: str) -> list[str]:
    """The non-dunder names one module defines with def or class, once per
    definition, in `ast.walk` order."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def unnamed_defs(defined: list[str], corpus: str) -> list[str]:
    """The names of `defined` that occur as a word of `corpus` no more often
    than they are defined, sorted."""
    words = Counter(re.findall(r"\w+", corpus))
    return sorted(name for name, n in Counter(defined).items() if words[name] <= n)


def test_the_scan_finds_a_def_named_only_where_it_is_defined():
    source = (
        "class Kept:\n"
        "    def __init__(self): pass\n"
        "    def spare(self): pass\n"
        "def kept_too(): return Kept()\n"
        "def twice(): pass\n"
        "def twice(): pass\n"
    )
    defined = defined_names(source)
    assert defined == ["Kept", "kept_too", "twice", "twice", "spare"]
    assert unnamed_defs(defined, source + "kept_too()\n") == ["spare", "twice"]


def test_every_def_is_named_beyond_its_definition():
    sources = [path.read_text(encoding="utf-8") for root in SEARCHED for path in sorted((ROOT / root).rglob("*.py"))]
    corpus = "\n".join(sources + [(ROOT / "README.md").read_text(encoding="utf-8")])
    defined = [
        name
        for path in sorted((ROOT / "src" / "trcalc").glob("*.py"))
        for name in defined_names(path.read_text(encoding="utf-8"))
    ]
    assert unnamed_defs(defined, corpus) == []
