"""Static checks on the library sources, with the standard library's `ast`."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "toricspec"


def unused_imports(source: str) -> list[str]:
    """The names a module imports (at any depth) and never reads; a
    `__future__` import is a compiler directive, not a name."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def names_read(node) -> Counter:
    """How often each name is read under `node`, bare or as an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
    )


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """The private functions, classes and methods (a leading underscore, not
    a dunder) defined in the modules of `sources` that no code of those
    modules reads outside the definition's own body."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = sum(map(names_read, trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.endswith("__")
                    and reads[node.name] == names_read(node)[node.name]):
                found.append((module, node.lineno, node.name))
    return [f"{module} line {line}: {name}" for module, line, name in sorted(found)]


def test_unused_imports_are_caught():
    assert unused_imports("from fractions import Fraction\nimport os.path\nx = 1\n") == [
        "line 1: Fraction", "line 2: os",
    ]
    nested = "from __future__ import annotations\nimport numpy as np\n\ndef f():\n    from math import gcd\n"
    nested += "    return np, gcd\n"
    assert unused_imports(nested) == []


def test_unreferenced_private_names_are_caught():
    source = (
        "def _used():\n    return 1\n\n"
        "def _recursive():\n    return _recursive()\n\n"
        "class _Gone:\n    def _helper(self):\n        return 0\n\n"
        "    def __repr__(self):\n        return ''\n\n"
        "def public():\n    return _used()\n"
    )
    assert unreferenced_private_names({"m.py": source}) == [
        "m.py line 4: _recursive", "m.py line 7: _Gone", "m.py line 8: _helper",
    ]
    # a read from another module counts, as a bare name or as an attribute
    assert unreferenced_private_names({
        "a.py": "def _f():\n    pass\n\nclass C:\n    def _g(self):\n        pass\n",
        "b.py": "from a import _f\n_f()\nx._g()\n",
    }) == []


def test_every_library_import_is_used():
    # __init__ imports only to re-export
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    stale = {p.name: unused_imports(p.read_text()) for p in modules}
    assert not any(stale.values()), {name: lines for name, lines in stale.items() if lines}


def test_every_private_definition_is_read_in_the_library():
    # a helper that only tests call belongs in tests/reference.py
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_names(sources) == []
