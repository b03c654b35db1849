"""Static checks on the library sources, with the standard library's `ast`."""

import ast
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


def test_unused_imports_are_caught():
    assert unused_imports("from fractions import Fraction\nimport os.path\nx = 1\n") == [
        "line 1: Fraction", "line 2: os",
    ]
    nested = "from __future__ import annotations\nimport numpy as np\n\ndef f():\n    from math import gcd\n"
    nested += "    return np, gcd\n"
    assert unused_imports(nested) == []


def test_every_library_import_is_used():
    # __init__ imports only to re-export
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    stale = {p.name: unused_imports(p.read_text()) for p in modules}
    assert not any(stale.values()), {name: lines for name, lines in stale.items() if lines}
