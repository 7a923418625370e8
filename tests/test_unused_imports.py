"""Every module of the package and of the test suite reads each name it imports,
and every private module-level name of the package is read somewhere in it.

The package's `__init__` imports only to re-export, so it is left out of
the import check. A name counts as read when it appears as a name
anywhere in the module, an attribute chain included; a private name
also counts as read where another module imports it, but not inside its
own definition, so a helper that only calls itself is dead.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "fracturecube").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                # "import a.b" binds a
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_guard_sees_an_unused_import():
    src = "import os\nimport sys\nfrom a import b, c as d\nprint(sys.argv, d)\n"
    assert unused_imports(src) == [(1, "os"), (3, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _reads(node) -> Counter:
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name] += 1
    return out


def dead_private_names(sources: dict) -> list:
    """(module, name) for each module-level _name read nowhere but in its own
    definition, over the modules given as {module: source}."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    total = sum((_reads(tree) for tree in trees.values()), Counter())
    dead = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            own = _reads(node)
            dead += [(mod, n) for n in names if n.startswith("_") and not n.startswith("__")
                     and total[n] == own[n]]
    return sorted(dead)


def test_guard_sees_a_dead_private_helper():
    sources = {
        "a": "def _used():\n    return 1\n\n\ndef _dead(n):\n    return _dead(n - 1)\n\n\n"
             "_TABLE = {}\nX = _used()\n\n\ndef _shared():\n    return X\n",
        "b": "from a import _shared\n\n\nclass _Orphan:\n    pass\n",
    }
    assert dead_private_names(sources) == [("a", "_TABLE"), ("a", "_dead"), ("b", "_Orphan")]


def test_no_dead_private_helpers():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert dead_private_names(sources) == []
