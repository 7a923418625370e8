"""Every module of the package and of the test suite reads each name it imports,
every private module-level name of the package is read somewhere in it, and
every public one is reached by the package or the benchmark or kept on purpose.

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
BENCH = sorted((ROOT / "bench").glob("*.py"))

# Public names that no package code and no benchmark reads, each kept on
# purpose: the tests reach them, and a reader of the paper or a caller of
# the library looks for them.
KEPT_PUBLIC = {
    "cube_categories.anchor_split": "paper construct: the gap times anchored splitting",
    "cube_categories.anchor_split_onto_product":
        "paper construct: when that splitting hits the whole product",
    "cube_categories.anchored_cover_identity":
        "paper construct: the anchored posets cover the punctured one",
    "cube_categories.build_from_generators":
        "paper construct: a fracture object from its generators and mixing maps",
    "cube_categories.diagram_functor": "paper construct: the pushforward along the splitting",
    "cube_categories.fracture_limit":
        "paper construct: the limit functor, inverse to fracture_diagram",
    "fracture.comparison_map": "paper construct: the map from the joint localization "
                               "into the punctured limit",
    "fracture.localization_collapse_check":
        "paper construct: one localization collapses the extended cube",
    "fracture.rational_pair_square": "paper construct: the arithmetic square at one prime",
    "fracture.completion_pair_square": "paper construct: the square of two completions",
    "holim.adjunction_check": "paper construct: maps into the total fiber are maps of cubes",
    "holim.hofib": "paper construct: the homotopy fiber, a 1-cube's total fiber",
    "holim.initial_corner_cube": "paper construct: the cube with one nonzero corner",
    "holim.punctured_limit_recursive":
        "paper construct: the punctured limit as one pullback in a direction",
    "sorted_complex.canonical_unit": "paper construct: the unit of a localization",
    "exact_linalg.integer_homology_at": "checked constructor: homology of raw matrices, "
                                        "shapes, integrality and d^2 = 0 checked",
    "holim.map_between_totalizations":
        "checked constructor: a caller's components go through the chain-map check",
    "sorted_complex.SortedComplex.single": "checked constructor: a sphere on one sort",
    "sorted_complex.SortedComplex.two_term": "checked constructor: a one-differential complex",
    "sorted_complex.SortedMap.from_dense":
        "checked constructor: the trust boundary for dense caller matrices",
    "sorted_complex.direct_sum": "constructor: the direct sum of two complexes, "
                                 "which the seeded generators build on",
    "exact_linalg.ExactMatrix.column": "accessor",
    "exact_linalg.ExactMatrix.entry": "accessor",
    "posets.FinitePoset.maximum": "accessor",
    "posets.FinitePoset.minimum": "accessor",
    "sorted_complex.ChainMapGroup.element": "accessor: the chain map at given coordinates",
}


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


def _package_reads(node) -> Counter:
    """Reads that reach the package from outside it: an attribute, such as
    holim.total_fiber, or a name imported from fracturecube."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[0] == "fracturecube":
            out.update(a.name for a in n.names)
    return out


def unread_public_names(sources: dict, readers: dict) -> list:
    """(module, name) for each public module-level function or class of the
    modules in sources, and each public method as Class.method, read nowhere
    but in its own definition, over sources and the package reads of the
    modules in readers.

    As in dead_private_names a read is matched by name alone, so a method
    that shares its name with one read elsewhere counts as read; a reader's
    own function of the same name does not."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    total = sum((_package_reads(ast.parse(src)) for src in readers.values()),
                sum((_reads(tree) for tree in trees.values()), Counter()))
    unread = []
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{m.name}", m) for m in node.body
                         if isinstance(m, ast.FunctionDef)]
            unread += [(mod, qual) for qual, d in defs
                       if not d.name.startswith("_") and total[d.name] == _reads(d)[d.name]]
    return sorted(unread)


def test_guard_sees_an_unread_public_name():
    sources = {
        "a": "def used():\n    return 1\n\n\ndef unread(n):\n    return unread(n - 1)\n\n\n"
             "class Box:\n    def get(self):\n        return 2\n\n    def put(self):\n"
             "        return self.put()\n",
        "b": "from a import Box, used\n\n\ndef main():\n    return Box().get() + used()\n",
    }
    readers = {"run.py": "import b\n\nb.main()\n"}
    assert unread_public_names(sources, readers) == [("a", "Box.put"), ("a", "unread")]


def test_guard_counts_only_reader_reads_that_reach_the_package():
    sources = {"a": "def shared():\n    return 1\n\n\ndef imported():\n    return 2\n\n\n"
                    "def attr():\n    return 3\n"}
    readers = {"run.py": "import fracturecube.a as a\nfrom fracturecube.a import imported\n\n\n"
                         "def shared():\n    return imported() + a.attr()\n\n\nshared()\n"}
    assert unread_public_names(sources, readers) == [("a", "shared")]


def test_every_public_name_is_reached_or_kept():
    # __init__ re-exports, which is not a read
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE if p.name != "__init__.py"}
    readers = {p.name: p.read_text(encoding="utf-8") for p in BENCH}
    unread = {f"{mod}.{name}" for mod, name in unread_public_names(sources, readers)}
    assert unread == set(KEPT_PUBLIC)
