"""Document envelope and JSON codecs for every object kind.

All numbers that matter are exact: rationals travel as strings "a/b"
(plain "a" for integers), subsets as comma-joined increasing integers,
and every codec round-trips bit-exactly. Unknown fields are rejected
with the JSON path of the offender.
"""

from __future__ import annotations

import os
from fractions import Fraction

from .cube_categories import FractureObject, SplitData, anchored_supersets
from .exact_linalg import ExactMatrix, InputError
from .fracture import LocalizationFamily
from .holim import PosetDiagram
from .posets import FinitePoset, canonical_subset, subset_poset
from .sorted_complex import (
    ComplexMap,
    EMPTY_MODULE,
    Sort,
    SortedComplex,
    SortedMap,
    SortedModule,
)

FORMAT_VERSION = "fracture/1"
DEFAULT_MAX_T = 6
KINDS = ("complex", "diagram", "fracture-object", "poset", "report", "matrix")


class SchemaError(InputError):
    """Schema violation carrying the JSON path of the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _expect(value, types, path):
    if not isinstance(value, types):
        names = types.__name__ if isinstance(types, type) else \
            "/".join(t.__name__ for t in types)
        raise SchemaError(path, f"expected {names}, got {type(value).__name__}")
    return value


def _only_keys(d, required, optional, path):
    _expect(d, dict, path)
    for k in required:
        if k not in d:
            raise SchemaError(path, f"missing field {k!r}")
    for k in d:
        if k not in required and k not in optional:
            raise SchemaError(f"{path}.{k}", "unknown field")


def check_dimension(n: int):
    """Reject a cube on more labels than FRACTURE_MAX_T (default 6) allows."""
    raw = os.environ.get("FRACTURE_MAX_T", "")
    try:
        cap = int(raw) if raw else DEFAULT_MAX_T
    except ValueError:
        raise InputError(f"FRACTURE_MAX_T must be an integer, got {raw!r}") from None
    if n > cap:
        raise InputError(f"cube dimension {n} exceeds FRACTURE_MAX_T={cap}")


# --- scalars and labels -----------------------------------------------------------

def rational_to_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rational_from_str(s, path="$") -> Fraction:
    _expect(s, str, path)
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(path, f"bad rational {s!r}: {exc}") from None


def subset_to_str(s) -> str:
    return ",".join(str(x) for x in s)


def subset_from_str(s, path="$"):
    _expect(s, str, path)
    if not s:
        return ()
    try:
        parts = tuple(int(x) for x in s.split(","))
    except ValueError:
        raise SchemaError(path, f"bad subset key {s!r}") from None
    if list(parts) != sorted(set(parts)):
        raise SchemaError(path, f"subset {s!r} is not strictly increasing")
    return parts


def label_to_str(x) -> str:
    if isinstance(x, tuple):
        if all(isinstance(v, int) for v in x):
            return subset_to_str(x)
        return "|".join(label_to_str(v) for v in x)
    return str(x)


# --- matrices ---------------------------------------------------------------------

def matrix_to_json(m: ExactMatrix) -> dict:
    return {"rows": m.rows, "cols": m.cols,
            "entries": [[rational_to_str(v) for v in row] for row in m.to_rows()]}


def matrix_from_json(d, path="$") -> ExactMatrix:
    _only_keys(d, ("rows", "cols", "entries"), (), path)
    rows = _expect(d["rows"], int, f"{path}.rows")
    cols = _expect(d["cols"], int, f"{path}.cols")
    entries = _expect(d["entries"], list, f"{path}.entries")
    if len(entries) != rows:
        raise SchemaError(f"{path}.entries", f"expected {rows} rows")
    data = []
    for i, row in enumerate(entries):
        _expect(row, list, f"{path}.entries[{i}]")
        if len(row) != cols:
            raise SchemaError(f"{path}.entries[{i}]", f"expected {cols} columns")
        data.append([rational_from_str(v, f"{path}.entries[{i}][{j}]")
                     for j, v in enumerate(row)])
    if rows == 0 or cols == 0:
        return ExactMatrix.zeros(rows, cols)
    return ExactMatrix.from_rows(data)


# --- complexes ----------------------------------------------------------------------

def _module_to_json(m: SortedModule) -> list:
    return [[s.tag(), r] for s, r in m.summands]


def _module_from_json(d, path) -> SortedModule:
    _expect(d, list, path)
    summands = []
    for i, pair in enumerate(d):
        _expect(pair, list, f"{path}[{i}]")
        if len(pair) != 2:
            raise SchemaError(f"{path}[{i}]", "expected [sort, rank]")
        tag = _expect(pair[0], str, f"{path}[{i}][0]")
        rank = _expect(pair[1], int, f"{path}[{i}][1]")
        try:
            sort = Sort.from_tag(tag)
        except (InputError, ValueError) as exc:
            raise SchemaError(f"{path}[{i}][0]", str(exc)) from None
        summands.append((sort, rank))
    return SortedModule(summands)


def _sorted_map_to_json(m: SortedMap) -> dict:
    blocks = []
    for (i, j) in sorted(m.blocks):
        blocks.append({"source": i, "target": j,
                       "matrix": matrix_to_json(m.blocks[(i, j)])})
    return {"blocks": blocks}


def _sorted_map_from_json(d, source, target, path) -> SortedMap:
    _only_keys(d, ("blocks",), (), path)
    blocks = {}
    for k, b in enumerate(_expect(d["blocks"], list, f"{path}.blocks")):
        bpath = f"{path}.blocks[{k}]"
        _only_keys(b, ("source", "target", "matrix"), (), bpath)
        i = _expect(b["source"], int, f"{bpath}.source")
        j = _expect(b["target"], int, f"{bpath}.target")
        blocks[(i, j)] = matrix_from_json(b["matrix"], f"{bpath}.matrix")
    try:
        return SortedMap(source, target, blocks)
    except InputError as exc:
        raise SchemaError(path, str(exc)) from None


def _degree(key, path) -> int:
    try:
        return int(key)
    except ValueError:
        raise SchemaError(path, "degree must be an integer") from None


def complex_to_json(c: SortedComplex) -> dict:
    return {
        "modules": {str(n): _module_to_json(m)
                    for n, m in sorted(c.modules.items())},
        "differentials": {str(n): _sorted_map_to_json(d)
                          for n, d in sorted(c.diffs.items())},
    }


def complex_from_json(d, path="$") -> SortedComplex:
    _only_keys(d, ("modules", "differentials"), (), path)
    mods = {}
    for key, m in _expect(d["modules"], dict, f"{path}.modules").items():
        n = _degree(key, f"{path}.modules.{key}")
        mods[n] = _module_from_json(m, f"{path}.modules.{key}")
    diffs = {}
    for key, dd in _expect(d["differentials"], dict,
                           f"{path}.differentials").items():
        dpath = f"{path}.differentials.{key}"
        n = _degree(key, dpath)
        diffs[n] = _sorted_map_from_json(dd, mods.get(n, EMPTY_MODULE),
                                         mods.get(n - 1, EMPTY_MODULE), dpath)
    try:
        return SortedComplex(mods, diffs)
    except InputError as exc:
        raise SchemaError(path, str(exc)) from None


# --- posets -------------------------------------------------------------------------

def poset_to_json(p: FinitePoset) -> dict:
    elems = [label_to_str(x) for x in p.elements]
    leq = sorted([i, j] for i, x in enumerate(p.elements)
                 for j, y in enumerate(p.elements) if p.leq(x, y))
    return {"elements": elems, "leq": leq}


def poset_from_json(d, path="$") -> FinitePoset:
    _only_keys(d, ("elements", "leq"), (), path)
    elems = _expect(d["elements"], list, f"{path}.elements")
    for i, e in enumerate(elems):
        _expect(e, str, f"{path}.elements[{i}]")
    pairs = []
    for k, pair in enumerate(_expect(d["leq"], list, f"{path}.leq")):
        _expect(pair, list, f"{path}.leq[{k}]")
        if len(pair) != 2 or not all(isinstance(v, int) for v in pair):
            raise SchemaError(f"{path}.leq[{k}]", "expected [i, j] index pair")
        i, j = pair
        if not (0 <= i < len(elems) and 0 <= j < len(elems)):
            raise SchemaError(f"{path}.leq[{k}]", "index out of range")
        pairs.append((elems[i], elems[j]))
    try:
        return FinitePoset(elems, pairs)
    except InputError as exc:
        raise SchemaError(path, str(exc)) from None


# --- diagrams -----------------------------------------------------------------------

def _complex_map_components_to_json(m: ComplexMap) -> dict:
    return {str(n): _sorted_map_to_json(f) for n, f in sorted(m.maps.items())}


def _complex_map_from_json(d, source, target, path) -> ComplexMap:
    comps = {}
    for key, payload in _expect(d, dict, path).items():
        n = _degree(key, f"{path}.{key}")
        comps[n] = _sorted_map_from_json(payload, source.module(n), target.module(n),
                                         f"{path}.{key}")
    try:
        return ComplexMap(source, target, comps)
    except InputError as exc:
        raise SchemaError(path, str(exc)) from None


def diagram_to_json(d: PosetDiagram) -> dict:
    verts = {}
    for s in d.shape.elements:
        verts[label_to_str(s)] = complex_to_json(d.vertex(s))
    edges = []
    for (x, y) in sorted(d.edges, key=lambda p: (label_to_str(p[0]),
                                                 label_to_str(p[1]))):
        edges.append({"from": label_to_str(x), "to": label_to_str(y),
                      "components": _complex_map_components_to_json(d.edges[(x, y)])})
    return {"vertices": verts, "edges": edges}


def _vertex_payloads(d, path) -> dict:
    """Vertex subsets of a diagram document, each with its key and payload."""
    _only_keys(d, ("vertices", "edges"), (), path)
    raw = _expect(d["vertices"], dict, f"{path}.vertices")
    return {subset_from_str(k, f"{path}.vertices.{k}"): (k, v) for k, v in raw.items()}


def _diagram_over(shape: FinitePoset, payloads: dict, d, path) -> PosetDiagram:
    """Decode the vertices and edges of a diagram document of a known shape."""
    if set(payloads) != set(shape.elements):
        raise SchemaError(f"{path}.vertices", "keys do not form the diagram's "
                          f"poset on {label_to_str(max(shape.elements, key=len))}")
    verts = {s: complex_from_json(v, f"{path}.vertices.{k}")
             for s, (k, v) in payloads.items()}
    edges = {}
    for k, e in enumerate(_expect(d["edges"], list, f"{path}.edges")):
        epath = f"{path}.edges[{k}]"
        _only_keys(e, ("from", "to", "components"), (), epath)
        x = subset_from_str(e["from"], f"{epath}.from")
        y = subset_from_str(e["to"], f"{epath}.to")
        if x not in verts or y not in verts:
            raise SchemaError(epath, "edge endpoint is not a vertex")
        edges[(x, y)] = _complex_map_from_json(e["components"], verts[x], verts[y],
                                               f"{epath}.components")
    try:
        return PosetDiagram(shape, verts, edges)
    except InputError as exc:
        raise SchemaError(path, str(exc)) from None


def diagram_from_json(d, path="$") -> PosetDiagram:
    """Rebuild a cube-style diagram whose vertex keys are subset strings.

    The cube dimension is checked against FRACTURE_MAX_T before any
    vertex or edge payload is decoded.
    """
    payloads = _vertex_payloads(d, path)
    if not payloads:
        raise SchemaError(f"{path}.vertices", "a diagram needs at least one vertex")
    labels = max(payloads, key=len)
    check_dimension(len(labels))
    shape = subset_poset(labels, punctured=() not in payloads)
    return _diagram_over(shape, payloads, d, path)


def fracture_object_to_json(g: FractureObject) -> dict:
    return {"primes": list(g.family.primes),
            "labels": list(g.labels),
            "diagram": diagram_to_json(g.diagram)}


def fracture_object_from_json(d, path="$") -> FractureObject:
    _only_keys(d, ("primes", "labels", "diagram"), (), path)
    primes = tuple(_expect(p, int, f"{path}.primes[{i}]")
                   for i, p in enumerate(_expect(d["primes"], list,
                                                 f"{path}.primes")))
    labels = tuple(_expect(l, int, f"{path}.labels[{i}]")
                   for i, l in enumerate(_expect(d["labels"], list,
                                                 f"{path}.labels")))
    try:
        fam = LocalizationFamily(primes)
    except InputError as exc:
        raise SchemaError(f"{path}.primes", str(exc)) from None
    diagram = diagram_from_json(d["diagram"], f"{path}.diagram")
    try:
        return FractureObject(diagram, fam, labels)
    except InputError as exc:
        raise SchemaError(path, str(exc)) from None


def split_to_json(sp: SplitData) -> dict:
    witness = {}
    for u, w in sorted(sp.witness.items()):
        witness[label_to_str(u)] = _complex_map_components_to_json(w)
    return {"top": fracture_object_to_json(sp.top),
            "bottom": diagram_to_json(sp.bottom),
            "witness": witness}


def split_from_json(d, path="$"):
    _only_keys(d, ("top", "bottom", "witness"), (), path)
    top = fracture_object_from_json(d["top"], f"{path}.top")
    # the bottom face is anchored at the first index, not a full subset poset
    first = min(top.family.labels())
    labels = canonical_subset((first,) + top.labels)
    check_dimension(len(labels))
    bpath = f"{path}.bottom"
    bottom = _diagram_over(anchored_supersets((first,), labels),
                           _vertex_payloads(d["bottom"], bpath), d["bottom"], bpath)
    witness = {}
    for key, payload in _expect(d["witness"], dict, f"{path}.witness").items():
        wpath = f"{path}.witness.{key}"
        u = subset_from_str(key, wpath)
        if u not in bottom.vertices:
            raise SchemaError(wpath, "not a vertex of the bottom face")
        witness[u] = _complex_map_from_json(payload, bottom.vertex(u),
                                            bottom.vertex(u), wpath)
    return SplitData(top, bottom, witness), top.family


# --- the envelope ---------------------------------------------------------------------

_ENCODERS = {
    "matrix": matrix_to_json,
    "complex": complex_to_json,
    "diagram": diagram_to_json,
    "fracture-object": fracture_object_to_json,
    "poset": poset_to_json,
    "report": lambda payload: payload,
}

_DECODERS = {
    "matrix": matrix_from_json,
    "complex": complex_from_json,
    "diagram": diagram_from_json,
    "fracture-object": fracture_object_from_json,
    "poset": poset_from_json,
    "report": lambda payload, path="$": payload,
}


def wrap(kind: str, obj) -> dict:
    if kind not in KINDS:
        raise SchemaError("$.kind", f"unknown kind {kind!r}")
    return {"version": FORMAT_VERSION, "kind": kind, "payload": _ENCODERS[kind](obj)}


def unwrap(doc, expected_kind=None):
    _only_keys(doc, ("version", "kind", "payload"), (), "$")
    if doc["version"] != FORMAT_VERSION:
        raise SchemaError("$.version", f"expected {FORMAT_VERSION!r}")
    kind = doc["kind"]
    if kind not in KINDS:
        raise SchemaError("$.kind", f"unknown kind {kind!r}")
    if expected_kind is not None and kind != expected_kind:
        raise SchemaError("$.kind", f"expected kind {expected_kind!r}, got {kind!r}")
    return kind, _DECODERS[kind](doc["payload"], "$.payload")
