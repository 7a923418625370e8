"""Document envelope and JSON codecs for every object kind.

All numbers that matter are exact: rationals travel as strings "a/b"
(plain "a" for integers), subsets as comma-joined increasing integers,
and every codec round-trips bit-exactly. A numerator or denominator has
at most MAX_DIGITS digits, on the way in and on the way out. Unknown
fields are rejected with the JSON path of the offender.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

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
MAX_DIGITS = 4300  # digits of a numerator or denominator in a document
_DIGIT_CAP = 10 ** MAX_DIGITS
_OVER_CAP = f"more than MAX_DIGITS={MAX_DIGITS} digits in a numerator or denominator"
KINDS = ("complex", "diagram", "fracture-object", "report", "matrix")


class SchemaError(InputError):
    """Schema violation carrying the JSON path of the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _expect(value, types, path):
    # bool subclasses int, but a JSON boolean is not an integer
    if not isinstance(value, types) or (type(value) is bool and types is int):
        names = types.__name__ if isinstance(types, type) else \
            "/".join(t.__name__ for t in types)
        raise SchemaError(path, f"expected {names}, got {type(value).__name__}")
    return value


def _only_keys(d, required, path):
    _expect(d, dict, path)
    for k in required:
        if k not in d:
            raise SchemaError(path, f"missing field {k!r}")
    for k in d:
        if k not in required:
            raise SchemaError(f"{path}.{k}", "unknown field")


def check_dimension(n: int):
    """Reject a negative cube dimension, or more labels than FRACTURE_MAX_T
    (default 6) allows."""
    if n < 0:
        raise InputError(f"cube dimension {n} is negative")
    raw = os.environ.get("FRACTURE_MAX_T", "")
    try:
        cap = int(raw) if raw else DEFAULT_MAX_T
    except ValueError:
        raise InputError(f"FRACTURE_MAX_T must be an integer, got {raw!r}") from None
    if n > cap:
        raise InputError(f"cube dimension {n} exceeds FRACTURE_MAX_T={cap}")


# --- scalars and labels -----------------------------------------------------------

def rational_to_str(x: Fraction) -> str:
    if max(abs(x.numerator), x.denominator) >= _DIGIT_CAP:
        raise InputError(f"cannot write a rational with {_OVER_CAP}")
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rational_from_str(s, path="$") -> Fraction:
    _expect(s, str, path)
    # digits are counted before parsing, and the value after it ("1e5000")
    if len(s) > MAX_DIGITS and any(sum(map(str.isdigit, part)) > MAX_DIGITS
                                   for part in s.split("/")):
        raise SchemaError(path, _OVER_CAP)
    try:
        x = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(path, f"bad rational {s!r}: {exc}") from None
    if max(abs(x.numerator), x.denominator) >= _DIGIT_CAP:
        raise SchemaError(path, _OVER_CAP)
    if rational_to_str(x) != s:
        raise SchemaError(path, f"rational {s!r} is not written as {rational_to_str(x)!r}")
    return x


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
    if subset_to_str(parts) != s:
        raise SchemaError(path, f"subset key {s!r} is not written as "
                          f"{subset_to_str(parts)!r}")
    return parts


def label_to_str(x) -> str:
    if isinstance(x, tuple):
        if all(isinstance(v, int) for v in x):
            return subset_to_str(x)
        return "|".join(label_to_str(v) for v in x)
    return str(x)


# --- matrices ---------------------------------------------------------------------

def matrix_to_json(m: ExactMatrix) -> dict:
    entries = [["0"] * m.cols for _ in range(m.rows)]
    for (i, j), v in m.items():
        entries[i][j] = rational_to_str(v)
    return {"rows": m.rows, "cols": m.cols, "entries": entries}


def matrix_from_json(d, path="$") -> ExactMatrix:
    _only_keys(d, ("rows", "cols", "entries"), path)
    rows = _expect(d["rows"], int, f"{path}.rows")
    cols = _expect(d["cols"], int, f"{path}.cols")
    entries = _expect(d["entries"], list, f"{path}.entries")
    if len(entries) != rows:
        raise SchemaError(f"{path}.entries", f"expected {rows} rows")
    nonzero = {}
    for i, row in enumerate(entries):
        _expect(row, list, f"{path}.entries[{i}]")
        if len(row) != cols:
            raise SchemaError(f"{path}.entries[{i}]", f"expected {cols} columns")
        for j, v in enumerate(row):
            if v != "0":  # the one spelling of zero; every other entry is parsed
                nonzero[(i, j)] = rational_from_str(v, f"{path}.entries[{i}][{j}]")
    return ExactMatrix(rows, cols, nonzero)


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
        except InputError as exc:
            raise SchemaError(f"{path}[{i}][0]", str(exc)) from None
        summands.append((sort, rank))
    return SortedModule(summands)


def _sorted_map_to_json(m: SortedMap) -> dict:
    return {"blocks": [{"source": i, "target": j, "matrix": matrix_to_json(b)}
                       for (i, j), b in m.blocks().items()]}


def _sorted_map_from_json(d, source, target, path) -> SortedMap:
    _only_keys(d, ("blocks",), path)
    blocks = {}
    for k, b in enumerate(_expect(d["blocks"], list, f"{path}.blocks")):
        bpath = f"{path}.blocks[{k}]"
        _only_keys(b, ("source", "target", "matrix"), bpath)
        i = _expect(b["source"], int, f"{bpath}.source")
        j = _expect(b["target"], int, f"{bpath}.target")
        if (i, j) in blocks:
            raise SchemaError(bpath, f"repeated block ({i},{j})")
        blocks[(i, j)] = matrix_from_json(b["matrix"], f"{bpath}.matrix")
    try:
        return SortedMap(source, target, blocks)
    except InputError as exc:
        raise SchemaError(path, str(exc)) from None


def _degree(key, path) -> int:
    try:
        n = int(key)
    except ValueError:
        raise SchemaError(path, "degree must be an integer") from None
    if str(n) != key:
        raise SchemaError(path, f"degree key {key!r} is not written as {str(n)!r}")
    return n


def complex_to_json(c: SortedComplex) -> dict:
    return {
        "modules": {str(n): _module_to_json(m)
                    for n, m in sorted(c.modules.items())},
        "differentials": {str(n): _sorted_map_to_json(d)
                          for n, d in sorted(c.diffs.items())},
    }


def complex_from_json(d, path="$") -> SortedComplex:
    _only_keys(d, ("modules", "differentials"), path)
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
    keys = {s: label_to_str(s) for s in d.shape.elements}
    verts = {keys[s]: complex_to_json(d.vertex(s)) for s in d.shape.elements}
    edges = [{"from": keys[x], "to": keys[y],
              "components": _complex_map_components_to_json(d.edges[(x, y)])}
             for x, y in sorted(d.edges, key=lambda p: (keys[p[0]], keys[p[1]]))]
    return {"vertices": verts, "edges": edges}


def _vertex_payloads(d, path) -> dict:
    """Vertex subsets of a diagram document, each with its key and payload."""
    _only_keys(d, ("vertices", "edges"), path)
    raw = _expect(d["vertices"], dict, f"{path}.vertices")
    return {subset_from_str(k, f"{path}.vertices.{k}"): (k, v) for k, v in raw.items()}


def _diagram_over(shape: FinitePoset, payloads: dict, d, path) -> PosetDiagram:
    """Decode the vertices and edges of a diagram document of a known shape."""
    if set(payloads) != set(shape.elements):
        raise SchemaError(f"{path}.vertices", "keys do not form the diagram's "
                          f"poset on {label_to_str(max(shape.elements, key=len))}")
    verts = {s: complex_from_json(v, f"{path}.vertices.{k}")
             for s, (k, v) in payloads.items()}
    subsets = {k: s for s, (k, _) in payloads.items()}

    def endpoint(key, epath):  # a vertex key is canonical, so it names its vertex
        return subsets[key] if isinstance(key, str) and key in subsets \
            else subset_from_str(key, epath)

    edges = {}
    for k, e in enumerate(_expect(d["edges"], list, f"{path}.edges")):
        epath = f"{path}.edges[{k}]"
        _only_keys(e, ("from", "to", "components"), epath)
        x = endpoint(e["from"], f"{epath}.from")
        y = endpoint(e["to"], f"{epath}.to")
        if x not in verts or y not in verts:
            raise SchemaError(epath, "edge endpoint is not a vertex")
        if (x, y) in edges:
            raise SchemaError(epath, "repeated edge")
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
    _only_keys(d, ("primes", "labels", "diagram"), path)
    primes = tuple(_expect(p, int, f"{path}.primes[{i}]")
                   for i, p in enumerate(_expect(d["primes"], list,
                                                 f"{path}.primes")))
    labels = tuple(_expect(l, int, f"{path}.labels[{i}]")
                   for i, l in enumerate(_expect(d["labels"], list,
                                                 f"{path}.labels")))
    if not labels or list(labels) != sorted(set(labels)):
        raise SchemaError(f"{path}.labels", "labels must be non-empty and strictly increasing")
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
    _only_keys(d, ("top", "bottom", "witness"), path)
    top = fracture_object_from_json(d["top"], f"{path}.top")
    # the bottom face is anchored at its singleton vertex, not a full subset
    # poset; glue checks that the anchor is a family index below the top
    bpath = f"{path}.bottom"
    payloads = _vertex_payloads(d["bottom"], bpath)
    first = min((u[0] for u in payloads if len(u) == 1), default=min(top.family.labels()))
    labels = canonical_subset((first,) + top.labels)
    check_dimension(len(labels))
    bottom = _diagram_over(anchored_supersets((first,), labels), payloads, d["bottom"], bpath)
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
    "report": lambda payload: payload,
}

_DECODERS = {
    "matrix": matrix_from_json,
    "complex": complex_from_json,
    "diagram": diagram_from_json,
    "fracture-object": fracture_object_from_json,
    "report": lambda payload, path="$": payload,
}


def wrap(kind: str, obj) -> dict:
    if kind not in KINDS:
        raise SchemaError("$.kind", f"unknown kind {kind!r}")
    return {"version": FORMAT_VERSION, "kind": kind, "payload": _ENCODERS[kind](obj)}


def dumps(doc) -> str:
    """json.dumps(doc, indent=2, sort_keys=True), without the pure-Python
    encoder json selects to indent. json itself writes values other than
    containers, str and int, and keys other than str, so those get its bytes
    and errors; a container inside itself exhausts the recursion limit."""
    parts = []
    put = parts.append
    seps = [",\n"]  # seps[n]: a comma, a newline and the indent of depth n

    def write(v, n):
        t = type(v)
        if t is str:
            put(_quote(v))
        elif t is int:
            put(int.__repr__(v))
        elif not isinstance(v, (dict, list, tuple)):
            put(json.dumps(v))
        elif not v:
            put("{}" if isinstance(v, dict) else "[]")
        else:
            if len(seps) == n + 1:
                seps.append(seps[n] + "  ")
            sep, end = seps[n + 1], seps[n][1:]
            if isinstance(v, dict):
                lead = "{" + sep[1:]
                for k, x in sorted(v.items()):
                    put(lead)
                    put(_quote(k) if type(k) is str else _key(k))
                    put(": ")
                    if type(x) is str:
                        put(_quote(x))
                    else:
                        write(x, n + 1)
                    lead = sep
                put(end + "}")
            elif all(type(x) is str for x in v) or all(type(x) is int for x in v):
                text = _quote if type(v[0]) is str else int.__repr__
                put("[" + sep[1:] + sep.join(map(text, v)) + end + "]")
            else:
                lead = "[" + sep[1:]
                for x in v:
                    put(lead)
                    write(x, n + 1)
                    lead = sep
                put(end + "]")

    write(doc, 0)
    return "".join(parts)


def _key(k) -> str:
    if isinstance(k, (str, int, float)) or k is None:
        return _quote(k if isinstance(k, str) else json.dumps(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def unwrap(doc, expected_kind=None):
    _only_keys(doc, ("version", "kind", "payload"), "$")
    if doc["version"] != FORMAT_VERSION:
        raise SchemaError("$.version", f"expected {FORMAT_VERSION!r}")
    kind = doc["kind"]
    if kind not in KINDS:
        raise SchemaError("$.kind", f"unknown kind {kind!r}")
    if expected_kind is not None and kind != expected_kind:
        raise SchemaError("$.kind", f"expected kind {expected_kind!r}, got {kind!r}")
    return kind, _DECODERS[kind](doc["payload"], "$.payload")
