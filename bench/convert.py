"""Turn generated specs into package objects and fracture/1 documents.

Documents for complexes, matrices and cube diagrams are encoded here,
from the specs, so the bytes a command reads do not depend on the
package's own encoder. Fracture objects, which only the package can
build, are encoded by the package.
"""

from __future__ import annotations

import json

from fracturecube.exact_linalg import ExactMatrix
from fracturecube.holim import PosetDiagram
from fracturecube.posets import subset_poset
from fracturecube.sorted_complex import (
    ComplexMap,
    Sort,
    SortedComplex,
    SortedMap,
    SortedModule,
)

VERSION = "fracture/1"


def _nonzero(rows):
    return any(v for row in rows for v in row)


def complex_obj(spec) -> SortedComplex:
    sort = Sort(spec["sort"])
    mods = {n: SortedModule([(sort, r)]) for n, r in spec["ranks"].items() if r}
    diffs = {n: SortedMap(mods[n], mods[n - 1],
                          {(0, 0): ExactMatrix.from_rows(rows)})
             for n, rows in spec["d"].items() if _nonzero(rows)}
    return SortedComplex(mods, diffs)


def cube_obj(spec) -> PosetDiagram:
    labels = spec["labels"]
    shape = subset_poset(labels)
    verts = {s: complex_obj(v) for s, v in spec["vertices"].items()}
    edges = {}
    for (a, b), comps in spec["edges"].items():
        src, tgt = verts[a], verts[b]
        maps = {n: SortedMap(src.module(n), tgt.module(n),
                             {(0, 0): ExactMatrix.from_rows(rows)})
                for n, rows in comps.items() if _nonzero(rows)}
        edges[(a, b)] = ComplexMap(src, tgt, maps)
    return PosetDiagram(shape, verts, edges, check=True)


# --- documents ----------------------------------------------------------------------


def matrix_json(rows):
    return {"rows": len(rows), "cols": len(rows[0]) if rows else 0,
            "entries": [[str(v) for v in row] for row in rows]}


def _map_json(rows):
    if not _nonzero(rows):
        return {"blocks": []}
    return {"blocks": [{"source": 0, "target": 0, "matrix": matrix_json(rows)}]}


def complex_json(spec):
    return {"modules": {str(n): [[spec["sort"], r]]
                        for n, r in sorted(spec["ranks"].items()) if r},
            "differentials": {str(n): _map_json(rows)
                              for n, rows in sorted(spec["d"].items())
                              if _nonzero(rows)}}


def _subset_str(s):
    return ",".join(str(x) for x in s)


def cube_json(spec):
    verts = {_subset_str(s): complex_json(v) for s, v in spec["vertices"].items()}
    edges = [{"from": _subset_str(a), "to": _subset_str(b),
              "components": {str(n): _map_json(rows)
                             for n, rows in sorted(comps.items())}}
             for (a, b), comps in sorted(spec["edges"].items())]
    return {"vertices": verts, "edges": edges}


def envelope(kind, payload):
    return {"version": VERSION, "kind": kind, "payload": payload}


def write_doc(path, doc):
    """Write a document the way the command line emits one."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
