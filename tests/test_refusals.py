"""Every refusal the package can reach, one table per module.

Each case either calls the library, which must raise InputError with the
message given, or runs the CLI on a document, which must exit 2 with that
message on stderr and nothing on stdout. A refusal that a CLI path
reaches goes through the CLI. tests/trace_lines.py shows which `raise`
statements a run leaves unreached.
"""

import io
import json
from dataclasses import dataclass, field

import pytest

from fracturecube import serialize
from fracturecube.cli import run
from fracturecube.cube_categories import (
    FractureObject,
    GeneratorData,
    SplitData,
    build_from_generators,
    fracture_diagram,
    fracture_limit,
    roundtrip_check,
    split_fracture_object,
)
from fracturecube.exact_linalg import (
    AbelianInvariants,
    ExactMatrix,
    InputError,
    integer_homology_at,
    rank_over_field,
    solve_in_span,
)
from fracturecube.fracture import LocalizationFamily, build_fracture_cube, e_localize
from fracturecube.holim import (
    PosetDiagram,
    cube_totalization,
    homotopy_limit,
    initial_corner_cube,
    map_between_totalizations,
    punctured_limit_recursive,
    punctured_restriction,
)
from fracturecube.posets import (
    FinitePoset,
    PosetMap,
    is_dismantlable,
    reduced_homology,
    subset_poset,
)
from fracturecube.sorted_complex import (
    EMPTY_MODULE,
    ComplexMap,
    LocalizationTable,
    Q,
    SortedComplex,
    SortedMap,
    SortedModule,
    Z,
    Zp,
    apply_localization,
)

FAM2 = LocalizationFamily((2,))
FAM3 = LocalizationFamily((2, 3))
SPHERE = SortedComplex.single(Z)
PLANE = SortedComplex.single(Z, 2)
ARROW = FinitePoset("ab", [("a", "b")])


@dataclass
class Call:
    """A library call that must raise InputError."""

    fn: object
    args: tuple = ()

    def refuse(self, message, tmp_path, monkeypatch):
        with pytest.raises(InputError) as exc:
            self.fn(*self.args)
        assert str(exc.value) == message


@dataclass
class Cli:
    """A CLI run on a document written from payload(), or on none; the
    argument "DOC" names the document."""

    argv: tuple
    kind: str = None
    payload: object = None
    env: dict = field(default_factory=dict)

    def refuse(self, message, tmp_path, monkeypatch):
        for k, v in self.env.items():
            monkeypatch.setenv(k, v)
        argv = list(self.argv)
        if self.kind is not None:
            path = tmp_path / "doc.json"
            path.write_text(json.dumps({"version": "fracture/1", "kind": self.kind,
                                        "payload": self.payload()}), encoding="utf-8")
            argv = [str(path) if a == "DOC" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        assert (run(argv, out, err), out.getvalue(), err.getvalue()) == (2, "", message + "\n")


def ids(table):
    return [message.split(":")[-1].strip()[:40] for _, message in table]


def complex_payload(modules, entry="1"):
    """Z -> Z from degree 1 to 0, its one entry given, under other modules."""
    block = {"source": 0, "target": 0, "matrix": {"rows": 1, "cols": 1, "entries": [[entry]]}}
    return lambda: {"modules": modules, "differentials": {"1": {"blocks": [block]}}}


def vertex_payloads(*keys):
    sphere = serialize.complex_to_json(SPHERE)
    return lambda: {"vertices": {k: sphere for k in keys}, "edges": []}


def square_without_edge():
    """The identity square on the sphere, its edge "" -> "1" left out."""
    shape = subset_poset((1, 2))
    doc = serialize.diagram_to_json(PosetDiagram(
        shape, {s: SPHERE for s in shape.elements},
        {pair: ComplexMap.identity(SPHERE) for pair in shape.covering_pairs()}))
    doc["edges"] = [e for e in doc["edges"] if (e["from"], e["to"]) != ("", "1")]
    return doc


def split_payload(edit=None, top=None):
    """The split of the local sphere's object over P = (2, 3), edited."""
    def payload():
        sp = split_fracture_object(fracture_diagram(e_localize(SPHERE, FAM3), FAM3))
        doc = serialize.split_to_json(SplitData(top(sp) if top else sp.top, sp.bottom))
        if edit:
            edit(doc)
        return doc
    return payload


def non_local_top(sp):
    # the vertex (2,) of the top face made raw Z
    d = sp.top.diagram
    return FractureObject(PosetDiagram(d.shape, {**d.vertices, (2,): SPHERE}, {}),
                          sp.top.family, sp.top.labels)


def doubled_bottom_vertex(doc):
    # the vertex (1, 2) of rank 2 and its mixing edge zero: a valid diagram,
    # but not the rationalization of the top face
    bottom = doc["bottom"]
    bottom["vertices"]["1,2"]["modules"]["0"][0][1] = 2
    for e in bottom["edges"]:
        if (e["from"], e["to"]) == ("1", "1,2"):
            e["components"] = {}


def one_label_object():
    fam = LocalizationFamily(())
    return serialize.fracture_object_to_json(fracture_diagram(e_localize(SPHERE, fam), fam))


# --- cli ---------------------------------------------------------------------

CLI = [
    (Cli(("cat", "roundtrip", "DOC"), "diagram", vertex_payloads("")),
     "schema error: $.kind: roundtrip expects a complex or a fracture-object document"),
    # only a complex reads the prime set; an object carries its own
    (Cli(("cat", "roundtrip", "DOC", "--primes", "2"), "fracture-object", one_label_object),
     "input error: --primes needs a complex: a fracture-object carries its own primes"),
    (Cli(("emit-dot",)), "input error: emit-dot needs an input document or --category-cube N"),
    (Cli(("emit-dot", "DOC"), "complex", complex_payload({"0": [["Z", 1]], "1": [["Z", 1]]})),
     "schema error: $.kind: emit-dot expects a diagram or a fracture-object document"),
]


@pytest.mark.parametrize("case, message", CLI, ids=ids(CLI))
def test_cli_refusals(case, message, tmp_path, monkeypatch):
    case.refuse(message, tmp_path, monkeypatch)


def test_emit_dot_homology_falls_back_to_sorts_and_zero(tmp_path):
    # a Q vertex has no homology over ZlocP, so its sorts label it; a zero
    # vertex and an acyclic one read 0
    rational = build_fracture_cube(SPHERE, LocalizationFamily(()))
    acyclic = SortedComplex.two_term(Z, ExactMatrix.identity(1))
    for cube, want in ((rational, ['{}: H0=Z', '1: [0] Q']),
                       (initial_corner_cube(acyclic, (1,)), ['{}: 0', '1: 0'])):
        path = tmp_path / "cube.json"
        path.write_text(json.dumps(serialize.wrap("diagram", cube)), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        assert run(["emit-dot", str(path), "--homology"], out, err) == 0
        labels = [line.split('"')[1] for line in out.getvalue().splitlines() if "label" in line]
        assert labels == want


# --- cube_categories -------------------------------------------------------------

X1, X2 = SortedComplex.single(Q), SortedComplex.single(Zp(2))
CUBE_CATEGORIES = [
    (Call(build_from_generators, (GeneratorData({}, {}), FAM2)),
     "missing generator complex at index 1"),
    (Call(build_from_generators, (GeneratorData({1: X1, 2: X2}, {}), FAM2)),
     "missing mixing map (1, 2)"),
    (Call(build_from_generators, (GeneratorData({1: X1, 2: X2}, {(1, 2): ComplexMap.zero(
        X2, apply_localization(X2, FAM2.table(1)))}), FAM2)),
     "mixing map (1, 2) has wrong source"),
    (Call(fracture_limit, (FractureObject(PosetDiagram(
        subset_poset((1,), punctured=True), {(1,): SPHERE}, {}), LocalizationFamily(())),)),
     "limit of a fracture object exposed a raw Z sort"),
    (Call(roundtrip_check, (ExactMatrix.identity(1), FAM2)), "cannot round-trip ExactMatrix"),
    (Cli(("cat", "split", "DOC"), "fracture-object", one_label_object),
     "input error: splitting needs at least two indices"),
    (Cli(("cat", "glue", "DOC"), "report", split_payload(top=non_local_top)),
     "input error: top face invalid: vertex (2,): not fixed by complete:2"),
    (Cli(("cat", "glue", "DOC"), "report", split_payload(doubled_bottom_vertex)),
     "input error: bottom vertex (1, 2) is not the rationalize localization of the top face"),
]


@pytest.mark.parametrize("case, message", CUBE_CATEGORIES, ids=ids(CUBE_CATEGORIES))
def test_cube_categories_refusals(case, message, tmp_path, monkeypatch):
    case.refuse(message, tmp_path, monkeypatch)


def test_glued_bottom_edges_off_the_anchor_end_at_zero():
    # why glue reads only the anchor's bottom edges: the others end at a
    # vertex with two completion labels, zero on both sides
    for primes in ((2,), (2, 3), (2, 3, 5)):
        fam = LocalizationFamily(primes)
        sp = split_fracture_object(fracture_diagram(e_localize(PLANE, fam), fam))
        for (a, b), e in sp.bottom.edges.items():
            assert len(a) == 1 or (sp.bottom.vertex(b).is_zero_complex() and e.is_zero())


# --- exact_linalg ------------------------------------------------------------------

I1, I2 = ExactMatrix.identity(1), ExactMatrix.identity(2)
EXACT_LINALG = [
    (Call(ExactMatrix, (1, 1, {(0, 0): 0.5})), "not an exact scalar: 0.5"),
    (Call(ExactMatrix, (1, 1, {(1, 0): 1})), "entry (1,0) outside 1x1"),
    (Call(ExactMatrix.from_rows, ([[1], [1, 2]],)), "ragged rows"),
    (Call(I1.__add__, (I2,)), "shape mismatch in add"),
    (Call(ExactMatrix.zeros(1, 2).__mul__, (I1,)), "shape mismatch in mul"),
    (Call(AbelianInvariants, (-1,)), "negative free rank"),
    (Call(AbelianInvariants, (0, (1,))), "torsion coefficients must be >= 2"),
    (Call(solve_in_span, (I2, I1)), "shape mismatch in solve_in_span"),
    (Call(rank_over_field, (I1, "R")), "unknown field spec 'R'"),
    (Call(integer_homology_at, (I2, I1)), "shape mismatch: d_out.cols must equal d_in.rows"),
]


@pytest.mark.parametrize("case, message", EXACT_LINALG, ids=ids(EXACT_LINALG))
def test_exact_linalg_refusals(case, message, tmp_path, monkeypatch):
    case.refuse(message, tmp_path, monkeypatch)


# --- fracture ------------------------------------------------------------------------

FRACTURE = [
    (Call(FAM2.table, (3,)), "family index 3 out of range 1..2"),
]


@pytest.mark.parametrize("case, message", FRACTURE, ids=ids(FRACTURE))
def test_fracture_refusals(case, message, tmp_path, monkeypatch):
    case.refuse(message, tmp_path, monkeypatch)


# --- holim ------------------------------------------------------------------------------

SQUARE = punctured_restriction(build_fracture_cube(SPHERE, FAM2))
HOLIM = [
    # a kept key outside the shape would reach strict_limit's sort check
    (Call(PosetDiagram, (subset_poset((1,)), {(): SPHERE, (1,): SPHERE,
                                              "junk": SortedComplex.single(Q, 1, 5)}, {})),
     "vertex 'junk' is not in the shape"),
    (Cli(("holim", "DOC"), "diagram", vertex_payloads("", "1")),
     "schema error: $.payload: missing edge map () -> (1,)"),
    # the omitted edge reads as zero, and the square no longer commutes
    (Cli(("holim", "DOC"), "diagram", square_without_edge),
     "schema error: $.payload: path composites () -> (1, 2) disagree"),
    (Call(PosetDiagram, (ARROW, {"a": SPHERE, "b": SPHERE},
                         {("a", "b"): ComplexMap.identity(PLANE)})),
     "edge 'a' -> 'b' has wrong endpoints"),
    (Call(SQUARE.hom, ((1, 2), (1,))), "(1, 2) is not below (1,)"),
    (Call(map_between_totalizations, (homotopy_limit(SQUARE),
                                      homotopy_limit(SQUARE.restrict([(1,)])), {})),
     "totalizations have different cells"),
    (Call(cube_totalization, (PosetDiagram(FinitePoset([], []), {}, {}),)), "empty shape"),
    (Call(punctured_limit_recursive, (SQUARE, 5)), "5 is not a label of the cube"),
]


@pytest.mark.parametrize("case, message", HOLIM, ids=ids(HOLIM))
def test_holim_refusals(case, message, tmp_path, monkeypatch):
    case.refuse(message, tmp_path, monkeypatch)


# --- posets -------------------------------------------------------------------------------

POSETS = [
    (Call(FinitePoset, ("aa", [])), "duplicate poset elements"),
    (Call(PosetMap, (ARROW, ARROW, {})), "assignment missing 'a'"),
    (Call(PosetMap, (ARROW, ARROW, {"a": "a", "b": "z"})), "image 'z' not in target"),
    (Call(PosetMap, (ARROW, ARROW, {"a": "b", "b": "a"})),
     "map not order-preserving at 'a' <= 'b'"),
    (Call(reduced_homology, (FinitePoset([], []),)), "empty complex"),
    (Call(is_dismantlable, (FinitePoset([], []),)), "empty poset"),
]


@pytest.mark.parametrize("case, message", POSETS, ids=ids(POSETS))
def test_posets_refusals(case, message, tmp_path, monkeypatch):
    case.refuse(message, tmp_path, monkeypatch)


# --- serialize ------------------------------------------------------------------------------

SERIALIZE = [
    (Cli(("fracture", "verify", "DOC", "--primes", "2"), "complex",
         complex_payload({"0": [["Z", 1]], "1": [["Z", 1]]}), {"FRACTURE_MAX_T": "x"}),
     "input error: FRACTURE_MAX_T must be an integer, got 'x'"),
    (Cli(("snf", "DOC"), "matrix", lambda: {"rows": 2, "cols": 1, "entries": [["1"]]}),
     "schema error: $.payload.entries: expected 2 rows"),
    (Cli(("homology", "DOC"), "complex", complex_payload({"0": [["Z"]], "1": [["Z", 1]]})),
     "schema error: $.payload.modules.0[0]: expected [sort, rank]"),
    (Cli(("holim", "DOC"), "diagram", vertex_payloads("", "1", "2")),
     "schema error: $.payload.vertices: keys do not form the diagram's poset on 1"),
    (Cli(("cat", "validate", "DOC"), "fracture-object",
          lambda: {**one_label_object(), "primes": [3, 2]}),
     "schema error: $.payload.primes: primes must be strictly increasing and distinct"),
    # a split is its two faces and nothing else
    (Cli(("cat", "glue", "DOC"), "report", split_payload(lambda d: d.update(witness={}))),
     "schema error: $.payload.witness: unknown field"),
]


@pytest.mark.parametrize("case, message", SERIALIZE, ids=ids(SERIALIZE))
def test_serialize_refusals(case, message, tmp_path, monkeypatch):
    case.refuse(message, tmp_path, monkeypatch)


# --- sorted_complex ----------------------------------------------------------------------

M1 = SortedModule([(Z, 1)])
SORTED_COMPLEX = [
    (Cli(("homology", "DOC"), "complex", complex_payload({"0": [["Z:2", 1]], "1": [["Z", 1]]})),
     "schema error: $.payload.modules.0[0][0]: sort Z takes no prime"),
    (Call(SortedModule, ([("Z", 1)],)), "summand sort must be a Sort"),
    (Cli(("homology", "DOC"), "complex", complex_payload({"0": [["Z", 0]], "1": [["Z", 1]]})),
     "input error: summand rank must be >= 1"),
    (Call(SortedMap.from_dense, (M1, M1, I2)), "dense matrix shape mismatch"),
    (Call(SortedMap.identity(M1).compose, (SortedMap.identity(PLANE.module(0)),)),
     "composition shape mismatch"),
    (Call(SortedMap.identity(M1).__add__, (SortedMap.identity(PLANE.module(0)),)),
     "sum shape mismatch"),
    (Call(SortedComplex, ({0: M1}, {1: SortedMap.zero(M1, M1)})),
     "differential at degree 1 has wrong shape"),
    (Call(ComplexMap, (SPHERE, SPHERE, {0: SortedMap.zero(EMPTY_MODULE, M1)})),
     "component at degree 0 has wrong shape"),
    (Call(ComplexMap.identity(SPHERE).compose, (ComplexMap.identity(PLANE),)),
     "complex map composition mismatch"),
    (Call(ComplexMap.identity(SPHERE).__add__, (ComplexMap.identity(PLANE),)),
     "complex map sum mismatch"),
    (Call(LocalizationTable, ("frobnicate",)), "unknown table kind 'frobnicate'"),
    (Call(LocalizationTable, ("complete",)), "completion table needs a prime"),
    (Call(LocalizationTable, ("rationalize", 2)), "rationalize table takes no prime"),
    (Cli(("homology", "DOC"), "complex", lambda: serialize.complex_to_json(X1)),
     "input error: homology over ZlocP needs Z-like sorts, got Q"),
    (Cli(("homology", "DOC"), "complex",
         complex_payload({"0": [["Z", 1]], "1": [["Z", 1]]}, "1/2")),
     "input error: integer homology needs integral matrices"),
    (Cli(("homology", "DOC", "--primes", "2"), "complex",
         complex_payload({"0": [["Z", 1]], "1": [["Z", 1]]}, "1/2")),
     "input error: denominator is not a unit of ZlocP"),
]


@pytest.mark.parametrize("case, message", SORTED_COMPLEX, ids=ids(SORTED_COMPLEX))
def test_sorted_complex_refusals(case, message, tmp_path, monkeypatch):
    case.refuse(message, tmp_path, monkeypatch)
