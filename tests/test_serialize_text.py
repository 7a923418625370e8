"""The codec's text against its references.

`serialize.dumps` must give the bytes (or the error) of
`json.dumps(v, indent=2, sort_keys=True)`, and the matrix and diagram
codecs must give the results and the schema errors of the versions that
parsed and formatted every entry and label, kept in tests/genutil.py.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracturecube import serialize
from fracturecube.exact_linalg import ExactMatrix
from fracturecube.fracture import LocalizationFamily, build_fracture_cube
from fracturecube.posets import subset_poset
from fracturecube.serialize import SchemaError
from fracturecube.sorted_complex import ZLOC

from genutil import (
    random_complex,
    random_cube,
    reference_diagram_over,
    reference_diagram_to_json,
    reference_matrix_from_json,
    reference_matrix_to_json,
)


def outcome(fn, *args):
    """The value of fn(*args), or the type and text of what it raised."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # the errors are compared, whatever they are
        return type(exc), str(exc)


def json_text(v):
    return json.dumps(v, indent=2, sort_keys=True)


# --- the writer ------------------------------------------------------------------------

# quotes, backslashes, control characters, non-ASCII and lone surrogates
SPECIAL = '\ud800\udfff"\\/\x00\x08\x1f\x7fé 𐏿\U0001f600 '
strings = st.one_of(st.text(st.characters(exclude_categories=())),
                    st.text(st.sampled_from(SPECIAL)))
ints = st.one_of(st.integers(), st.integers(-2 ** 200, 2 ** 200))
scalars = st.one_of(st.none(), st.booleans(), ints, st.floats(), strings)
key_kinds = st.sampled_from([strings, ints, st.booleans(), st.none(), st.floats()])


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(strings, max_size=5),
        st.lists(ints, max_size=5),
        # one kind of key per dict, so that the keys sort
        key_kinds.flatmap(lambda keys: st.dictionaries(keys, children, max_size=4)))


json_values = st.recursive(scalars, containers, max_leaves=30)


class TestDumps:
    @settings(max_examples=500, deadline=None)
    @given(json_values)
    def test_bytes_of_json(self, v):
        assert outcome(serialize.dumps, v) == outcome(json_text, v)

    @pytest.mark.parametrize("v", [
        [], {}, (), [[]], {"a": {}}, ((), [()]), "", 0, -0.0, float("nan"),
        float("inf"), -float("inf"), 1e300, None, True, [True, False, 1, 0],
        [1, 2, 3], ["a", "b"], [1, "a"], [1, 1.5], [2 ** 64, -2 ** 70],
        {1: "int", 2: None}, {True: 1, False: 0}, {None: []}, {1.5: 2, -0.5: 3},
        {"b": 1, "a": [1, {"c": ()}]}, "\ud800\"\\\x01é",
    ])
    def test_corner_values(self, v):
        assert outcome(serialize.dumps, v) == outcome(json_text, v)

    @pytest.mark.parametrize("v", [
        {1: 1, "a": 2}, {(1,): 1}, [object()], {"a": {1, 2}}, [1, "x", b"x"],
        [10 ** 5000],
    ])
    def test_same_errors(self, v):
        got, want = outcome(serialize.dumps, v), outcome(json_text, v)
        assert got[0] != "value" and got == want

    def test_deep_nesting(self):
        v = "leaf"
        for depth in range(150):
            v = ([v, depth], {"k": v, "j": [depth]}, (v,))[depth % 3]
        assert serialize.dumps(v) == json_text(v)


# --- the matrix codec ------------------------------------------------------------------

# spellings of an entry or an endpoint that are not the canonical "0" or key
BAD = [0, "-0", "00", "0/1", " 1", True, None, [], "01", "1,1", 1]
GOOD_ENTRIES = ["0", "0", "0", "1", "-3", "1/2", "-5/7", "12"]


@st.composite
def matrix_documents(draw):
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entry = st.sampled_from(GOOD_ENTRIES + BAD) if draw(st.booleans()) \
        else st.sampled_from(GOOD_ENTRIES)
    row = st.lists(entry, min_size=cols, max_size=cols)
    if draw(st.integers(0, 9)) == 0:  # a row of the wrong length or type
        row = st.one_of(row, st.lists(entry, max_size=cols + 1), entry)
    return {"rows": rows, "cols": cols, "entries": draw(st.lists(row, min_size=rows,
                                                                 max_size=rows))}


def frac_matrix(rng, rows, cols):
    return ExactMatrix(rows, cols, {(i, j): Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                                    for i in range(rows) for j in range(cols)
                                    if rng.random() < 0.4})


class TestMatrixCodec:
    @settings(max_examples=400, deadline=None)
    @given(matrix_documents())
    def test_decodes_as_the_reference(self, doc):
        got = outcome(serialize.matrix_from_json, doc, "$.m")
        want = outcome(reference_matrix_from_json, doc, "$.m")
        assert got == want
        assert got[0] in ("value", SchemaError)

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_each_bad_spelling_keeps_its_error(self, bad):
        doc = {"rows": 2, "cols": 2, "entries": [["0", "1"], ["1/2", bad]]}
        got = outcome(serialize.matrix_from_json, doc)
        assert got[0] is SchemaError and got == outcome(reference_matrix_from_json, doc)

    def test_round_trips(self):
        rng = random.Random(23)
        for _ in range(200):
            m = frac_matrix(rng, rng.randint(0, 5), rng.randint(0, 5))
            doc = serialize.matrix_to_json(m)
            assert doc == reference_matrix_to_json(m)
            assert serialize.matrix_from_json(doc) == m == reference_matrix_from_json(doc)

    def test_digit_cap_still_applies_on_the_way_out(self):
        m = ExactMatrix.from_rows([[0, 10 ** serialize.MAX_DIGITS]])
        with pytest.raises(Exception) as got:
            serialize.matrix_to_json(m)
        with pytest.raises(Exception) as want:
            reference_matrix_to_json(m)
        assert (got.type, str(got.value)) == (want.type, str(want.value))


# --- the diagram codec -----------------------------------------------------------------

def seeded_diagrams():
    rng = random.Random(5)
    out = [random_cube(rng, labels, sort=ZLOC, max_rank=2, punctured=punctured)
           for labels in ((1,), (1, 2), (1, 2, 3)) for punctured in (False, True)]
    out.append(build_fracture_cube(random_complex(rng, deg_hi=2, max_rank=3),
                                   LocalizationFamily((2, 3))))
    return out


DIAGRAMS = seeded_diagrams()


def decode_over(over, doc):
    payloads = serialize._vertex_payloads(doc, "$.d")
    labels = max(payloads, key=len)
    shape = subset_poset(labels, punctured=() not in payloads)
    return serialize.diagram_to_json(over(shape, payloads, doc, "$.d"))


class TestDiagramCodec:
    @pytest.mark.parametrize("d", DIAGRAMS, ids=lambda d: f"{len(d.shape.elements)}v")
    def test_writes_and_reads_as_the_reference(self, d):
        doc = serialize.diagram_to_json(d)
        assert doc == reference_diagram_to_json(d)
        assert decode_over(serialize._diagram_over, doc) == doc
        assert decode_over(reference_diagram_over, doc) == doc

    @pytest.mark.parametrize("end", ["from", "to"])
    @pytest.mark.parametrize("bad", BAD + ["", "9", "1,2,3,4", "2,1"], ids=repr)
    def test_each_bad_endpoint_keeps_its_error(self, bad, end):
        for d in DIAGRAMS:
            doc = json.loads(json.dumps(serialize.diagram_to_json(d)))
            if not doc["edges"]:
                continue
            doc["edges"][-1][end] = bad
            got = outcome(decode_over, serialize._diagram_over, doc)
            assert got == outcome(decode_over, reference_diagram_over, doc)
            if bad != "" or () not in d.shape.elements:
                assert got[0] is SchemaError

    def test_repeated_edge_keeps_its_error(self):
        doc = serialize.diagram_to_json(DIAGRAMS[2])
        doc["edges"].append(doc["edges"][0])
        got = outcome(decode_over, serialize._diagram_over, doc)
        assert got[0] is SchemaError
        assert got == outcome(decode_over, reference_diagram_over, doc)
