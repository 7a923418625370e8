import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import fracturecube
from fracturecube import serialize
from fracturecube.cli import emit_dot, run
from fracturecube.cube_categories import FractureObject, fracture_diagram, split_fracture_object
from fracturecube.exact_linalg import ExactMatrix
from fracturecube.fracture import LocalizationFamily, build_fracture_cube, e_localize
from fracturecube.posets import subset_poset
from fracturecube.serialize import SchemaError
from fracturecube.holim import PosetDiagram
from fracturecube.sorted_complex import ZLOC, ComplexMap, Q, SortedComplex, SortedMap, Z

from genutil import random_complex, random_cube, smith_normal_form


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def write_doc(tmp_path, name, kind, obj):
    path = tmp_path / name
    path.write_text(json.dumps(serialize.wrap(kind, obj)), encoding="utf-8")
    return str(path)


class TestRoundTrips:
    def test_matrix_bit_exact(self):
        m = ExactMatrix.from_rows([[1, "2/3"], ["-5/7", 0]])
        doc = serialize.wrap("matrix", m)
        text = json.dumps(doc)
        kind, back = serialize.unwrap(json.loads(text))
        assert kind == "matrix" and back == m
        assert json.dumps(serialize.wrap("matrix", back)) == text

    def test_complex_round_trip(self):
        rng = random.Random(0)
        for _ in range(5):
            c = random_complex(rng, deg_hi=3)
            _, back = serialize.unwrap(serialize.wrap("complex", c))
            assert back == c

    def test_diagram_round_trip(self):
        rng = random.Random(1)
        d = random_cube(rng, (1, 2), sort=Z)
        _, back = serialize.unwrap(serialize.wrap("diagram", d))
        assert back.vertices == d.vertices
        assert back.edges == d.edges

    def test_punctured_diagram_round_trip(self):
        rng = random.Random(2)
        d = random_cube(rng, (1, 2), sort=Z, punctured=True)
        _, back = serialize.unwrap(serialize.wrap("diagram", d))
        assert back.vertices == d.vertices

    def test_fracture_object_round_trip(self):
        fam = LocalizationFamily((2,))
        g = fracture_diagram(e_localize(SortedComplex.single(Z), fam), fam)
        _, back = serialize.unwrap(serialize.wrap("fracture-object", g))
        assert back.diagram.vertices == g.diagram.vertices
        assert back.family.primes == (2,)

    def test_unknown_fields_rejected(self):
        doc = serialize.wrap("complex", SortedComplex.single(Z))
        doc["payload"]["extra"] = 1
        with pytest.raises(SchemaError, match="extra"):
            serialize.unwrap(doc)
        doc2 = serialize.wrap("complex", SortedComplex.single(Z))
        doc2["junk"] = True
        with pytest.raises(SchemaError, match="junk"):
            serialize.unwrap(doc2)

    def test_version_checked(self):
        doc = serialize.wrap("complex", SortedComplex.single(Z))
        doc["version"] = "fracture/2"
        with pytest.raises(SchemaError, match="version"):
            serialize.unwrap(doc)


class TestCommands:
    def test_snf_document(self, tmp_path):
        path = write_doc(tmp_path, "m.json", "matrix",
                         ExactMatrix.from_rows([[2, 4], [6, 8]]))
        code, out, _ = cli("snf", path)
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["entries"] == [["2", "0"], ["0", "4"]]

    def test_snf_emits_the_decomposition_diagonal(self, tmp_path):
        rng = random.Random(3)
        mats = [ExactMatrix.zeros(0, 3), ExactMatrix.zeros(2, 0)]
        for _ in range(6):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            mats.append(ExactMatrix.from_rows(
                [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]))
        for m in mats:
            code, out, _ = cli("snf", write_doc(tmp_path, "m.json", "matrix", m))
            _, d, _ = smith_normal_form(m)
            assert code == 0
            assert out == json.dumps(serialize.wrap("matrix", d), indent=2,
                                     sort_keys=True) + "\n"

    def test_homology_command(self, tmp_path):
        path = write_doc(tmp_path, "c.json", "complex",
                         SortedComplex.two_term(Z, ExactMatrix.from_rows([[6]])))
        code, out, _ = cli("homology", path)
        assert code == 0
        assert json.loads(out)["payload"]["homology"] == [
            {"degree": 0, "free_rank": 0, "torsion": [6]}]
        code, out, _ = cli("homology", path, "--primes", "2")
        assert json.loads(out)["payload"]["homology"] == [
            {"degree": 0, "free_rank": 0, "torsion": [2]}]

    def test_fracture_verify_exit_codes(self, tmp_path):
        path = write_doc(tmp_path, "s.json", "complex", SortedComplex.single(Z))
        code, out, _ = cli("fracture", "verify", path, "--primes", "2")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["verdict"] == "pass"
        assert payload["homology_of_limit"] == [
            {"degree": 0, "free_rank": 1, "torsion": []}]
        # a non-integral input is an input error, not a refutation
        bad = write_doc(tmp_path, "q.json", "complex", SortedComplex.single(Q))
        code, _, err = cli("fracture", "verify", bad, "--primes", "2")
        assert code == 2

    @pytest.mark.parametrize("primes", ["2,2147483659", "2147483659,2305843009213693951"])
    def test_fracture_verify_with_primes_past_31_bits(self, tmp_path, primes):
        # any prime decided exactly may be in P; these exited 2 as too large
        moore = SortedComplex.two_term(Z, ExactMatrix.from_rows([[6]]))
        for x in (SortedComplex.single(Z), moore):
            code, out, err = cli("fracture", "verify",
                                 write_doc(tmp_path, "x.json", "complex", x), "--primes", primes)
            assert (code, err) == (0, "")
            payload = json.loads(out)["payload"]
            assert payload["verdict"] == "pass"
            assert {r["prime"] for r in payload["residues"]} == {
                int(p) for p in primes.split(",")} | {None}

    def test_numpy_never_loads(self, tmp_path):
        # the package computes in Python ints and imports no numpy
        moore = SortedComplex.two_term(Z, ExactMatrix.from_rows([[6]]))
        sphere = write_doc(tmp_path, "s.json", "complex", SortedComplex.single(Z))
        mpath = write_doc(tmp_path, "m.json", "complex", moore)
        snf = write_doc(tmp_path, "d.json", "matrix", ExactMatrix.from_rows([[2, 4], [6, 8]]))
        script = f"""
import io, sys
from fracturecube.cli import run
for argv in (["homology", {mpath!r}, "--primes", "2"], ["snf", {snf!r}],
             ["fracture", "verify", {sphere!r}, "--primes", "2,3"],
             ["fracture", "verify", {mpath!r}, "--primes", "2,3"]):
    assert run(argv, io.StringIO(), io.StringIO()) == 0, argv
from fracturecube.exact_linalg import ExactMatrix, rank_over_field
dense = ExactMatrix.from_rows([[i * j + i + 1 for j in range(16)] for i in range(16)])
assert rank_over_field(dense, ("Fp", 3)) == 2
assert "numpy" not in sys.modules
"""
        src = str(Path(fracturecube.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_fracture_build_then_holim_tfib(self, tmp_path):
        path = write_doc(tmp_path, "s.json", "complex", SortedComplex.single(Z))
        cube_path = str(tmp_path / "cube.json")
        code, _, _ = cli("fracture", "build", path, "--primes", "2",
                         "-o", cube_path)
        assert code == 0
        code, out, _ = cli("tfib", cube_path)
        assert code == 0
        code, out, _ = cli("holim", cube_path)
        assert code == 0

    def test_poset_check_initial(self):
        code, out, _ = cli("poset", "check-initial", "--T", "3", "--t", "1")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["overall"] is True
        assert set(payload["certificates"].values()) == {"dismantlable"}

    def test_cat_validate_and_roundtrip(self, tmp_path):
        fam = LocalizationFamily((2,))
        g = fracture_diagram(e_localize(SortedComplex.single(Z), fam), fam)
        path = write_doc(tmp_path, "g.json", "fracture-object", g)
        code, out, _ = cli("cat", "validate", path)
        assert code == 0 and json.loads(out)["payload"]["ok"] is True
        code, out, _ = cli("cat", "roundtrip", path)
        assert code == 0

    def test_cat_split_glue_round_trip(self, tmp_path):
        fam = LocalizationFamily((2, 3))
        g = fracture_diagram(e_localize(
            SortedComplex.two_term(Z, ExactMatrix.from_rows([[6]])), fam), fam)
        gpath = write_doc(tmp_path, "g.json", "fracture-object", g)
        spath = str(tmp_path / "split.json")
        code, _, _ = cli("cat", "split", gpath, "-o", spath)
        assert code == 0
        code, out, _ = cli("cat", "glue", spath)
        assert code == 0
        _, back = serialize.unwrap(json.loads(out))
        assert back.diagram.vertices == g.diagram.vertices
        assert back.diagram.edges == g.diagram.edges

    def test_emit_dot_of_example_object(self, tmp_path):
        fam = LocalizationFamily((2, 3))
        g = fracture_diagram(e_localize(SortedComplex.single(Z), fam), fam)
        path = write_doc(tmp_path, "g.json", "fracture-object", g)
        code, out, _ = cli("emit-dot", path)
        assert code == 0
        assert out.count("->") == 9  # punctured 3-cube has nine edges
        assert out.count("[label=") == 7

    def test_emit_dot_one_cube(self, tmp_path):
        fam = LocalizationFamily(())
        x = SortedComplex.single(Z)
        cube = build_fracture_cube(x, fam)
        path = write_doc(tmp_path, "arrow.json", "diagram", cube)
        code, out, _ = cli("emit-dot", path)
        assert code == 0
        assert out.count("[label=") == 2
        assert out.count("->") == 1

    def test_emit_dot_category_cube(self):
        code, out, _ = cli("emit-dot", "--category-cube", "3")
        assert code == 0
        assert 'Sp[F(1)]^{1,12,13,123}' in out
        assert 'Sp[F(3)]^{3}' in out
        assert out.count("->") == 9

    def test_dot_deterministic(self, tmp_path):
        rng = random.Random(3)
        d = random_cube(rng, (1, 2), sort=Z)
        assert emit_dot(d) == emit_dot(d)


class TestErrors:
    def test_missing_file(self):
        code, _, err = cli("homology", "/nonexistent/file.json")
        assert code == 2
        assert "cannot read" in err

    def test_schema_error_reports_path(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = serialize.wrap("complex", SortedComplex.single(Z))
        doc["payload"]["modules"]["0"] = [["NotASort", 1]]
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = cli("homology", str(path))
        assert code == 2
        assert "$.payload.modules.0" in err

    def test_bad_primes(self, tmp_path):
        path = write_doc(tmp_path, "s.json", "complex", SortedComplex.single(Z))
        code, _, err = cli("fracture", "verify", str(path), "--primes", "x")
        assert code == 2

    def test_max_t_cap(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRACTURE_MAX_T", "1")
        path = write_doc(tmp_path, "s.json", "complex", SortedComplex.single(Z))
        code, _, err = cli("fracture", "build", path, "--primes", "2")
        assert code == 2
        assert "FRACTURE_MAX_T" in err

    def test_roundtrip_of_a_complex_is_capped(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRACTURE_MAX_T", "1")
        path = write_doc(tmp_path, "s.json", "complex", SortedComplex.single(ZLOC))
        code, out, err = cli("cat", "roundtrip", path, "--primes", "2,3")
        assert (code, out) == (2, "")
        assert "cube dimension 3 exceeds FRACTURE_MAX_T=1" in err

    @pytest.mark.parametrize("n", ["-1", "-2"])
    def test_negative_category_cube_rejected(self, n):
        code, out, err = cli("emit-dot", "--category-cube", n)
        assert (code, out) == (2, "")
        assert err == f"input error: cube dimension {n} is negative\n"

    def test_empty_category_cube_kept(self):
        code, out, _ = cli("emit-dot", "--category-cube", "0")
        assert (code, out) == (0, "digraph category_cube {\n  rankdir=LR;\n}\n")

    @pytest.mark.parametrize("primes", ["0", "4", "2,4", "-2"])
    def test_homology_rejects_non_primes(self, tmp_path, primes):
        moore = SortedComplex.two_term(Z, ExactMatrix.from_rows([[2]]))
        path = write_doc(tmp_path, "m.json", "complex", moore)
        code, out, err = cli("homology", path, "--primes", primes)
        assert (code, out) == (2, "")
        assert err.startswith("input error: ") and "is not prime" in err

    def test_homology_rejects_one_before_any_work(self, tmp_path):
        # 1 divides every torsion coefficient forever; a subprocess bounds the wait
        moore = SortedComplex.two_term(Z, ExactMatrix.from_rows([[2]]))
        path = write_doc(tmp_path, "m.json", "complex", moore)
        src = str(Path(fracturecube.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "fracturecube", "homology", path,
                               "--primes", "1"], capture_output=True, text=True,
                              env=env, timeout=30)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "input error: 1 is not prime\n"

    def test_emit_dot_homology_rejects_non_primes(self, tmp_path):
        cube = build_fracture_cube(SortedComplex.single(Z), LocalizationFamily((2,)))
        path = write_doc(tmp_path, "cube.json", "diagram", cube)
        code, out, err = cli("emit-dot", path, "--homology", "--primes", "4")
        assert (code, out) == (2, "")
        assert "4 is not prime" in err
        # without --homology the primes would not be read, so they are refused
        assert cli("emit-dot", path, "--primes", "4") == (
            2, "", "input error: --primes needs --homology\n")

    def test_emit_dot_category_cube_refuses_primes(self):
        code, out, err = cli("emit-dot", "--category-cube", "3", "--primes", "2")
        assert (code, out, err) == (2, "", "input error: --primes needs --homology\n")

    @pytest.mark.parametrize("extra", [
        ["--homology"], ["missing.json"], ["--homology", "--primes", "4"]])
    def test_emit_dot_category_cube_refuses_what_it_would_ignore(self, extra):
        # the category cube reads no document and labels no homology
        assert cli("emit-dot", "--category-cube", "2", *extra) == (
            2, "", "input error: --category-cube takes no input document and no --homology\n")

    @pytest.mark.parametrize("argv", [
        ["snf", "m.json"], ["holim", "d.json"], ["tfib", "d.json"],
        ["poset", "check-initial", "--T", "3", "--t", "1"],
        ["cat", "validate", "g.json"], ["cat", "split", "g.json"],
        ["cat", "glue", "s.json"]])
    def test_primes_only_where_read(self, argv):
        # a subcommand that would ignore a prime set refuses to take one
        code, out, err = cli(*argv, "--primes", "2,3")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --primes 2,3" in err

    def test_homology_refuses_primes_past_the_exact_bound(self, tmp_path):
        # a strong pseudoprime to the bases 2..37, so Miller-Rabin on them passes it
        moore = SortedComplex.two_term(Z, ExactMatrix.from_rows([[2]]))
        path = write_doc(tmp_path, "m.json", "complex", moore)
        code, out, err = cli("homology", path, "--primes", "318665857834031151167461")
        assert (code, out) == (2, "")
        assert err.startswith("input error: ") and "decided exactly" in err

    def test_usage_goes_to_the_callers_streams(self):
        code, out, err = cli("snf")
        assert (code, out) == (2, "")
        assert err.startswith("usage: fracturecube snf")
        assert "the following arguments are required: input" in err
        code, out, err = cli("--help")
        assert (code, err) == (0, "")
        assert out.startswith("usage: fracturecube") and "snf" in out

    def test_wrong_kind(self, tmp_path):
        path = write_doc(tmp_path, "m.json", "matrix", ExactMatrix.identity(1))
        code, _, err = cli("holim", path)
        assert code == 2

    def test_internal_error_exits_3(self, tmp_path, monkeypatch):
        def broken(*args):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr("fracturecube.cli.homology_p_local", broken)
        path = write_doc(tmp_path, "s.json", "complex", SortedComplex.single(Z))
        code, _, err = cli("homology", path)
        assert code == 3
        assert err == "internal error: ZeroDivisionError: boom\n"

    def test_unwritable_output_is_an_io_error(self, tmp_path):
        # -o names a directory: the result cannot be written there
        code, out, err = cli("poset", "check-initial", "--T", "2", "--t", "1",
                             "-o", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("io error:")

    def test_empty_diagram(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"version": "fracture/1", "kind": "diagram",
                                    "payload": {"vertices": {}, "edges": []}}),
                        encoding="utf-8")
        for argv in (["holim"], ["tfib"], ["emit-dot"]):
            code, _, err = cli(*argv, str(path))
            assert code == 2
            assert "at least one vertex" in err and "Traceback" not in err

    def test_max_t_cap_before_payloads(self, tmp_path):
        # every vertex payload is invalid: only a cap checked first names FRACTURE_MAX_T
        keys = [",".join(str(x) for x in range(1, 8) if mask >> (x - 1) & 1)
                for mask in range(2 ** 7)]
        path = tmp_path / "cube7.json"
        path.write_text(json.dumps({"version": "fracture/1", "kind": "diagram",
                                    "payload": {"vertices": {k: {"bogus": 1} for k in keys},
                                                "edges": []}}),
                        encoding="utf-8")
        code, _, err = cli("holim", str(path))
        assert code == 2
        assert "cube dimension 7 exceeds FRACTURE_MAX_T=6" in err


def _matrix_doc(tmp_path, entry):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"version": "fracture/1", "kind": "matrix", "payload": {
        "rows": 1, "cols": 1, "entries": [[entry]]}}), encoding="utf-8")
    return str(path)


class TestDigitCap:
    def test_a_square_whose_nerve_composite_is_too_long(self, tmp_path):
        # 3,001-digit edges: the full cube's nerve totalization holds their
        # 6,001-digit composite and cannot be written, the total fiber can
        big = 10 ** 3000 + 7
        z = SortedComplex.single(Z)
        edge = ComplexMap(z, z, {0: SortedMap(z.module(0), z.module(0),
                                              {(0, 0): ExactMatrix.from_rows([[big]])})})
        square = PosetDiagram(subset_poset((1, 2)), {s: z for s in subset_poset((1, 2)).elements},
                              {e: edge for e in subset_poset((1, 2)).covering_pairs()})
        path = write_doc(tmp_path, "square.json", "diagram", square)
        code, out, err = cli("holim", path)
        assert (code, out) == (2, "")
        assert err.startswith("input error: ") and "MAX_DIGITS=4300" in err
        code, out, _ = cli("tfib", path)
        assert code == 0 and str(big) in out

    @pytest.mark.parametrize("entry", ["1" * 4301, "-" + "7" * 4301, "1/" + "3" * 4301,
                                       "1e4300", "1e-4300"],
                             ids=["numerator", "negative", "denominator", "exponent",
                                  "negative-exponent"])
    def test_entry_over_the_cap_is_a_schema_error(self, tmp_path, entry):
        code, out, err = cli("snf", _matrix_doc(tmp_path, entry))
        assert (code, out) == (2, "")
        assert err.startswith("schema error: $.payload.entries[0][0]: ")
        assert f"MAX_DIGITS={serialize.MAX_DIGITS}" in err and len(err) < 200

    @pytest.mark.parametrize("raw", [
        b'{"version": "fracture/1", "kind": "matrix", "payload": {"rows": '
        + b"1" * 4301 + b', "cols": 1, "entries": []}}',
        b'{"version": "fracture/1", "kind": "matrix", "payload": {"rows": 1, '
        b'"cols": 1, "entries": [["\xff"]]}}'], ids=["long-integer", "bad-utf8"])
    def test_undecodable_document_is_a_schema_error(self, tmp_path, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        code, out, err = cli("snf", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("schema error: $: invalid JSON in ")

    def test_nesting_past_the_recursion_limit_is_a_schema_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_bytes(b"[" * 100_000 + b"]" * 100_000)
        code, out, err = cli("homology", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("schema error: $: invalid JSON in ")
        assert "Traceback" not in err and "internal error" not in err

    def test_entry_at_the_cap_round_trips_through_snf(self, tmp_path):
        entry = "9" * serialize.MAX_DIGITS
        code, out, _ = cli("snf", _matrix_doc(tmp_path, "-" + entry))
        assert code == 0
        assert json.loads(out)["payload"]["entries"] == [[entry]]


def _square_doc(tmp_path, damage):
    """A square of integer spheres and identity edges, damaged, as a file."""
    shape = subset_poset((1, 2))
    z = SortedComplex.single(Z)
    one = ComplexMap.identity(z)
    d = PosetDiagram(shape, {s: z for s in shape.elements},
                     {k: one for k in shape.covering_pairs()})
    doc = serialize.wrap("diagram", d)
    damage(doc["payload"])
    path = tmp_path / "square.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _rename_vertex(old, new):
    def damage(payload):
        payload["vertices"][new] = payload["vertices"].pop(old)
        for e in payload["edges"]:
            for end in ("from", "to"):
                if e[end] == old:
                    e[end] = new
    return damage


def _add_vertex(payload):
    # a second spelling of {1}, holding the zero complex
    payload["vertices"]["01"] = {"modules": {}, "differentials": {}}


def _edge(src, tgt, k):
    return {"from": src, "to": tgt, "components": {"0": {"blocks": [
        {"source": 0, "target": 0,
         "matrix": {"rows": 1, "cols": 1, "entries": [[str(k)]]}}]}}}


def _long_edge(payload):
    # the composite "" -> "1,2" is 1; a non-covering entry says 7
    payload["edges"].append(_edge("", "1,2", 7))


def _reversed_edge(payload):
    payload["edges"].append(_edge("1", "", 1))


def _repeated_edge(payload):
    # the same identity again: only the repetition is wrong
    payload["edges"].append(_edge("", "1", 1))


@pytest.mark.parametrize("damage, where", [
    (_rename_vertex("1", "01"), "$.payload.vertices.01"),
    (_rename_vertex("1", "+1"), "$.payload.vertices.+1"),
    (_rename_vertex("1", " 1"), "$.payload.vertices. 1"),
    (_rename_vertex("2", "1_0"), "$.payload.vertices.1_0"),
    (_rename_vertex("1,2", "1, 2"), "$.payload.vertices.1, 2"),
    (_add_vertex, "$.payload.vertices.01"),
])
def test_non_canonical_subset_key(tmp_path, damage, where):
    code, _, err = cli("holim", _square_doc(tmp_path, damage))
    assert code == 2
    assert err.startswith(f"schema error: {where}:")


@pytest.mark.parametrize("damage, where, message", [
    (_long_edge, "$.payload", "not a covering pair"),
    (_reversed_edge, "$.payload", "not a covering pair"),
    (_repeated_edge, "$.payload.edges[4]", "repeated edge"),
])
def test_edge_outside_the_covering_relation(tmp_path, damage, where, message):
    code, _, err = cli("holim", _square_doc(tmp_path, damage))
    assert code == 2
    assert err.startswith(f"schema error: {where}:") and message in err


def _split_report(tmp_path):
    fam = LocalizationFamily((2, 3))
    g = fracture_diagram(e_localize(
        SortedComplex.two_term(Z, ExactMatrix.from_rows([[6]])), fam), fam)
    gpath = write_doc(tmp_path, "g.json", "fracture-object", g)
    spath = tmp_path / "split.json"
    assert cli("cat", "split", gpath, "-o", str(spath))[0] == 0
    return json.loads(spath.read_text(encoding="utf-8"))


def _no_components(bottom):
    del bottom["edges"][0]["components"]


def _bad_degree(bottom):
    bottom["edges"][0]["components"]["x"] = {"blocks": []}


def _no_vertices(bottom):
    del bottom["vertices"]


@pytest.mark.parametrize("damage, where", [
    (_no_components, "$.payload.bottom.edges[0]"),
    (_bad_degree, "$.payload.bottom.edges[0].components.x"),
    (_no_vertices, "$.payload.bottom"),
])
def test_malformed_glue_report(tmp_path, damage, where):
    doc = _split_report(tmp_path)
    damage(doc["payload"]["bottom"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = cli("cat", "glue", str(path))
    assert code == 2
    assert err.startswith(f"schema error: {where}:")


def _sphere_stack_doc(tmp_path):
    # Z -1-> Z -1-> Z: each differential is fine, their composite is not
    block = {"source": 0, "target": 0,
             "matrix": {"rows": 1, "cols": 1, "entries": [["1"]]}}
    payload = {"modules": {str(n): [["Z", 1]] for n in range(3)},
               "differentials": {"1": {"blocks": [block]}, "2": {"blocks": [block]}}}
    path = tmp_path / "d2.json"
    path.write_text(json.dumps({"version": "fracture/1", "kind": "complex",
                                "payload": payload}), encoding="utf-8")
    return str(path)


def _half_chain_map_doc(tmp_path):
    # an arrow on Z -2-> Z whose component in degree 1 is missing
    c = SortedComplex.two_term(Z, ExactMatrix.from_rows([[2]]))
    edge = ComplexMap._trusted(c, c, {0: ComplexMap.identity(c).maps[0]})
    d = PosetDiagram._trusted(subset_poset((1,)), {(): c, (1,): c},
                              {((), (1,)): edge})
    return write_doc(tmp_path, "arrow.json", "diagram", d)


def _scale_edge(src, tgt, k):
    def damage(payload):
        for e in payload["edges"]:
            if (e["from"], e["to"]) == (src, tgt):
                e["components"]["0"]["blocks"][0]["matrix"]["entries"] = [[str(k)]]
    return damage


@pytest.mark.parametrize("argv, make, where, message", [
    (["homology"], _sphere_stack_doc, "$.payload", "d^2 != 0"),
    (["holim"], _half_chain_map_doc, "$.payload.edges[0].components",
     "not a chain map"),
    (["tfib"], lambda tmp: _square_doc(tmp, _scale_edge("1", "1,2", 2)),
     "$.payload", "path composites"),
])
def test_invalid_document_is_an_input_error(tmp_path, argv, make, where, message):
    # objects decoded from a document pass the public constructors' checks
    code, out, err = cli(*argv, make(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith(f"schema error: {where}:") and message in err


def _two_blocks_doc(tmp_path, first, second):
    # d_1: Z -> Z listed twice on the block pair (0,0)
    blocks = [{"source": 0, "target": 0,
               "matrix": {"rows": 1, "cols": 1, "entries": [[k]]}} for k in (first, second)]
    payload = {"modules": {"0": [["Z", 1]], "1": [["Z", 1]]},
               "differentials": {"1": {"blocks": blocks}}}
    path = tmp_path / "twice.json"
    path.write_text(json.dumps({"version": "fracture/1", "kind": "complex",
                                "payload": payload}), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("first, second", [("2", "0"), ("0", "2"), ("2", "2")])
def test_repeated_block_is_a_schema_error(tmp_path, first, second):
    # keeping either copy would make the homology depend on block order
    code, out, err = cli("homology", _two_blocks_doc(tmp_path, first, second))
    assert code == 2 and out == ""
    assert err.startswith("schema error: $.payload.differentials.1.blocks[1]:")
    assert "repeated block (0,0)" in err


def _payload_doc(tmp_path, kind, payload):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"version": "fracture/1", "kind": kind,
                                "payload": payload}), encoding="utf-8")
    return str(path)


def _line_complex(modules, differentials=None):
    # Z -1-> Z between degrees 1 and 0 unless the keys are given
    block = {"source": 0, "target": 0, "matrix": {"rows": 1, "cols": 1, "entries": [["1"]]}}
    return {"modules": {k: [["Z", 1]] for k in modules},
            "differentials": {k: {"blocks": [dict(block)]} for k in differentials or ()}}


def _true_block_index(payload):
    payload["differentials"]["1"]["blocks"][0]["source"] = True
    return payload


@pytest.mark.parametrize("argv, kind, payload, where", [
    (["snf"], "matrix", {"rows": True, "cols": 1, "entries": [["1"]]}, "$.payload.rows"),
    (["snf"], "matrix", {"rows": 1, "cols": True, "entries": [["1"]]}, "$.payload.cols"),
    (["homology"], "complex", {"modules": {"0": [["Z", True]]}, "differentials": {}},
     "$.payload.modules.0[0][1]"),
    (["cat", "roundtrip"], "complex", {"modules": {"0": [["Z", True]]}, "differentials": {}},
     "$.payload.modules.0[0][1]"),
    (["homology"], "complex", _true_block_index(_line_complex(("0", "1"), ("1",))),
     "$.payload.differentials.1.blocks[0].source"),
], ids=["rows", "cols", "rank", "rank-roundtrip", "block-index"])
def test_json_boolean_is_not_an_integer(tmp_path, argv, kind, payload, where):
    code, out, err = cli(*argv, _payload_doc(tmp_path, kind, payload))
    assert (code, out) == (2, "")
    assert err.startswith(f"schema error: {where}: expected int, got bool")


@pytest.mark.parametrize("entry, canonical", [
    (" 0.5e1 ", "5"), (" 3 ", "3"), ("+3", "3"), ("03", "3"), ("1_000", "1000"),
    ("2/4", "1/2"), ("0.5", "1/2"), ("1e2", "100"), ("-0", "0"), ("3/1", "3")])
def test_non_canonical_rational_entry(tmp_path, entry, canonical):
    code, out, err = cli("snf", _matrix_doc(tmp_path, entry))
    assert (code, out) == (2, "")
    assert err.startswith("schema error: $.payload.entries[0][0]: ")
    assert f"is not written as {canonical!r}" in err


@pytest.mark.parametrize("tag", ["Zp:02", "Zp: 3", "Zp:+5", "Zp:1_1", "Qp:\u0663", "Zp:x"])
def test_non_canonical_sort_tag(tmp_path, tag):
    payload = {"modules": {"0": [[tag, 1]]}, "differentials": {}}
    code, out, err = cli("cat", "roundtrip", _payload_doc(tmp_path, "complex", payload),
                         "--primes", "2,3,5")
    assert (code, out) == (2, "")
    assert err == (f"schema error: $.payload.modules.0[0][0]: sort tag {tag!r} "
                   "is not in the form tag() writes\n")


def test_zero_summand_is_refused(tmp_path):
    # no sort is Zero: a localization drops a killed summand, never writes it
    payload = _line_complex(("0", "1"), ("1",))
    payload["modules"]["1"] = [["Zero", 1], ["Z", 1]]
    code, out, err = cli("homology", _payload_doc(tmp_path, "complex", payload))
    assert (code, out) == (2, "")
    assert err == "schema error: $.payload.modules.1[0][0]: unknown sort kind 'Zero'\n"


NON_CANONICAL_DEGREES = ["1_0", "+1", "01", " 1"]


@pytest.mark.parametrize("key", NON_CANONICAL_DEGREES)
def test_non_canonical_module_key(tmp_path, key):
    code, out, err = cli("homology", _payload_doc(tmp_path, "complex", _line_complex((key,))))
    assert (code, out) == (2, "")
    assert err.startswith(f"schema error: $.payload.modules.{key}: ")
    assert "is not written as" in err


def test_two_spellings_of_one_degree_are_rejected(tmp_path):
    # "1" and "01" would both decode to degree 1, the later one silently winning
    payload = {"modules": {"1": [["Z", 1]], "01": [["Z", 2]]}, "differentials": {}}
    code, out, err = cli("homology", _payload_doc(tmp_path, "complex", payload))
    assert (code, out) == (2, "")
    assert err.startswith("schema error: $.payload.modules.01: ")


@pytest.mark.parametrize("key", NON_CANONICAL_DEGREES)
def test_non_canonical_differential_key(tmp_path, key):
    payload = _line_complex(("0", "1"), (key,))
    code, out, err = cli("homology", _payload_doc(tmp_path, "complex", payload))
    assert (code, out) == (2, "")
    assert err.startswith(f"schema error: $.payload.differentials.{key}: ")
    assert "is not written as" in err


@pytest.mark.parametrize("key", NON_CANONICAL_DEGREES)
def test_non_canonical_map_component_key(tmp_path, key):
    # an identity arrow of spheres in degree 1, its component key respelled
    z = SortedComplex.single(Z, 1, 1)
    d = PosetDiagram(subset_poset((1,)), {(): z, (1,): z}, {((), (1,)): ComplexMap.identity(z)})
    doc = serialize.wrap("diagram", d)
    comps = doc["payload"]["edges"][0]["components"]
    comps[key] = comps.pop("1")
    path = tmp_path / "arrow.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = cli("holim", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"schema error: $.payload.edges[0].components.{key}: ")
    assert "is not written as" in err


def test_split_of_a_face_glues_back_to_its_bytes(tmp_path):
    # the top face of a 3-label object lives on labels (2, 3): its split is
    # anchored at 2, not at the family's first index
    fam = LocalizationFamily((2, 3))
    rng = random.Random(5)
    for k in range(3):
        x = e_localize(random_complex(rng, deg_hi=2, max_rank=3), fam)
        top = split_fracture_object(fracture_diagram(x, fam)).top
        tpath = tmp_path / f"top{k}.json"
        spath = str(tmp_path / f"split{k}.json")
        tpath.write_text(json.dumps(serialize.wrap("fracture-object", top), indent=2,
                                    sort_keys=True) + "\n", encoding="utf-8")
        assert cli("cat", "split", str(tpath), "-o", spath)[0] == 0
        code, out, err = cli("cat", "glue", spath)
        assert (code, err) == (0, "")
        assert out == tpath.read_text(encoding="utf-8")


def test_poset_is_not_a_document_kind(tmp_path):
    # no command reads or writes a poset, so no document has that kind
    doc = {"version": "fracture/1", "kind": "poset",
           "payload": {"elements": ["1"], "leq": [[0, 0]]}}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["cat", "roundtrip", str(path)], ["emit-dot", str(path)]):
        assert cli(*argv) == (2, "", "schema error: $.kind: unknown kind 'poset'\n")
    with pytest.raises(SchemaError, match="unknown kind"):
        serialize.wrap("poset", subset_poset((1,)))


def _object_doc(tmp_path, primes, edit):
    fam = LocalizationFamily(primes)
    g = fracture_diagram(e_localize(SortedComplex.single(Z), fam), fam)
    doc = serialize.wrap("fracture-object", g)
    doc["payload"].update(edit)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("labels", [[3, 2, 1], [1, 1, 2, 3], [1, 2, 2, 3], []])
def test_object_labels_are_written_one_way(tmp_path, labels):
    # each of these would re-encode as [1, 2, 3], so none may decode
    path = _object_doc(tmp_path, (2, 3), {"labels": labels})
    code, out, err = cli("cat", "validate", path)
    assert (code, out) == (2, "")
    assert err.startswith("schema error: $.payload.labels: ")


@pytest.mark.parametrize("command", ["validate", "roundtrip", "split"])
def test_object_labels_outside_the_family(tmp_path, command):
    # a 4-label object read with the 3-index family of the primes 2 and 3
    path = _object_doc(tmp_path, (2, 3, 5), {"primes": [2, 3]})
    code, out, err = cli("cat", command, path)
    assert (code, out) == (2, "")
    assert err.startswith("schema error: $.payload: ")
    assert "not indices of the family" in err


def test_split_refuses_what_validate_refutes(tmp_path):
    # doubling the unit (3,) -> (1, 3) keeps the diagram functorial, since
    # the vertex (1, 2, 3) is zero; split must not restore the unit silently
    fam = LocalizationFamily((2, 3))
    g = fracture_diagram(e_localize(SortedComplex.single(Z), fam), fam)
    edges = dict(g.diagram.edges)
    e = edges[((3,), (1, 3))]
    edges[((3,), (1, 3))] = ComplexMap(e.source, e.target,
                                       {n: m.scale(2) for n, m in e.maps.items()})
    bad = FractureObject(PosetDiagram(g.diagram.shape, g.diagram.vertices, edges), fam)
    path = write_doc(tmp_path, "g.json", "fracture-object", bad)
    code, out, _ = cli("cat", "validate", path)
    assert code == 1
    assert "must be the localization unit" in out
    spath = tmp_path / "split.json"
    code, out, err = cli("cat", "split", path, "-o", str(spath))
    assert (code, out) == (2, "")
    assert "edge (3,) -> (1, 3): must be the localization unit" in err
    assert not spath.exists()
