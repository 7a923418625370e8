import io
import json
import random

import pytest

from fracturecube import serialize
from fracturecube.cli import emit_dot, run
from fracturecube.cube_categories import fracture_diagram
from fracturecube.exact_linalg import ExactMatrix
from fracturecube.fracture import LocalizationFamily, build_fracture_cube, e_localize
from fracturecube.posets import subset_poset
from fracturecube.serialize import SchemaError
from fracturecube.sorted_complex import Q, SortedComplex, Z

from genutil import random_complex, random_cube


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

    def test_poset_round_trip(self):
        p = subset_poset((1, 2), punctured=True)
        _, back = serialize.unwrap(serialize.wrap("poset", p))
        assert len(back) == 3
        assert back.leq("1", "1,2")

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
