"""The command line's bytes are pinned for a fixed list of invocations.

Each case runs one command on documents built from fixed seeds and
compares the sha256 of its stdout, its stderr and its -o file, and its
exit code, with tests/cli_golden.json. The temporary directory is
replaced by "<tmp>" before hashing. After an intended output change,
regenerate the file with

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from fracturecube import serialize
from fracturecube.cli import run
from fracturecube.cube_categories import (
    FractureObject,
    GeneratorData,
    build_from_generators,
    fracture_diagram,
    split_fracture_object,
)
from fracturecube.exact_linalg import ExactMatrix
from fracturecube.fracture import LocalizationFamily, e_localize
from fracturecube.holim import PosetDiagram
from fracturecube.posets import subset_poset
from fracturecube.sorted_complex import (
    Q,
    ComplexMap,
    SortedComplex,
    SortedMap,
    Z,
    ZLOC,
    Zp,
    apply_localization,
)

from genutil import random_complex, random_cube

GOLDEN = Path(__file__).with_name("cli_golden.json")

# (name, argv, -o file or None); "{tmp}/" prefixes a file in the work directory
CASES = [
    ("snf", ["snf", "{tmp}/m.json"], None),
    ("snf-o", ["snf", "{tmp}/m.json", "-o", "{tmp}/snf.out"], "snf.out"),
    ("homology-z", ["homology", "{tmp}/x.json"], None),
    ("homology-zloc", ["homology", "{tmp}/xloc.json", "--primes", "2,3"], None),
    ("holim-cube", ["holim", "{tmp}/cube.json"], None),
    ("holim-punctured", ["holim", "{tmp}/pcube.json"], None),
    ("holim-cube3", ["holim", "{tmp}/cube3.json"], None),
    ("tfib-cube", ["tfib", "{tmp}/cube.json"], None),
    ("tfib-cube3-o", ["tfib", "{tmp}/cube3.json", "-o", "{tmp}/tfib.out"], "tfib.out"),
    ("check-initial-3-2", ["poset", "check-initial", "--T", "3", "--t", "2"], None),
    ("check-initial-4-1", ["poset", "check-initial", "--T", "4", "--t", "1"], None),
    ("build", ["fracture", "build", "{tmp}/x.json", "--primes", "2,3"], None),
    ("verify", ["fracture", "verify", "{tmp}/x.json", "--primes", "2,3"], None),
    ("verify-o", ["fracture", "verify", "{tmp}/x.json", "--primes", "2,3,5",
                  "-o", "{tmp}/verify.out"], "verify.out"),
    ("validate", ["cat", "validate", "{tmp}/g.json"], None),
    ("validate-refuted", ["cat", "validate", "{tmp}/bad_g.json"], None),
    ("roundtrip-object", ["cat", "roundtrip", "{tmp}/g.json"], None),
    ("roundtrip-complex", ["cat", "roundtrip", "{tmp}/xloc.json", "--primes", "2"], None),
    ("split", ["cat", "split", "{tmp}/g.json", "-o", "{tmp}/split.json"], "split.json"),
    ("glue", ["cat", "glue", "{tmp}/split.json"], None),
    ("dot", ["emit-dot", "{tmp}/cube.json"], None),
    ("dot-homology", ["emit-dot", "{tmp}/cube.json", "--homology", "--primes", "2,3"], None),
    ("dot-object", ["emit-dot", "{tmp}/g.json"], None),
    ("dot-category-cube", ["emit-dot", "--category-cube", "3"], None),
    ("error-missing-file", ["homology", "{tmp}/missing.json"], None),
    ("error-schema", ["homology", "{tmp}/bad_schema.json"], None),
    ("error-primes", ["fracture", "verify", "{tmp}/x.json", "--primes", "2,x"], None),
    ("error-kind", ["homology", "{tmp}/m.json"], None),
    ("error-cap", ["holim", "{tmp}/cube7.json"], None),
    ("error-empty", ["holim", "{tmp}/empty.json"], None),
    ("error-denominator", ["fracture", "verify", "{tmp}/xbad.json", "--primes", "2"], None),
    ("error-tfib-punctured", ["tfib", "{tmp}/pcube.json"], None),
    ("roundtrip-refuted", ["cat", "roundtrip", "{tmp}/bad_g.json"], None),
    ("error-usage", ["snf"], None),
    ("validate-face", ["cat", "validate", "{tmp}/face.json"], None),
    ("roundtrip-face", ["cat", "roundtrip", "{tmp}/face.json"], None),
    ("split-face", ["cat", "split", "{tmp}/face.json", "-o", "{tmp}/split_face.json"],
     "split_face.json"),
    ("glue-face", ["cat", "glue", "{tmp}/split_face.json"], None),
    ("validate-mixed", ["cat", "validate", "{tmp}/mixed.json"], None),
    ("roundtrip-mixed", ["cat", "roundtrip", "{tmp}/mixed.json"], None),
    ("split-mixed", ["cat", "split", "{tmp}/mixed.json", "-o", "{tmp}/split_mixed.json"],
     "split_mixed.json"),
    ("glue-mixed", ["cat", "glue", "{tmp}/split_mixed.json"], None),
]


def _write(tmp: Path, name: str, doc):
    (tmp / name).write_text(json.dumps(doc), encoding="utf-8")


def _raw_object() -> FractureObject:
    # raw Z spheres on a punctured square: every locality condition fails
    shape = subset_poset((1, 2), punctured=True)
    z = SortedComplex.single(Z)
    d = PosetDiagram(shape, {s: z for s in shape.elements},
                     {k: ComplexMap.identity(z) for k in shape.covering_pairs()})
    return FractureObject(d, LocalizationFamily((2,)))


def _mixed_object() -> FractureObject:
    # generators with nonzero mixing maps out of the first index
    fam = LocalizationFamily((2, 3))
    x1, x2 = SortedComplex.single(Q), SortedComplex.single(Zp(2))
    x3 = SortedComplex.single(Zp(3), rank=2)
    l1x2 = apply_localization(x2, fam.table(1))
    l1x3 = apply_localization(x3, fam.table(1))
    f12 = ComplexMap(x1, l1x2, {0: SortedMap(
        x1.module(0), l1x2.module(0), {(0, 0): ExactMatrix.from_rows([[3]])})})
    f13 = ComplexMap(x1, l1x3, {0: SortedMap(
        x1.module(0), l1x3.module(0), {(0, 0): ExactMatrix.from_rows([[1], [2]])})})
    f23 = ComplexMap.zero(x2, apply_localization(x3, fam.table(2)))
    return build_from_generators(GeneratorData(
        {1: x1, 2: x2, 3: x3}, {(1, 2): f12, (1, 3): f13, (2, 3): f23}), fam)


def write_documents(tmp: Path):
    rng = random.Random(20)
    m = ExactMatrix.from_rows([[rng.randint(-9, 9) for _ in range(4)] for _ in range(5)])
    _write(tmp, "m.json", serialize.wrap("matrix", m))
    x = random_complex(rng, deg_hi=3, max_rank=4)
    _write(tmp, "x.json", serialize.wrap("complex", x))
    _write(tmp, "xloc.json", serialize.wrap(
        "complex", random_complex(rng, sort=ZLOC, deg_hi=3, max_rank=4)))
    _write(tmp, "cube.json", serialize.wrap("diagram", random_cube(rng, (1, 2), sort=ZLOC)))
    _write(tmp, "pcube.json", serialize.wrap(
        "diagram", random_cube(rng, (1, 2), sort=ZLOC, punctured=True)))
    _write(tmp, "cube3.json", serialize.wrap(
        "diagram", random_cube(rng, (1, 2, 3), sort=ZLOC, max_rank=2)))
    fam = LocalizationFamily((2, 3))
    g = fracture_diagram(e_localize(random_complex(rng, deg_hi=2, max_rank=3), fam), fam)
    _write(tmp, "g.json", serialize.wrap("fracture-object", g))
    _write(tmp, "face.json", serialize.wrap("fracture-object", split_fracture_object(g).top))
    _write(tmp, "mixed.json", serialize.wrap("fracture-object", _mixed_object()))
    _write(tmp, "bad_g.json", serialize.wrap("fracture-object", _raw_object()))
    bad = serialize.wrap("complex", x)
    bad["payload"]["extra"] = 1
    _write(tmp, "bad_schema.json", bad)
    xbad = serialize.wrap("complex", SortedComplex.two_term(
        Z, ExactMatrix.from_rows([[1, "1/2"]])))
    _write(tmp, "xbad.json", xbad)
    keys = [",".join(str(t) for t in range(1, 8) if mask >> (t - 1) & 1)
            for mask in range(2 ** 7)]
    _write(tmp, "cube7.json", {"version": "fracture/1", "kind": "diagram",
                               "payload": {"vertices": {k: {"modules": {}, "differentials": {}}
                                                        for k in keys}, "edges": []}})
    _write(tmp, "empty.json", {"version": "fracture/1", "kind": "diagram",
                               "payload": {"vertices": {}, "edges": []}})


def _digest(text: str, tmp: Path) -> str:
    return hashlib.sha256(text.replace(str(tmp), "<tmp>").encode()).hexdigest()


def run_cases(tmp: Path) -> dict:
    """Write the documents into tmp and run every case in order."""
    write_documents(tmp)
    results = {}
    for name, argv, out_file in CASES:
        argv = [a.replace("{tmp}", str(tmp)) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        code = run(argv, out, err)
        path = tmp / out_file if out_file else None
        file_text = path.read_text(encoding="utf-8") if path and path.exists() else None
        results[name] = {
            "code": code,
            "stdout": _digest(out.getvalue(), tmp),
            "stderr": _digest(err.getvalue(), tmp),
            "file": None if file_text is None else _digest(file_text, tmp),
        }
    return results


def _fixed_environment(mp):
    mp.delenv("FRACTURE_MAX_T", raising=False)
    mp.setenv("COLUMNS", "80")


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        _fixed_environment(mp)
        return run_cases(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", [name for name, _, _ in CASES])
def test_cli_bytes_match_golden(results, name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert results[name] == golden[name]


def test_no_case_reaches_the_pure_python_encoder(tmp_path, monkeypatch):
    # json falls back to its pure-Python encoder when asked to indent
    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder was called")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    _fixed_environment(monkeypatch)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run_cases(tmp_path) == golden


def test_golden_covers_every_case():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(name for name, _, _ in CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli_golden.py --write")
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        _fixed_environment(mp)
        res = run_cases(Path(tmp))
    GOLDEN.write_text(json.dumps(res, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(res)} cases to {GOLDEN}")
