"""The residue restriction of is_acyclic against its closed form.

Each residue check restricts every differential to the summands whose
sort survives. The package leaves out a differential with no surviving
summand at one end, which has rank 0, and reuses the matrix of one whose
two ends survive whole. The reference restricts every differential.
Both must give the same dimensions, the same matrix wherever the
reference's is nonzero, and the same reports.
"""

import random

import pytest

from fracturecube import sorted_complex
from fracturecube.exact_linalg import ExactMatrix
from fracturecube.fracture import LocalizationFamily, build_fracture_cube, e_localize
from fracturecube.holim import PosetDiagram, cube_totalization
from fracturecube.posets import subset_poset
from fracturecube.sorted_complex import (
    ZLOC,
    ComplexMap,
    SortedComplex,
    Z,
    _residue,
    is_acyclic,
)

from genutil import _scalar_cube, _upset_cube, random_complex, reference_residue

CUBE3 = (1, 2, 3)


def residues(primes):
    """The surviving sorts of each residue check of is_acyclic, in order."""
    for p in primes:
        yield lambda s, p=p: s.kind == "ZlocP" or (s.kind == "Zp" and s.prime == p)
    for p in primes:
        yield lambda s, p=p: s.kind in ("Zp", "Qp") and s.prime == p
    yield lambda s: s.kind in ("ZlocP", "Q")


def scaled_corner(x, c, fam):
    """The fracture cube of x with every edge out of the corner scaled by c."""
    cube = build_fracture_cube(e_localize(x, fam), fam)
    edges = {(a, b): ComplexMap(e.source, e.target,
                                {n: m.scale(c) for n, m in e.maps.items()}) if a == () else e
             for (a, b), e in cube.edges.items()}
    return PosetDiagram(cube.shape, cube.vertices, edges)


def cases():
    """(primes, totalization) pairs whose residues keep all, none or some."""
    rng = random.Random(57)
    shape = subset_poset(CUBE3)
    pairs = []
    # constant cubes scaled in every direction, as the refute benchmark
    # builds them, and a cube that is nonzero at its top only
    for k in (2, 3, 6):
        x = random_complex(rng, sort=ZLOC, deg_hi=2, max_rank=3)
        pairs.append(((2, 3), _scalar_cube(shape, CUBE3, x, {t: k for t in CUBE3})))
    x = random_complex(rng, sort=ZLOC, deg_hi=2, max_rank=3)
    pairs.append(((2, 3), _upset_cube(shape, CUBE3, CUBE3, x)))
    # fracture cubes of raw-Z inputs
    for primes in ((2,), (2, 3), (2, 3, 5)):
        fam = LocalizationFamily(primes)
        x = random_complex(rng, deg_hi=2, max_rank=3)
        pairs.append((primes, build_fracture_cube(e_localize(x, fam), fam)))
    # the scaled corners of the negative controls
    fam = LocalizationFamily((2, 3))
    for c in (2, 3, 5, 1, 0):
        pairs.append((fam.primes, scaled_corner(SortedComplex.single(Z), c, fam)))
    moore = SortedComplex.two_term(Z, ExactMatrix.from_rows([[6]]))
    pairs.append((fam.primes, scaled_corner(moore, 2, fam)))
    return [(primes, cube_totalization(d).complex) for primes, d in pairs]


CASES = cases()


def test_residues_keep_all_none_and_some():
    seen = set()
    for primes, c in CASES:
        for survives in residues(primes):
            dims, _ = reference_residue(c, survives)
            for n, d in c.diffs.items():
                kept = (dims[n - 1], dims[n])
                if 0 in kept:
                    seen.add("none")
                elif kept == (d.matrix.rows, d.matrix.cols):
                    seen.add("all")
                else:
                    seen.add("some")
    assert seen == {"all", "none", "some"}
    assert {is_acyclic(c, primes).acyclic for primes, c in CASES} == {True, False}


@pytest.mark.parametrize("k", range(len(CASES)))
def test_residue_matches_the_reference(k):
    primes, c = CASES[k]
    for survives in residues(primes):
        dims, mats = _residue(c, survives)
        want_dims, want_mats = reference_residue(c, survives)
        assert dims == want_dims
        for n, want in want_mats.items():
            if n in mats:
                assert mats[n] == want
            else:
                # no summand survives at one end
                assert 0 in (want.rows, want.cols)
        assert set(mats) <= set(want_mats)
        for n, m in mats.items():
            whole = c.diffs[n].matrix
            if (m.rows, m.cols) == (whole.rows, whole.cols):
                assert m is whole


@pytest.mark.parametrize("k", range(len(CASES)))
def test_reports_match_the_reference(k, monkeypatch):
    primes, c = CASES[k]
    got = is_acyclic(c, primes)
    monkeypatch.setattr(sorted_complex, "_residue", reference_residue)
    assert is_acyclic(c, primes) == got
