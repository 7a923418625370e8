"""The full-cube totalization against the corner-map construction.

A full cube totalized over all its vertices, the empty corner in level
-1, is the cone of the corner map into the punctured limit. The oracle
here is that cone, built the long way: the punctured limit, the corner
map from its legs, then cone and hofib. Cubes are seeded 1-, 2- and
3-cubes of three kinds: zero at the corner, Cartesian (limit
extensions), and random cubes, most of which the verifier refutes.
"""

import random

import pytest

from fracturecube.cube_categories import fracture_diagram, roundtrip_check
from fracturecube.fracture import (
    LocalizationFamily,
    build_fracture_cube,
    comparison_map,
    e_localize,
    verify_fracture,
)
from fracturecube.holim import (
    PosetDiagram,
    cube_totalization,
    homotopy_limit,
    initial_corner_cube,
    limit_extended_cube,
    map_between_totalizations,
    punctured_restriction,
    total_fiber,
)
from fracturecube.posets import subset_poset
from fracturecube.sorted_complex import (
    ComplexMap,
    SortedComplex,
    ZLOC,
    homology_p_local,
    is_acyclic,
)

from genutil import (
    _direct_sum_map,
    _face,
    random_complex,
    random_cube,
    reference_cone,
    reference_hofib,
    shift,
    tfib_direction_cube,
)

PRIMES = (2, 3)
LABELS = ((1,), (1, 2), (1, 2, 3))


def zero_corner(rng, labels):
    punct = random_cube(rng, labels, sort=ZLOC, max_rank=2, punctured=True)
    verts = {(): SortedComplex.zero(), **punct.vertices}
    return PosetDiagram(subset_poset(labels), verts, punct.edges)


def seeded_cubes():
    rng = random.Random(30)
    for labels in LABELS:
        yield "zero-corner", zero_corner(rng, labels)
        yield "zero-corner", initial_corner_cube(random_complex(rng, sort=ZLOC), labels)
        punct = random_cube(rng, labels, sort=ZLOC, max_rank=2, deg_hi=1, punctured=True)
        yield "cartesian", limit_extended_cube(punct)
        for _ in range(2):
            yield "random", random_cube(rng, labels, sort=ZLOC, max_rank=2)


CUBES = list(seeded_cubes())


def corner_map(d):
    """psi: the corner into the punctured limit, and that limit."""
    punct = punctured_restriction(d)
    hl = homotopy_limit(punct)
    legs = {s: d.hom((), s) for s in punct.shape.elements}
    return hl.cone_map(d.vertex(()), legs), hl


def shift_map(f, k):
    return ComplexMap(shift(f.source, k), shift(f.target, k),
                      {n + k: m for n, m in f.maps.items()})


def old_edge(d, rest, sp, sp2):
    """The direction-cube edge as the map of cones of the two corner maps."""
    f, hf = corner_map(_face(d, sp, rest))
    g, hg = corner_map(_face(d, sp2, rest))
    comps = {s: d.hom(tuple(sorted(s + sp)), tuple(sorted(s + sp2)))
             for s in subset_poset(rest).elements}
    u = comps.pop(())
    v = map_between_totalizations(hf, hg, comps)
    return shift_map(ComplexMap(reference_cone(f), reference_cone(g),
                                _direct_sum_map(shift_map(u, 1), v).maps), -1)


def test_seeded_cubes_cover_both_verdicts():
    verdicts = {kind: set() for kind, _ in CUBES}
    for kind, d in CUBES:
        verdicts[kind].add(is_acyclic(cube_totalization(d).complex, PRIMES).acyclic)
    assert verdicts["cartesian"] == {True}
    assert verdicts["zero-corner"] == {False}
    assert False in verdicts["random"]


@pytest.mark.parametrize("k", range(len(CUBES)))
def test_total_fiber_is_the_hofib_of_the_corner_map(k):
    _, d = CUBES[k]
    psi, _ = corner_map(d)
    # module equality compares the summand lists, so order and sorts too
    assert cube_totalization(d).complex == reference_cone(psi)
    assert total_fiber(d) == reference_hofib(psi)


@pytest.mark.parametrize("k", range(len(CUBES)))
def test_acyclicity_report_matches_the_quasi_iso_test(k):
    _, d = CUBES[k]
    psi, _ = corner_map(d)
    assert is_acyclic(cube_totalization(d).complex, PRIMES) == \
        is_acyclic(reference_cone(psi), PRIMES)


@pytest.mark.parametrize("k", [k for k, (_, d) in enumerate(CUBES)
                               if len(d.shape) > 2])
def test_direction_cube_edges_are_maps_of_cones(k):
    _, d = CUBES[k]
    labels = max(d.shape.elements, key=len)
    for tp in subset_poset(labels).elements:
        rest = tuple(x for x in labels if x not in tp)
        dc = tfib_direction_cube(d, tp)
        for (sp, sp2), e in dc.edges.items():
            assert e == old_edge(d, rest, sp, sp2), (tp, sp, sp2)


@pytest.mark.parametrize("primes", [(), (2,), (2, 3), (2, 3, 5)])
def test_verify_and_roundtrip_keep_the_corner_map_answers(primes):
    fam = LocalizationFamily(primes)
    rng = random.Random(31 + len(primes))
    for _ in range(2):
        x = random_complex(rng, deg_hi=2, max_rank=3)
        data, _ = comparison_map(x, fam)
        old = is_acyclic(reference_cone(data.eta), primes)
        rep = verify_fracture(x, fam)
        assert (rep.verdict, rep.checks) == (old.acyclic, old.checks)
        assert rep.limit_homology == homology_p_local(data.source, primes)
        # the round trip on a complex: its canonical map into the limit
        lx = e_localize(x, fam)
        g = fracture_diagram(lx, fam)
        cube = build_fracture_cube(lx, fam)
        legs = {s: cube.hom((), s) for s in g.diagram.shape.elements}
        eta = homotopy_limit(g.diagram).cone_map(lx, legs)
        assert roundtrip_check(lx, fam) == is_acyclic(reference_cone(eta), primes).acyclic
