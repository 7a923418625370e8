"""Objects the package builds without checks must pass the public checks.

Builders whose output is valid by construction skip the constructor
checks (d^2 = 0, the chain-map identity, functoriality, block shapes and
sort maps, exact nonzero entries). Each test here runs such builders on
seeded inputs and sends every output back through the public
constructor, which re-derives all of those invariants.
"""

import random
from fractions import Fraction

import pytest

from fracturecube.cube_categories import (
    GeneratorData,
    anchored_supersets,
    build_from_generators,
    diagram_functor,
    fracture_diagram,
    glue_fracture_object,
    split_fracture_object,
    validate_fracture_object,
)
from fracturecube.exact_linalg import ExactMatrix, InputError
from fracturecube.fracture import (
    LocalizationFamily,
    build_fracture_cube,
    comparison_map,
    completion_pair_square,
    e_localize,
)
from fracturecube.holim import (
    PosetDiagram,
    attach_localization,
    cone,
    cube_totalization,
    hofib,
    homotopy_limit,
    initial_corner_cube,
    limit_extended_cube,
    localize_diagram,
    map_between_totalizations,
    nerve_limit,
    punctured_limit_recursive,
    punctured_restriction,
    strict_limit,
    strict_total_fiber,
    tfib_direction_cube,
)
from fracturecube.posets import subset_poset
from fracturecube.sorted_complex import (
    LOCALIZE,
    RATIONALIZE,
    ComplexMap,
    SortedComplex,
    SortedMap,
    Z,
    ZLOC,
    apply_localization,
    canonical_unit,
    complete,
    direct_sum,
    localize_chain_map_tables,
)

from genutil import (
    _face,
    apply_tables,
    assert_canonical,
    leg_compatibility,
    random_chain_map,
    random_complex,
    random_cube,
    shift,
    sum_inclusions,
    unit_of_tables,
)

TABLES = (RATIONALIZE, LOCALIZE, complete(2), complete(3))


def recheck_matrix(m: ExactMatrix):
    # the public constructor drops zeros and reduces to the canonical form
    again = ExactMatrix(m.rows, m.cols, dict(m.items()))
    assert again == m
    assert_canonical(m)


def recheck_sorted_map(f: SortedMap):
    recheck_matrix(f.matrix)
    assert (f.matrix.rows, f.matrix.cols) == (f.target.total_rank, f.source.total_rank)
    assert SortedMap(f.source, f.target, f.blocks()) == f
    assert SortedMap.from_dense(f.source, f.target, f.matrix) == f


def recheck_complex(c: SortedComplex):
    for d in c.diffs.values():
        recheck_sorted_map(d)
    assert SortedComplex(c.modules, c.diffs) == c


def recheck_map(f: ComplexMap):
    recheck_complex(f.source)
    recheck_complex(f.target)
    for m in f.maps.values():
        recheck_sorted_map(m)
    assert ComplexMap(f.source, f.target, f.maps) == f


def recheck_diagram(d: PosetDiagram):
    for c in d.vertices.values():
        recheck_complex(c)
    for e in d.edges.values():
        recheck_map(e)
    again = PosetDiagram(d.shape, d.vertices, d.edges)
    assert again.edges == d.edges


def seeded_maps(seed, count=6):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        a = random_complex(rng, deg_hi=3, max_rank=3)
        b = random_complex(rng, deg_hi=3, max_rank=3)
        out.append((rng, random_chain_map(rng, a, b)))
    return out


def seeded_cubes(seed, labels, count=3, sort=Z):
    rng = random.Random(seed)
    return [random_cube(rng, labels, sort=sort) for _ in range(count)]


class TestMatrixBuilders:
    def test_matrix_operations(self):
        rng = random.Random(14)
        for _ in range(30):
            r, k, c = (rng.randint(0, 4) for _ in range(3))
            a, b, e = (ExactMatrix(x, y, {(i, j): Fraction(rng.randint(-2, 2),
                                                            rng.randint(1, 3))
                                          for i in range(x) for j in range(y)})
                       for x, y in ((r, k), (k, c), (r, k)))
            rows = [i for i in range(r) if rng.random() < 0.6]
            pieces = [(0, 0, a), (1, k, b), (0, 0, -a)]
            for m in (a * b, a + e, a - e, a - a, a.scale(0), a.scale(Fraction(-3, 2)),
                      a.transpose(), a.submatrix(rows, range(k)),
                      ExactMatrix.assemble(max(r, k + 1), k + c, pieces)):
                recheck_matrix(m)

    def test_sorted_map_algebra(self):
        for rng, f in seeded_maps(15):
            g = random_chain_map(rng, f.source, f.target)
            for n, m in f.maps.items():
                for h in (m + g.map_at(n), m - m, m.scale(2), -m,
                          SortedMap.identity(m.target).compose(m),
                          SortedMap.zero(m.source, m.target)):
                    recheck_sorted_map(h)


class TestSortedComplexBuilders:
    def test_shift_cone_sum(self):
        for rng, f in seeded_maps(1):
            for k in (-1, 1, 2):
                recheck_complex(shift(f.source, k))
            recheck_complex(cone(f))
            recheck_complex(hofib(f))
            recheck_complex(direct_sum(f.source, f.target))
            _, *parts = sum_inclusions(f.source, f.target)
            for part in parts:
                recheck_map(part)

    def test_map_algebra(self):
        for rng, f in seeded_maps(2):
            g = random_chain_map(rng, f.source, f.target)
            for h in (f + g, f - g, -f, ComplexMap.identity(f.source),
                      ComplexMap.zero(f.source, f.target),
                      ComplexMap.identity(f.target).compose(f)):
                recheck_map(h)

    def test_localizations_and_units(self):
        for rng, f in seeded_maps(4):
            for table in TABLES:
                recheck_complex(apply_localization(f.source, table))
                recheck_map(localize_chain_map_tables(f, [table]))
                recheck_map(canonical_unit(f.source, table))

    @pytest.mark.parametrize("primes", [(2,), (2, 3), (2, 3, 5)])
    def test_table_lists(self, primes):
        fam = LocalizationFamily(primes)
        for rng, f in seeded_maps(16 + len(primes), count=3):
            for s in subset_poset(fam.labels()).elements:
                recheck_complex(apply_tables(f.source, fam.tables_for(s)))
                recheck_map(localize_chain_map_tables(f, fam.tables_for(s)))


class TestHolimBuilders:
    def test_totalizations(self):
        for d in seeded_cubes(5, (1, 2)):
            punct = punctured_restriction(d)
            recheck_diagram(punct)
            for hl in (homotopy_limit(punct), nerve_limit(d)):
                recheck_complex(hl.complex)
                for leg in hl.legs.values():
                    recheck_map(leg)
            hl = homotopy_limit(punct)
            recheck_map(map_between_totalizations(
                hl, hl, {s: ComplexMap.identity(punct.vertex(s))
                         for s in punct.shape.elements}))
            # cone_map trusts strict legs: the corner map's are composites
            recheck_map(hl.cone_map(d.vertex(()), {s: d.hom((), s)
                                                   for s in punct.shape.elements}))

    def test_strict_limits(self):
        for d in seeded_cubes(6, (1, 2)):
            lim = strict_limit(d)
            recheck_complex(lim.complex)
            for leg in lim.legs.values():
                recheck_map(leg)
            fib, inclusion = strict_total_fiber(d)
            recheck_complex(fib)
            recheck_map(inclusion)

    def test_cube_builders(self):
        for d in seeded_cubes(7, (1, 2, 3), count=2, sort=ZLOC):
            for tp in ((), (1,), (2, 3), (1, 2, 3)):
                recheck_diagram(tfib_direction_cube(d, tp))
            punct = punctured_restriction(d)
            recheck_diagram(limit_extended_cube(punct))
            # phi is placed trusted; a wrong block would break d^2 = 0 here
            for t in (1, 2, 3):
                recheck_complex(punctured_limit_recursive(punct, t))
            recheck_complex(cube_totalization(d).complex)
            recheck_diagram(_face(d, (2,), (1, 3)))
            recheck_diagram(_face(punct, (2,), (1, 3), punctured=True))
            for table in TABLES:
                recheck_diagram(localize_diagram(d, table))
        x = random_complex(random.Random(8), deg_hi=2)
        recheck_diagram(initial_corner_cube(x, (1, 2)))


class TestFractureBuilders:
    @pytest.mark.parametrize("primes", [(), (2,), (2, 3), (2, 3, 5)])
    def test_fracture_cube_and_comparison(self, primes):
        fam = LocalizationFamily(primes)
        rng = random.Random(9 + len(primes))
        for _ in range(3):
            x = random_complex(rng, deg_hi=3, max_rank=4)
            cube = build_fracture_cube(x, fam)
            recheck_diagram(cube)
            # the vertex at S is the ordered composite localization at S
            for s in cube.shape.elements:
                assert cube.vertex(s) == apply_tables(x, fam.tables_for(s))
            data, hl = comparison_map(x, fam)
            recheck_map(data.eta)
            assert data.source == e_localize(x, fam)
            assert leg_compatibility(data, hl)
            for i, leg in data.legs.items():
                assert leg == unit_of_tables(data.source, fam.tables_for((i,)))

    def test_completion_pair_square(self):
        x = random_complex(random.Random(13), deg_hi=2)
        recheck_diagram(completion_pair_square(x, 2, 3))


class TestCubeCategoryBuilders:
    # these build fracture objects and pushed diagrams without validating
    # their output: the object conditions hold by construction
    def test_attach_localization(self):
        for d in seeded_cubes(17, (2, 3)):
            for table in TABLES:
                recheck_diagram(attach_localization(d, table, 1))
                recheck_diagram(attach_localization(punctured_restriction(d), table, 4))

    @pytest.mark.parametrize("primes", [(2,), (2, 3), (2, 3, 5)])
    def test_object_builders(self, primes):
        fam = LocalizationFamily(primes)
        t = fam.labels()
        subsets = [u for u in subset_poset(t).elements if u]
        rng = random.Random(18 + len(primes))
        for _ in range(2):
            g = fracture_diagram(e_localize(random_complex(rng, deg_hi=2, max_rank=3),
                                            fam), fam)
            # any scalar multiple of a mixing map gives another object
            maps = {}
            for i in t:
                for j in t[i:]:
                    f, c = g.diagram.hom((i,), (i, j)), rng.randint(-3, 3)
                    maps[(i, j)] = ComplexMap(f.source, f.target,
                                              {n: m.scale(c) for n, m in f.maps.items()})
            gen = GeneratorData({i: g.vertex((i,)) for i in t}, maps)
            obj = build_from_generators(gen, fam)
            glued = glue_fracture_object(split_fracture_object(obj), fam)
            for o in (obj, glued):
                recheck_diagram(o.diagram)
                assert validate_fracture_object(o) == []
            for s2 in subsets:
                for s in subsets:
                    if set(s) <= set(s2):
                        d = obj.diagram.restrict(anchored_supersets(s, t).elements)
                        recheck_diagram(diagram_functor(s, s2, d, fam))


class TestPublicConstructorsReject:
    # d^2 != 0, path composites and stray edges: test_sorted_complex and
    # test_holim
    def test_not_a_chain_map(self):
        c = SortedComplex.two_term(Z, ExactMatrix.from_rows([[2]]))
        half = {0: SortedMap.identity(c.module(0))}
        with pytest.raises(InputError, match="not a chain map"):
            ComplexMap(c, c, half)

    def test_check_false_is_gone(self):
        z = SortedComplex.single(Z)
        shape = subset_poset((1,))
        edges = {((), (1,)): ComplexMap.identity(z)}
        with pytest.raises(TypeError):
            PosetDiagram(shape, {(): z, (1,): z}, edges, check=False)
        with pytest.raises(TypeError):
            ComplexMap(z, z, {}, check=False)
