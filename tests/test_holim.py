import random
from fractions import Fraction

import pytest

from fracturecube.exact_linalg import (
    AbelianInvariants,
    ExactMatrix,
    InputError,
    integer_homology_at,
)
from fracturecube.posets import FinitePoset, canonical_subset, subset_poset
from fracturecube.sorted_complex import (
    RATIONALIZE,
    ComplexMap,
    Q,
    SortedComplex,
    SortedMap,
    Z,
    ZLOC,
    apply_localization,
    canonical_unit,
    chain_map_group,
    complete,
    direct_sum,
    homology_p_local,
    is_acyclic,
    localize_chain_map_tables,
)
from fracturecube.fracture import (
    LocalizationFamily,
    build_fracture_cube,
    e_localize,
)
from fracturecube.holim import (
    PosetDiagram,
    adjunction_check,
    attach_localization,
    cube_labels,
    cube_totalization,
    homotopy_limit,
    initial_corner_cube,
    is_cartesian,
    is_quasi_iso,
    limit_extended_cube,
    localize_diagram,
    map_between_totalizations,
    nerve_limit,
    punctured_limit_recursive,
    punctured_restriction,
    strict_limit,
    strict_total_fiber,
    total_fiber,
    total_fiber_iterated,
)

from genutil import (
    _face,
    _upset_cube,
    nerve_total_fiber,
    random_complex,
    random_cube,
    reference_hofib,
    sum_inclusions,
    tfib_direction_cube,
    unit_of_tables,
    vertex_projection,
)

PRIMES = (2, 3)


def sphere(sort=Z):
    return SortedComplex.single(sort)


def scalar_map(c, k):
    return ComplexMap._trusted(
        c, c, {n: SortedMap.identity(m).scale(k) for n, m in c.modules.items()})


def cospan_diagram(a, b, c, f, g):
    """Punctured square with f: a -> c and g: b -> c."""
    shape = subset_poset((1, 2), punctured=True)
    return PosetDiagram(shape, {(1,): a, (2,): b, (1, 2): c},
                        {((1,), (1, 2)): f, ((2,), (1, 2)): g})


class TestPosetDiagram:
    def test_functoriality_enforced(self):
        z = sphere()
        shape = subset_poset((1, 2), punctured=False)
        verts = {s: z for s in shape.elements}
        edges = {}
        for (x, y) in shape.covering_pairs():
            edges[(x, y)] = ComplexMap.identity(z)
        edges[((1,), (1, 2))] = scalar_map(z, 2)
        with pytest.raises(InputError, match="disagree"):
            PosetDiagram(shape, verts, edges)

    def test_zero_edges_filled_in(self):
        d = initial_corner_cube(sphere(), (1, 2))
        assert d.vertex(()) == sphere()
        assert d.vertex((1, 2)).is_zero_complex()

    def test_zero_vertices_not_stored(self):
        # an element with no stored vertex reads as zero, one outside the
        # shape does not
        shape = subset_poset((1, 2))
        d = PosetDiagram(shape, {}, {})
        assert not d.vertices and not d.edges
        assert all(d.vertex(s).is_zero_complex() for s in shape.elements)
        assert d.hom((), (1, 2)).maps == {}
        assert initial_corner_cube(sphere(), (1, 2)).vertices == {(): sphere()}
        with pytest.raises(KeyError):
            d.vertex((3,))

    def test_stray_edges_rejected(self):
        z = sphere()
        shape = subset_poset((1, 2), punctured=False)
        verts = {s: z for s in shape.elements}
        edges = {k: ComplexMap.identity(z) for k in shape.covering_pairs()}
        for stray in (((), (1, 2)), ((1,), ())):
            with pytest.raises(InputError, match="not a covering pair"):
                PosetDiagram(shape, verts, {**edges, stray: scalar_map(z, 7)})

    def test_covering_hom_is_the_edge(self):
        # a covering pair has one path: hom hands back the stored edge, and
        # the zero map between the pair's vertices where none is stored
        rng = random.Random(3)
        cube = random_cube(rng, (1, 2, 3))
        checked = PosetDiagram(cube.shape, cube.vertices, cube.edges)
        trusted = build_fracture_cube(random_complex(rng, deg_hi=2, max_rank=3),
                                      LocalizationFamily(PRIMES))
        absent = 0
        for d in (checked, trusted):
            for (x, y) in d.shape.covering_pairs():
                if (x, y) in d.edges:
                    assert d.hom(x, y) is d.edges[(x, y)]
                else:
                    absent += 1
                    f = d.hom(x, y)
                    assert f.source is d.vertex(x) and f.target is d.vertex(y)
                    assert f.maps == {}
        assert absent

    def test_cube_labels_validation(self):
        d = initial_corner_cube(sphere(), (1, 2))
        assert cube_labels(d, punctured=False) == (1, 2)
        with pytest.raises(InputError):
            cube_labels(punctured_restriction(d), punctured=False)


def _chain_ordered(elements, value):
    """value at every element of a chain, joined by identities."""
    shape = FinitePoset(elements, [(a, b) for i, a in enumerate(elements)
                                   for b in elements[i + 1:]])
    ident = ComplexMap.identity(value)
    return PosetDiagram(shape, {x: value for x in elements},
                        {pair: ident for pair in shape.covering_pairs()})


class TestCubeShape:
    # a subset poset's elements in their order, but ordered as a chain
    def test_chain_ordered_cube_refused(self):
        d = _chain_ordered([(), (1,), (2,), (1, 2)], sphere())
        for entry in (cube_totalization, total_fiber, lambda d: is_cartesian(d, PRIMES),
                      punctured_restriction, lambda d: tfib_direction_cube(d, (1,))):
            with pytest.raises(InputError, match=r"shape is not the full subset poset "
                                                 r"on \(1, 2\)"):
                entry(d)
        # the nerve of a chain of four
        assert len(homotopy_limit(d).cells) == 15

    def test_chain_ordered_punctured_square_refused(self):
        d = _chain_ordered([(1,), (2,), (1, 2)], sphere())
        for entry in (limit_extended_cube, lambda d: punctured_limit_recursive(d, 1)):
            with pytest.raises(InputError, match=r"shape is not the punctured subset "
                                                 r"poset on \(1, 2\)"):
                entry(d)
        assert homotopy_limit(d).cells == nerve_limit(d).cells
        assert len(homotopy_limit(d).cells) == 7
        square = PosetDiagram(subset_poset((1, 2), punctured=True), d.vertices, {
            pair: ComplexMap.identity(sphere()) for pair in [((1,), (1, 2)), ((2,), (1, 2))]})
        assert homotopy_limit(square).cells == [(1,), (2,), (1, 2)]

    def test_no_larger_subset_poset_built(self):
        # a top of 13 labels on three elements: refused, not sent to the cap
        big = tuple(range(1, 14))
        shape = FinitePoset([(), (1,), big], [((), (1,)), ((), big), ((1,), big)])
        d = PosetDiagram(shape, {x: SortedComplex.zero() for x in shape.elements}, {})
        with pytest.raises(InputError, match="shape is not the full subset poset"):
            cube_labels(d, punctured=False)
        assert len(homotopy_limit(d).cells) == len(nerve_limit(d).cells)


class TestAttachLocalization:
    @pytest.mark.parametrize("table", [RATIONALIZE, complete(2)])
    @pytest.mark.parametrize("label, labels, punctured", [
        (1, (2, 3), False), (4, (1, 2), False), (1, (2, 3), True), (2, (1, 3), True)])
    def test_the_diagram_its_localization_and_the_units(self, table, label, labels,
                                                       punctured):
        d = random_cube(random.Random(label), labels, punctured=punctured)
        out = attach_localization(d, table, label)
        loc = localize_diagram(d, table)
        up = {s: canonical_subset(s + (label,)) for s in d.shape.elements}
        whole = subset_poset(labels + (label,))
        assert out.shape == whole.subposet(list(up) + list(up.values()))
        for s, c in d.vertices.items():
            assert out.vertex(s) == c
            assert out.vertex(up[s]) == loc.vertex(s)
            assert out.edges[(s, up[s])] == canonical_unit(c, table)
        for (a, b), e in d.edges.items():
            assert out.edges[(a, b)] == e
            assert out.edges[(up[a], up[b])] == loc.edges[(a, b)]

    def test_label_already_in_a_vertex_rejected(self):
        d = initial_corner_cube(sphere(), (1, 2))
        with pytest.raises(InputError, match="label 2 already occurs"):
            attach_localization(d, RATIONALIZE, 2)

    @pytest.mark.parametrize("table", [RATIONALIZE, complete(2)])
    @pytest.mark.parametrize("upset", [False, True], ids=["corner", "upset"])
    def test_zero_vertices_stay_zero(self, table, upset):
        # the zero vertices are not localized, and their images and the
        # edges at them are zero
        x = random_complex(random.Random(7), deg_hi=2, max_rank=3)
        labels = (2, 3)
        d = (_upset_cube(subset_poset(labels), labels, (3,), x) if upset
             else initial_corner_cube(x, labels))
        assert any(d.vertex(s).is_zero_complex() for s in d.shape.elements)
        out, loc = attach_localization(d, table, 1), localize_diagram(d, table)
        assert out.shape is subset_poset((1,) + labels)
        # only nonzero vertices and nonzero edges on covering pairs are stored
        assert all(c.modules for c in out.vertices.values())
        assert set(out.edges) <= set(out.shape.covering_pairs())
        assert all(e.maps for e in out.edges.values())
        for s in d.shape.elements:
            c, up = d.vertex(s), canonical_subset(s + (1,))
            assert out.vertex(up) == loc.vertex(s) == apply_localization(c, table)
            assert out.hom(s, up) == canonical_unit(c, table)
        for (a, b) in d.shape.covering_pairs():
            want = localize_chain_map_tables(d.hom(a, b), (table,))
            assert out.hom(canonical_subset(a + (1,)), canonical_subset(b + (1,))) \
                == loc.hom(a, b) == want

    def test_shape_of_non_labels_rejected(self):
        x = sphere()
        d = PosetDiagram(FinitePoset("ab", [("a", "b")]), {"a": x, "b": x},
                         {("a", "b"): ComplexMap.identity(x)})
        with pytest.raises(InputError, match="'a' is not a sorted label tuple"):
            attach_localization(d, RATIONALIZE, 1)

    def test_label_that_does_not_sort_is_named(self):
        d = initial_corner_cube(sphere(), (1,))
        with pytest.raises(InputError, match="label 'z' does not sort with the labels"):
            attach_localization(d, RATIONALIZE, "z")


class TestHomotopyLimit:
    def test_minimum_computes_limit(self):
        rng = random.Random(0)
        c = random_complex(rng, sort=ZLOC, deg_hi=2)
        shape = subset_poset((1, 2), punctured=False)
        u = canonical = scalar_map(c, 1)
        verts = {s: c for s in shape.elements}
        edges = {k: canonical for k in
                 [(x, y) for (x, y) in shape.covering_pairs()]}
        d = PosetDiagram(shape, verts, edges)
        hl = homotopy_limit(d)
        assert homology_p_local(hl.complex, PRIMES) == homology_p_local(c, PRIMES)
        # the projection leg to the minimum is the quasi-isomorphism
        assert is_quasi_iso(hl.legs[()], PRIMES).acyclic

    def test_loop_object(self):
        b = random_complex(random.Random(1), deg_hi=3)
        zero = SortedComplex.zero()
        d = cospan_diagram(zero, zero, b,
                           ComplexMap.zero(zero, b), ComplexMap.zero(zero, b))
        hl = homotopy_limit(d)
        hb = homology_p_local(b)
        assert homology_p_local(hl.complex) == {n - 1: v for n, v in hb.items()}

    def test_integer_pullback_square(self):
        z = sphere()
        d = cospan_diagram(z, z, z, scalar_map(z, 1), scalar_map(z, 2))
        hl = homotopy_limit(d)
        # pullback {(a, c) : a = 2c} is free of rank one, nothing in degree -1
        assert homology_p_local(hl.complex) == {0: AbelianInvariants(1)}

    def test_legs_commute_up_to_homotopy_only(self):
        rng = random.Random(2)
        g = random_cube(rng, (1, 2), sort=ZLOC, punctured=True)
        hl = homotopy_limit(g)
        assert any(e.compose(hl.legs[x]) != hl.legs[y] for (x, y), e in g.edges.items())
        for x in g.shape.elements:
            # legs are genuine chain maps even though the cone is homotopy level
            ComplexMap(hl.complex, g.vertex(x), hl.legs[x].maps)


class TestCubeEngine:
    """The vertex-indexed totalization against the nerve as oracle."""

    def cubes(self):
        rng = random.Random(18)
        for labels in ((1, 2), (1, 2, 3)):
            for _ in range(3):
                yield random_cube(rng, labels, sort=ZLOC, max_rank=3)

    def test_limit_homology_matches_nerve(self):
        for d in self.cubes():
            g = punctured_restriction(d)
            assert homology_p_local(homotopy_limit(g).complex, PRIMES) == \
                homology_p_local(nerve_limit(g).complex, PRIMES)

    def test_total_fiber_matches_nerve(self):
        for d in self.cubes():
            assert homology_p_local(total_fiber(d), PRIMES) == \
                homology_p_local(nerve_total_fiber(d), PRIMES)

    def test_one_summand_per_vertex(self):
        for d in self.cubes():
            g = punctured_restriction(d)
            assert homotopy_limit(g).complex.total_rank() == \
                sum(g.vertex(s).total_rank() for s in g.shape.elements)

    def test_fracture_cube(self):
        fam = LocalizationFamily((2, 3))
        x = random_complex(random.Random(19), deg_hi=2, max_rank=3)
        g = punctured_restriction(build_fracture_cube(x, fam))
        lx = e_localize(x, fam)
        legs = {s: unit_of_tables(lx, fam.tables_for(s)) for s in g.shape.elements}
        for engine in (homotopy_limit, nerve_limit):
            assert is_quasi_iso(engine(g).cone_map(lx, legs), fam.primes).acyclic
        assert homotopy_limit(g).complex.total_rank() == \
            sum(g.vertex(s).total_rank() for s in g.shape.elements)

    def test_full_cube_uses_nerve(self):
        d = random_cube(random.Random(20), (1, 2), sort=ZLOC)
        assert homotopy_limit(d).complex == nerve_limit(d).complex

    def test_empty_punctured_cube(self):
        g = punctured_restriction(initial_corner_cube(sphere(), ()))
        assert homotopy_limit(g).complex == SortedComplex.zero()


class TestStrictLimit:
    def test_one_object(self):
        c = random_complex(random.Random(3), sort=ZLOC)
        shape = subset_poset((1,), punctured=True)
        lim = strict_limit(PosetDiagram(shape, {(1,): c}, {}))
        assert homology_p_local(lim.complex, PRIMES) == homology_p_local(c, PRIMES)

    def test_antichain_is_product(self):
        rng = random.Random(4)
        a = random_complex(rng, deg_hi=2)
        b = random_complex(rng, deg_hi=2)
        from fracturecube.posets import FinitePoset
        shape = FinitePoset(("x", "y"), [("x", "x"), ("y", "y")])
        lim = strict_limit(PosetDiagram(shape, {"x": a, "y": b}, {}))
        assert homology_p_local(lim.complex) == homology_p_local(direct_sum(a, b))

    def test_cospan_kernel(self):
        z = sphere()
        d = cospan_diagram(z, z, z, scalar_map(z, 1), scalar_map(z, 2))
        lim = strict_limit(d)
        assert homology_p_local(lim.complex) == {0: AbelianInvariants(1)}
        for (x, y), e in d.edges.items():
            assert e.compose(lim.legs[x]) == lim.legs[y]

    def test_factor_cone(self):
        # the pullback of Z -> Z <- Z along 1 and 2 is Z with legs (2, 1, 2),
        # so the cone (2, 1, 2) factors through it by the identity
        z = sphere()
        d = cospan_diagram(z, z, z, scalar_map(z, 1), scalar_map(z, 2))
        lim = strict_limit(d)
        legs = {(1,): scalar_map(z, 2), (2,): scalar_map(z, 1),
                (1, 2): scalar_map(z, 2)}
        assert lim.complex == z and lim.legs == legs

    def test_strict_agrees_with_holim_for_surjective_cospans(self):
        rng = random.Random(5)
        for _ in range(5):
            b = random_complex(rng, sort=ZLOC, deg_hi=2, max_rank=3)
            k1 = random_complex(rng, sort=ZLOC, deg_hi=2, max_rank=2)
            k2 = random_complex(rng, sort=ZLOC, deg_hi=2, max_rank=2)
            s1, _, _, p1, _ = sum_inclusions(b, k1)
            s2, _, _, p2, _ = sum_inclusions(b, k2)
            d = cospan_diagram(s1, s2, b, p1, p2)
            lim = strict_limit(d)
            hl = homotopy_limit(d)
            assert homology_p_local(lim.complex, PRIMES) == \
                homology_p_local(hl.complex, PRIMES)


    @pytest.mark.parametrize("sort, k", [(Q, Fraction(1, 2)), (ZLOC, Fraction(2, 5))])
    def test_unit_denominators(self, sort, k):
        # Q --1/2--> Q and ZlocP --2/5--> ZlocP: denominators that are units
        c = sphere(sort)
        d = PosetDiagram(subset_poset((1,)), {(): c, (1,): c},
                         {((), (1,)): scalar_map(c, k)})
        lim = strict_limit(d)
        assert lim.complex == c
        assert d.hom((), (1,)).compose(lim.legs[()]) == lim.legs[(1,)]
        if sort == Q:
            assert lim.legs == {(): scalar_map(c, 2), (1,): scalar_map(c, 1)}
        assert strict_total_fiber(d)[0] == SortedComplex.zero()
        assert adjunction_check(c, d, PRIMES)


class TestCallerDataChecked:
    """Maps assembled from caller legs and components check their endpoints."""

    def setup_method(self):
        z = sphere()
        self.z = z
        self.d = cospan_diagram(z, z, z, scalar_map(z, 1), scalar_map(z, 2))
        two = SortedComplex.single(Z, 2)
        # a nonzero map from the wrong apex: Z^2 -> Z
        self.wrong = ComplexMap(two, z, {0: SortedMap(two.module(0), z.module(0), {
            (0, 0): ExactMatrix.from_rows([[1, 1]])})})

    def test_cone_legs(self):
        legs = {x: self.wrong for x in self.d.shape.elements}
        with pytest.raises(InputError, match="wrong endpoints"):
            homotopy_limit(self.d).cone_map(self.z, legs)

    def test_totalization_components(self):
        hl = homotopy_limit(self.d)
        comps = {x: ComplexMap.identity(self.z) for x in self.d.shape.elements}
        assert map_between_totalizations(hl, hl, comps) == ComplexMap.identity(hl.complex)
        comps[(1, 2)] = self.wrong
        with pytest.raises(InputError, match="wrong endpoints"):
            map_between_totalizations(hl, hl, comps)

    def test_missing_component_names_the_vertex(self):
        hl = homotopy_limit(self.d)
        with pytest.raises(InputError, match=r"missing component at vertex \(1,\)"):
            map_between_totalizations(hl, hl, {})
        comps = {x: ComplexMap.identity(self.z) for x in self.d.shape.elements}
        del comps[(1, 2)]
        with pytest.raises(InputError, match=r"missing component at vertex \(1, 2\)"):
            map_between_totalizations(hl, hl, comps)

    def test_missing_leg_names_the_vertex(self):
        hl = homotopy_limit(punctured_restriction(initial_corner_cube(self.z, (1, 2))))
        with pytest.raises(InputError, match=r"missing leg at vertex \(1,\)"):
            hl.cone_map(self.z, {})
        zero = SortedComplex.zero()
        with pytest.raises(InputError, match=r"missing leg at vertex \(2,\)"):
            hl.cone_map(self.z, {(1,): ComplexMap.zero(self.z, zero)})

    def test_full_cube_totalization_has_no_legs(self):
        arrow = PosetDiagram(subset_poset((1,)), {(): self.z, (1,): self.z},
                             {((), (1,)): ComplexMap.identity(self.z)})
        with pytest.raises(InputError, match="full cube's totalization has no legs"):
            cube_totalization(arrow).legs


def label_free_diagram(elements):
    """Spheres and identities over elements ordered by inclusion."""
    def leq(x, y):
        return x <= y if isinstance(x, int) else set(x) <= set(y)
    shape = FinitePoset(elements, [(x, y) for x in elements for y in elements if leq(x, y)])
    z = sphere(ZLOC)
    return PosetDiagram(shape, {x: z for x in elements},
                        {e: ComplexMap.identity(z) for e in shape.covering_pairs()})


FULL_ENTRIES = {
    "total_fiber": total_fiber,
    "cube_totalization": cube_totalization,
    "is_cartesian": lambda d: is_cartesian(d, PRIMES),
    "tfib_direction_cube": lambda d: tfib_direction_cube(d, ()),
    "total_fiber_iterated": lambda d: total_fiber_iterated(d, ()),
}
PUNCTURED_ENTRIES = {
    "limit_extended_cube": limit_extended_cube,
    "punctured_limit_recursive": lambda d: punctured_limit_recursive(d, 1),
}


class TestShapesOfLabels:
    """A shape whose elements are not label tuples is an input error."""

    @pytest.mark.parametrize("entry", FULL_ENTRIES)
    @pytest.mark.parametrize("elements", [[0, 1], [(), (1,), ("a",), (1, "a")]],
                             ids=["int", "incomparable"])
    def test_full_cube_entry_points(self, entry, elements):
        with pytest.raises(InputError, match="is not an iterable of labels"):
            FULL_ENTRIES[entry](label_free_diagram(elements))

    @pytest.mark.parametrize("entry", PUNCTURED_ENTRIES)
    @pytest.mark.parametrize("elements", [[1, 2], [(1,), ("a",), (1, "a")]],
                             ids=["int", "incomparable"])
    def test_punctured_cube_entry_points(self, entry, elements):
        with pytest.raises(InputError, match="is not an iterable of labels"):
            PUNCTURED_ENTRIES[entry](label_free_diagram(elements))

    @pytest.mark.parametrize("labels", [5, None, [[1]], (1, "a")],
                             ids=["int", "none", "unhashable", "incomparable"])
    def test_initial_corner_cube(self, labels):
        with pytest.raises(InputError, match="is not an iterable of labels"):
            initial_corner_cube(sphere(), labels)


class TestInitialCornerCube:
    def test_zero(self):
        d = initial_corner_cube(SortedComplex.zero(), (1, 2))
        assert not d.vertices
        assert all(d.vertex(s).is_zero_complex() for s in d.shape.elements)

    def test_arrow(self):
        d = initial_corner_cube(sphere(), (1,))
        assert d.vertex(()) == sphere()
        assert d.vertex((1,)).is_zero_complex()

    def test_square(self):
        d = initial_corner_cube(sphere(), (1, 2))
        nonzero = [s for s in d.shape.elements if not d.vertex(s).is_zero_complex()]
        assert nonzero == [()]


class TestTotalFiber:
    def test_in_empty_recovers_object(self):
        rng = random.Random(6)
        x = random_complex(rng, sort=ZLOC, deg_hi=3)
        tf = total_fiber(initial_corner_cube(x, (1, 2)))
        assert homology_p_local(tf, PRIMES) == homology_p_local(x, PRIMES)

    def test_identity_square_acyclic(self):
        z = sphere(ZLOC)
        shape = subset_poset((1, 2), punctured=False)
        verts = {s: z for s in shape.elements}
        edges = {k: ComplexMap.identity(z) for k in shape.covering_pairs()}
        d = PosetDiagram(shape, verts, edges)
        assert is_acyclic(total_fiber(d), PRIMES).acyclic

    def test_multiplication_square_oracle(self):
        # square with Z at the empty and {1} corners, edge p, zeros elsewhere
        p = 3
        z = sphere()
        zero = SortedComplex.zero()
        shape = subset_poset((1, 2), punctured=False)
        verts = {(): z, (1,): z, (2,): zero, (1, 2): zero}
        edges = {((), (1,)): scalar_map(z, p)}
        d = PosetDiagram(shape, verts, edges)
        tf = total_fiber(d)
        # oracle: brute-force total complex of fib(Z -p-> Z)
        oracle = integer_homology_at(ExactMatrix.from_rows([[p]]),
                                     ExactMatrix.zeros(0, 1))
        assert homology_p_local(tf) == {-1: oracle}

    def test_zero_cube_is_object(self):
        x = random_complex(random.Random(7), deg_hi=2)
        d = initial_corner_cube(x, ())
        assert total_fiber(d) == x


class TestIteratedFiber:
    def test_empty_direction_is_literal(self):
        d = random_cube(random.Random(8), (1, 2), sort=ZLOC)
        assert total_fiber_iterated(d, ()) == total_fiber(d)

    def test_full_direction_matches(self):
        d = random_cube(random.Random(9), (1, 2), sort=ZLOC)
        lhs = total_fiber_iterated(d, (1, 2))
        assert homology_p_local(lhs, PRIMES) == \
            homology_p_local(total_fiber(d), PRIMES)

    def test_random_three_cubes_all_subsets(self):
        rng = random.Random(10)
        for _ in range(3):
            d = random_cube(rng, (1, 2, 3), sort=ZLOC, max_rank=3)
            want = homology_p_local(total_fiber(d), PRIMES)
            for tp in [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]:
                got = homology_p_local(total_fiber_iterated(d, tp), PRIMES)
                assert got == want, tp

    def test_rejects_non_subset(self):
        d = random_cube(random.Random(11), (1, 2), sort=ZLOC)
        with pytest.raises(InputError):
            total_fiber_iterated(d, (3,))

    @pytest.mark.parametrize("t_prime", [2, None, [[1]], (1, "a")],
                             ids=["int", "none", "unhashable", "incomparable"])
    def test_rejects_a_direction_set_that_is_not_labels(self, t_prime):
        d = random_cube(random.Random(11), (1, 2), sort=ZLOC)
        for f in (tfib_direction_cube, total_fiber_iterated):
            with pytest.raises(InputError, match="is not an iterable of labels"):
                f(d, t_prime)


class TestCartesian:
    def test_limit_extension_is_cartesian(self):
        rng = random.Random(12)
        g = random_cube(rng, (1, 2), sort=ZLOC, punctured=True)
        assert is_cartesian(limit_extended_cube(g), PRIMES)

    def test_in_empty_rational_not_cartesian(self):
        assert not is_cartesian(initial_corner_cube(sphere(Q), (1, 2)), PRIMES)

    def test_extension_vertices_project_quasi_isomorphically(self):
        rng = random.Random(13)
        g = random_cube(rng, (1, 2), sort=ZLOC, punctured=True)
        ext = limit_extended_cube(g)
        for s in g.shape.elements:
            leg = vertex_projection(ext, g, s)
            assert is_quasi_iso(leg, PRIMES).acyclic

    def test_direction_fibers_of_cartesian_cubes(self):
        rng = random.Random(14)
        for _ in range(2):
            g = random_cube(rng, (1, 2, 3), sort=ZLOC, max_rank=2, deg_hi=1,
                            punctured=True)
            ext = limit_extended_cube(g)
            for t in (1, 2, 3):
                rest = tuple(x for x in (1, 2, 3) if x != t)
                assert is_cartesian(tfib_direction_cube(ext, rest), PRIMES)


class TestRecursiveLimit:
    def test_two_labels_is_literal_pullback(self):
        z = sphere()
        d = cospan_diagram(z, z, z, scalar_map(z, 1), scalar_map(z, 2))
        rec = punctured_limit_recursive(d, 1)
        # hofib of the difference map out of G({2}) + G({1})
        assert rec.module(0).total_rank == 2
        assert rec.module(-1).total_rank == 1
        assert homology_p_local(rec) == {0: AbelianInvariants(1)}

    def test_constant_diagram(self):
        rng = random.Random(15)
        b = random_complex(rng, sort=ZLOC, deg_hi=2)
        shape = subset_poset((1, 2, 3), punctured=True)
        verts = {s: b for s in shape.elements}
        edges = {k: ComplexMap.identity(b) for k in shape.covering_pairs()}
        g = PosetDiagram(shape, verts, edges)
        for t in (1, 2, 3):
            rec = punctured_limit_recursive(g, t)
            assert homology_p_local(rec, PRIMES) == homology_p_local(b, PRIMES)

    def test_matches_direct_totalization(self):
        rng = random.Random(16)
        for _ in range(3):
            g = random_cube(rng, (1, 2, 3), sort=ZLOC, max_rank=3, punctured=True)
            want = homology_p_local(nerve_limit(g).complex, PRIMES)
            for t in (1, 2, 3):
                got = homology_p_local(punctured_limit_recursive(g, t), PRIMES)
                assert got == want, t

    def test_equals_the_closed_form(self):
        # the inputs of acceptance criterion 5; the closed form is
        # hofib(phi proj_A - psi proj_G) out of the sum A + G({t})
        rng = random.Random(5)
        for _ in range(100):
            g = random_cube(rng, (1, 2, 3), sort=ZLOC, deg_hi=2, max_rank=3,
                            pieces=2, punctured=True)
            for t in (1, 2, 3):
                rest = tuple(x for x in (1, 2, 3) if x != t)
                a_diag = _face(g, (), rest, punctured=True)
                b_diag = _face(g, (t,), rest, punctured=True)
                a, b = homotopy_limit(a_diag), homotopy_limit(b_diag)
                c = g.vertex((t,))
                phi = map_between_totalizations(
                    a, b, {s: g.hom(s, canonical_subset(s + (t,)))
                           for s in a_diag.shape.elements})
                psi = b.cone_map(c, {s: g.hom((t,), canonical_subset(s + (t,)))
                                     for s in b_diag.shape.elements})
                _, _, _, proj_a, proj_c = sum_inclusions(a.complex, c)
                want = reference_hofib(phi.compose(proj_a) - psi.compose(proj_c))
                assert punctured_limit_recursive(g, t) == want, t

    def test_needs_two_labels(self):
        shape = subset_poset((1,), punctured=True)
        g = PosetDiagram(shape, {(1,): sphere()}, {})
        with pytest.raises(InputError):
            punctured_limit_recursive(g, 1)


class TestAdjunction:
    def test_trivial_cases(self):
        d = initial_corner_cube(sphere(), (1,))
        assert adjunction_check(sphere(), d, PRIMES)
        assert adjunction_check(SortedComplex.zero(), d, PRIMES)

    def test_random_two_cubes(self):
        rng = random.Random(17)
        for _ in range(10):
            d = random_cube(rng, (1, 2), sort=ZLOC, max_rank=3)
            x = random_complex(rng, sort=ZLOC, deg_hi=2, max_rank=2)
            assert adjunction_check(x, d, PRIMES)

    def test_random_two_cubes_with_maps(self):
        # larger cubes and sources, so that the groups compared are not all zero
        rng = random.Random(17)
        ranks = []
        for _ in range(8):
            d = random_cube(rng, (1, 2), sort=ZLOC, max_rank=3, pieces=4)
            x = random_complex(rng, sort=ZLOC, deg_hi=2, max_rank=3)
            assert adjunction_check(x, d, PRIMES)
            ranks.append(chain_map_group(x, strict_total_fiber(d)[0]).rank)
        assert sum(r > 0 for r in ranks) >= 3, ranks
