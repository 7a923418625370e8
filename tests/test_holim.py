import random

import pytest

from fracturecube.exact_linalg import (
    AbelianInvariants,
    ExactMatrix,
    InputError,
    integer_homology_at,
)
from fracturecube.posets import subset_poset
from fracturecube.sorted_complex import (
    ComplexMap,
    Q,
    SortedComplex,
    SortedMap,
    Z,
    ZLOC,
    direct_sum,
    homology_p_local,
    is_acyclic,
    is_quasi_iso,
)
from fracturecube.holim import (
    PosetDiagram,
    adjunction_check,
    cube_labels,
    homotopy_limit,
    initial_corner_cube,
    is_cartesian,
    limit_extended_cube,
    punctured_limit_recursive,
    punctured_restriction,
    strict_limit,
    tfib_direction_cube,
    total_fiber,
    total_fiber_iterated,
    vertex_projection,
)

from genutil import random_complex, random_cube

PRIMES = (2, 3)


def sphere(sort=Z):
    return SortedComplex.single(sort)


def scalar_map(c, k):
    return ComplexMap(
        c, c, {n: SortedMap.identity(m).scale(k) for n, m in c.modules.items()},
        check=False)


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

    def test_cube_labels_validation(self):
        d = initial_corner_cube(sphere(), (1, 2))
        assert cube_labels(d, punctured=False) == (1, 2)
        with pytest.raises(InputError):
            cube_labels(punctured_restriction(d), punctured=False)


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
        assert is_quasi_iso(hl.cone.legs[()], PRIMES).acyclic

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
        assert not hl.cone.strict
        for x in g.shape.elements:
            # legs are genuine chain maps even though the cone is homotopy level
            ComplexMap(hl.complex, g.vertex(x), hl.cone.legs[x].maps)


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
        assert lim.cone.check_strict(d)

    def test_factor_cone(self):
        z = sphere()
        d = cospan_diagram(z, z, z, scalar_map(z, 1), scalar_map(z, 2))
        lim = strict_limit(d)
        legs = {(1,): scalar_map(z, 2), (2,): scalar_map(z, 1),
                (1, 2): scalar_map(z, 2)}
        u = lim.factor_cone(z, legs, d)
        for x in d.shape.elements:
            assert lim.cone.legs[x].compose(u) == legs[x]

    def test_strict_agrees_with_holim_for_surjective_cospans(self):
        from fracturecube.sorted_complex import sum_inclusions
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


class TestInitialCornerCube:
    def test_zero(self):
        d = initial_corner_cube(SortedComplex.zero(), (1, 2))
        assert all(c.is_zero_complex() for c in d.vertices.values())

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
        d = PosetDiagram(shape, verts, edges, check=True)
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
            want = homology_p_local(homotopy_limit(g).complex, PRIMES)
            for t in (1, 2, 3):
                got = homology_p_local(punctured_limit_recursive(g, t), PRIMES)
                assert got == want, t

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
