import random
from fractions import Fraction

import pytest

from fracturecube.exact_linalg import AbelianInvariants, ExactMatrix, InputError
from fracturecube.fracture import (
    LocalizationFamily,
    build_fracture_cube,
    comparison_map,
    completion_pair_square,
    e_localize,
    localization_collapse_check,
    rational_pair_square,
    verify_fracture,
)
from fracturecube.holim import (
    PosetDiagram,
    cube_totalization,
    hofib,
    is_cartesian,
    is_quasi_iso,
    limit_extended_cube,
    localize_diagram,
    punctured_restriction,
)
from fracturecube.posets import canonical_subset
from fracturecube.sorted_complex import (
    LOCALIZE,
    Q,
    Qp,
    SortedComplex,
    Z,
    ZLOC,
    Zp,
    ComplexMap,
    apply_localization,
    complete,
    homology_p_local,
    is_acyclic,
    is_local,
)

from genutil import (
    apply_tables,
    composite_kills_all,
    leg_compatibility,
    random_complex,
    sum_inclusions,
    tfib_direction_cube,
)


def moore(k):
    return SortedComplex.two_term(Z, ExactMatrix.from_rows([[k]]))


class TestFamily:
    @pytest.mark.parametrize("primes", [(), (2,), (2, 3), (2, 3, 5), (2, 3, 5, 7),
                                        (2, 3, 5, 7, 11)])
    def test_orthogonality_validated(self, primes):
        # orthogonal by construction, so the constructor does not re-check it
        fam = LocalizationFamily(primes)
        assert fam.size == len(primes) + 1
        for j in range(1, fam.size + 1):
            for i in range(1, j):
                assert composite_kills_all(fam.table(j), fam.table(i), fam.primes)

    def test_reverse_order_would_fail(self):
        # completion then rationalization leaves the Qp line alive
        assert not composite_kills_all(RATIONALIZE := LocalizationFamily((2,)).table(1),
                                       complete(2), (2,))

    def test_rejects_bad_primes(self):
        with pytest.raises(InputError):
            LocalizationFamily((4,))
        with pytest.raises(InputError):
            LocalizationFamily((3, 2))

    def test_degenerate_family(self):
        fam = LocalizationFamily(())
        assert fam.size == 1
        assert fam.table(1).kind == "rationalize"


class TestELocalize:
    def test_rational_input_unchanged(self):
        fam = LocalizationFamily((2,))
        x = SortedComplex.single(Q)
        assert e_localize(x, fam) == x
        assert is_local(x, LOCALIZE)

    def test_sphere(self):
        fam = LocalizationFamily((2,))
        assert e_localize(SortedComplex.single(Z), fam) == \
            SortedComplex.single(ZLOC)

    def test_six_torsion(self):
        fam = LocalizationFamily((2, 3))
        lx = e_localize(moore(6), fam)
        assert lx.sorts() == {ZLOC}
        assert homology_p_local(lx, (2, 3)) == {0: AbelianInvariants(0, (6,))}


class TestBuildCube:
    def test_base_case(self):
        fam = LocalizationFamily(())
        cube = build_fracture_cube(SortedComplex.single(Z), fam)
        assert cube.vertex(()) == SortedComplex.single(Z)
        assert cube.vertex((1,)) == SortedComplex.single(Q)

    def test_two_primes_three_indices_vertices(self):
        fam = LocalizationFamily((2, 3))
        cube = build_fracture_cube(SortedComplex.single(Z), fam)
        want = {(): Z, (1,): Q, (2,): Zp(2), (3,): Zp(3),
                (1, 2): Qp(2), (1, 3): Qp(3)}
        for s, sort in want.items():
            assert cube.vertex(s) == SortedComplex.single(sort), s
        assert cube.vertex((2, 3)).is_zero_complex()
        assert cube.vertex((1, 2, 3)).is_zero_complex()

    def test_vertex_identity_on_random_input(self):
        fam = LocalizationFamily((2, 3))
        rng = random.Random(0)
        x = random_complex(rng, deg_hi=3)
        cube = build_fracture_cube(x, fam)
        for s in cube.shape.elements:
            assert cube.vertex(s) == apply_tables(x, fam.tables_for(s))

    def test_max_set_restriction_matches_rebuilt_cube(self):
        # the face of sets with a fixed maximum is the cube of the smaller family
        fam = LocalizationFamily((2, 3))
        rng = random.Random(1)
        x = random_complex(rng, deg_hi=2)
        cube = build_fracture_cube(x, fam)
        k = 3
        face = [s for s in cube.shape.elements if s and max(s) == k]
        for s in face:
            below = tuple(i for i in s if i < k)
            expected = apply_tables(cube.vertex((k,)), fam.tables_for(below))
            assert cube.vertex(s) == expected


class TestComparison:
    def test_degenerate_family_eta_identity_like(self):
        fam = LocalizationFamily(())
        x = SortedComplex.single(Z)
        data, _ = comparison_map(x, fam)
        assert data.source == SortedComplex.single(ZLOC)
        # one-point punctured cube: the limit is the vertex itself
        assert data.limit == SortedComplex.single(Q)
        assert is_quasi_iso(data.eta, ()).acyclic

    def test_zero_input(self):
        fam = LocalizationFamily((2,))
        data, _ = comparison_map(SortedComplex.zero(), fam)
        assert data.source.is_zero_complex()
        assert data.eta.is_zero()

    def test_arithmetic_square_map(self):
        fam = LocalizationFamily((2,))
        data, hl = comparison_map(SortedComplex.single(Z), fam)
        assert data.source == SortedComplex.single(ZLOC)
        assert leg_compatibility(data, hl)
        assert {s.tag() for s in data.limit.sorts()} == {"Zp:2", "Qp:2", "Q"}


class TestVerifyFracture:
    def test_arithmetic_square(self):
        rep = verify_fracture(SortedComplex.single(Z), LocalizationFamily((2,)))
        assert rep.verdict
        assert rep.limit_homology == {0: AbelianInvariants(1)}
        kinds = [c.kind for c in rep.checks]
        assert kinds == ["mod-p", "rational-completed", "rational"]

    def test_moore_complex_trivial_branches(self):
        rep = verify_fracture(moore(2), LocalizationFamily((2, 3)))
        assert rep.verdict
        assert rep.limit_homology == {0: AbelianInvariants(0, (2,))}
        by = {(c.kind, c.prime): c for c in rep.checks}
        assert by[("mod-p", 3)].passed and by[("rational-completed", 3)].passed

    def test_acyclic_input(self):
        rep = verify_fracture(moore(1), LocalizationFamily((2,)))
        assert rep.verdict
        assert rep.limit_homology == {}

    def test_rejects_non_integer_sorts(self):
        with pytest.raises(InputError):
            verify_fracture(SortedComplex.single(ZLOC), LocalizationFamily((2,)))

    def test_random_suite_small(self):
        rng = random.Random(2)
        for _ in range(10):
            x = random_complex(rng, deg_hi=4, max_rank=6)
            for primes in ((2,), (2, 3)):
                rep = verify_fracture(x, LocalizationFamily(primes))
                assert rep.verdict


class TestCollapse:
    def test_sphere_two_indices(self):
        fam = LocalizationFamily((2,))
        x = SortedComplex.single(Z)
        r2 = localization_collapse_check(x, fam, 2)
        assert r2.passed
        assert r2.vanishing  # sets reaching below 2 must vanish
        r1 = localization_collapse_check(x, fam, 1)
        assert r1.passed
        assert r1.vanishing == {}  # nothing lies below the first index

    def test_zero_input(self):
        fam = LocalizationFamily((2,))
        r = localization_collapse_check(SortedComplex.zero(), fam, 2)
        assert r.passed

    def test_three_index_family(self):
        fam = LocalizationFamily((2, 3))
        x = moore(6)
        for i in (1, 2, 3):
            assert localization_collapse_check(x, fam, i).passed, i

    def test_direction_fibers_are_the_index_edges(self):
        # the direction cube's vertex S' is the homotopy fiber of the edge
        # S' -> S' + (i,), so edge_equivalences decides every direction fiber
        # away from the corner and conclusion the one at it
        for x, primes in ((SortedComplex.single(Z), (2,)), (SortedComplex.zero(), (2,)),
                          (moore(6), (2, 3))):
            fam = LocalizationFamily(primes)
            ext = limit_extended_cube(punctured_restriction(build_fracture_cube(x, fam)))
            for i in fam.labels():
                loc = localize_diagram(ext, fam.table(i))
                fibers = tfib_direction_cube(loc, tuple(l for l in fam.labels() if l != i))
                edges = {s: canonical_subset(s + (i,)) for s in fibers.shape.elements}
                for s, s2 in edges.items():
                    assert fibers.vertex(s) == hofib(loc.hom(s, s2)), (i, s)
                report = localization_collapse_check(x, fam, i)
                assert set(report.edge_equivalences) == {(s, s2) for s, s2 in edges.items()
                                                         if s}

    def test_index_range_checked(self):
        fam = LocalizationFamily((2,))
        with pytest.raises(InputError):
            localization_collapse_check(SortedComplex.single(Z), fam, 3)


class TestLocalizedCubeCartesian:
    def test_localized_sphere_cube_is_cartesian(self):
        # the inductive cube built on the jointly localized sphere is
        # Cartesian, for one and for two primes
        for primes in ((2,), (2, 3)):
            fam = LocalizationFamily(primes)
            lx = e_localize(SortedComplex.single(Z), fam)
            cube = build_fracture_cube(lx, fam)
            assert is_cartesian(cube, primes)


class TestPairSquares:
    def test_rational_pair_square(self):
        for p in (2, 3, 5):
            sq = rational_pair_square(SortedComplex.single(Z), p)
            assert is_cartesian(sq, (p,))

    def test_completion_pair_square(self):
        sq = completion_pair_square(SortedComplex.single(Z), 2, 5)
        assert sq.vertex((1, 2)).is_zero_complex()
        assert is_cartesian(sq, (2, 5))

    def test_completion_corner_is_the_product(self):
        # the corner is xq + xp, and its two edges are the projections
        rng = random.Random(4)
        for _ in range(3):
            x = random_complex(rng, deg_hi=3, max_rank=4)
            xp, xq = (apply_localization(x, complete(p)) for p in (2, 3))
            sq = completion_pair_square(x, 2, 3)
            total, _, _, proj_q, proj_p = sum_inclusions(xq, xp)
            assert sq.vertex(()) == total
            assert (sq.vertex((1,)), sq.vertex((2,))) == (xq, xp)
            assert sq.hom((), (1,)) == proj_q and sq.hom((), (2,)) == proj_p

    def test_completion_pair_needs_distinct_primes(self):
        with pytest.raises(InputError):
            completion_pair_square(SortedComplex.single(Z), 3, 3)

    def test_pair_squares_validate_their_input(self):
        # 1/2 is no map of Z: refused as by every other fracture entry point
        x = SortedComplex.two_term(Z, ExactMatrix.from_rows([[Fraction(1, 2)]]))
        msg = r"input complex invalid: block \(0,0\): denominator 2 not a unit in Z"
        with pytest.raises(InputError, match=msg):
            verify_fracture(x, LocalizationFamily((3,)))
        with pytest.raises(InputError, match=msg):
            rational_pair_square(x, 3)
        with pytest.raises(InputError, match=msg):
            completion_pair_square(x, 3, 5)

    def test_pair_squares_on_random_inputs(self):
        rng = random.Random(3)
        for _ in range(5):
            x = random_complex(rng, deg_hi=3, max_rank=4)
            assert is_cartesian(rational_pair_square(x, 2), (2,))
            assert is_cartesian(completion_pair_square(x, 2, 3), (2, 3))


class TestNegativeControls:
    """Defects planted on purpose must be refuted, in the right residue.

    Every edge out of the corner of the fracture cube of a local complex
    is scaled by c; the cube stays a diagram (rebuilt through the public,
    checking constructor) but is Cartesian only when c is a P-local unit.
    """

    @staticmethod
    def failing_checks(x, c, fam):
        cube = build_fracture_cube(e_localize(x, fam), fam)
        edges = {(a, b): ComplexMap(e.source, e.target,
                                    {n: m.scale(c) for n, m in e.maps.items()}) if a == () else e
                 for (a, b), e in cube.edges.items()}
        planted = PosetDiagram(cube.shape, cube.vertices, edges)
        rep = is_acyclic(cube_totalization(planted).complex, fam.primes)
        failing = {(k.kind, k.prime): k.defects for k in rep.checks if not k.passed}
        assert rep.acyclic == (not failing)
        return failing

    @pytest.mark.parametrize("c, failing", [
        (2, {("mod-p", 2): ((0, 1), (1, 1))}),
        (3, {("mod-p", 3): ((0, 1), (1, 1))}),
        (5, {}),
        (1, {}),
        (0, {("mod-p", 2): ((0, 1), (1, 1)), ("mod-p", 3): ((0, 1), (1, 1)),
             ("rational", None): ((0, 1), (1, 1))}),
    ])
    def test_scaled_sphere(self, c, failing):
        fam = LocalizationFamily((2, 3))
        assert self.failing_checks(SortedComplex.single(Z), c, fam) == failing

    def test_scaled_moore_complex(self):
        fam = LocalizationFamily((2, 3))
        x = SortedComplex.two_term(Z, ExactMatrix.from_rows([[6]]))
        assert self.failing_checks(x, 2, fam) == {("mod-p", 2): ((0, 1), (1, 2), (2, 1))}
