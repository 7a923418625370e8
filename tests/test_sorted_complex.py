import random
from fractions import Fraction

import pytest

from fracturecube.exact_linalg import AbelianInvariants, ExactMatrix, InputError
from fracturecube.fracture import LocalizationFamily
from fracturecube.holim import (
    PosetDiagram,
    cone,
    hofib,
    is_cartesian,
    is_quasi_iso,
    strict_total_fiber,
)
from fracturecube.posets import subset_poset
from fracturecube.sorted_complex import (
    LOCALIZE,
    RATIONALIZE,
    ComplexMap,
    Q,
    Qp,
    Sort,
    SortedComplex,
    SortedMap,
    SortedModule,
    Z,
    ZLOC,
    Zp,
    apply_localization,
    canonical_unit,
    chain_map_group,
    comparison_is_isomorphism,
    complete,
    direct_sum,
    homology_p_local,
    is_acyclic,
    localize_chain_map_tables,
    sort_map_exists,
    Violation,
    validate,
)

from genutil import (
    _direct_sum_map,
    apply_tables,
    composite_kills_all,
    random_chain_map,
    random_complex,
    random_cube,
    reference_chain_map_group,
    scaled,
    scaled_cube,
    shift,
)


def two_term(sort, k, top=1):
    return SortedComplex.two_term(sort, ExactMatrix.from_rows([[k]]), top)


def loop_apply_tables(c, tables):
    """The table-by-table loop that one pass along the list replaces."""
    for t in tables:
        c = apply_localization(c, t)
    return c


def loop_localize_chain_map(f, tables):
    for t in tables:
        f = localize_chain_map_tables(f, [t])
    return f


def mixed_sort_maps(rng, primes):
    """A chain map with one block per sort over P, and two units out of it."""
    f = None
    for sort in [Z, ZLOC, Q] + [s for p in primes for s in (Zp(p), Qp(p))]:
        a, b = (random_complex(rng, sort=sort, deg_hi=2, max_rank=2, pieces=2)
                for _ in range(2))
        g = random_chain_map(rng, a, b)
        f = g if f is None else _direct_sum_map(f, g)
    return [f, canonical_unit(f.source, RATIONALIZE),
            canonical_unit(f.target, complete(primes[-1]))]


class TestSorts:
    def test_tags_round_trip(self):
        for s in (Z, ZLOC, Q, Zp(2), Qp(5)):
            assert Sort.from_tag(s.tag()) == s

    @pytest.mark.parametrize("tag", [
        "Zp:02", "Zp: 3", "Zp:+5", "Zp:1_1", "Qp:\u0663", "Zp:x", "Zp:", "Z:", "Zp:" + "9" * 5000])
    def test_only_the_written_tag_decodes(self, tag):
        # int() would read each prime spelling here, "Zp:1_1" as Zp:11 and
        # the Arabic-Indic digit three as 3
        with pytest.raises(InputError, match="not in the form tag\\(\\) writes"):
            Sort.from_tag(tag)

    @pytest.mark.parametrize("make", [lambda: Sort("Zero"), lambda: Sort.from_tag("Zero")])
    def test_there_is_no_zero_sort(self, make):
        # a table that kills a sort returns None, and the summand is dropped
        with pytest.raises(InputError, match="unknown sort kind 'Zero'"):
            make()
        assert complete(2).apply_sort(Q) is None

    def test_completed_sorts_need_primes(self):
        with pytest.raises(InputError):
            Sort("Zp")
        with pytest.raises(InputError):
            Sort("Zp", 4)

    def test_map_table(self):
        assert sort_map_exists(Z, Qp(3))
        assert sort_map_exists(ZLOC, Zp(2))
        assert sort_map_exists(Q, Qp(2))
        assert not sort_map_exists(Qp(2), Q)
        assert not sort_map_exists(Zp(2), Zp(3))
        assert not sort_map_exists(Q, Zp(2))

    def test_map_table_reflexive_transitive(self):
        sorts = [Z, ZLOC, Q, Zp(2), Qp(2), Zp(3), Qp(3)]
        for s in sorts:
            assert sort_map_exists(s, s)
        for a in sorts:
            for b in sorts:
                for c in sorts:
                    if sort_map_exists(a, b) and sort_map_exists(b, c):
                        assert sort_map_exists(a, c), (a, b, c)


class TestValidation:
    def test_single_z_ok(self):
        c = SortedComplex.single(Z)
        assert validate(c) == []

    def test_two_term_ok(self):
        c = two_term(Z, 2)
        assert validate(c, primes=(2,)) == []

    def test_forbidden_block_rejected(self):
        src = SortedModule([(Qp(2), 1)])
        tgt = SortedModule([(Q, 1)])
        with pytest.raises(InputError, match="no canonical sort map"):
            SortedMap(src, tgt, {(0, 0): ExactMatrix.from_rows([[1]])})

    def test_d_squared_checked(self):
        m = SortedModule([(Z, 1)])
        one = SortedMap(m, m, {(0, 0): ExactMatrix.from_rows([[1]])})
        with pytest.raises(InputError, match="d\\^2"):
            SortedComplex({0: m, 1: m, 2: m}, {1: one, 2: one})

    def test_denominator_admissibility(self):
        m = SortedModule([(ZLOC, 1)])
        half = SortedMap(m, m, {(0, 0): ExactMatrix.from_rows([["1/2"]])})
        c = SortedComplex({0: m, 1: m}, {1: half})
        assert validate(c) == []
        bad = validate(c, primes=(2,))
        assert len(bad) == 1 and "not a unit" in bad[0].message
        assert validate(c, primes=(3,)) == []

    def test_completed_sort_outside_the_primes(self):
        c = direct_sum(SortedComplex.single(Zp(2)), SortedComplex.single(Zp(5), degree=2))
        assert validate(c, primes=(2, 3)) == [
            Violation("degree 2 summand 0", "sort Zp:5 uses prime outside [2, 3]")]
        assert validate(c) == [] and validate(c, primes=(2, 5)) == []

    def test_integer_target_needs_integers(self):
        m = SortedModule([(Z, 1)])
        half = SortedMap(m, m, {(0, 0): ExactMatrix.from_rows([["1/2"]])})
        c = SortedComplex({0: m, 1: m}, {1: half})
        assert any("not a unit in Z" in v.message for v in validate(c))

    @pytest.mark.parametrize("sort, k, primes, message", [
        (Zp(3), "1/3", (3,), "denominator 3 not a unit in Zp:3"),
        (Zp(3), "1/2", (3,), None),
        (ZLOC, "1/6", (2, 3), "denominator 6 not a unit in ZlocP"),
        (ZLOC, "1/6", (5,), None),
        (ZLOC, "1/6", None, None),
        (Q, "1/6", (2, 3), None),
        (Qp(2), "1/2", (2,), None),
    ])
    def test_one_unit_rule_per_sort(self, sort, k, primes, message):
        c = two_term(sort, k)
        want = [] if message is None else [
            Violation("differential at degree 1", f"block (0,0): {message}")]
        assert validate(c, primes) == want


def bare(ranks):
    """Z^r in each listed degree and no differential."""
    return SortedComplex({n: SortedModule([(Z, r)]) for n, r in ranks.items()}, {})


def components(src, tgt, rows):
    """A degree -> one-block SortedMap dict for a map src -> tgt."""
    return {n: SortedMap(src.module(n), tgt.module(n), {(0, 0): ExactMatrix.from_rows(r)})
            for n, r in rows.items()}


class TestChainMapCheck:
    """d f = f d is checked degreewise, absent blocks counting as zero."""

    @pytest.mark.parametrize("src, tgt, rows", [
        # the target differential is absent while f d != 0
        (two_term(Z, 2), bare({1: 1, 0: 1}), {1: [[1]], 0: [[1]]}),
        # the source differential is absent while d f != 0
        (bare({1: 1, 0: 1}), two_term(Z, 2), {1: [[1]], 0: [[1]]}),
        # the component is absent in degree 1 but present in degree 0
        (two_term(Z, 2), two_term(Z, 2), {0: [[1]]}),
        # both sides nonzero and different: d f = 2, f d = 6
        (two_term(Z, 2), two_term(Z, 2), {1: [[1]], 0: [[3]]}),
    ], ids=["target-d-absent", "source-d-absent", "component-absent", "sides-differ"])
    def test_rejected(self, src, tgt, rows):
        with pytest.raises(InputError, match="not a chain map at degree 1"):
            ComplexMap(src, tgt, components(src, tgt, rows))

    def test_products_cancelling_against_an_absent_side(self):
        # d f = (1 -1)(1 1)^T = 0 and f is absent below
        two = SortedModule([(Z, 2)])
        tgt = SortedComplex({1: two, 0: SortedModule([(Z, 1)])}, {1: SortedMap(
            two, SortedModule([(Z, 1)]), {(0, 0): ExactMatrix.from_rows([[1, -1]])})})
        src = bare({1: 1})
        f = ComplexMap(src, tgt, components(src, tgt, {1: [[1], [1]]}))
        assert set(f.maps) == {1}
        # f d = (1 1)(1 -1)^T = 0 and the target has no differential
        src = SortedComplex({1: SortedModule([(Z, 1)]), 0: two}, {1: SortedMap(
            SortedModule([(Z, 1)]), two, {(0, 0): ExactMatrix.from_rows([[1], [-1]])})})
        tgt = bare({0: 1})
        g = ComplexMap(src, tgt, components(src, tgt, {0: [[1, 1]]}))
        assert set(g.maps) == {0}


class TestConstructions:
    def test_cone_of_identity_is_acyclic(self):
        c = random_complex(random.Random(1), sort=ZLOC, deg_hi=3)
        mc = cone(ComplexMap.identity(c))
        rep = is_acyclic(mc, (2,))
        assert rep.acyclic

    def test_hofib_of_inclusion_of_zero(self):
        b = random_complex(random.Random(2), deg_hi=3)
        f = ComplexMap.zero(SortedComplex.zero(), b)
        fib = hofib(f)
        hb = homology_p_local(b)
        hf = homology_p_local(fib)
        assert hf == {n - 1: v for n, v in hb.items()}

    def test_cone_of_times_two(self):
        c = SortedComplex.single(Z)
        f = ComplexMap(c, c, {0: SortedMap(
            c.module(0), c.module(0), {(0, 0): ExactMatrix.from_rows([[2]])})})
        assert homology_p_local(cone(f)) == {0: AbelianInvariants(0, (2,))}

    def test_shift_signs(self):
        c = two_term(Z, 3)
        s = shift(c, 1)
        assert s.module(2).total_rank == 1
        assert s.diff(2).matrix == ExactMatrix.from_rows([[-3]])
        assert shift(s, -1) == c

    def test_cone_sign_convention_golden(self):
        # cone(f)_n = C_{n-1} + D_n with d(c, x) = (-d c, f c + d x)
        c = two_term(Z, 3)
        f = ComplexMap.zero(c, SortedComplex.zero())
        mc = cone(f)
        assert mc.module(2).total_rank == 1 and mc.module(1).total_rank == 1
        assert mc.diff(2).matrix == ExactMatrix.from_rows([[-3]])
        g = ComplexMap(SortedComplex.single(Z), SortedComplex.single(Z),
                       {0: SortedMap(SortedComplex.single(Z).module(0),
                                     SortedComplex.single(Z).module(0),
                                     {(0, 0): ExactMatrix.from_rows([[2]])})})
        assert cone(g).diff(1).matrix == ExactMatrix.from_rows([[2]])

    def test_direct_sum_homology(self):
        a = two_term(Z, 2)
        b = SortedComplex.single(Z, 1, 0)
        h = homology_p_local(direct_sum(a, b))
        assert h == {0: AbelianInvariants(1, (2,))}


class TestLocalization:
    def test_rationalize_sphere(self):
        c = SortedComplex.single(Z)
        assert apply_localization(c, RATIONALIZE) == SortedComplex.single(Q)

    def test_complete_two_term(self):
        c = two_term(Z, 2)
        loc = apply_localization(c, complete(2))
        assert loc == two_term(Zp(2), 2)

    def test_complete_away_from_torsion_is_acyclic(self):
        c = two_term(Z, 2)
        loc = apply_localization(c, complete(3))
        assert loc == two_term(Zp(3), 2)
        assert is_acyclic(loc, (2, 3)).acyclic

    def test_idempotence(self):
        rng = random.Random(4)
        for table in (RATIONALIZE, complete(2), complete(5), LOCALIZE):
            c = random_complex(rng, deg_hi=3)
            once = apply_localization(c, table)
            assert apply_localization(once, table) == once

    def test_orthogonality_of_tables(self):
        primes = (2, 3, 5)
        for p in primes:
            assert composite_kills_all(complete(p), RATIONALIZE, primes)
            for q in primes:
                if q != p:
                    assert composite_kills_all(complete(q), complete(p), primes)
        assert not composite_kills_all(RATIONALIZE, complete(2), primes)

    def test_localization_commutes_with_cone_and_shift(self):
        rng = random.Random(5)
        a = random_complex(rng, deg_hi=3, max_rank=4)
        b = random_complex(rng, deg_hi=3, max_rank=4)
        f = random_chain_map(rng, a, b)
        for table in (RATIONALIZE, complete(2), LOCALIZE):
            lf = localize_chain_map_tables(f, [table])
            assert apply_localization(cone(f), table) == cone(lf)
            assert apply_localization(shift(a, 2), table) == shift(
                apply_localization(a, table), 2)

    @pytest.mark.parametrize("primes", [(2,), (2, 3), (2, 3, 5)])
    def test_one_pass_equals_table_loop(self, primes):
        fam = LocalizationFamily(primes)
        for f in mixed_sort_maps(random.Random(8 + len(primes)), primes):
            for s in subset_poset(fam.labels()).elements:
                tables = fam.tables_for(s)
                assert apply_tables(f.source, tables) == loop_apply_tables(f.source, tables)
                assert localize_chain_map_tables(f, tables) == \
                    loop_localize_chain_map(f, tables)

    def test_unit_is_chain_map_and_identity_blocks(self):
        c = two_term(Z, 6)
        u = canonical_unit(c, complete(2))
        assert u.map_at(0).blocks()[(0, 0)] == ExactMatrix.identity(1)
        v = canonical_unit(c, RATIONALIZE)
        assert v.target == two_term(Q, 6)


class TestAcyclicity:
    def test_zero_complex(self):
        assert is_acyclic(SortedComplex.zero(), (2,)).acyclic

    def test_single_q_fails_rational(self):
        rep = is_acyclic(SortedComplex.single(Q), (2,))
        assert not rep.acyclic
        failing = [ch for ch in rep.checks if not ch.passed]
        assert [ch.kind for ch in failing] == ["rational"]

    def test_raw_z_rejected(self):
        with pytest.raises(InputError, match="raw Z sort"):
            is_acyclic(SortedComplex.single(Z), (2,))

    def test_foreign_prime_rejected(self):
        with pytest.raises(InputError):
            is_acyclic(SortedComplex.single(Zp(7)), (2, 3))

    def test_unit_to_q_not_quasi_iso(self):
        zloc = SortedComplex.single(ZLOC)
        q = SortedComplex.single(Q)
        f = ComplexMap(zloc, q, {0: SortedMap(
            zloc.module(0), q.module(0), {(0, 0): ExactMatrix.identity(1)})})
        rep = is_quasi_iso(f, (2,))
        assert not rep.acyclic
        assert any(ch.kind == "mod-p" and not ch.passed for ch in rep.checks)

    def test_quasi_iso_between_resolutions(self):
        m1 = SortedModule([(ZLOC, 1)])
        a = SortedComplex({1: m1, 0: m1}, {1: SortedMap(
            m1, m1, {(0, 0): ExactMatrix.from_rows([[2]])})})
        m2 = SortedModule([(ZLOC, 2)])
        b = SortedComplex({1: m2, 0: m2}, {1: SortedMap(
            m2, m2, {(0, 0): ExactMatrix.from_rows([[2, 0], [0, 1]])})})
        f = ComplexMap(a, b, {
            1: SortedMap(m1, m2, {(0, 0): ExactMatrix.from_rows([[1], [0]])}),
            0: SortedMap(m1, m2, {(0, 0): ExactMatrix.from_rows([[1], [0]])}),
        })
        assert is_quasi_iso(f, (2,)).acyclic

    def test_identity_quasi_iso(self):
        c = random_complex(random.Random(6), sort=ZLOC)
        assert is_quasi_iso(ComplexMap.identity(c), (2, 3)).acyclic

    def test_agrees_with_integer_oracle_on_zloc_complexes(self):
        rng = random.Random(7)
        primes = (2, 3)
        for _ in range(60):
            c = random_complex(rng, sort=ZLOC, deg_hi=4, max_rank=6)
            rep = is_acyclic(c, primes)
            oracle = homology_p_local(c, primes)
            assert rep.acyclic == (oracle == {}), (rep, oracle)

    def test_degenerate_empty_prime_set(self):
        c = SortedComplex.single(Q)
        rep = is_acyclic(c, ())
        assert not rep.acyclic
        assert [ch.kind for ch in rep.checks] == ["rational"]

    def test_modp_reduction_asserts_denominators(self):
        # a ZlocP block with denominator 2 cannot be reduced mod 2; the
        # complex is only legal for prime sets away from 2
        m = SortedModule([(ZLOC, 1)])
        half = SortedMap(m, m, {(0, 0): ExactMatrix.from_rows([["1/2"]])})
        c = SortedComplex({1: m, 0: m}, {1: half})
        assert is_acyclic(c, (3,)).acyclic  # 1/2 is a unit away from 2
        with pytest.raises(InputError, match="invertible mod 2"):
            is_acyclic(c, (2,))


def _identity_arrow(c):
    """The 1-cube c --id--> c, which is Cartesian."""
    return PosetDiagram(subset_poset((1,)), {(): c, (1,): c},
                        {((), (1,)): ComplexMap.identity(c)})


def _acyclicity_entry_points(c, primes):
    return (lambda: is_acyclic(c, primes),
            lambda: is_quasi_iso(ComplexMap.identity(c), primes),
            lambda: is_cartesian(_identity_arrow(c), primes))


class TestAcyclicityPrimes:
    # each of these leaked ValueError or ZeroDivisionError, or returned a
    # verdict mod a non-prime, before the primes were checked first
    @pytest.mark.parametrize("k, primes", [(2, (4,)), (3, (4,)), (3, (0,)), (3, (-2,)),
                                           (3, (1,)), (3, (2, 9)), (3, (2.0,)),
                                           (3, (2, 2.0))])
    def test_non_primes_are_input_errors(self, k, primes):
        for call in _acyclicity_entry_points(two_term(ZLOC, k), primes):
            with pytest.raises(InputError, match="is not prime"):
                call()

    @pytest.mark.parametrize("p", [2147483659, 2 ** 61 - 1])
    def test_primes_past_31_bits(self, p):
        # Z --k--> Z over ZlocP is acyclic iff k is a unit, that is prime to p
        for k, acyclic in ((3, True), (p, False), (2 * p, False)):
            c = two_term(ZLOC, k)
            rep = is_acyclic(c, (2, p))
            assert rep.acyclic == acyclic == (homology_p_local(c, (2, p)) == {})
            by = {(ch.kind, ch.prime): ch for ch in rep.checks}
            assert by[("mod-p", p)].defects == (() if acyclic else ((0, 1), (1, 1)))
            assert by[("mod-p", 2)].passed == (k % 2 == 1)
            assert is_quasi_iso(ComplexMap.identity(c), (p,)).acyclic
            assert is_cartesian(_identity_arrow(c), (2, p))

    def test_certificate_prime_falls_back_to_exact_rank(self):
        # the fixed-prime bound reads rank 0, the exact fallback rank 1
        rep = is_acyclic(two_term(ZLOC, 2147483629), (2,))
        assert rep.acyclic
        assert [(ch.kind, ch.passed) for ch in rep.checks] == [
            ("mod-p", True), ("rational-completed", True), ("rational", True)]


class TestHomologyPLocal:
    def test_six_torsion_with_two_primes(self):
        c = two_term(Z, 6)
        assert homology_p_local(c, (2, 3)) == {0: AbelianInvariants(0, (6,))}
        assert homology_p_local(c, (2,)) == {0: AbelianInvariants(0, (2,))}
        assert homology_p_local(c, (5,)) == {}

    def test_unit_denominators_cleared(self):
        m = SortedModule([(ZLOC, 1)])
        d = SortedMap(m, m, {(0, 0): ExactMatrix.from_rows([["2/5"]])})
        c = SortedComplex({1: m, 0: m}, {1: d})
        assert homology_p_local(c, (2,)) == {0: AbelianInvariants(0, (2,))}


class TestChainMapGroup:
    def test_endomorphisms_of_sphere(self):
        c = SortedComplex.single(Z)
        g = chain_map_group(c, c)
        assert g.rank == 1
        f = g.element([3])
        assert f.map_at(0).blocks()[(0, 0)] == ExactMatrix.from_rows([[3]])

    def test_maps_killed_by_torsion(self):
        # degree-0 component must kill the image of d, so only zero remains
        a = two_term(Z, 2)
        b = SortedComplex.single(Z)
        assert chain_map_group(a, b).rank == 0
        # while maps from the sphere into the resolution are free of rank 1
        assert chain_map_group(b, a).rank == 1

    def test_mixed_sorts_rejected(self):
        a = SortedComplex.single(Z)
        b = SortedComplex.single(Q)
        with pytest.raises(InputError):
            chain_map_group(a, b)


def assert_group_pinned(group, ref, rng):
    assert group.rank == ref.rank and group.basis == ref.basis
    # the layout names the reference's coordinates, in its order
    assert [(n, r, c) for n, (off, rows, cols) in group.layout.items()
            for r in range(rows) for c in range(cols)] == ref.positions
    assert all(off == ref.positions.index((n, 0, 0))
               for n, (off, _, _) in group.layout.items())
    coeffs = [rng.randint(-3, 3) for _ in range(group.rank)]
    assert group.element(coeffs) == ref.element(coeffs)


class TestChainMapGroupPin:
    """chain_map_group against the entry-by-entry solver it replaced
    (genutil.reference_chain_map_group): same rank, basis and elements."""

    @pytest.mark.parametrize("sort, k", [(Z, 1), (ZLOC, 1), (ZLOC, Fraction(1, 5)), (Q, 1),
                                         (Q, Fraction(1, 5))])
    def test_random_pairs(self, sort, k):
        rng = random.Random(24)
        for _ in range(12):
            a, b = (random_complex(rng, sort=sort, deg_hi=3, max_rank=3) for _ in range(2))
            if rng.random() < 0.5:
                a = scaled(a, k)
            else:
                b = scaled(b, k)
            assert_group_pinned(chain_map_group(a, b), reference_chain_map_group(a, b), rng)

    @pytest.mark.parametrize("labels", [(1,), (1, 2)])
    @pytest.mark.parametrize("k", [1, Fraction(1, 5)])
    def test_adjunction_shaped(self, labels, k):
        rng = random.Random(7)
        ranks = []
        for _ in range(8):
            d = scaled_cube(random_cube(rng, labels, sort=ZLOC, max_rank=3, pieces=4), k)
            x = scaled(random_complex(rng, sort=ZLOC, deg_hi=2, max_rank=3), k)
            fib, inclusion = strict_total_fiber(d)
            kill = [d.hom((), (lab,)) for lab in labels]
            side_a, ref_a = chain_map_group(x, fib), reference_chain_map_group(x, fib)
            side_b = chain_map_group(x, d.vertex(()), postcompose_zero=kill)
            ref_b = reference_chain_map_group(x, d.vertex(()), postcompose_zero=kill)
            assert_group_pinned(side_a, ref_a, rng)
            assert_group_pinned(side_b, ref_b, rng)
            assert side_a.postcompose(inclusion, side_b) == ref_a.postcompose(inclusion, ref_b)
            ranks.append(side_a.rank)
        assert sum(r > 0 for r in ranks) >= 3, ranks

    def test_postcompose_checks_its_ends(self):
        c = SortedComplex.single(Z)
        g = chain_map_group(c, c)
        other = chain_map_group(c, SortedComplex.single(Z, 2))
        with pytest.raises(InputError, match="postcompose"):
            g.postcompose(ComplexMap.identity(c), other)


class TestComparison:
    """comparison_is_isomorphism says no exactly where the sort ring lacks a unit."""

    @pytest.mark.parametrize("sort, c, primes, want", [
        (ZLOC, 2, (2, 3), False), (ZLOC, 3, (2, 3), False), (ZLOC, 5, (2, 3), True),
        (Z, 5, (), False), (Z, -1, (), True),
        (Zp(5), 5, (5,), False), (Zp(5), 2, (5,), True),
        (Q, 2, (), True),
        # a unit with a denominator: 1/7 is one in all but Z
        (Z, Fraction(1, 7), (), False), (ZLOC, Fraction(1, 7), (2, 3), True),
        (ZLOC, Fraction(1, 2), (2, 3), False), (Zp(5), Fraction(1, 7), (5,), True),
        (Q, Fraction(1, 7), (), True),
        # a zero transform: its coordinate matrix is zero, whose diagonal is no unit
        (Z, 0, (), False), (Q, 0, (), False),
    ])
    def test_scalar_on_the_sphere(self, sort, c, primes, want):
        sphere = SortedComplex.single(sort)
        g = chain_map_group(sphere, sphere)
        assert g.rank == 1
        t = ExactMatrix.from_rows([[c]])
        assert comparison_is_isomorphism(g, g, t, primes) is want

    def test_rank_mismatch(self):
        sphere = SortedComplex.single(Z)
        one = chain_map_group(sphere, sphere)
        two = chain_map_group(sphere, SortedComplex.single(Z, 2))
        assert two.rank == 2
        assert not comparison_is_isomorphism(one, two, ExactMatrix.from_rows([[1], [0]]), ())

    def test_transform_outside_the_span(self):
        # maps into Z^2 killed by (1, -1) are the diagonal, spanned by (1, 1)
        sphere, plane = SortedComplex.single(Z), SortedComplex.single(Z, 2)
        diff = ComplexMap(plane, sphere, {0: SortedMap.from_dense(
            plane.module(0), sphere.module(0), ExactMatrix.from_rows([[1, -1]]))})
        diagonal = chain_map_group(sphere, plane, postcompose_zero=[diff])
        one = chain_map_group(sphere, sphere)
        assert diagonal.rank == 1
        assert comparison_is_isomorphism(one, diagonal, ExactMatrix.from_rows([[1], [1]]), ())
        assert not comparison_is_isomorphism(one, diagonal,
                                             ExactMatrix.from_rows([[1], [0]]), ())
