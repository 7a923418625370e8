import random
from itertools import combinations

import pytest

from fracturecube.exact_linalg import AbelianInvariants, InputError
from fracturecube.posets import (
    CERT_DISMANTLABLE,
    CERT_FAIL,
    CERT_HOMOLOGY_ONLY,
    FinitePoset,
    PosetMap,
    _irreducible,
    _subset_poset,
    certify_initial,
    comma_poset,
    is_dismantlable,
    pcubelim_index_map,
    reduced_homology,
    subset_poset,
)

from genutil import (
    face_poset,
    random_poset,
    reference_irreducible,
    reference_is_dismantlable,
    reference_subset_poset,
)


def antichain(n):
    return FinitePoset(range(n), [(i, i) for i in range(n)])


class TestFinitePoset:
    def test_rejects_non_transitive(self):
        with pytest.raises(InputError):
            FinitePoset("abc", [("a", "b"), ("b", "c")])

    def test_rejects_non_antisymmetric(self):
        with pytest.raises(InputError):
            FinitePoset("ab", [("a", "b"), ("b", "a")])

    def test_product_order(self):
        p = subset_poset((1,), punctured=False)
        q = p.product(p)
        assert len(q) == 4
        assert q.leq(((), ()), ((1,), (1,)))
        assert not q.leq(((1,), ()), ((), (1,)))

    def test_covering_pairs(self):
        p = subset_poset((1, 2), punctured=True)
        assert set(p.covering_pairs()) == {((1,), (1, 2)), ((2,), (1, 2))}

    def test_covering_pairs_against_definition(self):
        posets = [subset_poset(range(1, n + 1), punctured=punct)
                  for n in range(6) for punct in (False, True) if n or not punct]
        posets += [antichain(3), subset_poset((1, 2)).product(subset_poset((3,))),
                   FinitePoset("abcd", [("a", "c"), ("b", "c"), ("a", "d")])]
        for p in posets:
            # oracle: x < y with no z strictly between, in element order
            want = [(x, y) for x in p.elements for y in p.elements
                    if p.lt(x, y) and not any(p.lt(x, z) and p.lt(z, y)
                                              for z in p.elements)]
            first = p.covering_pairs()
            assert first == want
            # found once per poset, handed out as a new list each time
            first.append(("not", "a pair"))
            first.pop(0)
            assert p.covering_pairs() == want


class TestSubsetPoset:
    def test_empty_label_set(self):
        p = subset_poset((), punctured=False)
        assert p.elements == ((),)

    def test_two_punctured(self):
        p = subset_poset((1, 2), punctured=True)
        assert p.elements == ((1,), (2,), (1, 2))
        assert len(p.covering_pairs()) == 2

    def test_three_punctured_counts(self):
        p = subset_poset((1, 2, 3), punctured=True)
        assert len(p) == 7
        assert len(p.covering_pairs()) == 9

    def test_size_cap(self):
        thirteen = tuple(range(13))
        with pytest.raises(InputError, match="exceeds cap 12"):
            subset_poset(thirteen)
        # the cap holds for a label set that is already built
        _subset_poset(thirteen, False)
        with pytest.raises(InputError, match="exceeds cap 12"):
            subset_poset(thirteen)
        _subset_poset.cache_clear()

    @pytest.mark.parametrize("punctured", [False, True])
    def test_masks_match_the_tuple_reference(self, punctured):
        for n in range(9):
            for base in (tuple(range(1, n + 1)), tuple(range(-3, 3 * n - 3, 3))):
                got, want = _subset_poset(base, punctured), reference_subset_poset(base, punctured)
                assert got.elements == want.elements and got._up == want._up

    def test_shared_across_label_spellings(self):
        p = subset_poset((1, 2, 3))
        assert subset_poset([3, 1, 2]) is p and subset_poset([1, 2, 2, 3]) is p
        assert subset_poset((1, 2, 3), punctured=True) != p
        assert subset_poset((1, 2, 3), punctured=True).elements == p.elements[1:]


class TestOrderComplex:
    # the order complex is read off the strict chains: a chain of d + 1
    # elements is a d-simplex
    def test_point(self):
        assert antichain(1).strict_chains() == [[(0,)]]

    def test_two_disjoint_points(self):
        assert antichain(2).strict_chains() == [[(0,), (1,)]]

    def test_punctured_square_is_path(self):
        chains = subset_poset((1, 2), punctured=True).strict_chains()
        assert chains == [[((1,),), ((2,),), ((1, 2),)],
                          [((1,), (1, 2)), ((2,), (1, 2))]]


# the boundary of a triangle and the minimal triangulation of RP^2, by
# their maximal faces; a face poset's order complex is the barycentric
# subdivision, with the same homology
CIRCLE = [(0, 1), (1, 2), (0, 2)]
RP2 = [(1, 2, 3), (1, 3, 4), (1, 2, 6), (1, 5, 6), (1, 4, 5),
       (2, 3, 5), (2, 4, 6), (2, 4, 5), (3, 4, 6), (3, 5, 6)]


class TestReducedHomology:
    def test_point_is_acyclic(self):
        assert reduced_homology(antichain(1)) == {}

    def test_circle_from_triangle_boundary(self):
        assert reduced_homology(face_poset(CIRCLE)) == {1: AbelianInvariants(1)}

    def test_two_points(self):
        assert reduced_homology(antichain(2)) == {0: AbelianInvariants(1)}

    def test_cone_poset_is_acyclic(self):
        p = subset_poset((1, 2, 3), punctured=True)
        assert reduced_homology(p) == {}

    def test_rational_betti_numbers_agree(self):
        # independent route: rank-nullity over Q versus Smith normal form,
        # on the hexagon that subdivides the circle
        from fracturecube.exact_linalg import ExactMatrix, rank_over_field
        p = face_poset(CIRCLE)
        vertices, edges = p.strict_chains()
        index = {v: i for i, (v,) in enumerate(vertices)}
        d1 = ExactMatrix(len(vertices), len(edges), {
            (index[e[pos]], j): (-1) ** (pos + 1)
            for j, e in enumerate(edges) for pos in range(2)})
        betti1 = len(edges) - rank_over_field(d1, "Q")
        assert betti1 == reduced_homology(p)[1].free_rank == 1

    def test_projective_plane_style_torsion(self):
        assert reduced_homology(face_poset(RP2)) == {1: AbelianInvariants(0, (2,))}


class TestDismantlable:
    def test_poset_with_maximum(self):
        p = subset_poset((1, 2, 3), punctured=True)
        ok, witness = is_dismantlable(p)
        assert ok
        assert len(witness) == len(p) - 1

    def test_antichain_fails(self):
        ok, _ = is_dismantlable(antichain(2))
        assert not ok

    def test_hexagon_crown_fails_but_acyclic_circle_detected(self):
        # 6-cycle as a height-1 poset (crown): not dismantlable, H_1 = Z
        pairs = [(0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5)]
        p = FinitePoset(range(6), pairs)
        ok, _ = is_dismantlable(p)
        assert not ok
        assert reduced_homology(p) == {1: AbelianInvariants(1)}

    def test_r_subposet_from_recursion_is_dismantlable(self):
        f = pcubelim_index_map((1, 2, 3), 1)
        r = comma_poset(f, (1, 2))
        expected = {(k, j) for (k, j) in f.source.elements
                    if k == ("a",) or set(j) <= {2}}
        assert set(r.elements) == expected
        ok, _ = is_dismantlable(r)
        assert ok

    def test_dismantlable_implies_acyclic_on_random_posets(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(2, 7)
            pairs = set()
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.4:
                        pairs.add((i, j))
            # transitive closure to make a valid poset
            changed = True
            while changed:
                changed = False
                for (a, b) in list(pairs):
                    for (c, d) in list(pairs):
                        if b == c and (a, d) not in pairs:
                            pairs.add((a, d))
                            changed = True
            p = FinitePoset(range(n), pairs)
            ok, _ = is_dismantlable(p)
            if ok:
                assert reduced_homology(p) == {}


    def test_irreducible_matches_the_reference(self):
        # every element of seeded random posets, and of each poset met
        # while dismantling them, against the subposet reading
        rng = random.Random(11)
        for _ in range(300):
            p = random_poset(rng, rng.randint(1, 8), rng.choice((0.2, 0.4, 0.6)))
            live = set(range(len(p)))
            for x in p.elements:
                assert _irreducible(p._up, live, p.index(x)) == reference_irreducible(p, x)
            ok, witness = is_dismantlable(p)
            current = p
            for w in witness:
                assert reference_irreducible(current, w)
                current = current.subposet([y for y in current.elements if y != w])
            assert ok == (len(current) == 1)
            if not ok:
                assert not any(reference_irreducible(current, y)
                               for y in current.elements)

    def test_witnesses_match_the_subposet_loop(self):
        # the same verdict and removal order as a new subposet per removal
        rng = random.Random(13)
        posets = [random_poset(rng, rng.randint(1, 9), rng.choice((0.2, 0.4, 0.6)))
                  for _ in range(200)]
        for n in range(2, 6):
            labels = tuple(range(1, n + 1))
            for t in labels:
                f = pcubelim_index_map(labels, t)
                posets += [comma_poset(f, i) for i in f.target.elements]
        for p in posets:
            if len(p):
                assert is_dismantlable(p) == reference_is_dismantlable(p)


class TestCommaAndInitiality:
    def test_identity_comma_is_down_set(self):
        p = subset_poset((1, 2), punctured=True)
        f = PosetMap.identity(p)
        c = comma_poset(f, (1, 2))
        assert set(c.elements) == set(p.elements)
        c = comma_poset(f, (1,))
        assert c.elements == ((1,),)

    def test_comma_requires_target_element(self):
        p = subset_poset((1, 2), punctured=True)
        with pytest.raises(InputError):
            comma_poset(PosetMap.identity(p), (3,))

    def test_comma_max_when_t_absent(self):
        f = pcubelim_index_map((1, 2, 3), 1)
        c = comma_poset(f, (2, 3))
        assert c.maximum() == (("b",), (2, 3))

    def test_identity_is_initial(self):
        p = subset_poset((1, 2), punctured=True)
        rep = certify_initial(PosetMap.identity(p))
        assert rep.overall
        assert set(rep.certificates.values()) == {CERT_DISMANTLABLE}

    def test_recursion_map_initial_for_two_labels(self):
        rep = certify_initial(pcubelim_index_map((1, 2), 1))
        assert rep.overall
        assert len(rep.certificates) == 3
        assert set(rep.certificates.values()) == {CERT_DISMANTLABLE}

    def test_constant_map_from_antichain_fails(self):
        src = antichain(2)
        tgt = FinitePoset(("x",), [("x", "x")])
        rep = certify_initial(PosetMap(src, tgt, {0: "x", 1: "x"}))
        assert not rep.overall
        assert rep.certificates["x"] == CERT_FAIL

    def test_empty_comma_poset_fails(self):
        # nothing of the point maps at or below lo
        point = FinitePoset(("*",), [])
        arrow = FinitePoset(("lo", "hi"), [("lo", "hi")])
        rep = certify_initial(PosetMap(point, arrow, {"*": "hi"}))
        assert rep.certificates == {"lo": CERT_FAIL, "hi": CERT_DISMANTLABLE}
        assert not rep.overall and rep.inconclusive == ()

    def test_dunce_hat_is_acyclic_but_not_dismantlable(self):
        p = face_poset(dunce_hat())
        assert len(p) == 79
        assert is_dismantlable(p)[0] is False
        assert reduced_homology(p) == {}
        point = FinitePoset(("*",), [])
        rep = certify_initial(PosetMap(p, point, {x: "*" for x in p.elements}))
        assert rep.certificates == {"*": CERT_HOMOLOGY_ONLY}
        assert rep.inconclusive == ("*",) and not rep.overall


def dunce_hat():
    """Zeeman's dunce hat, the word a.a.a^-1 with each side cut in three:
    the 9-cycle b_k on the boundary carries the vertex classes 0, 1, 2,
    0, 1, 2, 0, 2, 1, inside it lie a ring u_k = 3 + k and a centre 12."""
    b = (0, 1, 2, 0, 1, 2, 0, 2, 1)
    faces = []
    for k in range(9):
        k1 = (k + 1) % 9
        faces += [(b[k], b[k1], 3 + k), (b[k1], 3 + k, 3 + k1), (3 + k, 3 + k1, 12)]
    return faces


def test_dunce_hat_triangulation():
    # 13 vertices, 39 edges, 27 triangles (Euler characteristic 1), and
    # every edge lies on at least two triangles, so nothing collapses
    faces = dunce_hat()
    edges = [frozenset(e) for f in faces for e in combinations(f, 2)]
    assert len({v for f in faces for v in f}) == 13
    assert len(set(edges)) == 39 and len(set(map(frozenset, faces))) == 27
    assert min(edges.count(e) for e in set(edges)) == 2


class TestRecursionIndexMap:
    def test_two_labels(self):
        f = pcubelim_index_map((1, 2), 1)
        assert len(f.source) == 3
        images = {f(x) for x in f.source.elements}
        assert images == {(1,), (2,), (1, 2)}

    def test_three_labels_middle(self):
        f = pcubelim_index_map((1, 2, 3), 2)
        assert len(f.source) == 9
        assert f((("a", "b"), (1, 3))) == (1, 2, 3)
        assert f((("a",), (1, 3))) == (2,)
        assert f((("b",), (1, 3))) == (1, 3)

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            pcubelim_index_map((1, 2), 3)
        with pytest.raises(InputError):
            pcubelim_index_map((1,), 1)

    def test_order_preserving_up_to_five(self):
        # PosetMap construction validates monotonicity, so building suffices
        for n in range(2, 6):
            labels = tuple(range(1, n + 1))
            for t in labels:
                pcubelim_index_map(labels, t)


class TestSpecInvariants:
    def test_punctured_posets_acyclic_up_to_five(self):
        for n in range(1, 6):
            p = subset_poset(range(1, n + 1), punctured=True)
            assert reduced_homology(p) == {}

    def test_recursion_maps_initial_up_to_four(self):
        for n in range(2, 5):
            labels = tuple(range(1, n + 1))
            for t in labels:
                rep = certify_initial(pcubelim_index_map(labels, t))
                assert rep.overall, (labels, t, rep.certificates)
