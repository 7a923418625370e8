"""Acceptance suite: one test per ship criterion, exact arithmetic throughout.

Each test prints a single PASS line with its headline numbers; run with
`pytest tests/test_acceptance.py -v -s` to see them.
"""

import random
import time

from fracturecube.cube_categories import (
    anchor_split,
    anchor_split_onto_product,
    anchored_supersets,
    diagram_functor,
    fracture_diagram,
    roundtrip_check,
)
from fracturecube.fracture import (
    LocalizationFamily,
    completion_pair_square,
    e_localize,
    rational_pair_square,
    verify_fracture,
)
from fracturecube.holim import (
    adjunction_check,
    is_cartesian,
    limit_extended_cube,
    nerve_limit,
    punctured_limit_recursive,
    tfib_direction_cube,
    total_fiber_iterated,
)
from fracturecube.posets import (
    CERT_DISMANTLABLE,
    certify_initial,
    comma_poset,
    pcubelim_index_map,
    subset_poset,
)
from fracturecube.sorted_complex import (
    ZLOC,
    Z,
    homology_p_local,
)

from genutil import composite_kills_all, nerve_total_fiber, random_complex, random_cube

PRIME_SETS = ((2,), (2, 3), (2, 3, 5))


def test_criterion_01_fracture_verification():
    rng = random.Random(20260808)
    t0 = time.time()
    count = 0
    for _ in range(200):
        x = random_complex(rng, sort=Z, deg_lo=0, deg_hi=4, max_rank=6, bound=9)
        for primes in PRIME_SETS:
            rep = verify_fracture(x, LocalizationFamily(primes))
            assert rep.verdict, (primes, [(c.kind, c.prime, c.defects) for c in rep.checks])
            count += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"runtime budget exceeded: {elapsed:.1f}s"
    print(f"\n[PASS] criterion 1: fracture verification on {count} "
          f"instances in {elapsed:.1f}s")


def test_criterion_02_arithmetic_square():
    from fracturecube.sorted_complex import SortedComplex
    rep = verify_fracture(SortedComplex.single(Z), LocalizationFamily((2,)))
    assert rep.verdict
    assert set(rep.limit_homology) == {0}
    inv = rep.limit_homology[0]
    assert inv.free_rank == 1 and inv.torsion == ()
    assert all(c.passed for c in rep.checks)
    print("\n[PASS] criterion 2: arithmetic square limit is rank one "
          "in degree zero, all residues exact")


def test_criterion_03_total_fiber_decomposition():
    rng = random.Random(3)
    primes = (2, 3)
    subsets = [s for s in subset_poset((1, 2, 3)).elements]
    checks = 0
    for _ in range(100):
        d = random_cube(rng, (1, 2, 3), sort=ZLOC, deg_hi=2, max_rank=3,
                        pieces=2)
        want = homology_p_local(nerve_total_fiber(d), primes)
        for tp in subsets:
            got = homology_p_local(total_fiber_iterated(d, tp), primes)
            assert got == want, (tp, got, want)
            checks += 1
    print(f"\n[PASS] criterion 3: iterated total fiber invariants agree "
          f"on {checks} cube/subset pairs")


def test_criterion_04_directional_fibers():
    rng = random.Random(4)
    primes = (2,)
    checks = 0
    for _ in range(50):
        g = random_cube(rng, (1, 2, 3), sort=ZLOC, deg_hi=1, max_rank=2,
                        pieces=2, punctured=True)
        ext = limit_extended_cube(g)
        assert is_cartesian(ext, primes)
        for t in (1, 2, 3):
            rest = tuple(x for x in (1, 2, 3) if x != t)
            assert is_cartesian(tfib_direction_cube(ext, rest), primes), t
            checks += 1
    print(f"\n[PASS] criterion 4: direction fibers of 50 Cartesian cubes "
          f"stay Cartesian ({checks} directions)")


def test_criterion_05_recursive_limit():
    rng = random.Random(5)
    primes = (2, 3)
    checks = 0
    for _ in range(100):
        g = random_cube(rng, (1, 2, 3), sort=ZLOC, deg_hi=2, max_rank=3,
                        pieces=2, punctured=True)
        want = homology_p_local(nerve_limit(g).complex, primes)
        for t in (1, 2, 3):
            got = homology_p_local(punctured_limit_recursive(g, t), primes)
            assert got == want, t
            checks += 1
    print(f"\n[PASS] criterion 5: recursive punctured limits match direct "
          f"totalization on {checks} instances")


def test_criterion_06_initiality_combinatorics():
    pairs = 0
    comma_checks = 0
    for n in (2, 3, 4):
        labels = tuple(range(1, n + 1))
        for t in labels:
            f = pcubelim_index_map(labels, t)
            rep = certify_initial(f)
            assert rep.overall, (labels, t)
            assert set(rep.certificates.values()) == {CERT_DISMANTLABLE}
            pairs += 1
            for target_set in f.target.elements:
                if t not in target_set:
                    comma = comma_poset(f, target_set)
                    assert comma.maximum() == (("b",), target_set)
                    comma_checks += 1
    print(f"\n[PASS] criterion 6: {pairs} index maps fully dismantlable, "
          f"{comma_checks} absent-label comma posets have the expected maximum")


def test_criterion_07_adjunction():
    rng = random.Random(7)
    primes = (2, 3)
    for _ in range(50):
        d = random_cube(rng, (1, 2), sort=ZLOC, deg_hi=2, max_rank=3)
        x = random_complex(rng, sort=ZLOC, deg_hi=2, max_rank=2)
        assert adjunction_check(x, d, primes)
    print("\n[PASS] criterion 7: corner-inclusion adjunction is an "
          "isomorphism on 50 random pairs")


def test_criterion_08_roundtrips():
    rng = random.Random(8)
    fam = LocalizationFamily((2, 3))
    for _ in range(100):
        x = e_localize(random_complex(rng, deg_hi=2, max_rank=3, pieces=2), fam)
        assert roundtrip_check(x, fam)
        assert roundtrip_check(fracture_diagram(x, fam), fam)
    print("\n[PASS] criterion 8: both round trips hold on 100 local complexes")


def test_criterion_09_theta_and_composition():
    # splitting combinatorics, exhaustive over small index sets
    theta_pairs = 0
    for n in range(1, 6):
        t = tuple(range(1, n + 1))
        subsets = [s for s in subset_poset(t).elements if s]
        for s in subsets:
            for s2 in subsets:
                if not set(s) <= set(s2):
                    continue
                fwd, inv = anchor_split(s, s2, t)
                image = set(inv.source.elements)
                for u in fwd.source.elements:
                    assert fwd(u) in image and inv(fwd(u)) == u
                for v in inv.source.elements:
                    assert fwd(inv(v)) == v
                onto = anchor_split_onto_product(s, s2, t)
                assert onto == (len(image) == len(fwd.target.elements))
                assert onto == all(x < min(s) for x in set(s2) - set(s))
                theta_pairs += 1
    # functor composition, random object diagrams over three indices
    rng = random.Random(9)
    fam = LocalizationFamily((2, 3))
    t = (1, 2, 3)
    chains = [((3,), (2, 3), (1, 2, 3)), ((3,), (1, 3), (1, 2, 3)),
              ((2,), (1, 2), (1, 2, 3)), ((2, 3), (2, 3), (1, 2, 3))]
    comp_checks = 0
    for i in range(50):
        x = e_localize(random_complex(rng, deg_hi=2, max_rank=3, pieces=2), fam)
        g = fracture_diagram(x, fam)
        s, s2, s3 = chains[i % len(chains)]
        d = g.diagram.restrict(anchored_supersets(s, t).elements)
        via = diagram_functor(s2, s3, diagram_functor(s, s2, d, fam), fam)
        direct = diagram_functor(s, s3, d, fam)
        assert via.vertices == direct.vertices
        assert via.edges == direct.edges
        comp_checks += 1
    print(f"\n[PASS] criterion 9: splitting verified on {theta_pairs} index "
          f"pairs, functor composition exact on {comp_checks} diagrams")


def test_criterion_10_orthogonality_and_pair_squares():
    for primes in ((2,), (2, 3), (2, 3, 5)):
        fam = LocalizationFamily(primes)
        for j in range(1, fam.size + 1):
            for i in range(1, j):
                assert composite_kills_all(fam.table(j), fam.table(i), primes)
    rng = random.Random(10)
    for _ in range(20):
        x = random_complex(rng, deg_hi=3, max_rank=4)
        assert is_cartesian(rational_pair_square(x, 2), (2,))
        assert is_cartesian(rational_pair_square(x, 3), (3,))
        assert is_cartesian(completion_pair_square(x, 2, 3), (2, 3))
        assert is_cartesian(completion_pair_square(x, 3, 5), (3, 5))
    print("\n[PASS] criterion 10: family orthogonality exhaustive up to four "
          "indices; 80 two-index squares Cartesian")
