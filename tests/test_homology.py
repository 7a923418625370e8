"""Homology read off Smith diagonals, against the kernel -> coordinates -> SNF chain."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracturecube import exact_linalg
from fracturecube.exact_linalg import (
    AbelianInvariants,
    ExactMatrix,
    InputError,
    integer_homology_at,
    kernel_basis,
    p_part,
    snf_diagonal,
    solve_in_span,
)
from fracturecube.posets import reduced_homology
from fracturecube.sorted_complex import (
    SortedComplex,
    SortedMap,
    SortedModule,
    Z,
    homology_p_local,
)

from genutil import face_poset


def chain_homology_at(d_in, d_out):
    """Oracle: ker(d_out) / im(d_in) through a saturated kernel basis."""
    k = kernel_basis(d_out)
    if k.cols == 0:
        return AbelianInvariants(0)
    x = solve_in_span(k, d_in)
    assert x.is_integral()
    nonzero = [d for d in (snf_diagonal(x) if x.cols else []) if d]
    return AbelianInvariants(k.cols - len(nonzero), tuple(d for d in nonzero if d > 1))


def oracle_homology(ranks, diffs):
    out = {}
    for n, dim in ranks.items():
        d_out = diffs.get(n, ExactMatrix.zeros(ranks.get(n - 1, 0), dim))
        d_in = diffs.get(n + 1, ExactMatrix.zeros(dim, ranks.get(n + 1, 0)))
        out[n] = chain_homology_at(d_in, d_out)
    return out


def unimodular(draw, n):
    """A product of elementary matrices and its inverse."""
    u, uinv = ExactMatrix.identity(n), ExactMatrix.identity(n)
    if n < 2:
        return u, uinv
    ops = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                  st.integers(-2, 2)), max_size=n))
    for i, j, c in ops:
        if i != j:
            u = u * ExactMatrix(n, n, {**{(k, k): 1 for k in range(n)}, (i, j): c})
            uinv = ExactMatrix(n, n, {**{(k, k): 1 for k in range(n)}, (i, j): -c}) * uinv
    return u, uinv


@st.composite
def integer_complexes(draw):
    """Degrees 0..top with two or three nonzero differentials, d^2 = 0 by construction.

    A direct sum of pieces Z --k--> Z and Z, written in a basis changed by
    a unimodular matrix in every degree.
    """
    top = draw(st.integers(2, 3))
    pieces = {n: draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
              for n in range(1, top + 1)}
    free = {n: draw(st.integers(0, 2)) for n in range(top + 1)}
    # basis of C_n: targets of the pieces of d_{n+1}, sources of those of d_n, free lines
    ranks = {n: len(pieces.get(n + 1, ())) + len(pieces.get(n, ())) + free[n]
             for n in range(top + 1)}
    bases = {n: unimodular(draw, ranks[n]) for n in ranks}
    diffs = {}
    for n, ks in pieces.items():
        offset = len(pieces.get(n + 1, ()))
        d = ExactMatrix(ranks[n - 1], ranks[n],
                        {(i, offset + i): k for i, k in enumerate(ks)})
        diffs[n] = bases[n - 1][0] * d * bases[n][1]
    return ranks, diffs


def sorted_complex_of(ranks, diffs):
    mods = {n: SortedModule([(Z, r)]) for n, r in ranks.items()}
    return SortedComplex(mods, {n: SortedMap.from_dense(mods[n], mods[n - 1], d)
                                for n, d in diffs.items()})


class TestAgainstKernelChain:
    @settings(max_examples=60, deadline=None)
    @given(integer_complexes())
    def test_integer_homology_at(self, cx):
        ranks, diffs = cx
        want = oracle_homology(ranks, diffs)
        for n, dim in ranks.items():
            d_out = diffs.get(n, ExactMatrix.zeros(ranks.get(n - 1, 0), dim))
            d_in = diffs.get(n + 1, ExactMatrix.zeros(dim, ranks.get(n + 1, 0)))
            assert integer_homology_at(d_in, d_out) == want[n]

    @settings(max_examples=60, deadline=None)
    @given(integer_complexes(), st.sampled_from([None, (2,), (2, 3), (5, 7)]))
    def test_homology_p_local(self, cx, primes):
        ranks, diffs = cx
        want = {}
        for n, inv in oracle_homology(ranks, diffs).items():
            if primes is not None:
                inv = AbelianInvariants(inv.free_rank, tuple(
                    t for t in (p_part(d, primes) for d in inv.torsion) if t > 1))
            if not inv.is_trivial():
                want[n] = inv
        assert homology_p_local(sorted_complex_of(ranks, diffs), primes) == want

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.frozensets(st.integers(0, 5), min_size=1, max_size=4),
                    min_size=1, max_size=6))
    def test_reduced_homology(self, faces):
        # the oracle reads K's own simplicial chains, the package the order
        # complex of K's face poset, which subdivides K
        simplices = sorted({u for f in faces for k in range(1, len(f) + 1)
                            for u in combinations(sorted(f), k)})
        by_dim = {}
        for u in simplices:
            by_dim.setdefault(len(u) - 1, []).append(u)
        index = {d: {f: i for i, f in enumerate(fs)} for d, fs in by_dim.items()}
        ranks = {-1: 1, **{d: len(fs) for d, fs in by_dim.items()}}
        diffs = {}
        for d, fs in by_dim.items():
            entries = {}
            for j, f in enumerate(fs):
                for pos in range(len(f)):
                    row = index[d - 1][f[:pos] + f[pos + 1:]] if d else 0
                    entries[(row, j)] = (-1) ** pos
            diffs[d] = ExactMatrix(ranks[d - 1], ranks[d], entries)
        want = {d: inv for d, inv in oracle_homology(ranks, diffs).items()
                if not inv.is_trivial()}
        assert reduced_homology(face_poset(faces)) == want


class TestOneDiagonalPerDifferential:
    def test_no_kernel_chain_and_one_snf_each(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("homology must not reach the kernel chain")

        calls = []
        real = exact_linalg.snf_diagonal

        def counting(m):
            calls.append((m.rows, m.cols))
            return real(m)

        monkeypatch.setattr(exact_linalg, "kernel_basis", forbidden)
        monkeypatch.setattr(exact_linalg, "solve_in_span", forbidden)
        monkeypatch.setattr(exact_linalg, "snf_diagonal", counting)
        ranks = {0: 2, 1: 2, 2: 1}
        diffs = {1: ExactMatrix.from_rows([[2, 0], [0, 0]]),
                 2: ExactMatrix.from_rows([[0], [3]])}
        assert homology_p_local(sorted_complex_of(ranks, diffs)) == {
            0: AbelianInvariants(1, (2,)), 1: AbelianInvariants(0, (3,))}
        assert sorted(calls) == [(2, 1), (2, 2)]
        assert integer_homology_at(diffs[2], diffs[1]) == AbelianInvariants(0, (3,))
        circle = face_poset(combinations(range(3), 2))
        assert reduced_homology(circle) == {1: AbelianInvariants(1)}

    def test_no_product_on_complexes_built_by_the_caller(self, monkeypatch):
        # d^2 = 0 holds for a sorted complex and a boundary: not re-checked
        c = sorted_complex_of({0: 2, 1: 2, 2: 1},
                              {1: ExactMatrix.from_rows([[2, 0], [0, 0]]),
                               2: ExactMatrix.from_rows([[0], [3]])})
        sphere = face_poset(combinations(range(4), 3))

        def forbidden(*args):
            raise AssertionError("homology must not multiply matrices")

        monkeypatch.setattr(ExactMatrix, "__mul__", forbidden)
        assert homology_p_local(c) == {0: AbelianInvariants(1, (2,)),
                                       1: AbelianInvariants(0, (3,))}
        assert reduced_homology(sphere) == {2: AbelianInvariants(1)}

    def test_raw_matrices_are_checked(self):
        with pytest.raises(InputError, match="non-integral"):
            integer_homology_at(ExactMatrix.from_rows([[Fraction(1, 2)]]),
                                ExactMatrix.zeros(0, 1))
        with pytest.raises(InputError, match=r"composite d_0 \* d_1 is nonzero"):
            integer_homology_at(ExactMatrix.from_rows([[1]]), ExactMatrix.from_rows([[1]]))


small_matrices = st.integers(1, 5).flatmap(lambda c: st.lists(
    st.lists(st.integers(-30, 30), min_size=c, max_size=c), min_size=1, max_size=5))


def test_elementary_divisors_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    @settings(max_examples=80, deadline=None)
    @given(small_matrices)
    def check(rows):
        m = ExactMatrix.from_rows(rows)
        theirs = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
        want = [abs(int(theirs[i, i])) for i in range(min(m.rows, m.cols))]
        assert [d for d in snf_diagonal(m) if d] == [d for d in want if d]

    check()
