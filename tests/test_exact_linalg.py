from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracturecube.exact_linalg import (
    AbelianInvariants,
    ExactMatrix,
    InputError,
    integer_homology_at,
    kernel_basis,
    rank_lower_bound,
    rank_over_field,
    smith_normal_form,
    snf_diagonal,
    solve_in_span,
)


def det(m: ExactMatrix) -> Fraction:
    # independent cofactor-expansion oracle, fine for the small sizes here
    n = m.rows
    assert n == m.cols
    if n == 0:
        return Fraction(1)
    if n == 1:
        return m.entry(0, 0)
    total = Fraction(0)
    for j in range(n):
        a = m.entry(0, j)
        if a == 0:
            continue
        minor = m.submatrix(range(1, n), [c for c in range(n) if c != j])
        total += (-1) ** j * a * det(minor)
    return total


def diag_of(m: ExactMatrix):
    return [m.entry(i, i) for i in range(min(m.rows, m.cols))]


class TestExactMatrix:
    def test_mul_and_block(self):
        a = ExactMatrix.from_rows([[1, 2], [3, 4]])
        b = ExactMatrix.from_rows([[0, 1], [1, 0]])
        assert a * b == ExactMatrix.from_rows([[2, 1], [4, 3]])
        blk = ExactMatrix.block([[a, ExactMatrix.zeros(2, 1)],
                                 [ExactMatrix.zeros(1, 2), ExactMatrix.identity(1)]])
        assert blk.rows == 3 and blk.cols == 3
        assert blk.entry(2, 2) == 1

    def test_fraction_entries_stay_canonical(self):
        m = ExactMatrix.from_rows([[Fraction(2, 4)]])
        assert m.entry(0, 0) == Fraction(1, 2)
        assert m.entry(0, 0).denominator == 2

    def test_empty_shapes(self):
        z = ExactMatrix.zeros(0, 3)
        w = ExactMatrix.zeros(3, 0)
        assert (z * w.transpose().transpose()).rows == 0
        assert (w * z).rows == 3 and (w * z).cols == 3


class TestSmithNormalForm:
    def test_identity(self):
        m = ExactMatrix.identity(3)
        u, d, v = smith_normal_form(m)
        assert d == ExactMatrix.identity(3)
        assert u * d * v == m

    def test_spec_2x2(self):
        # oracle: |det| = 8 and gcd of entries 2 force diag(2, 4)
        m = ExactMatrix.from_rows([[2, 4], [6, 8]])
        u, d, v = smith_normal_form(m)
        assert diag_of(d) == [2, 4]
        assert u * d * v == m
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1

    def test_zero_matrix(self):
        m = ExactMatrix.zeros(2, 3)
        u, d, v = smith_normal_form(m)
        assert d.is_zero()
        assert u * d * v == m

    def test_rejects_fractions(self):
        with pytest.raises(InputError):
            smith_normal_form(ExactMatrix.from_rows([[Fraction(1, 2)]]))

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8), st.data())
    def test_random_decomposition(self, rows, cols, data):
        vals = data.draw(st.lists(st.integers(-20, 20),
                                  min_size=rows * cols, max_size=rows * cols))
        m = ExactMatrix.from_rows([vals[i * cols:(i + 1) * cols] for i in range(rows)])
        u, d, v = smith_normal_form(m)
        assert u * d * v == m
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1
        diag = diag_of(d)
        for i, x in enumerate(diag):
            assert x >= 0
            if i and diag[i - 1]:
                assert x % diag[i - 1] == 0
            if i and diag[i - 1] == 0:
                assert x == 0
        for (i, j), val in d.items():
            assert i == j and val != 0

    def test_rank_matches_snf(self):
        m = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        nonzero = sum(1 for x in snf_diagonal(m) if x)
        assert rank_over_field(m, "Q") == nonzero


class TestRank:
    def test_spec_examples(self):
        two = ExactMatrix.from_rows([[2]])
        assert rank_over_field(two, ("Fp", 2)) == 0
        assert rank_over_field(two, "Q") == 1
        m = ExactMatrix.from_rows([[1, 2], [3, 6]])
        assert rank_over_field(m, "Q") == 1

    def test_fp_rejects_bad_denominator(self):
        m = ExactMatrix.from_rows([[Fraction(1, 2)]])
        with pytest.raises(InputError):
            rank_over_field(m, ("Fp", 2))
        assert rank_over_field(m, ("Fp", 3)) == 1

    def test_rational_entries_over_q(self):
        m = ExactMatrix.from_rows([[Fraction(1, 2), 1], [1, 2]])
        assert rank_over_field(m, "Q") == 1

    def test_lower_bound_is_exact_generically(self):
        m = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
        assert rank_lower_bound(m) == rank_over_field(m, "Q") == 3

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_rational_rank_against_gaussian_oracle(self, rows, cols, data):
        vals = data.draw(st.lists(st.integers(-9, 9),
                                  min_size=rows * cols, max_size=rows * cols))
        grid = [[Fraction(vals[i * cols + j]) for j in range(cols)]
                for i in range(rows)]
        m = ExactMatrix.from_rows(grid)
        # oracle: plain Gaussian elimination over Fraction
        work = [row[:] for row in grid]
        rank = 0
        for col in range(cols):
            piv = next((r for r in range(rank, rows) if work[r][col]), None)
            if piv is None:
                continue
            work[rank], work[piv] = work[piv], work[rank]
            pivot = work[rank][col]
            for r in range(rank + 1, rows):
                f = work[r][col] / pivot
                if f:
                    work[r] = [x - f * y for x, y in zip(work[r], work[rank])]
            rank += 1
        assert rank_over_field(m, "Q") == rank
        assert rank_lower_bound(m) <= rank


class TestKernelAndSolve:
    def test_kernel_of_projection(self):
        m = ExactMatrix.from_rows([[1, 0, -1]])
        k = kernel_basis(m)
        assert k.cols == 2
        assert (m * k).is_zero()

    def test_kernel_saturation(self):
        # kernel of [2 -2] is spanned by (1,1), not (2,2)
        k = kernel_basis(ExactMatrix.from_rows([[2, -2]]))
        assert k.cols == 1
        col = [k.entry(0, 0), k.entry(1, 0)]
        assert sorted(abs(x) for x in col) == [1, 1]

    def test_solve_exact(self):
        k = ExactMatrix.from_rows([[1, 0], [1, 2], [0, 1]])
        b = ExactMatrix.from_rows([[2], [4], [1]])
        x = solve_in_span(k, b)
        assert k * x == b

    def test_solve_rejects_outside_span(self):
        k = ExactMatrix.from_rows([[1], [0]])
        b = ExactMatrix.from_rows([[0], [1]])
        with pytest.raises(InputError):
            solve_in_span(k, b)


class TestHomology:
    def test_mod_two_class(self):
        d_in = ExactMatrix.from_rows([[2]])
        d_out = ExactMatrix.zeros(0, 1)
        assert integer_homology_at(d_in, d_out) == AbelianInvariants(0, (2,))

    def test_identity_kills_everything(self):
        d_in = ExactMatrix.identity(3)
        d_out = ExactMatrix.zeros(0, 3)
        assert integer_homology_at(d_in, d_out).is_trivial()

    def test_free_rank_two(self):
        d_in = ExactMatrix.zeros(2, 0)
        d_out = ExactMatrix.zeros(0, 2)
        assert integer_homology_at(d_in, d_out) == AbelianInvariants(2)

    def test_rejects_nonzero_composite(self):
        d_in = ExactMatrix.from_rows([[1]])
        d_out = ExactMatrix.from_rows([[1]])
        with pytest.raises(InputError):
            integer_homology_at(d_in, d_out)
        # ranks that would still add up: only the composite check catches it
        with pytest.raises(InputError, match="composite"):
            integer_homology_at(ExactMatrix.from_rows([[1], [0]]),
                                ExactMatrix.from_rows([[1, 0]]))

    def test_torsion_chain_validated(self):
        with pytest.raises(InputError):
            AbelianInvariants(0, (4, 6))
