from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracturecube.exact_linalg import (
    AbelianInvariants,
    _cleared_int_rows,
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


def int_matrices(rows, cols, bound):
    return st.lists(st.integers(-bound, bound), min_size=rows * cols,
                    max_size=rows * cols).map(lambda vals: ExactMatrix(
                        rows, cols, {(i, j): vals[i * cols + j]
                                     for i in range(rows) for j in range(cols)}))


shapes = st.tuples(st.integers(0, 8), st.integers(0, 8))


def diag_of(m: ExactMatrix):
    return [m.entry(i, i) for i in range(min(m.rows, m.cols))]


class TestExactMatrix:
    def test_mul_and_block(self):
        a = ExactMatrix.from_rows([[1, 2], [3, 4]])
        b = ExactMatrix.from_rows([[0, 1], [1, 0]])
        assert a * b == ExactMatrix.from_rows([[2, 1], [4, 3]])
        blk = ExactMatrix.assemble(3, 3, [(0, 0, a), (2, 2, ExactMatrix.identity(1))])
        assert blk.rows == 3 and blk.cols == 3
        assert blk.entry(2, 2) == 1
        # overlapping pieces add up, and entries that cancel are dropped
        both = ExactMatrix.assemble(2, 3, [(0, 0, a), (0, 1, b), (0, 0, -a)])
        assert both == ExactMatrix.from_rows([[0, 0, 1], [0, 1, 0]]) and both.nnz == 2
        with pytest.raises(InputError):
            ExactMatrix.assemble(2, 2, [(1, 0, a)])

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
    @given(st.integers(0, 8), st.integers(0, 8), st.data())
    def test_random_decomposition(self, rows, cols, data):
        m = data.draw(int_matrices(rows, cols, 20))
        u, d, v = smith_normal_form(m)
        assert (u.rows, u.cols, v.rows, v.cols) == (rows, rows, cols, cols)
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


    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 5), st.data())
    def test_cleared_rows_against_dense_oracle(self, rows, cols, data):
        cells = data.draw(st.lists(
            st.tuples(st.integers(-9, 9), st.sampled_from((1, 1, 2, 3, 4, 6))),
            min_size=rows * cols, max_size=rows * cols))
        grid = [[Fraction(*cells[i * cols + j]) for j in range(cols)]
                for i in range(rows)]
        # oracle: each dense row times the lcm of its denominators
        want = []
        for row in grid:
            mult = 1
            for v in row:
                mult = mult * v.denominator // gcd(mult, v.denominator)
            want.append([int(v * mult) for v in row])
        assert _cleared_int_rows(ExactMatrix(rows, cols, {
            (i, j): v for i, row in enumerate(grid) for j, v in enumerate(row)})) == want


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

    @settings(max_examples=150, deadline=None)
    @given(shapes.flatmap(lambda s: int_matrices(*s, 6)))
    def test_kernel_oracle(self, m):
        k = kernel_basis(m)
        assert k.rows == m.cols
        assert k.cols == m.cols - rank_over_field(m, "Q")
        assert (m * k).is_zero()
        # saturated: the columns span a direct summand of Z^cols
        assert all(x == 1 for x in snf_diagonal(k))

    @settings(max_examples=150, deadline=None)
    @given(shapes.flatmap(lambda s: st.tuples(
        int_matrices(*s, 6),
        st.integers(0, 3).flatmap(lambda n: int_matrices(s[1], n, 4)))))
    def test_solve_oracle(self, mx):
        k, x0 = mx
        b = k * x0
        x = solve_in_span(k, b)
        assert (x.rows, x.cols) == (k.cols, b.cols)
        assert k * x == b
        assert x.is_integral()
        half = solve_in_span(k, b.scale(Fraction(1, 2)))
        assert k * half == b.scale(Fraction(1, 2))

    @settings(max_examples=100, deadline=None)
    @given(shapes.flatmap(lambda s: int_matrices(*s, 6)))
    def test_solve_rejects_target_outside_span(self, k):
        # a nonzero w with k^T w = 0 is orthogonal to the column span, so
        # outside it; a zero row appended below k makes sure one exists
        if rank_over_field(k, "Q") == k.rows:
            k = ExactMatrix.assemble(k.rows + 1, k.cols, [(0, 0, k)])
        w = kernel_basis(k.transpose()).column(0)
        with pytest.raises(InputError):
            solve_in_span(k, w)


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
