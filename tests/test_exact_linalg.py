import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracturecube.exact_linalg import (
    AbelianInvariants,
    ExactMatrix,
    InputError,
    _PRIME_BOUND,
    _is_prime,
    _rank_mod,
    _require_primes,
    integer_homology_at,
    kernel_basis,
    rank_lower_bound,
    rank_over_field,
    snf_diagonal,
    solve_in_span,
)
from fracturecube.fracture import LocalizationFamily
from fracturecube.sorted_complex import Sort, complete

from genutil import (
    assert_canonical,
    frac_add,
    frac_assemble,
    frac_mul,
    frac_of,
    frac_scale,
    frac_sub,
    frac_submatrix,
    frac_transpose,
    smith_normal_form,
    to_rows,
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
small_fractions = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 6)))


@st.composite
def frac_matrices(draw, rows, cols):
    cells = draw(st.lists(st.one_of(st.just(0), small_fractions),
                          min_size=rows * cols, max_size=rows * cols))
    return ExactMatrix(rows, cols, {(i, j): cells[i * cols + j]
                                    for i in range(rows) for j in range(cols)})


@st.composite
def matrix_step(draw, m):
    """One operation on m: (the result, the same on the oracle form)."""
    a = frac_of(m)
    op = draw(st.sampled_from(("mul", "add", "sub", "scale_int", "scale_frac",
                               "transpose", "submatrix", "assemble")))
    if op == "mul":
        other = draw(frac_matrices(m.cols, draw(st.integers(0, 4))))
        return m * other, frac_mul(a, frac_of(other))
    if op in ("add", "sub"):
        other = draw(frac_matrices(m.rows, m.cols))
        if op == "add":
            return m + other, frac_add(a, frac_of(other))
        return m - other, frac_sub(a, frac_of(other))
    if op == "scale_int":
        c = draw(st.integers(-4, 4))
        return m.scale(c), frac_scale(a, c)
    if op == "scale_frac":
        c = draw(small_fractions)
        return m.scale(c), frac_scale(a, c)
    if op == "transpose":
        return m.transpose(), frac_transpose(a)
    if op == "submatrix":
        rows = draw(st.lists(st.integers(0, m.rows - 1), unique=True)) if m.rows else []
        cols = draw(st.lists(st.integers(0, m.cols - 1), unique=True)) if m.cols else []
        return m.submatrix(rows, cols), frac_submatrix(a, rows, cols)
    # overlapping pieces: m twice and a second matrix, in a larger frame
    other = draw(frac_matrices(m.rows, m.cols))
    ro, co = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    pieces = [(0, 0, m), (ro, co, other), (ro, co, m)]
    shape = (m.rows + ro, m.cols + co)
    return (ExactMatrix.assemble(*shape, pieces),
            frac_assemble(*shape, [(x, y, frac_of(p)) for x, y, p in pieces]))


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

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 4), st.integers(0, 4), st.data())
    def test_operation_chains_against_fraction_oracle(self, rows, cols, data):
        m = data.draw(frac_matrices(rows, cols))
        seen = [(m, frac_of(m))]
        for _ in range(data.draw(st.integers(1, 6))):
            m, want = data.draw(matrix_step(m))
            assert_canonical(m)
            assert frac_of(m) == want
            assert m == ExactMatrix(*want)
            # == agrees with the oracle's equality on every earlier matrix
            for earlier, oracle in seen:
                assert (m == earlier) == (want == oracle)
            seen.append((m, want))

    def test_canonical_form(self):
        m = ExactMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [0, 2]])
        assert m.den == 6 and m._n == {(0, 0): 3, (0, 1): 2, (1, 1): 12}
        assert m.denominators() == {2, 3, 1}
        assert not m.is_integral() and m.scale(6).is_integral()
        # a sum that cancels its denominators comes back over 1
        half = ExactMatrix.from_rows([[Fraction(1, 2)]])
        assert (half + half).den == 1 and (half + half) == ExactMatrix.identity(1)
        assert (half - half).den == 1 and (half - half).is_zero()
        assert half.scale(Fraction(2, 3)) == ExactMatrix.from_rows([[Fraction(1, 3)]])

    def test_empty_shapes(self):
        z = ExactMatrix.zeros(0, 3)
        w = ExactMatrix.zeros(3, 0)
        assert (z * w.transpose().transpose()).rows == 0
        assert (w * z).rows == 3 and (w * z).cols == 3
        assert ExactMatrix.identity(0) == ExactMatrix.zeros(0, 0)
        for make in (lambda: ExactMatrix.zeros(-1, 2), lambda: ExactMatrix.zeros(2, -1),
                     lambda: ExactMatrix.identity(-1), lambda: ExactMatrix(-1, 0)):
            with pytest.raises(InputError, match="negative"):
                make()


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

    @staticmethod
    def assert_rank_against_gaussian_oracle(grid, rows, cols):
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

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_rational_rank_against_gaussian_oracle(self, rows, cols, data):
        vals = data.draw(st.lists(st.integers(-9, 9),
                                  min_size=rows * cols, max_size=rows * cols))
        self.assert_rank_against_gaussian_oracle(
            [[Fraction(vals[i * cols + j]) for j in range(cols)] for i in range(rows)],
            rows, cols)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 5), st.data())
    def test_fractional_rank_against_gaussian_oracle(self, rows, cols, data):
        # entries over mixed denominators: the ranks read den * m
        cells = data.draw(st.lists(
            st.tuples(st.integers(-9, 9), st.sampled_from((1, 2, 3, 4, 6))),
            min_size=rows * cols, max_size=rows * cols))
        self.assert_rank_against_gaussian_oracle(
            [[Fraction(*cells[i * cols + j]) for j in range(cols)] for i in range(rows)],
            rows, cols)


# the residue primes: small, the fixed 31-bit certificate prime, and one past 2^31
MOD_PRIMES = (2, 3, 5, 7, 2147483629, 2147483659)


def gauss_rank_mod(m: ExactMatrix, p: int) -> int:
    """Plain Gaussian elimination on the dense residues of den * m."""
    assert m.is_integral()
    work = [[int(x) % p for x in row] for row in to_rows(m)]
    rank = 0
    for col in range(m.cols):
        piv = next((r for r in range(rank, m.rows) if work[r][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][col], -1, p)
        for r in range(rank + 1, m.rows):
            f = work[r][col] * inv % p
            if f:
                work[r] = [(x - f * y) % p for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank


residue_entries = st.one_of(st.integers(-9, 9), st.sampled_from((10 ** 30, -10 ** 30)))


@st.composite
def residue_matrices(draw, side):
    rows, cols = draw(st.integers(0, side)), draw(st.integers(0, side))
    if not rows or not cols:
        return ExactMatrix.zeros(rows, cols)
    cells = draw(st.dictionaries(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
                                 residue_entries, max_size=rows * cols))
    return ExactMatrix(rows, cols, cells)


def seeded_residue_matrices():
    """Shapes up to 24x24, dense and sparse, many rank deficient."""
    rng = random.Random(15)
    out = []
    for n, r in ((13, 13), (16, 16), (16, 5), (20, 12), (24, 24), (24, 3)):
        # dense of rank <= r, as a product n x r times r x n
        a = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(n)]
        b = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(r)]
        out.append(ExactMatrix.from_rows(
            [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]))
    for n, per_row in ((24, 1), (24, 2), (21, 3), (22, 3), (24, 3)):
        cells = {(i, j): rng.choice((rng.randint(-9, 9), 10 ** 30))
                 for i in range(n) for j in rng.sample(range(n), per_row)}
        out.append(ExactMatrix(n, n, cells))
    # 10^30 is divisible by 2 and 5, so the first two rows agree mod both
    out.append(ExactMatrix.from_rows([[10 ** 30 + 1, 3, 0], [1, 3, 0], [0, 0, 7]]))
    return out


class TestModularRank:
    @settings(max_examples=200, deadline=None)
    @given(residue_matrices(12), st.sampled_from(MOD_PRIMES))
    def test_against_gaussian_oracle(self, m, p):
        assert _rank_mod(m, p) == gauss_rank_mod(m, p)

    @pytest.mark.parametrize("p", MOD_PRIMES)
    def test_larger_shapes_against_gaussian_oracle(self, p):
        ranks = []
        for m in seeded_residue_matrices():
            ranks.append(_rank_mod(m, p))
            assert ranks[-1] == gauss_rank_mod(m, p)
        # the products have rank at most their inner size
        assert ranks[3] <= 12 and ranks[5] <= 3

    def test_primes_past_31_bits(self):
        # each p here used to be refused as too large for the modular rank
        for p in (2147483659, 2 ** 61 - 1):
            m = ExactMatrix.from_rows([[p, 1], [0, p], [2 * p, 5]])
            assert rank_over_field(m, ("Fp", p)) == 1
            assert rank_over_field(m, "Q") == 2
        big = ExactMatrix.from_rows([[i * j + 1 for j in range(12)] for i in range(12)])
        assert rank_over_field(big, ("Fp", 2147483659)) == gauss_rank_mod(big, 2147483659) == 2


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

    @settings(max_examples=100, deadline=None)
    @given(shapes.flatmap(lambda s: int_matrices(*s, 6)), st.integers(1, 12))
    def test_kernel_ignores_a_common_denominator(self, m, k):
        assert kernel_basis(m.scale(Fraction(1, k))) == kernel_basis(m)

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

    def test_solve_with_a_denominator_in_k(self):
        x = solve_in_span(ExactMatrix.from_rows([[Fraction(1, 2)]]), ExactMatrix.from_rows([[1]]))
        assert x == ExactMatrix.from_rows([[2]])

    @settings(max_examples=100, deadline=None)
    @given(shapes.flatmap(lambda s: st.tuples(
        int_matrices(*s, 6),
        st.integers(0, 3).flatmap(lambda n: frac_matrices(s[1], n)))),
        st.integers(1, 12))
    def test_solve_against_k_with_a_denominator(self, mx, d):
        m, x0 = mx
        k = m.scale(Fraction(1, d))
        b = k * x0
        x = solve_in_span(k, b)
        assert (x.rows, x.cols) == (k.cols, b.cols)
        assert k * x == b

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


class TestPrimality:
    def test_matches_a_sieve(self):
        n = 10 ** 5
        sieve = [False, False] + [True] * (n - 2)
        for p in range(2, int(n ** 0.5) + 1):
            if sieve[p]:
                sieve[p * p::p] = [False] * len(range(p * p, n, p))
        assert [k for k in range(n) if _is_prime(k)] == [k for k in range(n) if sieve[k]]

    def test_large_primes_below_the_bound(self):
        assert _is_prime(2 ** 61 - 1)
        assert not _is_prime(2 ** 61 + 1)
        assert _is_prime(2 ** 31 - 1)
        _require_primes((2 ** 61 - 1,))
        assert Sort("Zp", 2 ** 61 - 1).prime == 2 ** 61 - 1

    def test_strong_pseudoprime_at_the_bound_is_refused(self):
        # 399165290221 * 798330580441 passes Miller-Rabin on the bases 2..37
        n = _PRIME_BOUND
        assert n == 399165290221 * 798330580441
        for call in (lambda: _is_prime(n), lambda: _is_prime(n + 2),
                     lambda: _require_primes((2, n)), lambda: Sort("Zp", n),
                     lambda: Sort("Qp", n), lambda: complete(n),
                     lambda: LocalizationFamily((n,))):
            with pytest.raises(InputError, match=str(_PRIME_BOUND)):
                call()
