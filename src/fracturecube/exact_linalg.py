"""Exact integer and rational matrix algebra.

Everything is arbitrary precision. A matrix stores its nonzero entries
as integer numerators over one positive common denominator, reduced so
that no prime divides the denominator and all numerators; equal
matrices thus have equal fields. Products and sums are integer
arithmetic, and the eliminations read the numerators directly:
`fractions.Fraction` appears only where entries enter or leave.
Smith normal form pivots on the smallest nonzero absolute value with
row-major tie breaking, so outputs are reproducible. Ranks mod p reduce
sparse rows of residues in Python ints, so any prime works.

Matrices act on column vectors, composition is matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

_RANK_CERT_PRIME = 2147483629  # fixed 31-bit prime for the fast rank bound
# Miller-Rabin on the twelve bases 2..37 decides primality exactly below
# this bound (Sorenson and Webster); it is itself a strong pseudoprime
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_BOUND = 318665857834031151167461


class InputError(ValueError):
    """Bad argument for an exact-algebra operation."""


def _frac(x) -> Fraction:
    if isinstance(x, (Fraction, int, str)):
        return Fraction(x)
    raise InputError(f"not an exact scalar: {x!r}")


class ExactMatrix:
    """Immutable sparse matrix of exact rationals.

    `_n` maps (row, column) to a nonzero integer numerator and `den` is
    the positive common denominator, with gcd(den, every numerator) = 1.
    """

    __slots__ = ("rows", "cols", "_n", "den")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise InputError("negative matrix dimension")
        d = {}
        if entries:
            for (i, j), v in entries.items():
                v = _frac(v)
                if not (0 <= i < rows and 0 <= j < cols):
                    raise InputError(f"entry ({i},{j}) outside {rows}x{cols}")
                if v != 0:
                    d[(i, j)] = v
        # the lcm of reduced denominators leaves no common factor behind
        den = lcm(*(v.denominator for v in d.values()))
        self.rows, self.cols, self.den = rows, cols, den
        self._n = {k: v.numerator * (den // v.denominator) for k, v in d.items()}

    @classmethod
    def from_rows(cls, data) -> "ExactMatrix":
        data = [list(r) for r in data]
        rows = len(data)
        cols = len(data[0]) if rows else 0
        if any(len(row) != cols for row in data):
            raise InputError("ragged rows")
        return cls(rows, cols, {(i, j): v for i, row in enumerate(data)
                                for j, v in enumerate(row)})

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        if n <= 0:
            return cls.zeros(n, n)
        return cls._trusted(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        if rows < 0 or cols < 0:
            raise InputError("negative matrix dimension")
        return cls._trusted(rows, cols, {})

    @classmethod
    def _trusted(cls, rows: int, cols: int, n: dict, den: int = 1) -> "ExactMatrix":
        # fast path for nonzero int numerators inside the shape over den > 0
        if den != 1:
            g = gcd(den, *n.values())
            if g != 1:
                n = {k: v // g for k, v in n.items()}
                den //= g
        m = object.__new__(cls)
        m.rows, m.cols, m._n, m.den = rows, cols, n, den
        return m

    @classmethod
    def assemble(cls, rows: int, cols: int, pieces) -> "ExactMatrix":
        """Sum of (row offset, column offset, matrix) pieces placed in a rows x cols matrix."""
        return cls.assemble_signed(rows, cols, [(ro, co, m, 1) for ro, co, m in pieces])

    @classmethod
    def assemble_signed(cls, rows: int, cols: int, pieces) -> "ExactMatrix":
        """Sum of (row offset, column offset, matrix, sign) pieces, no negated copies:
        over the lcm of the denominators, each numerator scaled by sign * lcm / den."""
        den = lcm(*(m.den for _, _, m, _ in pieces))
        d = {}
        for ro, co, m, sign in pieces:
            if ro < 0 or co < 0 or ro + m.rows > rows or co + m.cols > cols:
                raise InputError(f"{m.rows}x{m.cols} piece at ({ro},{co}) "
                                 f"outside {rows}x{cols}")
            s = sign * (den // m.den)
            for (i, j), v in m._n.items():
                key = (ro + i, co + j)
                v *= s
                d[key] = d[key] + v if key in d else v
        return cls._trusted(rows, cols, {k: v for k, v in d.items() if v}, den)

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self._n.get((i, j), 0), self.den)

    def items(self):
        return ((k, Fraction(v, self.den)) for k, v in self._n.items())

    @property
    def nnz(self) -> int:
        return len(self._n)

    def is_zero(self) -> bool:
        return not self._n

    def is_integral(self) -> bool:
        return self.den == 1

    def denominators(self):
        return {self.den // gcd(self.den, v) for v in self._n.values()}

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix._trusted(self.cols, self.rows,
                                    {(j, i): v for (i, j), v in self._n.items()}, self.den)

    def scale(self, c) -> "ExactMatrix":
        num, den = (c, 1) if isinstance(c, int) else _frac(c).as_integer_ratio()
        return ExactMatrix._trusted(self.rows, self.cols,
                                    {k: num * v for k, v in self._n.items()} if num else {},
                                    self.den * den)

    def __neg__(self) -> "ExactMatrix":
        return self.scale(-1)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError("shape mismatch in add")
        return ExactMatrix.assemble(self.rows, self.cols, ((0, 0, self), (0, 0, other)))

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + (-other)

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise InputError("shape mismatch in mul")
        by_row = {}
        for (j, k), v in other._n.items():
            by_row.setdefault(j, []).append((k, v))
        acc = {}
        for (i, j), a in self._n.items():
            for k, b in by_row.get(j, ()):
                key = (i, k)
                acc[key] = acc.get(key, 0) + a * b
        return ExactMatrix._trusted(self.rows, other.cols,
                                    {k: v for k, v in acc.items() if v},
                                    self.den * other.den)

    def submatrix(self, row_idx, col_idx) -> "ExactMatrix":
        rmap = {r: i for i, r in enumerate(row_idx)}
        cmap = {c: j for j, c in enumerate(col_idx)}
        entries = {}
        for (i, j), v in self._n.items():
            if i in rmap and j in cmap:
                entries[(rmap[i], cmap[j])] = v
        return ExactMatrix._trusted(len(row_idx), len(col_idx), entries, self.den)

    def column(self, j: int) -> "ExactMatrix":
        return self.submatrix(range(self.rows), [j])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return ((self.rows, self.cols, self.den, self._n)
                == (other.rows, other.cols, other.den, other._n))

    __hash__ = None

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


@dataclass(frozen=True)
class AbelianInvariants:
    """Canonical form of a finitely generated abelian group."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise InputError("negative free rank")
        prev = None
        for d in self.torsion:
            if d < 2:
                raise InputError("torsion coefficients must be >= 2")
            if prev is not None and d % prev != 0:
                raise InputError("torsion coefficients must form a divisibility chain")
            prev = d

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


# --- Smith normal form -------------------------------------------------------

def _num_rows(m: ExactMatrix):
    """Dense integer row list of den * m."""
    out = [[0] * m.cols for _ in range(m.rows)]
    for (i, j), v in m._n.items():
        out[i][j] = v
    return out


def _int_rows(m: ExactMatrix):
    if m.den != 1:
        raise InputError("matrix has a non-integral entry")
    return _num_rows(m)


def _eye(n: int):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _smith(a, rows: int, cols: int) -> None:
    """Bring the leading rows x cols block of an integer row list to Smith form.

    Works in place by unimodular operations. Row operations act on whole
    rows and column operations on whole columns, while pivot search and
    the divisibility fix read only the block. So columns appended to the
    leading rows record the row operations and rows appended below record
    the column operations: an identity appended on the right ends as uinv,
    one appended below ends as vinv, and uinv * m * vinv = d.
    """

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row_dst += c * row_src
        if c:
            a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]

    def add_col(src, dst, c):
        # col_dst += c * col_src
        if c:
            for row in a:
                row[dst] += c * row[src]

    def find_pivot(t):
        best = None
        best_val = None
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                x = row[j]
                if x != 0:
                    ax = abs(x)
                    if best_val is None or ax < best_val:
                        best_val = ax
                        best = (i, j)
                        if ax == 1:
                            return best
        return best

    t = 0
    limit = min(rows, cols)
    while t < limit:
        piv = find_pivot(t)
        if piv is None:
            break
        swap_rows(piv[0], t)
        swap_cols(piv[1], t)
        while True:
            # clear column t below the pivot
            again = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    add_row(t, i, -(a[i][t] // a[t][t]))
                    if a[i][t] != 0:
                        swap_rows(i, t)
                        again = True
            if again:
                continue
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    add_col(t, j, -(a[t][j] // a[t][t]))
                    if a[t][j] != 0:
                        swap_cols(j, t)
                        again = True
            if again:
                continue
            # pivot now alone in its row and column; enforce divisibility
            fix = None
            for i in range(t + 1, rows):
                row = a[i]
                for j in range(t + 1, cols):
                    if row[j] % a[t][t] != 0:
                        fix = i
                        break
                if fix is not None:
                    break
            if fix is None:
                break
            add_row(fix, t, 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        t += 1


def snf_diagonal(m: ExactMatrix) -> list[int]:
    a = _int_rows(m)
    _smith(a, m.rows, m.cols)
    return [a[i][i] for i in range(min(m.rows, m.cols))]


def kernel_basis(m: ExactMatrix) -> ExactMatrix:
    """Basis of the integer kernel as matrix columns.

    The basis spans a saturated sublattice, so it also gives the kernel
    over any localization of Z and over Q. The kernel of den * m is that
    of m, so the numerators serve for any denominator.
    """
    a = _num_rows(m) + _eye(m.cols)
    _smith(a, m.rows, m.cols)
    n = min(m.rows, m.cols)
    ker_cols = [j for j in range(m.cols) if j >= n or a[j][j] == 0]
    vinv = a[m.rows:]
    return ExactMatrix._trusted(m.cols, len(ker_cols),
                                {(i, jj): vinv[i][j] for jj, j in enumerate(ker_cols)
                                 for i in range(m.cols) if vinv[i][j]})


def solve_in_span(k: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Solve k * x = b exactly; the columns of b must lie in the span of k.

    Solutions are integral whenever b lies in the lattice spanned by the
    columns of k. Raises InputError if some column is outside the span.
    """
    if k.rows != b.rows:
        raise InputError("shape mismatch in solve_in_span")
    # k * x = b is (k.den * k) * x = k.den * b; b's numerators ride on the right
    a = [row + r for row, r in zip(_num_rows(k), _num_rows(b))] + _eye(k.cols)
    _smith(a, k.rows, k.cols)
    # y = diag(d)^-1 * (transformed numerators) * k.den / b.den, over lcm(d) * b.den
    divs = [a[i][i] if i < k.cols else 0 for i in range(k.rows)]
    if any(d == 0 and any(a[i][k.cols:]) for i, d in enumerate(divs)):
        raise InputError("target outside column span")
    mult = lcm(*(x for x in divs if x))
    y = {(i, j): val * (mult // divs[i]) * k.den for i in range(k.rows)
         for j, val in enumerate(a[i][k.cols:]) if val}
    vinv = ExactMatrix._trusted(k.cols, k.cols, {
        (i, j): x for i, row in enumerate(a[k.rows:]) for j, x in enumerate(row) if x})
    return vinv * ExactMatrix._trusted(k.cols, b.cols, y, mult * b.den)


# --- rank computations --------------------------------------------------------

def _rank_mod(m: ExactMatrix, p: int) -> int:
    """Exact rank of den * m over F_p, for a prime p.

    Row reduction on {column: residue} rows in Python ints: each row is
    reduced against the stored pivot rows by its least column until it is
    zero or leads in a column no pivot row has; it is then stored, scaled
    to lead with 1. The pivot rows are in echelon form, so their number is
    the rank.
    """
    rows = {}
    for (i, j), v in m._n.items():
        v %= p
        if v:
            rows.setdefault(i, {})[j] = v
    pivots = {}  # leading column -> pivot row
    for row in rows.values():
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(row[c], -1, p)
                pivots[c] = {k: v * inv % p for k, v in row.items()}
                break
            f = row[c]
            for k, v in piv.items():
                x = (row.get(k, 0) - f * v) % p
                if x:
                    row[k] = x
                else:
                    del row[k]
    return len(pivots)


def _rank_bareiss(int_rows) -> int:
    """Exact rank via fraction-free elimination."""
    a = [row[:] for row in int_rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        best = None
        for r in range(rank, nrows):
            x = a[r][col]
            if x != 0 and (best is None or abs(x) < best):
                best = abs(x)
                piv = r
                if best == 1:
                    break
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
        pivot = a[rank][col]
        # every row below must be updated, zero factor included, or the
        # fraction-free minor invariant (and the exact divisions) break
        for r in range(rank + 1, nrows):
            factor = a[r][col]
            row = a[r]
            prow = a[rank]
            for c in range(col, ncols):
                row[c] = (row[c] * pivot - factor * prow[c]) // prev
        prev = pivot
        rank += 1
        if rank == nrows:
            break
    return rank


def rank_over_field(m: ExactMatrix, field) -> int:
    """Exact rank over Q (field="Q") or over F_p (field=("Fp", p)).

    Over F_p every entry denominator must be coprime to p.
    """
    if field == "Q":
        return _rank_bareiss(_num_rows(m))
    if isinstance(field, tuple) and field[0] == "Fp":
        _require_primes(field[1:])
        return _rank_fp(m, field[1])
    raise InputError(f"unknown field spec {field!r}")


def _rank_fp(m: ExactMatrix, p: int) -> int:
    """Rank over F_p of a matrix whose denominators are all prime to p.

    den is then a unit mod p, so den * m has the same rank.
    """
    if m.den % p == 0:
        (i, j), v = next((k, v) for k, v in m.items() if v.denominator % p == 0)
        raise InputError(
            f"denominator {v.denominator} not invertible mod {p} at ({i},{j})")
    return _rank_mod(m, p)


def rank_lower_bound(m: ExactMatrix) -> int:
    """Fast lower bound for the rational rank (modular, fixed prime).

    Never exceeds the true rank; used to certify exactness cheaply, with
    rank_over_field(m, "Q") as the exact fallback.
    """
    return _rank_mod(m, _RANK_CERT_PRIME)


def _is_prime(n: int) -> bool:
    """Exact primality below _PRIME_BOUND; at or above it, InputError.

    Only an int can be prime: 2.0 and True are not.
    """
    if not isinstance(n, int) or n < 2:
        return False
    if n >= _PRIME_BOUND:
        raise InputError(f"{n} is not below {_PRIME_BOUND}, the bound under "
                         "which primality is decided exactly")
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_primes(primes):
    for p in primes:
        if not _is_prime(p):
            raise InputError(f"{p} is not prime")


# --- homology -----------------------------------------------------------------

def p_part(d: int, primes) -> int:
    out = 1
    for p in primes:
        while d % p == 0:
            d //= p
            out *= p
    return out


def integer_homology(ranks: dict, diffs: dict) -> dict[int, AbelianInvariants]:
    """Homology of an integer chain complex, read off Smith diagonals.

    ranks[n] is the rank of C_n and diffs[n] the matrix of d_n: C_n -> C_{n-1};
    a missing differential is zero. Each differential is reduced once by
    snf_diagonal. H_n then has free rank dim C_n - rank d_n - rank d_{n+1},
    and its torsion is the elementary divisors of d_{n+1} greater than 1.
    Returns an entry, trivial or not, for every degree of ranks. The
    input must be an integral complex of matching shapes; this is not
    checked, as every caller builds one (integer_homology_at checks).
    """
    divisors = {n: [x for x in snf_diagonal(d) if x] for n, d in diffs.items()}
    out = {}
    for n, dim in ranks.items():
        into = divisors.get(n + 1, ())
        free = dim - len(divisors.get(n, ())) - len(into)
        out[n] = AbelianInvariants(free, tuple(x for x in into if x > 1))
    return out


def integer_homology_at(d_in: ExactMatrix, d_out: ExactMatrix) -> AbelianInvariants:
    """ker(d_out) / im(d_in) in canonical form, for integral matrices.

    d_in maps into the middle term, d_out maps out of it; the composite
    must vanish exactly.
    """
    if d_out.cols != d_in.rows:
        raise InputError("shape mismatch: d_out.cols must equal d_in.rows")
    if not (d_in.is_integral() and d_out.is_integral()):
        raise InputError("matrix has a non-integral entry")
    if not (d_out * d_in).is_zero():
        raise InputError("composite d_0 * d_1 is nonzero")
    ranks = {-1: d_out.rows, 0: d_out.cols, 1: d_in.cols}
    return integer_homology(ranks, {0: d_out, 1: d_in})[0]
