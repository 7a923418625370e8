"""Exact integer and rational matrix algebra.

Everything is arbitrary precision: rationals are `fractions.Fraction`
(lowest terms, positive denominator, for free), integers are Python ints.
Smith normal form pivots on the smallest nonzero absolute value with
row-major tie breaking, so outputs are reproducible.

Matrices act on column vectors, composition is matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

_RANK_CERT_PRIME = 2147483629  # fixed 31-bit prime for the fast rank bound


class InputError(ValueError):
    """Bad argument for an exact-algebra operation."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise InputError(f"not an exact scalar: {x!r}")


class ExactMatrix:
    """Immutable sparse matrix of exact rationals."""

    __slots__ = ("rows", "cols", "_d")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise InputError("negative matrix dimension")
        self.rows = rows
        self.cols = cols
        d = {}
        if entries:
            for (i, j), v in entries.items():
                v = _frac(v)
                if not (0 <= i < rows and 0 <= j < cols):
                    raise InputError(f"entry ({i},{j}) outside {rows}x{cols}")
                if v != 0:
                    d[(i, j)] = v
        self._d = d

    @classmethod
    def from_rows(cls, data) -> "ExactMatrix":
        data = [list(r) for r in data]
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for i, row in enumerate(data):
            if len(row) != cols:
                raise InputError("ragged rows")
            for j, v in enumerate(row):
                entries[(i, j)] = _frac(v)
        return cls(rows, cols, entries)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, {(i, i): Fraction(1) for i in range(n)})

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols)

    @classmethod
    def block(cls, layout) -> "ExactMatrix":
        """Assemble from a grid of matrices; each grid row/column must agree in size."""
        if not layout or not layout[0]:
            return cls(0, 0)
        row_heights = [r[0].rows for r in layout]
        col_widths = [m.cols for m in layout[0]]
        entries = {}
        roff = 0
        for bi, brow in enumerate(layout):
            if len(brow) != len(col_widths):
                raise InputError("ragged block layout")
            coff = 0
            for bj, m in enumerate(brow):
                if m.rows != row_heights[bi] or m.cols != col_widths[bj]:
                    raise InputError("block size mismatch")
                for (i, j), v in m._d.items():
                    entries[(roff + i, coff + j)] = v
                coff += m.cols
            roff += brow[0].rows
        return cls(sum(row_heights), sum(col_widths), entries)

    def entry(self, i: int, j: int) -> Fraction:
        return self._d.get((i, j), Fraction(0))

    def items(self):
        return self._d.items()

    def to_rows(self):
        out = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for (i, j), v in self._d.items():
            out[i][j] = v
        return out

    @property
    def nnz(self) -> int:
        return len(self._d)

    def is_zero(self) -> bool:
        return not self._d

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self._d.values())

    def denominators(self):
        return {v.denominator for v in self._d.values()}

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.cols, self.rows,
                           {(j, i): v for (i, j), v in self._d.items()})

    def scale(self, c) -> "ExactMatrix":
        c = _frac(c)
        return ExactMatrix(self.rows, self.cols,
                           {k: c * v for k, v in self._d.items()})

    def __neg__(self) -> "ExactMatrix":
        return self.scale(-1)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError("shape mismatch in add")
        d = dict(self._d)
        for k, v in other._d.items():
            d[k] = d.get(k, Fraction(0)) + v
        return ExactMatrix(self.rows, self.cols, d)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + (-other)

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise InputError("shape mismatch in mul")
        by_row = {}
        for (j, k), v in other._d.items():
            by_row.setdefault(j, []).append((k, v))
        acc = {}
        for (i, j), a in self._d.items():
            for k, b in by_row.get(j, ()):
                key = (i, k)
                acc[key] = acc.get(key, Fraction(0)) + a * b
        return ExactMatrix(self.rows, other.cols, acc)

    def submatrix(self, row_idx, col_idx) -> "ExactMatrix":
        rmap = {r: i for i, r in enumerate(row_idx)}
        cmap = {c: j for j, c in enumerate(col_idx)}
        entries = {}
        for (i, j), v in self._d.items():
            if i in rmap and j in cmap:
                entries[(rmap[i], cmap[j])] = v
        return ExactMatrix(len(row_idx), len(col_idx), entries)

    def column(self, j: int) -> "ExactMatrix":
        return self.submatrix(range(self.rows), [j])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols, self._d) == (other.rows, other.cols, other._d)

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

def _int_rows(m: ExactMatrix):
    if not m.is_integral():
        raise InputError("matrix has a non-integral entry")
    out = [[0] * m.cols for _ in range(m.rows)]
    for (i, j), v in m.items():
        out[i][j] = v.numerator
    return out


def _snf_transforms(a):
    """Diagonalize an integer matrix in place by unimodular row/column ops.

    Returns (u, uinv, d, v, vinv) as lists of int lists with
    original = u * d * v and uinv * original * vinv = d.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d = [row[:] for row in a]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    uinv = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]
    vinv = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        if i == j:
            return
        d[i], d[j] = d[j], d[i]
        uinv[i], uinv[j] = uinv[j], uinv[i]
        for r in range(rows):
            u[r][i], u[r][j] = u[r][j], u[r][i]

    def swap_cols(i, j):
        if i == j:
            return
        for r in range(rows):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        for r in range(cols):
            vinv[r][i], vinv[r][j] = vinv[r][j], vinv[r][i]
        v[i], v[j] = v[j], v[i]

    def add_row(src, dst, c):
        # row_dst += c * row_src
        if c == 0:
            return
        drow = d[dst]
        srow = d[src]
        for k in range(cols):
            drow[k] += c * srow[k]
        irow = uinv[dst]
        jrow = uinv[src]
        for k in range(rows):
            irow[k] += c * jrow[k]
        for r in range(rows):
            u[r][src] -= c * u[r][dst]

    def add_col(src, dst, c):
        # col_dst += c * col_src
        if c == 0:
            return
        for r in range(rows):
            d[r][dst] += c * d[r][src]
        for r in range(cols):
            vinv[r][dst] += c * vinv[r][src]
        vs = v[src]
        vd = v[dst]
        for k in range(cols):
            vs[k] -= c * vd[k]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        uinv[i] = [-x for x in uinv[i]]
        for r in range(rows):
            u[r][i] = -u[r][i]

    def find_pivot(t):
        best = None
        best_val = None
        for i in range(t, rows):
            row = d[i]
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
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    add_row(t, i, -q)
                    if d[i][t] != 0:
                        swap_rows(i, t)
                        again = True
            if again:
                continue
            for j in range(t + 1, cols):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    add_col(t, j, -q)
                    if d[t][j] != 0:
                        swap_cols(j, t)
                        again = True
            if again:
                continue
            # pivot now alone in its row and column; enforce divisibility
            fix = None
            for i in range(t + 1, rows):
                row = d[i]
                for j in range(t + 1, cols):
                    if row[j] % d[t][t] != 0:
                        fix = i
                        break
                if fix is not None:
                    break
            if fix is None:
                break
            add_row(fix, t, 1)
        if d[t][t] < 0:
            negate_row(t)
        t += 1
    return u, uinv, d, v, vinv


def smith_normal_form(m: ExactMatrix):
    """Exact Smith decomposition m = u * d * v.

    u and v are unimodular, d is diagonal with nonnegative entries
    d1 | d2 | ... Raises InputError on non-integral input.
    """
    a = _int_rows(m)
    u, _, d, v, _ = _snf_transforms(a)
    return (ExactMatrix.from_rows(u) if u else ExactMatrix(0, 0),
            ExactMatrix.from_rows(d) if d else ExactMatrix(0, m.cols),
            ExactMatrix.from_rows(v) if v else ExactMatrix(m.rows and 0, m.cols))


def snf_diagonal(m: ExactMatrix) -> list[int]:
    a = _int_rows(m)
    _, _, d, _, _ = _snf_transforms(a)
    n = min(m.rows, m.cols)
    return [d[i][i] for i in range(n)]


def kernel_basis(m: ExactMatrix) -> ExactMatrix:
    """Basis of the integer kernel as matrix columns.

    The basis spans a saturated sublattice, so it also gives the kernel
    over any localization of Z and over Q.
    """
    a = _int_rows(m)
    if m.cols == 0:
        return ExactMatrix(0, 0)
    if m.rows == 0:
        return ExactMatrix.identity(m.cols)
    _, _, d, _, vinv = _snf_transforms(a)
    ker_cols = [j for j in range(m.cols)
                if j >= min(m.rows, m.cols) or d[j][j] == 0]
    entries = {}
    for jj, j in enumerate(ker_cols):
        for i in range(m.cols):
            if vinv[i][j]:
                entries[(i, jj)] = Fraction(vinv[i][j])
    return ExactMatrix(m.cols, len(ker_cols), entries)


def solve_in_span(k: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Solve k * x = b exactly; the columns of b must lie in the span of k.

    Solutions are integral whenever b lies in the lattice spanned by the
    columns of k. Raises InputError if some column is outside the span.
    """
    if k.rows != b.rows:
        raise InputError("shape mismatch in solve_in_span")
    a = _int_rows(k)
    if k.cols == 0:
        if not b.is_zero():
            raise InputError("inconsistent system: zero span, nonzero target")
        return ExactMatrix(0, b.cols)
    if not a:
        return ExactMatrix(k.cols, b.cols)
    _, uinv, d, _, vinv = _snf_transforms(a)
    uinv_m = ExactMatrix.from_rows(uinv)
    rhs = uinv_m * b
    n = min(k.rows, k.cols)
    y_entries = {}
    for i in range(k.rows):
        di = d[i][i] if i < n else 0
        for j in range(b.cols):
            val = rhs.entry(i, j)
            if di == 0:
                if val != 0:
                    raise InputError("target outside column span")
            elif val != 0:
                y_entries[(i, j)] = val / di
    y = ExactMatrix(k.cols, b.cols,
                    {(i, j): v for (i, j), v in y_entries.items() if i < k.cols})
    vinv_m = ExactMatrix.from_rows(vinv)
    return vinv_m * y


# --- rank computations --------------------------------------------------------

def _cleared_int_rows(m: ExactMatrix):
    """Integer row list with each row scaled by the lcm of its denominators."""
    rows = [[Fraction(0)] * m.cols for _ in range(m.rows)]
    for (i, j), v in m.items():
        rows[i][j] = v
    out = []
    for row in rows:
        mult = 1
        for v in row:
            if v.denominator != 1:
                mult = mult * v.denominator // gcd(mult, v.denominator)
        out.append([int(v * mult) for v in row])
    return out


def _rank_mod(int_rows, p: int) -> int:
    if p >= 2**31:
        raise InputError("prime too large for modular rank")
    if not int_rows or not int_rows[0]:
        return 0
    a = np.array([[x % p for x in row] for row in int_rows], dtype=np.int64)
    nrows, ncols = a.shape
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if a[r, col]:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, col]), -1, p)
        a[rank] = (a[rank] * inv) % p
        mask = a[rank + 1:, col] != 0
        if mask.any():
            rows_idx = np.nonzero(mask)[0] + rank + 1
            a[rows_idx] = (a[rows_idx] - np.outer(a[rows_idx, col], a[rank])) % p
        rank += 1
        if rank == nrows:
            break
    return rank


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
        return _rank_bareiss(_cleared_int_rows(m))
    if isinstance(field, tuple) and field[0] == "Fp":
        p = field[1]
        if not _is_probable_prime(p):
            raise InputError(f"{p} is not prime")
        rows = [[0] * m.cols for _ in range(m.rows)]
        for (i, j), v in m.items():
            if v.denominator % p == 0:
                raise InputError(
                    f"denominator {v.denominator} not invertible mod {p} at ({i},{j})")
            rows[i][j] = (v.numerator * pow(v.denominator, -1, p)) % p
        return _rank_mod(rows, p)
    raise InputError(f"unknown field spec {field!r}")


def rank_lower_bound(m: ExactMatrix) -> int:
    """Fast lower bound for the rational rank (modular, fixed prime).

    Never exceeds the true rank; used to certify exactness cheaply, with
    rank_over_field(m, "Q") as the exact fallback.
    """
    return _rank_mod(_cleared_int_rows(m), _RANK_CERT_PRIME)


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    small = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    for p in small:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
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
    Returns an entry, trivial or not, for every degree of ranks.
    """
    for n, d in diffs.items():
        if (d.rows, d.cols) != (ranks.get(n - 1, 0), ranks.get(n, 0)):
            raise InputError(f"shape mismatch: d_{n} is {d.rows}x{d.cols}")
        if not d.is_integral():
            raise InputError("matrix has a non-integral entry")
    for n, d in diffs.items():
        if n + 1 in diffs and not (d * diffs[n + 1]).is_zero():
            raise InputError(f"composite d_{n} * d_{n + 1} is nonzero")
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
    ranks = {-1: d_out.rows, 0: d_out.cols, 1: d_in.cols}
    return integer_homology(ranks, {0: d_out, 1: d_in})[0]
