"""Bounded complexes of free modules over a multi-sorted arithmetic coefficient system.

Each free summand carries a sort, one of the symbolic rings Z, ZlocP
(Z with every prime outside the configured set P inverted), Q, Zp(p), or
Qp(p). No completed number is ever materialized; matrices stay rational
and the sorts say which ring each block lives over. Localization functors
are sort tensor tables, exact by construction because all terms are free
of finite rank.

Acyclicity of a P-locally sorted complex is decided exactly by residues:

* For each p in P, reduce mod p. Summands sorted ZlocP or Zp(p) become
  F_p lines, everything rational or completed away from p dies, and
  exactness is a rank count over F_p.
* Rationalize all sorts. The Qp(p) summands form a subcomplex (no
  canonical map leaves Qp(p)), the Q summands form the quotient, and each
  piece is rank-checked over Q using its rational structure matrices.

This is sound and complete for the intended semantics: the terms are
flat P-local modules, so mod-p homology computes H ⊗ F_p and Tor against
F_p, whose joint vanishing forces the torsion away; rationally, the long
exact sequence connects the finite dimensional Q-part to the Qp-part,
which is either zero or of uncountable Q-dimension, so both vanish
whenever the total does. Rank counts are certified with a fixed modular
bound first and recomputed fraction-free when the bound is inconclusive,
so verdicts are exact either way.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .exact_linalg import (
    AbelianInvariants,
    ExactMatrix,
    InputError,
    _PRIME_BOUND,
    _is_prime,
    _rank_fp,
    _require_primes,
    integer_homology,
    kernel_basis,
    p_part,
    rank_lower_bound,
    rank_over_field,
    snf_diagonal,
    solve_in_span,
)

# --- sorts ---------------------------------------------------------------------

KINDS = ("Z", "ZlocP", "Q", "Zp", "Qp")


@dataclass(frozen=True)
class Sort:
    kind: str
    prime: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown sort kind {self.kind!r}")
        if self.kind in ("Zp", "Qp"):
            if self.prime is None or not _is_prime(self.prime):
                raise InputError(f"completed sort needs a prime, got {self.prime!r}")
        elif self.prime is not None:
            raise InputError(f"sort {self.kind} takes no prime")

    def tag(self) -> str:
        if self.kind in ("Zp", "Qp"):
            return f"{self.kind}:{self.prime}"
        return self.kind

    @classmethod
    def from_tag(cls, tag: str) -> "Sort":
        """The sort whose tag() is exactly tag; any other spelling is refused."""
        kind, colon, p = tag.partition(":")
        if not colon:
            return cls(kind)
        # no prime the package decides has more digits than the bound
        if p.isascii() and p.isdigit() and len(p) <= len(str(_PRIME_BOUND)):
            sort = cls(kind, int(p))
            if sort.tag() == tag:
                return sort
        raise InputError(f"sort tag {tag!r} is not in the form tag() writes")

    def __str__(self):
        return self.tag()


Z = Sort("Z")
ZLOC = Sort("ZlocP")
Q = Sort("Q")


def Zp(p: int) -> Sort:
    return Sort("Zp", p)


def Qp(p: int) -> Sort:
    return Sort("Qp", p)


def sort_map_exists(src: Sort, tgt: Sort) -> bool:
    """Whether the canonical ring map src -> tgt exists."""
    if src == tgt:
        return True
    if src.kind == "Z":
        return True
    if src.kind == "ZlocP":
        return tgt.kind in ("Q", "Zp", "Qp", "ZlocP")
    if src.kind == "Q":
        return tgt.kind in ("Q", "Qp")
    if src.kind == "Zp":
        return tgt.kind in ("Zp", "Qp") and tgt.prime == src.prime
    return False  # Qp maps only to itself


def _is_unit(n: int, sort: Sort, primes) -> bool:
    """Whether the integer n is a unit of the sort's ring.

    ZlocP units are prime to every p in P, and without P it is not checked.
    """
    if n == 0:
        return False
    if sort.kind == "Z":
        return abs(n) == 1
    if sort.kind == "Zp":
        return n % sort.prime != 0
    if sort.kind == "ZlocP":
        return primes is None or all(n % p for p in primes)
    return True  # Q and Qp are fields


# --- modules and maps ----------------------------------------------------------

class SortedModule:
    """Finite formal direct sum of (sort, rank) summands."""

    __slots__ = ("summands", "_offsets", "total_rank")

    def __init__(self, summands=()):
        ss = []
        for sort, rank in summands:
            if not isinstance(sort, Sort):
                raise InputError("summand sort must be a Sort")
            if rank < 1:
                raise InputError("summand rank must be >= 1")
            ss.append((sort, int(rank)))
        self.summands = tuple(ss)
        offs = []
        total = 0
        for _, r in self.summands:
            offs.append(total)
            total += r
        self._offsets = tuple(offs)
        self.total_rank = total

    def offset(self, i: int) -> int:
        return self._offsets[i]

    def summand_at(self, k: int) -> int:
        """Index of the summand holding basis vector k."""
        return bisect_right(self._offsets, k) - 1

    def basis(self, keep) -> list:
        """Basis indices of the summands listed in keep, in that order."""
        return [k for i in keep for k in range(self._offsets[i],
                                                self._offsets[i] + self.rank(i))]

    def sort(self, i: int) -> Sort:
        return self.summands[i][0]

    def rank(self, i: int) -> int:
        return self.summands[i][1]

    def is_empty(self) -> bool:
        return not self.summands

    def sorts(self):
        return {s for s, _ in self.summands}

    @classmethod
    def concat(cls, *mods) -> "SortedModule":
        out = []
        for m in mods:
            out.extend(m.summands)
        return cls(out)

    def __eq__(self, other):
        if not isinstance(other, SortedModule):
            return NotImplemented
        return self.summands == other.summands

    __hash__ = None

    def __repr__(self):
        inner = " + ".join(f"{s}^{r}" for s, r in self.summands) or "0"
        return f"SortedModule({inner})"


EMPTY_MODULE = SortedModule()


class SortedMap:
    """Map of sorted modules: one sparse matrix over the total ranks.

    `matrix` has shape target.total_rank x source.total_rank. The
    summands cut it into blocks keyed (source summand index, target
    summand index); a nonzero block is only legal when the canonical map
    between the two sorts exists.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: SortedModule, target: SortedModule, blocks=None):
        blocks = blocks or {}
        for (i, j), m in blocks.items():
            if not (0 <= i < len(source.summands) and 0 <= j < len(target.summands)):
                raise InputError(f"block key ({i},{j}) out of range")
            if m.rows != target.rank(j) or m.cols != source.rank(i):
                raise InputError(f"block ({i},{j}) has shape {m.rows}x{m.cols}, "
                                 f"want {target.rank(j)}x{source.rank(i)}")
            if not m.is_zero():
                _require_sort_map(source.sort(i), target.sort(j))
        self._assign(source, target, ExactMatrix.assemble(
            target.total_rank, source.total_rank,
            [(target.offset(j), source.offset(i), m) for (i, j), m in blocks.items()]))

    @classmethod
    def _trusted(cls, source: SortedModule, target: SortedModule,
                 matrix: ExactMatrix) -> "SortedMap":
        # fast path for maps that are legal by construction
        f = object.__new__(cls)
        f._assign(source, target, matrix)
        return f

    def _assign(self, source, target, matrix):
        self.source = source
        self.target = target
        self.matrix = matrix

    @classmethod
    def zero(cls, source, target) -> "SortedMap":
        return cls._trusted(source, target,
                            ExactMatrix.zeros(target.total_rank, source.total_rank))

    @classmethod
    def identity(cls, module: SortedModule) -> "SortedMap":
        return cls._trusted(module, module, ExactMatrix.identity(module.total_rank))

    @classmethod
    def from_dense(cls, source, target, dense: ExactMatrix) -> "SortedMap":
        if dense.rows != target.total_rank or dense.cols != source.total_rank:
            raise InputError("dense matrix shape mismatch")
        f = cls._trusted(source, target, dense)
        for i, j in f.blocks():
            _require_sort_map(source.sort(i), target.sort(j))
        return f

    def blocks(self) -> dict:
        """The nonzero blocks keyed (source, target), in that order."""
        src, tgt, den = self.source, self.target, self.matrix.den
        parts: dict = {}
        for (r, c), v in self.matrix._n.items():
            i, j = src.summand_at(c), tgt.summand_at(r)
            parts.setdefault((i, j), {})[(r - tgt.offset(j), c - src.offset(i))] = v
        return {(i, j): ExactMatrix._trusted(tgt.rank(j), src.rank(i), parts[(i, j)], den)
                for (i, j) in sorted(parts)}

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def compose(self, other: "SortedMap") -> "SortedMap":
        """self after other."""
        if other.target != self.source:
            raise InputError("composition shape mismatch")
        return SortedMap._trusted(other.source, self.target, self.matrix * other.matrix)

    def __add__(self, other: "SortedMap") -> "SortedMap":
        if self.source != other.source or self.target != other.target:
            raise InputError("sum shape mismatch")
        return SortedMap._trusted(self.source, self.target, self.matrix + other.matrix)

    def __neg__(self) -> "SortedMap":
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "SortedMap":
        return SortedMap._trusted(self.source, self.target, self.matrix.scale(c))

    def admissibility_violations(self, primes=None):
        out = []
        for (i, j), m in self.blocks().items():
            tgt = self.target.sort(j)
            bad = [den for den in m.denominators() if not _is_unit(den, tgt, primes)]
            if bad:
                out.append(f"block ({i},{j}): denominator {bad[0]} not a unit in {tgt}")
        return out

    def __eq__(self, other):
        if not isinstance(other, SortedMap):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.matrix == other.matrix)

    __hash__ = None

    def __repr__(self):
        return f"SortedMap({self.source!r} -> {self.target!r}, nnz={self.matrix.nnz})"


def _require_sort_map(src: Sort, tgt: Sort):
    if not sort_map_exists(src, tgt):
        raise InputError(f"no canonical sort map {src} -> {tgt}")


def _product(g: SortedMap | None, f: SortedMap | None) -> ExactMatrix | None:
    """Matrix of g after f; None when a factor is absent or the product is zero."""
    if g is None or f is None:
        return None
    m = g.matrix * f.matrix
    return None if m.is_zero() else m


def _map_from_pieces(source: SortedModule, target: SortedModule, pieces) -> SortedMap:
    """Trusted map whose matrix sums (row offset, column offset, matrix) pieces."""
    return SortedMap._trusted(source, target, ExactMatrix.assemble(
        target.total_rank, source.total_rank, pieces))


# --- complexes -----------------------------------------------------------------

class SortedComplex:
    """Bounded chain complex of sorted modules; d_n maps degree n to n-1."""

    __slots__ = ("modules", "diffs")

    def __init__(self, modules: dict, diffs: dict):
        self._assign(modules, diffs)
        for n, d in diffs.items():
            if d.source != self.module(n) or d.target != self.module(n - 1):
                raise InputError(f"differential at degree {n} has wrong shape")
        for n, d in self.diffs.items():
            if n + 1 in self.diffs and not d.compose(self.diffs[n + 1]).is_zero():
                raise InputError(f"d^2 != 0 at degree {n + 1}")

    @classmethod
    def _trusted(cls, modules: dict, diffs: dict) -> "SortedComplex":
        # fast path for complexes that are valid by construction
        c = object.__new__(cls)
        c._assign(modules, diffs)
        return c

    def _assign(self, modules, diffs):
        self.modules = {n: m for n, m in modules.items() if not m.is_empty()}
        self.diffs = {n: d for n, d in diffs.items() if not d.is_zero()}

    @classmethod
    def zero(cls) -> "SortedComplex":
        return cls({}, {})

    @classmethod
    def single(cls, sort: Sort, rank: int = 1, degree: int = 0) -> "SortedComplex":
        if rank == 0:
            return cls.zero()
        return cls({degree: SortedModule([(sort, rank)])}, {})

    @classmethod
    def two_term(cls, sort: Sort, matrix: ExactMatrix, top_degree: int = 1) -> "SortedComplex":
        """Complex sort^cols -> sort^rows concentrated in two adjacent degrees."""
        top = SortedModule([(sort, matrix.cols)]) if matrix.cols else EMPTY_MODULE
        bot = SortedModule([(sort, matrix.rows)]) if matrix.rows else EMPTY_MODULE
        mods = {top_degree: top, top_degree - 1: bot}
        diffs = {}
        if matrix.cols and matrix.rows:
            diffs[top_degree] = SortedMap(top, bot, {(0, 0): matrix})
        return cls(mods, diffs)

    def module(self, n: int) -> SortedModule:
        return self.modules.get(n, EMPTY_MODULE)

    def diff(self, n: int) -> SortedMap:
        d = self.diffs.get(n)
        if d is None:
            return SortedMap.zero(self.module(n), self.module(n - 1))
        return d

    def degrees(self):
        return sorted(self.modules)

    def is_zero_complex(self) -> bool:
        return not self.modules

    def sorts(self):
        out = set()
        for m in self.modules.values():
            out |= m.sorts()
        return out

    def total_rank(self) -> int:
        return sum(m.total_rank for m in self.modules.values())

    def __eq__(self, other):
        if not isinstance(other, SortedComplex):
            return NotImplemented
        return self.modules == other.modules and self.diffs == other.diffs

    __hash__ = None

    def __repr__(self):
        if self.is_zero_complex():
            return "SortedComplex(0)"
        degs = self.degrees()
        return f"SortedComplex(degrees {degs[0]}..{degs[-1]}, rank {self.total_rank()})"


@dataclass(frozen=True)
class Violation:
    location: str
    message: str


def validate(c: SortedComplex, primes=None) -> list[Violation]:
    """Full legality check; an empty list means the complex is ok.

    Shape and d^2 = 0 are already enforced by the constructor, so this
    reports sort legality and denominator admissibility, which need the
    configured prime set for ZlocP targets and completed sorts.
    """
    out = []
    for n, m in sorted(c.modules.items()):
        for i, (s, _) in enumerate(m.summands):
            if s.kind in ("Zp", "Qp") and primes is not None and s.prime not in primes:
                out.append(Violation(f"degree {n} summand {i}",
                                     f"sort {s} uses prime outside {sorted(primes)}"))
    for n, d in sorted(c.diffs.items()):
        for msg in d.admissibility_violations(primes):
            out.append(Violation(f"differential at degree {n}", msg))
    return out


class ComplexMap:
    """Degreewise sorted map commuting with the differentials."""

    __slots__ = ("source", "target", "maps")

    def __init__(self, source: SortedComplex, target: SortedComplex, maps: dict):
        self._assign(source, target, maps)
        for n, f in maps.items():
            if f.source != source.module(n) or f.target != target.module(n):
                raise InputError(f"component at degree {n} has wrong shape")
        # d f = f d degreewise, an absent block or product counting as zero
        for n in set(self.maps) | set(source.diffs):
            left = _product(target.diffs.get(n), self.maps.get(n))
            right = _product(self.maps.get(n - 1), source.diffs.get(n))
            if left != right:
                raise InputError(f"not a chain map at degree {n}")

    @classmethod
    def _trusted(cls, source: SortedComplex, target: SortedComplex,
                 maps: dict) -> "ComplexMap":
        # fast path for chain maps that are valid by construction
        f = object.__new__(cls)
        f._assign(source, target, maps)
        return f

    def _assign(self, source, target, maps):
        self.source = source
        self.target = target
        self.maps = {n: f for n, f in maps.items() if not f.is_zero()}

    def map_at(self, n: int) -> SortedMap:
        f = self.maps.get(n)
        if f is None:
            return SortedMap.zero(self.source.module(n), self.target.module(n))
        return f

    @classmethod
    def identity(cls, c: SortedComplex) -> "ComplexMap":
        return cls._trusted(c, c, {n: SortedMap.identity(m) for n, m in c.modules.items()})

    @classmethod
    def zero(cls, source, target) -> "ComplexMap":
        # built directly: a cube's zero edges are most of its edges
        f = object.__new__(cls)
        f.source, f.target, f.maps = source, target, {}
        return f

    def compose(self, other: "ComplexMap") -> "ComplexMap":
        """self after other."""
        if other.target != self.source:
            raise InputError("complex map composition mismatch")
        maps = {n: self.maps[n].compose(f) for n, f in other.maps.items()
                if n in self.maps}
        return ComplexMap._trusted(other.source, self.target, maps)

    def __add__(self, other):
        if self.source != other.source or self.target != other.target:
            raise InputError("complex map sum mismatch")
        maps = dict(self.maps)
        for n, g in other.maps.items():
            maps[n] = maps[n] + g if n in maps else g
        return ComplexMap._trusted(self.source, self.target, maps)

    def __neg__(self):
        return ComplexMap._trusted(self.source, self.target,
                                   {n: -f for n, f in self.maps.items()})

    def __sub__(self, other):
        return self + (-other)

    def is_zero(self) -> bool:
        return not self.maps

    def __eq__(self, other):
        if not isinstance(other, ComplexMap):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.maps == other.maps)

    __hash__ = None


# --- sums -------------------------------------------------------------------------

def direct_sum(c: SortedComplex, d: SortedComplex) -> SortedComplex:
    degs = set(c.modules) | set(d.modules)
    mods = {n: SortedModule.concat(c.module(n), d.module(n)) for n in degs}
    # block diagonal: the differentials of c and d side by side
    diffs = {}
    for n in set(c.diffs) | set(d.diffs):
        pieces = []
        if n in c.diffs:
            pieces.append((0, 0, c.diffs[n].matrix))
        if n in d.diffs:
            pieces.append((c.module(n - 1).total_rank, c.module(n).total_rank,
                           d.diffs[n].matrix))
        diffs[n] = _map_from_pieces(mods[n], mods[n - 1], pieces)
    return SortedComplex._trusted(mods, diffs)


# --- localization tables ----------------------------------------------------------

@dataclass(frozen=True)
class LocalizationTable:
    """Sort tensor table; kind is one of rationalize, complete, localize."""

    kind: str
    prime: int | None = None

    def __post_init__(self):
        if self.kind not in ("rationalize", "complete", "localize"):
            raise InputError(f"unknown table kind {self.kind!r}")
        if self.kind == "complete":
            if self.prime is None or not _is_prime(self.prime):
                raise InputError("completion table needs a prime")
        elif self.prime is not None:
            raise InputError(f"{self.kind} table takes no prime")

    def apply_sort(self, s: Sort) -> Sort | None:
        """The sort of s tensored along the table; None when it kills s."""
        if self.kind == "rationalize":
            if s.kind in ("Z", "ZlocP"):
                return Q
            if s.kind == "Zp":
                return Qp(s.prime)
            return s
        if self.kind == "complete":
            p = self.prime
            if s.kind in ("Z", "ZlocP"):
                return Zp(p)
            if s.kind == "Zp" and s.prime == p:
                return s
            return None
        # localize: invert every prime outside the configured set
        if s.kind == "Z":
            return ZLOC
        return s

    def label(self) -> str:
        if self.kind == "complete":
            return f"complete:{self.prime}"
        return self.kind


RATIONALIZE = LocalizationTable("rationalize")
LOCALIZE = LocalizationTable("localize")


def complete(p: int) -> LocalizationTable:
    return LocalizationTable("complete", p)


def _localize_module(m: SortedModule, tables):
    """The summand indices the table composite keeps, and the localized module."""
    kept, out = [], []
    for i, (s, r) in enumerate(m.summands):
        for t in tables:
            s = t.apply_sort(s)
            if s is None:
                break
        else:
            kept.append(i)
            out.append((s, r))
    return kept, SortedModule(out)


def _localize(c: SortedComplex, tables):
    """The one localization pass along a table list, in application order:
    the localized complex and, per degree, the basis indices of c it keeps.

    Applying the tables one at a time keeps exactly the summands whose
    sort no table kills, and each matrix is a submatrix of a submatrix,
    so one pass gives the same complex.
    """
    mods, kept = {}, {}
    for n, m in c.modules.items():
        keep, mods[n] = _localize_module(m, tables)
        kept[n] = m.basis(keep)
    diffs = {n: SortedMap._trusted(mods[n], mods[n - 1],
                                   d.matrix.submatrix(kept[n - 1], kept[n]))
             for n, d in c.diffs.items()}
    return SortedComplex._trusted(mods, diffs), kept


def _localize_chain_map(f: ComplexMap, source, target) -> ComplexMap:
    """f between its endpoints' localizations, each given as its _localize pass."""
    (src, skept), (tgt, tkept) = source, target
    return ComplexMap._trusted(src, tgt, {
        n: SortedMap._trusted(src.module(n), tgt.module(n),
                              m.matrix.submatrix(tkept[n], skept[n]))
        for n, m in f.maps.items()})


def apply_localization(c: SortedComplex, table: LocalizationTable) -> SortedComplex:
    """Tensor a complex along a sort table.

    Summands are relabeled, killed summands are dropped together with
    their blocks, and all surviving matrices are kept verbatim. A block
    from a killed summand into a survivor cannot exist (no canonical sort
    map would allow it), which is what makes the drop exact.
    """
    return _localize(c, (table,))[0]


def localize_chain_map_tables(f: ComplexMap, tables) -> ComplexMap:
    """A chain map localized along a table list, one pass per endpoint."""
    return _localize_chain_map(f, _localize(f.source, tables),
                               _localize(f.target, tables))


def _unit(c: SortedComplex, localized) -> ComplexMap:
    """The projection of c onto the basis its _localize pass keeps."""
    loc, kept = localized
    return ComplexMap._trusted(c, loc, {n: SortedMap._trusted(
        m, loc.module(n), ExactMatrix._trusted(
            len(kept[n]), m.total_rank, {(r, k): 1 for r, k in enumerate(kept[n])}))
        for n, m in c.modules.items()})


def canonical_unit(c: SortedComplex, table: LocalizationTable) -> ComplexMap:
    """The natural map from a complex to its localization."""
    return _unit(c, _localize(c, (table,)))


def is_local(c: SortedComplex, table: LocalizationTable) -> bool:
    """Whether the table fixes c, that is, fixes every sort in it."""
    return all(table.apply_sort(s) == s for s in c.sorts())


# --- acyclicity ------------------------------------------------------------------

@dataclass(frozen=True)
class ResidueCheck:
    kind: str  # "mod-p" | "rational-completed" | "rational"
    prime: int | None
    passed: bool
    defects: tuple = ()  # (degree, dim of surviving homology)

    def describe(self) -> str:
        name = {"mod-p": f"mod {self.prime}",
                "rational-completed": f"rational Qp({self.prime}) part",
                "rational": "rational Q part"}[self.kind]
        return f"{name}: {'ok' if self.passed else 'fails at ' + str(self.defects)}"


@dataclass(frozen=True)
class AcyclicityReport:
    acyclic: bool
    checks: tuple


def _require_p_local(c: SortedComplex, primes):
    for n, m in c.modules.items():
        for i, (s, _) in enumerate(m.summands):
            if s.kind == "Z":
                raise InputError(
                    f"degree {n} summand {i} has raw Z sort; localize first")
            if s.kind in ("Zp", "Qp") and s.prime not in primes:
                raise InputError(
                    f"degree {n} summand {i} uses prime {s.prime} outside P")


def _field_exactness_defects(dims: dict, ranks: dict):
    out = []
    for n in sorted(dims):
        if dims[n] == 0:
            continue
        h = dims[n] - ranks.get(n, 0) - ranks.get(n + 1, 0)
        if h:
            out.append((n, h))
    return out


def _rational_exactness(dims: dict, mats: dict):
    """Exact rational exactness: certified fast bound, exact fallback."""
    ranks = {n: rank_lower_bound(m) for n, m in mats.items()}
    defects = _field_exactness_defects(dims, ranks)
    if not defects:
        return ()
    ranks = {n: rank_over_field(m, "Q") for n, m in mats.items()}
    return tuple(_field_exactness_defects(dims, ranks))


def _residue(c: SortedComplex, survives):
    """Dimensions and differentials of the summands whose sort survives.

    A differential with no surviving summand at one end has rank 0 and
    is left out; one whose ends survive whole is kept as it is.
    """
    keep = {n: [i for i, (s, _) in enumerate(m.summands) if survives(s)]
            for n, m in c.modules.items()}
    dims = {n: sum(m.summands[i][1] for i in keep[n]) for n, m in c.modules.items()}
    mats = {}
    for n, d in c.diffs.items():
        rows, cols = dims[n - 1], dims[n]
        if (rows, cols) == (d.matrix.rows, d.matrix.cols):
            mats[n] = d.matrix
        elif rows and cols:
            mats[n] = d.matrix.submatrix(d.target.basis(keep[n - 1]),
                                         d.source.basis(keep[n]))
    return dims, mats


def is_acyclic(c: SortedComplex, primes) -> AcyclicityReport:
    """Exact acyclicity verdict for a P-locally sorted complex."""
    primes = tuple(primes)
    _require_primes(primes)
    primes = tuple(sorted(set(primes)))
    _require_p_local(c, primes)
    checks = []
    for p in primes:
        dims, mats = _residue(
            c, lambda s: s.kind == "ZlocP" or (s.kind == "Zp" and s.prime == p))
        # not rank_over_field, whose calls count the exact rational fallback
        defects = _field_exactness_defects(
            dims, {n: _rank_fp(m, p) for n, m in mats.items()})
        checks.append(ResidueCheck("mod-p", p, not defects, tuple(defects)))
    # over Q the ZlocP and Q summands survive, over Qp the Zp and Qp ones
    for p in primes:
        defects = _rational_exactness(*_residue(
            c, lambda s: s.kind in ("Zp", "Qp") and s.prime == p))
        checks.append(ResidueCheck("rational-completed", p, not defects, defects))
    defects = _rational_exactness(*_residue(c, lambda s: s.kind in ("ZlocP", "Q")))
    checks.append(ResidueCheck("rational", None, not defects, defects))
    return AcyclicityReport(all(ch.passed for ch in checks), tuple(checks))


# --- homology over the P-local integers --------------------------------------------

def homology_p_local(c: SortedComplex, primes=None) -> dict[int, AbelianInvariants]:
    """Homology invariants of a Z- or ZlocP-sorted complex over ZlocP.

    Each differential is replaced by its integer numerators, that is
    rescaled by its common denominator `den`, which must be a unit of
    ZlocP (prime to P); this gives an isomorphic integer complex. Each of
    its differentials is reduced once to its Smith diagonal: H_n has free rank
    dim C_n - rank d_n - rank d_{n+1}, and its torsion is the elementary
    divisors of d_{n+1} greater than 1, projected to the primes of P.
    With primes=None the matrices must be integral and the full integer
    invariants are returned.
    """
    _require_primes(primes or ())
    for m in c.modules.values():
        for s, _ in m.summands:
            if s.kind not in ("Z", "ZlocP"):
                raise InputError(f"homology over ZlocP needs Z-like sorts, got {s}")
    dense = {}
    for n, f in c.diffs.items():
        d = f.matrix
        if d.den != 1:
            if primes is None:
                raise InputError("integer homology needs integral matrices")
            if not _is_unit(d.den, ZLOC, primes):
                raise InputError("denominator is not a unit of ZlocP")
        dense[n] = ExactMatrix._trusted(d.rows, d.cols, d._n)
    ranks = {n: m.total_rank for n, m in c.modules.items()}
    out = {}
    for n, inv in integer_homology(ranks, dense).items():
        if primes is not None:
            torsion = tuple(t for t in (p_part(d, primes) for d in inv.torsion)
                            if t > 1)
            inv = AbelianInvariants(inv.free_rank, torsion)
        if not inv.is_trivial():
            out[n] = inv
    return out


# --- groups of chain maps -----------------------------------------------------------

def uniform_sort(*complexes) -> Sort | None:
    sorts = set()
    for c in complexes:
        sorts |= c.sorts()
    if not sorts:
        return None
    if len(sorts) > 1:
        raise InputError(f"expected a single sort, found {sorted(map(str, sorts))}")
    return sorts.pop()


def _kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product: entry (i b.rows + k, j b.cols + l) is a[i, j] b[k, l]."""
    return ExactMatrix._trusted(a.rows * b.rows, a.cols * b.cols, {
        (i * b.rows + k, j * b.cols + l): u * v
        for (i, j), u in a._n.items() for (k, l), v in b._n.items()}, a.den * b.den)


@dataclass
class ChainMapGroup:
    """Free presentation of the group of chain maps between two complexes.

    The columns of `basis` are coordinate vectors in the ambient space of
    all degreewise matrix entries: `layout[n] = (offset, rows, cols)`
    stores the rows x cols matrix of f_n row-major from `offset` on, so
    entry (r, c) is coordinate offset + r cols + c.
    """

    source: SortedComplex
    target: SortedComplex
    layout: dict
    basis: ExactMatrix

    @property
    def rank(self) -> int:
        return self.basis.cols

    def element(self, coeffs) -> ComplexMap:
        vec = self.basis * ExactMatrix.from_rows([[c] for c in coeffs])
        maps = {}
        for n, (off, rows, cols) in self.layout.items():
            entries = {divmod(i - off, cols): v for (i, _), v in vec._n.items()
                       if off <= i < off + rows * cols}
            maps[n] = SortedMap._trusted(self.source.module(n), self.target.module(n),
                                         ExactMatrix._trusted(rows, cols, entries, vec.den))
        return ComplexMap(self.source, self.target, maps)

    def postcompose(self, h: ComplexMap, onto: "ChainMapGroup") -> ExactMatrix:
        """Matrix of f -> h f from these coordinates to those of onto.

        h runs from this group's target to onto's, over the same source;
        in degree n the block is h_n (x) I.
        """
        if (h.source, h.target, onto.source) != (self.target, onto.target, self.source):
            raise InputError("postcompose needs h: target -> onto.target over one source")
        return ExactMatrix.assemble(onto.basis.rows, self.basis.rows, [
            (onto.layout[n][0], off, _kron(h.map_at(n).matrix, ExactMatrix.identity(cols)))
            for n, (off, _, cols) in self.layout.items() if n in onto.layout])


def chain_map_group(a: SortedComplex, b: SortedComplex,
                    postcompose_zero=()) -> ChainMapGroup:
    """Solve for all chain maps a -> b over a single sort.

    Optional `postcompose_zero` maps g: b -> e add the constraints
    g f = 0; this is how maps into a strict fiber are carved out.
    """
    uniform_sort(a, b, *(g.target for g in postcompose_zero))
    layout, dim = {}, 0
    for n in sorted(set(a.modules) & set(b.modules)):
        rows, cols = b.module(n).total_rank, a.module(n).total_rank
        layout[n] = (dim, rows, cols)
        dim += rows * cols
    # d_b f_n - f_{n-1} d_a = 0 in each degree, then g f_n = 0, each block
    # row-major in (row, column) of its product. The constraints are cleared
    # by the denominators of their matrices; this is harmless, since those
    # are units of the sort ring (admissibility) or the sort ring is a field
    pieces, top = [], 0
    for n in sorted(set(a.modules) | set(b.modules)):
        db, da = b.diff(n).matrix, a.diff(n).matrix
        cols = a.module(n).total_rank
        if n in layout:
            pieces.append((top, layout[n][0], _kron(
                db, ExactMatrix.identity(cols)).scale(db.den * da.den)))
        if n - 1 in layout:
            pieces.append((top, layout[n - 1][0], _kron(
                ExactMatrix.identity(db.rows), da.transpose()).scale(-db.den * da.den)))
        top += db.rows * cols
    for g in postcompose_zero:
        for n, (off, _, cols) in layout.items():
            gn = g.map_at(n).matrix
            pieces.append((top, off, _kron(gn, ExactMatrix.identity(cols)).scale(gn.den)))
            top += gn.rows * cols
    m = ExactMatrix.assemble(top, dim, pieces)
    # empty rows go: they change no kernel, but the basis kernel_basis picks
    m = m.submatrix(sorted({r for r, _ in m._n}), range(dim))
    return ChainMapGroup(a, b, layout, kernel_basis(m))


def comparison_is_isomorphism(src_group: ChainMapGroup, dst_group: ChainMapGroup,
                              transform: ExactMatrix, primes) -> bool:
    """Whether a linear comparison identifies two chain map groups.

    The matrix `transform` sends an ambient coordinate vector of
    `src_group` to one of `dst_group`. The comparison is an isomorphism
    exactly when the matrix expressing the transformed basis in the
    destination basis is invertible over the sort ring.
    """
    image = transform * src_group.basis
    if dst_group.rank != src_group.rank:
        return False
    if src_group.rank == 0:
        return image.is_zero()
    try:
        m = solve_in_span(dst_group.basis, image)
    except InputError:
        return False
    # m = num / den is invertible over the ring when den and the elementary
    # divisors of num are units; m is rank x rank, so num's diagonal has them all
    sort = uniform_sort(src_group.source, src_group.target) or Z
    return _is_unit(m.den, sort, primes) and all(
        _is_unit(d, sort, primes) for d in snf_diagonal(m.scale(m.den)))
