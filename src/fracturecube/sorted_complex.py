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

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .exact_linalg import (
    AbelianInvariants,
    ExactMatrix,
    InputError,
    _is_probable_prime,
    _rank_mod,
    integer_homology,
    kernel_basis,
    p_part,
    rank_lower_bound,
    rank_over_field,
    snf_diagonal,
    solve_in_span,
)

# --- sorts ---------------------------------------------------------------------

KINDS = ("Z", "ZlocP", "Q", "Zp", "Qp", "Zero")


@dataclass(frozen=True)
class Sort:
    kind: str
    prime: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown sort kind {self.kind!r}")
        if self.kind in ("Zp", "Qp"):
            if self.prime is None or not _is_probable_prime(self.prime):
                raise InputError(f"completed sort needs a prime, got {self.prime!r}")
        elif self.prime is not None:
            raise InputError(f"sort {self.kind} takes no prime")

    def tag(self) -> str:
        if self.kind in ("Zp", "Qp"):
            return f"{self.kind}:{self.prime}"
        return self.kind

    @classmethod
    def from_tag(cls, tag: str) -> "Sort":
        if ":" in tag:
            kind, p = tag.split(":", 1)
            return cls(kind, int(p))
        return cls(tag)

    def __str__(self):
        return self.tag()


Z = Sort("Z")
ZLOC = Sort("ZlocP")
Q = Sort("Q")
ZERO = Sort("Zero")


def Zp(p: int) -> Sort:
    return Sort("Zp", p)


def Qp(p: int) -> Sort:
    return Sort("Qp", p)


def sort_map_exists(src: Sort, tgt: Sort) -> bool:
    """Whether the canonical ring map src -> tgt exists."""
    if src.kind == "Zero" or tgt.kind == "Zero":
        return True
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
    if src.kind == "Qp":
        return tgt.kind == "Qp" and tgt.prime == src.prime
    raise InputError(f"unknown sort {src!r}")


def _denominator_violation(den: int, tgt: Sort, primes) -> str | None:
    if den == 1:
        return None
    if tgt.kind == "Z":
        return f"denominator {den} not a unit in Z"
    if tgt.kind == "Zp":
        if den % tgt.prime == 0:
            return f"denominator {den} not invertible in Zp({tgt.prime})"
        return None
    if tgt.kind == "ZlocP":
        if primes is None:
            return None
        for p in primes:
            if den % p == 0:
                return f"denominator {den} divisible by {p}, not a unit in ZlocP"
        return None
    return None  # Q and Qp take anything


# --- modules and maps ----------------------------------------------------------

class SortedModule:
    """Finite formal direct sum of (sort, rank) summands."""

    __slots__ = ("summands", "_offsets", "total_rank")

    def __init__(self, summands=()):
        ss = []
        for sort, rank in summands:
            if not isinstance(sort, Sort):
                raise InputError("summand sort must be a Sort")
            if sort.kind == "Zero":
                continue
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
    """Block matrix along canonical sort maps.

    Blocks are keyed (source summand index, target summand index); a
    missing block is zero. A nonzero block is only legal when the
    canonical map between the two sorts exists.
    """

    __slots__ = ("source", "target", "blocks")

    def __init__(self, source: SortedModule, target: SortedModule, blocks=None):
        self.source = source
        self.target = target
        b = {}
        for (i, j), m in (blocks or {}).items():
            if not (0 <= i < len(source.summands) and 0 <= j < len(target.summands)):
                raise InputError(f"block key ({i},{j}) out of range")
            if m.rows != target.rank(j) or m.cols != source.rank(i):
                raise InputError(f"block ({i},{j}) has shape {m.rows}x{m.cols}, "
                                 f"want {target.rank(j)}x{source.rank(i)}")
            if m.is_zero():
                continue
            if not sort_map_exists(source.sort(i), target.sort(j)):
                raise InputError(
                    f"no canonical sort map {source.sort(i)} -> {target.sort(j)}")
            b[(i, j)] = m
        self.blocks = b

    @classmethod
    def zero(cls, source, target) -> "SortedMap":
        return cls(source, target)

    @classmethod
    def identity(cls, module: SortedModule) -> "SortedMap":
        return cls(module, module,
                   {(i, i): ExactMatrix.identity(r)
                    for i, (_, r) in enumerate(module.summands)})

    @classmethod
    def from_dense(cls, source, target, dense: ExactMatrix) -> "SortedMap":
        if dense.rows != target.total_rank or dense.cols != source.total_rank:
            raise InputError("dense matrix shape mismatch")
        blocks = {}
        for i, (_, rs) in enumerate(source.summands):
            for j, (_, rt) in enumerate(target.summands):
                sub = dense.submatrix(
                    range(target.offset(j), target.offset(j) + rt),
                    range(source.offset(i), source.offset(i) + rs))
                if not sub.is_zero():
                    blocks[(i, j)] = sub
        return cls(source, target, blocks)

    def to_dense(self) -> ExactMatrix:
        entries = {}
        for (i, j), m in self.blocks.items():
            ro = self.target.offset(j)
            co = self.source.offset(i)
            for (r, c), v in m.items():
                entries[(ro + r, co + c)] = v
        return ExactMatrix(self.target.total_rank, self.source.total_rank, entries)

    def block(self, i: int, j: int) -> ExactMatrix:
        m = self.blocks.get((i, j))
        if m is None:
            return ExactMatrix.zeros(self.target.rank(j), self.source.rank(i))
        return m

    def is_zero(self) -> bool:
        return not self.blocks

    def compose(self, other: "SortedMap") -> "SortedMap":
        """self after other."""
        if other.target != self.source:
            raise InputError("composition shape mismatch")
        acc: dict = {}
        for (i, j), m1 in other.blocks.items():
            for (j2, k), m2 in self.blocks.items():
                if j2 != j:
                    continue
                key = (i, k)
                prod = m2 * m1
                acc[key] = acc[key] + prod if key in acc else prod
        return SortedMap(other.source, self.target, acc)

    def __add__(self, other: "SortedMap") -> "SortedMap":
        if self.source != other.source or self.target != other.target:
            raise InputError("sum shape mismatch")
        acc = dict(self.blocks)
        for k, m in other.blocks.items():
            acc[k] = acc[k] + m if k in acc else m
        return SortedMap(self.source, self.target, acc)

    def __neg__(self) -> "SortedMap":
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "SortedMap":
        return SortedMap(self.source, self.target,
                         {k: m.scale(c) for k, m in self.blocks.items()})

    def admissibility_violations(self, primes=None):
        out = []
        for (i, j), m in self.blocks.items():
            tgt = self.target.sort(j)
            for den in m.denominators():
                msg = _denominator_violation(den, tgt, primes)
                if msg:
                    out.append(f"block ({i},{j}): {msg}")
                    break
        return out

    def __eq__(self, other):
        if not isinstance(other, SortedMap):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.blocks == other.blocks)

    __hash__ = None

    def __repr__(self):
        return f"SortedMap({self.source!r} -> {self.target!r}, {len(self.blocks)} blocks)"


def stack_maps(sources, targets, grid) -> SortedMap:
    """Assemble a block map from a grid keyed (source part, target part)."""
    src = SortedModule.concat(*sources)
    tgt = SortedModule.concat(*targets)
    soff = []
    acc = 0
    for s in sources:
        soff.append(acc)
        acc += len(s.summands)
    toff = []
    acc = 0
    for t in targets:
        toff.append(acc)
        acc += len(t.summands)
    blocks = {}
    for (bi, bj), m in grid.items():
        if m is None or m.is_zero():
            continue
        if m.source != sources[bi] or m.target != targets[bj]:
            raise InputError("grid block has wrong source or target")
        for (i, j), mat in m.blocks.items():
            blocks[(soff[bi] + i, toff[bj] + j)] = mat
    return SortedMap(src, tgt, blocks)


# --- complexes -----------------------------------------------------------------

class SortedComplex:
    """Bounded chain complex of sorted modules; d_n maps degree n to n-1."""

    __slots__ = ("modules", "diffs")

    def __init__(self, modules: dict, diffs: dict):
        self.modules = {n: m for n, m in modules.items() if not m.is_empty()}
        clean = {}
        for n, d in diffs.items():
            src = self.modules.get(n, EMPTY_MODULE)
            tgt = self.modules.get(n - 1, EMPTY_MODULE)
            if d.source != src or d.target != tgt:
                raise InputError(f"differential at degree {n} has wrong shape")
            if not d.is_zero():
                clean[n] = d
        self.diffs = clean
        for n in list(clean):
            if n + 1 in clean:
                if not clean[n].compose(clean[n + 1]).is_zero():
                    raise InputError(f"d^2 != 0 at degree {n + 1}")

    @classmethod
    def zero(cls) -> "SortedComplex":
        return cls({}, {})

    @classmethod
    def single(cls, sort: Sort, rank: int = 1, degree: int = 0) -> "SortedComplex":
        if rank == 0 or sort.kind == "Zero":
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

    def __init__(self, source: SortedComplex, target: SortedComplex,
                 maps: dict, check: bool = True):
        self.source = source
        self.target = target
        clean = {}
        for n, f in maps.items():
            if f.source != source.module(n) or f.target != target.module(n):
                raise InputError(f"component at degree {n} has wrong shape")
            if not f.is_zero():
                clean[n] = f
        self.maps = clean
        if check:
            for n in set(self.maps) | set(source.diffs):
                left = target.diff(n).compose(self.map_at(n))
                right = self.map_at(n - 1).compose(source.diff(n))
                if left != right:
                    raise InputError(f"not a chain map at degree {n}")

    def map_at(self, n: int) -> SortedMap:
        f = self.maps.get(n)
        if f is None:
            return SortedMap.zero(self.source.module(n), self.target.module(n))
        return f

    @classmethod
    def identity(cls, c: SortedComplex) -> "ComplexMap":
        return cls(c, c, {n: SortedMap.identity(m) for n, m in c.modules.items()},
                   check=False)

    @classmethod
    def zero(cls, source, target) -> "ComplexMap":
        return cls(source, target, {}, check=False)

    def compose(self, other: "ComplexMap") -> "ComplexMap":
        """self after other."""
        if other.target != self.source:
            raise InputError("complex map composition mismatch")
        maps = {}
        for n in other.maps:
            maps[n] = self.map_at(n).compose(other.maps[n])
        return ComplexMap(other.source, self.target, maps, check=False)

    def __add__(self, other):
        if self.source != other.source or self.target != other.target:
            raise InputError("complex map sum mismatch")
        degs = set(self.maps) | set(other.maps)
        return ComplexMap(self.source, self.target,
                          {n: self.map_at(n) + other.map_at(n) for n in degs},
                          check=False)

    def __neg__(self):
        return ComplexMap(self.source, self.target,
                          {n: -f for n, f in self.maps.items()}, check=False)

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


# --- shift, sums, cones ----------------------------------------------------------

def shift(c: SortedComplex, k: int) -> SortedComplex:
    """Degree shift: shift(c, k)_n = c_{n-k}; differentials pick up (-1)^k."""
    sign = -1 if k % 2 else 1
    mods = {n + k: m for n, m in c.modules.items()}
    diffs = {n + k: (d if sign == 1 else d.scale(-1))
             for n, d in c.diffs.items()}
    return SortedComplex(mods, diffs)


def shift_map(f: ComplexMap, k: int) -> ComplexMap:
    return ComplexMap(shift(f.source, k), shift(f.target, k),
                      {n + k: m for n, m in f.maps.items()}, check=False)


def direct_sum(c: SortedComplex, d: SortedComplex) -> SortedComplex:
    degs = set(c.modules) | set(d.modules)
    mods = {n: SortedModule.concat(c.module(n), d.module(n)) for n in degs}
    diffs = {}
    for n in set(c.diffs) | set(d.diffs):
        diffs[n] = stack_maps(
            [c.module(n), d.module(n)], [c.module(n - 1), d.module(n - 1)],
            {(0, 0): c.diff(n), (1, 1): d.diff(n)})
    return SortedComplex(mods, diffs)


def sum_inclusions(c: SortedComplex, d: SortedComplex):
    """(c + d, include c, include d, project to c, project to d)."""
    total = direct_sum(c, d)

    def part_map(piece, other, first: bool, into: bool):
        maps = {}
        for n in piece.modules:
            pm = piece.module(n)
            om = other.module(n)
            parts = [pm, om] if first else [om, pm]
            idx = 0 if first else 1
            if into:
                maps[n] = stack_maps([pm], parts, {(0, idx): SortedMap.identity(pm)})
            else:
                maps[n] = stack_maps(parts, [pm], {(idx, 0): SortedMap.identity(pm)})
        src = piece if into else total
        tgt = total if into else piece
        return ComplexMap(src, tgt, maps, check=False)

    return (total,
            part_map(c, d, True, True), part_map(d, c, False, True),
            part_map(c, d, True, False), part_map(d, c, False, False))


def cone(f: ComplexMap) -> SortedComplex:
    """Mapping cone with differential (c, x) -> (-d c, f c + d x)."""
    c, d = f.source, f.target
    degs = {n + 1 for n in c.modules} | set(d.modules)
    mods = {n: SortedModule.concat(c.module(n - 1), d.module(n)) for n in degs}
    diffs = {}
    for n in degs:
        grid = {
            (0, 0): c.diff(n - 1).scale(-1),
            (0, 1): f.map_at(n - 1),
            (1, 1): d.diff(n),
        }
        diffs[n] = stack_maps(
            [c.module(n - 1), d.module(n)],
            [c.module(n - 2), d.module(n - 1)],
            grid)
    return SortedComplex(mods, diffs)


def cone_map(f: ComplexMap, g: ComplexMap,
             u: ComplexMap, v: ComplexMap) -> ComplexMap:
    """Induced map cone(f) -> cone(g) for a strictly commuting square v f = g u."""
    if v.compose(f) != g.compose(u):
        raise InputError("square does not commute")
    cf, cg = cone(f), cone(g)
    maps = {}
    for n in cf.modules:
        maps[n] = stack_maps(
            [f.source.module(n - 1), f.target.module(n)],
            [g.source.module(n - 1), g.target.module(n)],
            {(0, 0): u.map_at(n - 1), (1, 1): v.map_at(n)})
    return ComplexMap(cf, cg, maps, check=False)


def hofib(f: ComplexMap) -> SortedComplex:
    return shift(cone(f), -1)


def hofib_map(f, g, u, v) -> ComplexMap:
    return shift_map(cone_map(f, g, u, v), -1)


def hofib_projection(f: ComplexMap) -> ComplexMap:
    """Canonical chain map hofib(f) -> source(f)."""
    fib = hofib(f)
    maps = {}
    for n in fib.modules:
        src_part = f.source.module(n)
        maps[n] = stack_maps(
            [src_part, f.target.module(n + 1)], [src_part],
            {(0, 0): SortedMap.identity(src_part)})
    return ComplexMap(fib, f.source, maps, check=False)


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
            if self.prime is None or not _is_probable_prime(self.prime):
                raise InputError("completion table needs a prime")
        elif self.prime is not None:
            raise InputError(f"{self.kind} table takes no prime")

    def apply_sort(self, s: Sort) -> Sort:
        if s.kind == "Zero":
            return ZERO
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
            return ZERO
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


def all_sorts(primes):
    out = [Z, ZLOC, Q]
    for p in primes:
        out += [Zp(p), Qp(p)]
    return out


def composite_kills_all(second: LocalizationTable, first: LocalizationTable,
                        primes) -> bool:
    """Whether applying first then second sends every sort to Zero."""
    return all(second.apply_sort(first.apply_sort(s)) == ZERO
               for s in all_sorts(primes))


def apply_localization(c: SortedComplex, table: LocalizationTable) -> SortedComplex:
    """Tensor a complex along a sort table.

    Summands are relabeled, killed summands are dropped together with
    their blocks, and all surviving matrices are kept verbatim. A block
    from a killed summand into a survivor cannot exist (no canonical sort
    map would allow it), which is what makes the drop exact.
    """
    keep: dict[int, list[int]] = {}
    mods = {}
    for n, m in c.modules.items():
        kept = [i for i, (s, _) in enumerate(m.summands)
                if table.apply_sort(s).kind != "Zero"]
        keep[n] = kept
        mods[n] = SortedModule([(table.apply_sort(m.sort(i)), m.rank(i))
                                for i in kept])
    diffs = {}
    for n, d in c.diffs.items():
        src_keep = keep.get(n, [])
        tgt_keep = keep.get(n - 1, [])
        src_pos = {old: new for new, old in enumerate(src_keep)}
        tgt_pos = {old: new for new, old in enumerate(tgt_keep)}
        blocks = {}
        for (i, j), m in d.blocks.items():
            if i in src_pos and j in tgt_pos:
                blocks[(src_pos[i], tgt_pos[j])] = m
            elif i not in src_pos and j in tgt_pos:
                raise InputError("localization produced an inadmissible block")
        diffs[n] = SortedMap(mods.get(n, EMPTY_MODULE),
                             mods.get(n - 1, EMPTY_MODULE), blocks)
    return SortedComplex(mods, diffs)


def apply_localization_map(f: SortedMap, table: LocalizationTable) -> SortedMap:
    def localize_module(m):
        kept = [i for i, (s, _) in enumerate(m.summands)
                if table.apply_sort(s).kind != "Zero"]
        mod = SortedModule([(table.apply_sort(m.sort(i)), m.rank(i)) for i in kept])
        return kept, mod

    skeep, smod = localize_module(f.source)
    tkeep, tmod = localize_module(f.target)
    spos = {old: new for new, old in enumerate(skeep)}
    tpos = {old: new for new, old in enumerate(tkeep)}
    blocks = {}
    for (i, j), m in f.blocks.items():
        if i in spos and j in tpos:
            blocks[(spos[i], tpos[j])] = m
    return SortedMap(smod, tmod, blocks)


def apply_localization_chain_map(f: ComplexMap, table: LocalizationTable) -> ComplexMap:
    return ComplexMap(apply_localization(f.source, table),
                      apply_localization(f.target, table),
                      {n: apply_localization_map(m, table)
                       for n, m in f.maps.items()},
                      check=False)


def canonical_unit(c: SortedComplex, table: LocalizationTable) -> ComplexMap:
    """The natural map from a complex to its localization."""
    loc = apply_localization(c, table)
    maps = {}
    for n, m in c.modules.items():
        kept = [i for i, (s, _) in enumerate(m.summands)
                if table.apply_sort(s).kind != "Zero"]
        blocks = {}
        for new, old in enumerate(kept):
            src_sort = m.sort(old)
            tgt_sort = table.apply_sort(src_sort)
            if not sort_map_exists(src_sort, tgt_sort):
                raise InputError(f"unit would need missing map {src_sort} -> {tgt_sort}")
            blocks[(old, new)] = ExactMatrix.identity(m.rank(old))
        maps[n] = SortedMap(m, loc.module(n), blocks)
    return ComplexMap(c, loc, maps)


def apply_tables(c: SortedComplex, tables) -> SortedComplex:
    for t in tables:
        c = apply_localization(c, t)
    return c


def unit_of_tables(c: SortedComplex, tables) -> ComplexMap:
    total = ComplexMap.identity(c)
    cur = c
    for t in tables:
        u = canonical_unit(cur, t)
        total = u.compose(total)
        cur = u.target
    return total


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


def _keep_indices(m: SortedModule, predicate):
    return [i for i in range(len(m.summands)) if predicate(m.sort(i))]


def _sub_dense(d: SortedMap, src_keep, tgt_keep) -> ExactMatrix:
    spos = {old: new for new, old in enumerate(src_keep)}
    tpos = {old: new for new, old in enumerate(tgt_keep)}
    soff = []
    acc = 0
    for i in src_keep:
        soff.append(acc)
        acc += d.source.rank(i)
    scols = acc
    toff = []
    acc = 0
    for j in tgt_keep:
        toff.append(acc)
        acc += d.target.rank(j)
    trows = acc
    entries = {}
    for (i, j), m in d.blocks.items():
        if i in spos and j in tpos:
            ro = toff[tpos[j]]
            co = soff[spos[i]]
            for (r, c), v in m.items():
                entries[(ro + r, co + c)] = v
    return ExactMatrix(trows, scols, entries)


def _field_exactness_defects(dims: dict, ranks: dict):
    out = []
    for n in sorted(dims):
        if dims[n] == 0:
            continue
        h = dims[n] - ranks.get(n, 0) - ranks.get(n + 1, 0)
        if h:
            out.append((n, h))
    return out


def _modp_check(c: SortedComplex, p: int) -> ResidueCheck:
    def survives(s: Sort) -> bool:
        return s.kind == "ZlocP" or (s.kind == "Zp" and s.prime == p)

    keep = {n: _keep_indices(m, survives) for n, m in c.modules.items()}
    dims = {n: sum(c.module(n).rank(i) for i in keep[n]) for n in c.modules}
    ranks = {}
    for n in c.diffs:
        sub = _sub_dense(c.diffs[n], keep.get(n, []), keep.get(n - 1, []))
        rows = [[0] * sub.cols for _ in range(sub.rows)]
        for (i, j), v in sub.items():
            if v.denominator % p == 0:
                raise InputError(f"denominator {v.denominator} not invertible mod {p}")
            rows[i][j] = (v.numerator * pow(v.denominator, -1, p)) % p
        ranks[n] = _rank_mod(rows, p)
    defects = _field_exactness_defects(dims, ranks)
    return ResidueCheck("mod-p", p, not defects, tuple(defects))


def _rational_exactness(dims: dict, mats: dict):
    """Exact rational exactness: certified fast bound, exact fallback."""
    ranks = {n: rank_lower_bound(m) for n, m in mats.items()}
    defects = _field_exactness_defects(dims, ranks)
    if not defects:
        return ()
    ranks = {n: rank_over_field(m, "Q") for n, m in mats.items()}
    return tuple(_field_exactness_defects(dims, ranks))


def _rational_checks(c: SortedComplex, primes):
    rationalized_kind = {}
    for n, m in c.modules.items():
        for i, (s, _) in enumerate(m.summands):
            if s.kind in ("ZlocP", "Q"):
                rationalized_kind[(n, i)] = Q
            else:
                rationalized_kind[(n, i)] = Qp(s.prime)
    checks = []
    for p in primes:
        def survives(n, i):
            return rationalized_kind[(n, i)] == Qp(p)

        keep = {n: [i for i in range(len(m.summands)) if survives(n, i)]
                for n, m in c.modules.items()}
        dims = {n: sum(c.module(n).rank(i) for i in keep[n]) for n in c.modules}
        mats = {n: _sub_dense(d, keep.get(n, []), keep.get(n - 1, []))
                for n, d in c.diffs.items()}
        defects = _rational_exactness(dims, mats)
        checks.append(ResidueCheck("rational-completed", p, not defects, defects))
    keep = {n: [i for i in range(len(m.summands))
                if rationalized_kind[(n, i)] == Q]
            for n, m in c.modules.items()}
    dims = {n: sum(c.module(n).rank(i) for i in keep[n]) for n in c.modules}
    mats = {n: _sub_dense(d, keep.get(n, []), keep.get(n - 1, []))
            for n, d in c.diffs.items()}
    defects = _rational_exactness(dims, mats)
    checks.append(ResidueCheck("rational", None, not defects, defects))
    return checks


def is_acyclic(c: SortedComplex, primes) -> AcyclicityReport:
    """Exact acyclicity verdict for a P-locally sorted complex."""
    primes = tuple(sorted(set(primes)))
    _require_p_local(c, primes)
    checks = []
    for p in primes:
        checks.append(_modp_check(c, p))
    checks.extend(_rational_checks(c, primes))
    return AcyclicityReport(all(ch.passed for ch in checks), tuple(checks))


def is_quasi_iso(f: ComplexMap, primes) -> AcyclicityReport:
    """A chain map is a quasi-isomorphism when its cone is acyclic."""
    return is_acyclic(cone(f), primes)


# --- homology over the P-local integers --------------------------------------------

def homology_p_local(c: SortedComplex, primes=None) -> dict[int, AbelianInvariants]:
    """Homology invariants of a Z- or ZlocP-sorted complex over ZlocP.

    Each differential is rescaled by the lcm of its denominators, a unit
    of ZlocP, which gives an isomorphic integer complex. Each of its
    differentials is reduced once to its Smith diagonal: H_n has free rank
    dim C_n - rank d_n - rank d_{n+1}, and its torsion is the elementary
    divisors of d_{n+1} greater than 1, projected to the primes of P.
    With primes=None the matrices must be integral and the full integer
    invariants are returned.
    """
    for m in c.modules.values():
        for s, _ in m.summands:
            if s.kind not in ("Z", "ZlocP"):
                raise InputError(f"homology over ZlocP needs Z-like sorts, got {s}")
    dense = {}
    for n in c.diffs:
        d = c.diffs[n].to_dense()
        mult = 1
        for _, v in d.items():
            den = v.denominator
            if den != 1:
                if primes is None:
                    raise InputError("integer homology needs integral matrices")
                for p in primes:
                    if den % p == 0:
                        raise InputError("denominator is not a unit of ZlocP")
                mult = mult * den // gcd(mult, den)
        dense[n] = d.scale(mult)
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


@dataclass
class ChainMapGroup:
    """Free presentation of the group of chain maps between two complexes.

    The columns of `basis` are coordinate vectors in the ambient space of
    all degreewise matrix entries; `positions` names the coordinates.
    """

    source: SortedComplex
    target: SortedComplex
    positions: list  # (degree, row, col) into dense degreewise matrices
    basis: ExactMatrix

    @property
    def rank(self) -> int:
        return self.basis.cols

    def element(self, coeffs) -> ComplexMap:
        vec = self.basis * ExactMatrix.from_rows([[c] for c in coeffs])
        per_degree = {}
        for idx, (n, r, c) in enumerate(self.positions):
            v = vec.entry(idx, 0)
            if v:
                per_degree.setdefault(n, {})[(r, c)] = v
        maps = {}
        for n, entries in per_degree.items():
            dense = ExactMatrix(self.target.module(n).total_rank,
                                self.source.module(n).total_rank, entries)
            maps[n] = SortedMap.from_dense(self.source.module(n),
                                           self.target.module(n), dense)
        return ComplexMap(self.source, self.target, maps)


def chain_map_group(a: SortedComplex, b: SortedComplex,
                    postcompose_zero=()) -> ChainMapGroup:
    """Solve for all chain maps a -> b over a single sort.

    Optional `postcompose_zero` maps g: b -> e add the constraints
    g f = 0; this is how maps into a strict fiber are carved out.
    """
    uniform_sort(a, b, *(g.target for g in postcompose_zero))
    positions = []
    pos_index = {}
    for n in sorted(set(a.modules) & set(b.modules)):
        rows = b.module(n).total_rank
        cols = a.module(n).total_rank
        for r in range(rows):
            for c in range(cols):
                pos_index[(n, r, c)] = len(positions)
                positions.append((n, r, c))
    rows = []

    def add_rows(n_src, left_dense, right_dense, n_tgt_rows, n_cols):
        # constraint: left * f_{n_src} - f_{n_src - 1} * right = 0
        for r in range(n_tgt_rows):
            for c in range(n_cols):
                row = {}
                for (rr, k), v in left_dense.items():
                    if rr != r:
                        continue
                    idx = pos_index.get((n_src, k, c))
                    if idx is not None:
                        row[idx] = row.get(idx, Fraction(0)) + v
                for (k, cc), v in right_dense.items():
                    if cc != c:
                        continue
                    idx = pos_index.get((n_src - 1, r, k))
                    if idx is not None:
                        row[idx] = row.get(idx, Fraction(0)) - v
                if row:
                    rows.append(row)

    degs = sorted(set(a.modules) | set(b.modules))
    for n in degs:
        left = b.diff(n).to_dense()
        right = a.diff(n).to_dense()
        add_rows(n, left, right,
                 b.module(n - 1).total_rank, a.module(n).total_rank)
    for g in postcompose_zero:
        for n in sorted(set(a.modules) & set(b.modules)):
            gd = g.map_at(n).to_dense()
            for r in range(g.target.module(n).total_rank):
                for c in range(a.module(n).total_rank):
                    row = {}
                    for (rr, k), v in gd.items():
                        if rr != r:
                            continue
                        idx = pos_index.get((n, k, c))
                        if idx is not None:
                            row[idx] = row.get(idx, Fraction(0)) + v
                    if row:
                        rows.append(row)
    if not positions:
        return ChainMapGroup(a, b, positions, ExactMatrix.zeros(0, 0))
    # row clearing by denominators is harmless: the scalars are units
    # of the sort ring (admissibility) or the sort ring is a field
    entries = {}
    for i, row in enumerate(rows):
        mult = 1
        for v in row.values():
            mult = mult * v.denominator // gcd(mult, v.denominator)
        for j, v in row.items():
            entries[(i, j)] = v * mult
    int_mat = ExactMatrix(len(rows), len(positions), entries)
    basis = kernel_basis(int_mat)
    return ChainMapGroup(a, b, positions, basis)


def comparison_is_isomorphism(src_group: ChainMapGroup, dst_group: ChainMapGroup,
                              transform, primes) -> bool:
    """Whether a linear comparison identifies two chain map groups.

    `transform` sends an ambient coordinate vector of `src_group` to one
    of `dst_group`. The comparison is an isomorphism exactly when the
    matrix expressing the transformed basis in the destination basis has
    unit elementary divisors over the sort ring: all 1 over Z, prime to
    P over ZlocP, and so on. Fields only need invertibility.
    """
    image = transform(src_group.basis)
    if dst_group.rank != src_group.rank:
        return False
    if src_group.rank == 0:
        return image.is_zero()
    try:
        m = solve_in_span(dst_group.basis, image)
    except InputError:
        return False
    if not m.is_integral():
        return False
    diag = snf_diagonal(m)
    if len(diag) < src_group.rank or any(d == 0 for d in diag):
        return False
    sort = uniform_sort(src_group.source, src_group.target) or Z
    for d in diag:
        if sort.kind == "Z" and abs(d) != 1:
            return False
        if sort.kind == "ZlocP" and p_part(abs(d), primes) != 1:
            return False
        if sort.kind == "Zp" and abs(d) % sort.prime == 0:
            return False
        # field sorts: any nonzero diagonal is a unit
    return True
