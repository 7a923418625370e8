"""Finite posets, subset posets, and initiality certificates.

Subsets of an integer label set are always encoded as strictly increasing
tuples so that every enumeration in the package is deterministic. Order
questions are read off a poset's up-sets: each subset poset is built
once and shared, and dismantling looks for a minimum above or a maximum
below an element without building a subposet to ask. The homology of
a poset's order complex is read off its strict chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .exact_linalg import (
    AbelianInvariants,
    ExactMatrix,
    InputError,
    integer_homology,
)

DEFAULT_MAX_GENERATORS = 12


class FinitePoset:
    """Finite poset on an ordered element tuple with an explicit relation."""

    __slots__ = ("elements", "_index", "_up", "_covers")

    def __init__(self, elements, leq_pairs):
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise InputError("duplicate poset elements")
        self._index = {x: i for i, x in enumerate(self.elements)}
        n = len(self.elements)
        up = [set() for _ in range(n)]
        for x, y in leq_pairs:
            up[self._index[x]].add(self._index[y])
        for i in range(n):
            up[i].add(i)
        # transitivity and antisymmetry are required, not inferred
        for i in range(n):
            for j in up[i]:
                if i != j and i in up[j]:
                    raise InputError("relation is not antisymmetric")
                if not up[j] <= up[i]:
                    raise InputError("relation is not transitive")
        self._up = tuple(frozenset(s) for s in up)

    @classmethod
    def _trusted(cls, elements, up_indices) -> "FinitePoset":
        # fast path for relations that are valid by construction
        p = object.__new__(cls)
        p.elements = tuple(elements)
        p._index = {x: i for i, x in enumerate(p.elements)}
        p._up = tuple(frozenset(s) for s in up_indices)
        return p

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self._index

    def index(self, x):
        return self._index[x]

    def leq(self, x, y) -> bool:
        return self._index[y] in self._up[self._index[x]]

    def lt(self, x, y) -> bool:
        return x != y and self.leq(x, y)

    def covering_pairs(self):
        """Pairs (x, y) with x < y and nothing strictly between, as a new list."""
        # a poset never changes, so its pairs are found once
        if not hasattr(self, "_covers"):
            # y covers x when it is above x but not above anything above x
            strict_up = [u - {i} for i, u in enumerate(self._up)]
            self._covers = tuple(
                (self.elements[i], self.elements[j]) for i, above in enumerate(strict_up)
                for j in sorted(above.difference(*(strict_up[k] for k in above))))
        return list(self._covers)

    def maximum(self):
        for x in self.elements:
            if all(self.leq(y, x) for y in self.elements):
                return x
        return None

    def minimum(self):
        for x in self.elements:
            if all(self.leq(x, y) for y in self.elements):
                return x
        return None

    def subposet(self, keep) -> "FinitePoset":
        keep_set = set(keep)
        elems = [x for x in self.elements if x in keep_set]
        old_idx = [self._index[x] for x in elems]
        renum = {o: i for i, o in enumerate(old_idx)}
        up = [{renum[j] for j in self._up[o] if j in renum} for o in old_idx]
        return FinitePoset._trusted(elems, up)

    def product(self, other: "FinitePoset") -> "FinitePoset":
        elems = [(a, b) for a in self.elements for b in other.elements]
        m = len(other.elements)
        up = []
        for a in self.elements:
            ia = self._index[a]
            for b in other.elements:
                ib = other._index[b]
                up.append({j * m + k for j in self._up[ia] for k in other._up[ib]})
        return FinitePoset._trusted(elems, up)

    def strict_chains(self):
        """All strictly increasing chains, grouped by length, in element order."""
        n = len(self.elements)
        lt = [sorted(j for j in self._up[i] if j != i) for i in range(n)]
        levels = [[(i,) for i in range(n)]]
        while levels[-1]:
            nxt = []
            for chain in levels[-1]:
                last = chain[-1]
                for j in lt[last]:
                    nxt.append(chain + (j,))
            levels.append(nxt)
        levels.pop()
        return [[tuple(self.elements[i] for i in chain) for chain in level]
                for level in levels]

    def __eq__(self, other):
        if not isinstance(other, FinitePoset):
            return NotImplemented
        # shared posets, such as subset_poset's, compare without a walk
        return self is other or (self.elements == other.elements
                                 and self._up == other._up)

    __hash__ = None

    def __repr__(self):
        return f"FinitePoset({len(self.elements)} elements)"


@dataclass(frozen=True)
class PosetMap:
    """Order-preserving map between finite posets."""

    source: FinitePoset
    target: FinitePoset
    assignment: dict

    def __post_init__(self):
        for x in self.source.elements:
            if x not in self.assignment:
                raise InputError(f"assignment missing {x!r}")
            if self.assignment[x] not in self.target:
                raise InputError(f"image {self.assignment[x]!r} not in target")
        # a map that keeps every cover keeps the order, by transitivity
        for x, y in self.source.covering_pairs():
            if not self.target.leq(self.assignment[x], self.assignment[y]):
                raise InputError(f"map not order-preserving at {x!r} <= {y!r}")

    def __call__(self, x):
        return self.assignment[x]

    @classmethod
    def identity(cls, p: FinitePoset) -> "PosetMap":
        return cls(p, p, {x: x for x in p.elements})


# --- subset posets ------------------------------------------------------------

def canonical_subset(s) -> tuple:
    """The labels of s as a sorted tuple without repeats."""
    try:
        return tuple(sorted(set(s)))
    except TypeError:
        raise InputError(f"{s!r} is not an iterable of labels") from None


def subset_poset(labels, punctured: bool = False) -> FinitePoset:
    """Poset of subsets of a finite label set, ordered by inclusion.

    With punctured=True the empty set is left out. Subsets are encoded as
    sorted tuples; elements are listed by (size, lexicographic) order.
    Posets are immutable, so each one is built once and shared. More than
    DEFAULT_MAX_GENERATORS labels are refused, built before or not.
    """
    base = canonical_subset(labels)
    if len(base) > DEFAULT_MAX_GENERATORS:
        raise InputError(f"label set of size {len(base)} exceeds cap {DEFAULT_MAX_GENERATORS}")
    return _subset_poset(base, bool(punctured))


@lru_cache(maxsize=64)
def _subset_poset(base: tuple, punctured: bool) -> FinitePoset:
    # a subset is a mask of positions in base; m's supersets are m | t for t within ~m
    n, full = len(base), (1 << len(base)) - 1
    level = [(0, (), -1)]
    subsets = [] if punctured else level[:]
    while level:
        level = [(m | 1 << j, s + (base[j],), j)
                 for m, s, last in level for j in range(last + 1, n)]
        subsets += level
    index = {m: i for i, (m, _, _) in enumerate(subsets)}
    up = []
    for m, _, _ in subsets:
        sup, t = {index[m]}, full ^ m
        while t:
            sup.add(index[m | t])
            t = (t - 1) & ~m
        up.append(sup)
    return FinitePoset._trusted([s for _, s, _ in subsets], up)


def reduced_homology(p: FinitePoset) -> dict[int, AbelianInvariants]:
    """Reduced homology over Z of the order complex of p, by Smith normal form.

    The simplices are read straight off p.strict_chains(): a chain of
    d + 1 elements is a d-simplex, dropping its i-th element gives its
    i-th face with sign (-1)^i, and C_{-1} = Z is the augmentation.
    Returns only the nonzero degrees (missing degree means trivial group).
    """
    chains = p.strict_chains()
    if not chains:
        raise InputError("empty complex")
    # the empty chain spans C_{-1}: it is the one face of every vertex
    levels = {-1: [()], **dict(enumerate(chains))}
    diffs = {}
    for d in range(len(chains)):
        row = {c: r for r, c in enumerate(levels[d - 1])}
        diffs[d] = ExactMatrix(len(levels[d - 1]), len(levels[d]), {
            (row[c[:i] + c[i + 1:]], j): (-1) ** i
            for j, c in enumerate(levels[d]) for i in range(len(c))})
    hom = integer_homology({d: len(level) for d, level in levels.items()}, diffs)
    return {d: inv for d, inv in hom.items() if not inv.is_trivial()}


# --- dismantlability and initiality --------------------------------------------

def _irreducible(up, live, i) -> bool:
    # read off the up-sets, live indices only: a minimum above i lies below
    # everything above i, a maximum below i lies above everything below i
    above = (up[i] & live) - {i}
    below = [j for j in live if i in up[j] and j != i]
    return (any(above <= up[j] for j in above)
            or any(all(j in up[k] for k in below) for j in below))


def is_dismantlable(p: FinitePoset):
    """Decide dismantlability; the witness lists removals in order.

    An element is removable when its strict up-set has a minimum or its
    strict down-set has a maximum. Reaching a single point this way
    certifies that the order complex is contractible. Removal order does
    not affect the outcome, so the greedy search is complete. Removed
    elements leave the set of live indices; the up-sets stay as they are.
    """
    if len(p) == 0:
        raise InputError("empty poset")
    live = set(range(len(p)))
    witness = []
    while len(live) > 1:
        removable = next((i for i in sorted(live) if _irreducible(p._up, live, i)), None)
        if removable is None:
            return False, witness
        witness.append(p.elements[removable])
        live.remove(removable)
    return True, witness


def comma_poset(f: PosetMap, target_element) -> FinitePoset:
    """Subposet of the source mapping at or below the given target element."""
    if target_element not in f.target:
        raise InputError(f"{target_element!r} not in target poset")
    keep = [q for q in f.source.elements
            if f.target.leq(f(q), target_element)]
    return f.source.subposet(keep)


CERT_DISMANTLABLE = "dismantlable"
CERT_HOMOLOGY_ONLY = "homology-zero-only"
CERT_FAIL = "fail"


@dataclass(frozen=True)
class InitialityReport:
    overall: bool
    certificates: dict
    inconclusive: tuple = ()


def certify_initial(f: PosetMap) -> InitialityReport:
    """Certify homotopy initiality of a poset map.

    Every comma poset over a target element must be contractible.
    Dismantlability is the conclusive certificate; when it fails but the
    reduced homology of the comma poset's order complex vanishes, the
    element is flagged inconclusive instead of guessed. An empty comma
    poset fails.
    """
    certs = {}
    inconclusive = []
    for i in f.target.elements:
        comma = comma_poset(f, i)
        if len(comma) == 0:
            certs[i] = CERT_FAIL
            continue
        ok, _ = is_dismantlable(comma)
        if ok:
            certs[i] = CERT_DISMANTLABLE
            continue
        if not reduced_homology(comma):
            certs[i] = CERT_HOMOLOGY_ONLY
            inconclusive.append(i)
        else:
            certs[i] = CERT_FAIL
    overall = all(c == CERT_DISMANTLABLE for c in certs.values())
    return InitialityReport(overall, certs, tuple(inconclusive))


def pcubelim_index_map(labels, t) -> PosetMap:
    """Index map used to compute punctured-cube limits recursively.

    Source is (nonempty subsets of {a, b}) x (nonempty subsets of the
    labels without t); the image of (K, J) is {t} for K = {a}, J for
    K = {b}, and {t} union J for K = {a, b}.
    """
    base = canonical_subset(labels)
    if t not in base:
        raise InputError(f"{t!r} not in label set")
    if len(base) < 2:
        raise InputError("label set must have at least two elements")
    rest = tuple(x for x in base if x != t)
    ab = subset_poset(("a", "b"), punctured=True)
    pr = subset_poset(rest, punctured=True)
    source = ab.product(pr)
    target = subset_poset(base, punctured=True)
    assignment = {}
    for (k, j) in source.elements:
        if k == ("a",):
            assignment[(k, j)] = (t,)
        elif k == ("b",):
            assignment[(k, j)] = j
        else:
            assignment[(k, j)] = canonical_subset(j + (t,))
    return PosetMap(source, target, assignment)
