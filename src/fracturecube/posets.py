"""Finite posets, subset posets, order complexes, and initiality certificates.

Subsets of an integer label set are always encoded as strictly increasing
tuples so that every enumeration in the package is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact_linalg import (
    AbelianInvariants,
    ExactMatrix,
    InputError,
    integer_homology,
)

DEFAULT_MAX_GENERATORS = 12


class FinitePoset:
    """Finite poset on an ordered element tuple with an explicit relation."""

    __slots__ = ("elements", "_index", "_up")

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

    def strict_up_set(self, x):
        i = self._index[x]
        return tuple(self.elements[j] for j in sorted(self._up[i] - {i}))

    def strict_down_set(self, x):
        i = self._index[x]
        return tuple(y for y in self.elements
                     if y != x and self.leq(y, x))

    def covering_pairs(self):
        """Pairs (x, y) with x < y and nothing strictly between."""
        out = []
        for x in self.elements:
            for y in self.elements:
                if not self.lt(x, y):
                    continue
                if any(self.lt(x, z) and self.lt(z, y) for z in self.elements):
                    continue
                out.append((x, y))
        return out

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
        return self.elements == other.elements and self._up == other._up

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
        for x in self.source.elements:
            for y in self.source.elements:
                if self.source.leq(x, y) and not self.target.leq(
                        self.assignment[x], self.assignment[y]):
                    raise InputError(f"map not order-preserving at {x!r} <= {y!r}")

    def __call__(self, x):
        return self.assignment[x]

    @classmethod
    def identity(cls, p: FinitePoset) -> "PosetMap":
        return cls(p, p, {x: x for x in p.elements})


@dataclass(frozen=True)
class SimplicialComplexData:
    """Abstract simplicial complex stored by its maximal faces."""

    vertices: tuple
    maximal_faces: frozenset  # frozensets of vertices

    def __post_init__(self):
        for f in self.maximal_faces:
            if not f <= set(self.vertices):
                raise InputError("face uses unknown vertex")
        for f in self.maximal_faces:
            for g in self.maximal_faces:
                if f < g:
                    raise InputError("stored face is not maximal")

    def faces_by_dimension(self):
        """All faces, closed under subsets, keyed by dimension."""
        seen = set()
        for mf in self.maximal_faces:
            stack = [frozenset(mf)]
            while stack:
                f = stack.pop()
                if f in seen or not f:
                    continue
                seen.add(f)
                for v in f:
                    stack.append(f - {v})
        out = {}
        order = {v: i for i, v in enumerate(self.vertices)}
        for f in seen:
            out.setdefault(len(f) - 1, []).append(tuple(sorted(f, key=order.get)))
        for d in out:
            out[d].sort()
        return out


# --- subset posets ------------------------------------------------------------

def canonical_subset(s) -> tuple:
    t = tuple(sorted(set(s)))
    return t


def subset_poset(labels, punctured: bool = False,
                 max_size: int = DEFAULT_MAX_GENERATORS) -> FinitePoset:
    """Poset of subsets of a finite label set, ordered by inclusion.

    With punctured=True the empty set is left out. Subsets are encoded as
    sorted tuples; elements are listed by (size, lexicographic) order.
    """
    base = canonical_subset(labels)
    if len(base) > max_size:
        raise InputError(f"label set of size {len(base)} exceeds cap {max_size}")
    subsets = [()]
    for x in base:
        subsets += [s + (x,) for s in subsets]
    subsets = [canonical_subset(s) for s in subsets]
    if punctured:
        subsets = [s for s in subsets if s]
    subsets.sort(key=lambda s: (len(s), s))
    index = {s: i for i, s in enumerate(subsets)}
    up = []
    for s in subsets:
        rest = tuple(x for x in base if x not in s)
        sup = [s]
        for x in rest:
            sup += [canonical_subset(t + (x,)) for t in sup]
        up.append({index[t] for t in sup})
    return FinitePoset._trusted(subsets, up)


def order_complex(p: FinitePoset) -> SimplicialComplexData:
    """Simplicial complex whose simplices are the chains of the poset."""
    levels = p.strict_chains()
    all_chains = [frozenset(c) for level in levels for c in level]
    maximal = [c for c in all_chains
               if not any(c < other for other in all_chains)]
    return SimplicialComplexData(tuple(p.elements), frozenset(maximal))


def reduced_homology(k: SimplicialComplexData) -> dict[int, AbelianInvariants]:
    """Reduced simplicial homology over Z, by Smith normal form.

    Returns only the nonzero degrees (missing degree means trivial group).
    """
    faces = k.faces_by_dimension()
    if not faces:
        raise InputError("empty complex")
    index = {d: {f: i for i, f in enumerate(faces[d])} for d in faces}

    def boundary(d):
        # d-th boundary map C_d -> C_{d-1}; C_{-1} = Z (augmentation)
        if d == 0:
            return ExactMatrix(1, len(faces[0]),
                               {(0, j): 1 for j in range(len(faces[0]))})
        entries = {}
        for j, f in enumerate(faces.get(d, [])):
            for pos in range(len(f)):
                sub = f[:pos] + f[pos + 1:]
                entries[(index[d - 1][sub], j)] = (-1) ** pos
        return ExactMatrix(len(faces.get(d - 1, [])), len(faces.get(d, [])), entries)

    ranks = {-1: 1, **{d: len(fs) for d, fs in faces.items()}}
    hom = integer_homology(ranks, {d: boundary(d) for d in faces})
    return {d: inv for d, inv in hom.items() if not inv.is_trivial()}


# --- dismantlability and initiality --------------------------------------------

def _irreducible(p: FinitePoset, x) -> bool:
    up = p.strict_up_set(x)
    if up:
        sub = p.subposet(up)
        if sub.minimum() is not None:
            return True
    down = p.strict_down_set(x)
    if down:
        sub = p.subposet(down)
        if sub.maximum() is not None:
            return True
    return False


def is_dismantlable(p: FinitePoset):
    """Decide dismantlability; the witness lists removals in order.

    An element is removable when its strict up-set has a minimum or its
    strict down-set has a maximum. Reaching a single point this way
    certifies that the order complex is contractible. Removal order does
    not affect the outcome, so the greedy search is complete.
    """
    if len(p) == 0:
        raise InputError("empty poset")
    current = p
    witness = []
    while len(current) > 1:
        removable = None
        for x in current.elements:
            if _irreducible(current, x):
                removable = x
                break
        if removable is None:
            return False, witness
        witness.append(removable)
        current = current.subposet([y for y in current.elements if y != removable])
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

    def failed(self):
        return tuple(i for i, c in self.certificates.items() if c == CERT_FAIL)


def certify_initial(f: PosetMap) -> InitialityReport:
    """Certify homotopy initiality of a poset map.

    Every comma poset over a target element must be contractible.
    Dismantlability is the conclusive certificate; when it fails but the
    reduced homology of the comma poset vanishes, the element is flagged
    inconclusive instead of guessed.
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
        hom = reduced_homology(order_complex(comma))
        if not hom:
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
