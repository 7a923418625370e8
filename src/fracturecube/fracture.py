"""The inductive fracture cube and its exact verification.

The shipped localization family is rationalization first, then one
completion per configured prime, in increasing order. Composites taken
with the larger index applied first vanish on every sort, which is the
orthogonality hypothesis the fracture cube needs; the reverse order
survives (completion then rationalization leaves a Qp line), which is
why the family ordering matters. Every family built this way is
orthogonal, so LocalizationFamily checks only its primes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact_linalg import InputError, _require_primes
from .holim import (
    PosetDiagram,
    attach_localization,
    cube_totalization,
    homotopy_limit,
    is_cartesian,
    is_quasi_iso,
    limit_extended_cube,
    localize_diagram,
    punctured_restriction,
)
from .posets import canonical_subset, subset_poset
from .sorted_complex import (
    LOCALIZE,
    RATIONALIZE,
    ComplexMap,
    LocalizationTable,
    SortedComplex,
    apply_localization,
    complete,
    homology_p_local,
    is_acyclic,
    validate,
)


@dataclass(frozen=True)
class LocalizationFamily:
    """Ordered family of localization tables plus the joint localization.

    Index 1 is rationalization; index i >= 2 completes at the (i-1)-st
    configured prime. The union localization inverts every prime outside
    the configured set and plays the role of the ambient local category.
    """

    primes: tuple

    def __post_init__(self):
        ps = tuple(self.primes)
        if list(ps) != sorted(set(ps)):
            raise InputError("primes must be strictly increasing and distinct")
        _require_primes(ps)

    @property
    def size(self) -> int:
        return len(self.primes) + 1

    def labels(self) -> tuple:
        return tuple(range(1, self.size + 1))

    def table(self, i: int) -> LocalizationTable:
        if i == 1:
            return RATIONALIZE
        if 2 <= i <= self.size:
            return complete(self.primes[i - 2])
        raise InputError(f"family index {i} out of range 1..{self.size}")

    def tables_for(self, subset) -> list:
        """Tables for L_S, listed in application order (largest index first)."""
        return [self.table(i) for i in sorted(subset, reverse=True)]


def e_localize(x: SortedComplex, fam: LocalizationFamily) -> SortedComplex:
    """Localization at the whole family: invert all primes outside P."""
    return apply_localization(x, LOCALIZE)


def _require_valid(x: SortedComplex, primes):
    bad = validate(x, primes)
    if bad:
        raise InputError(f"input complex invalid: {bad[0].message}")


def build_fracture_cube(x: SortedComplex, fam: LocalizationFamily) -> PosetDiagram:
    """The inductive cube of localizations of x over the subsets of 1..n.

    Base case is the 0-cube on x; each stage attaches the localization at
    the next smaller index along the units. The vertex at S comes out as
    the ordered composite localization of x at S.
    """
    _require_valid(x, fam.primes)
    cube = PosetDiagram._trusted(subset_poset(()), {(): x}, {})
    for i in reversed(fam.labels()):
        cube = attach_localization(cube, fam.table(i), i)
    return cube


@dataclass
class ComparisonData:
    """The canonical map from the joint localization into the punctured limit."""

    source: SortedComplex
    limit: SortedComplex
    eta: ComplexMap
    legs: dict  # family index -> ComplexMap into the index's localization


def comparison_map(x: SortedComplex, fam: LocalizationFamily):
    """eta: the corner map of the fracture cube of the joint localization.

    Its legs are the cube's edges out of the corner, the composite
    localization units.
    """
    _require_valid(x, fam.primes)
    cube = build_fracture_cube(e_localize(x, fam), fam)
    punct = punctured_restriction(cube)
    hl = homotopy_limit(punct)
    eta = hl.cone_map(cube.vertex(()), {s: cube.hom((), s) for s in punct.shape.elements})
    data = ComparisonData(cube.vertex(()), hl.complex, eta,
                          {i: cube.hom((), (i,)) for i in fam.labels()})
    return data, hl


@dataclass
class FractureReport:
    verdict: bool
    checks: tuple  # residue checks from the quasi-isomorphism test
    limit_homology: dict  # degree -> AbelianInvariants of the localized input


def verify_fracture(x: SortedComplex, fam: LocalizationFamily) -> FractureReport:
    """Check that the joint localization is the punctured-cube limit.

    The cone of the comparison map, the fracture cube totalized with its
    corner in level -1, must be acyclic. Raw-Z input makes that cone
    P-locally sorted, where the residue verifier is complete.
    """
    for s in x.sorts():
        if s.kind != "Z":
            raise InputError("verify_fracture expects raw Z sorts; "
                             f"found {s}")
    _require_valid(x, fam.primes)
    cube = build_fracture_cube(e_localize(x, fam), fam)
    rep = is_acyclic(cube_totalization(cube).complex, fam.primes)
    limit_hom = homology_p_local(cube.vertex(()), fam.primes) if rep.acyclic else {}
    return FractureReport(rep.acyclic, rep.checks, limit_hom)


@dataclass
class CollapseReport:
    """Structural collapse of the localized limit-extended cube.

    cartesian: localization preserves the Cartesian extension.
    vanishing: vertices indexed by sets reaching below the index die.
    edge_equivalences: edges S' -> S' + (i,) become invertible, so the
    direction fibers, their homotopy fibers, die away from the corner.
    conclusion: the corner edge () -> (i,) is invertible too, so the limit
    projects isomorphically onto the index's localization.
    """

    index: int
    cartesian: bool
    vanishing: dict
    edge_equivalences: dict
    conclusion: bool

    @property
    def passed(self) -> bool:
        return (self.cartesian and all(self.vanishing.values())
                and all(self.edge_equivalences.values()) and self.conclusion)


def localization_collapse_check(x: SortedComplex, fam: LocalizationFamily,
                                i: int) -> CollapseReport:
    """Apply one family localization to the limit-extended cube and
    verify the three collapse properties plus the resulting equivalence."""
    if not 1 <= i <= fam.size:
        raise InputError(f"index {i} outside 1..{fam.size}")
    primes = fam.primes
    cube = build_fracture_cube(x, fam)
    punct = punctured_restriction(cube)
    ext = limit_extended_cube(punct)
    loc = localize_diagram(ext, fam.table(i))

    cartesian = is_cartesian(loc, primes)
    vanishing = {}
    for s in loc.shape.elements:
        if s and min(s) < i:
            vanishing[s] = is_acyclic(loc.vertex(s), primes).acyclic
    edge_equivalences = {}
    for s in loc.shape.elements:
        if s and i not in s:
            s2 = canonical_subset(s + (i,))
            rep = is_quasi_iso(loc.hom(s, s2), primes)
            edge_equivalences[(s, s2)] = rep.acyclic
    conclusion = is_quasi_iso(loc.hom((), (i,)), primes).acyclic
    return CollapseReport(i, cartesian, vanishing, edge_equivalences, conclusion)


# --- the two styles of two-index pullback squares -----------------------------------

def rational_pair_square(x: SortedComplex, p: int) -> PosetDiagram:
    """The two-element family square at one prime, corner already local.

    Rationalization against p-completion, with the joint localization at
    the corner; Cartesian exactly because the fracture property holds.
    """
    fam = LocalizationFamily((p,))
    _require_valid(x, fam.primes)
    return build_fracture_cube(e_localize(x, fam), fam)


def completion_pair_square(x: SortedComplex, p: int, q: int) -> PosetDiagram:
    """The square of two completions at distinct primes.

    Both mixed composites vanish here, so the joint localization
    degenerates to the product of the two completions: the corner is the
    limit of xq -> 0 <- xp, and the corner edges are its legs.
    """
    if p == q:
        raise InputError("need two distinct primes")
    # the tables check the primes before validate divides by them
    tp, tq = complete(p), complete(q)
    _require_valid(x, (p, q))
    xp = apply_localization(x, tp)
    xq = apply_localization(x, tq)
    punct = PosetDiagram._trusted(subset_poset((1, 2), punctured=True),
                                  {(1,): xq, (2,): xp}, {})
    lim = homotopy_limit(punct)
    verts = {(): lim.complex, **punct.vertices}
    edges = {((), s): lim.legs[s] for s in ((1,), (2,))}
    return PosetDiagram._trusted(subset_poset((1, 2)), verts, edges)
