"""Object-level category of fracture diagrams and its decomposition.

A fracture object over the family indices 1..n is a diagram on the
punctured subset poset of its indices, that poset and no other order on
its elements, whose vertex at S is local for the smallest index of S and
whose edges in the minimal direction are literally localization units.
Such objects are equivalent to single local complexes: the limit
functor and the fracture-diagram functor are mutually inverse up to
quasi-isomorphism, verified here vertex by vertex.

Every cube of localizations here is built by folding
holim.attach_localization from the largest index down: the face on the
larger indices, its localization at the next index, and the units
between the two. build_from_generators, diagram_functor and
glue_fracture_object satisfy the object conditions by that
construction, so they check only what the caller supplies and do not
validate their output again. Validation does the fold's per-vertex
work without building a diagram. Locality is sorted_complex.is_local.

The decomposition combinatorics splits the index poset above a subset
into a gap part between the two minima and an anchored part above the
larger minimum; diagrams push forward along that splitting. Both parts
are the shared subset poset of their free labels relabeled by the
labels every member holds, so they carry its order and its size cap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact_linalg import InputError
from .fracture import LocalizationFamily, build_fracture_cube
from .holim import (
    PosetDiagram,
    attach_localization,
    cube_totalization,
    homotopy_limit,
    is_quasi_iso,
    punctured_restriction,
)
from .posets import FinitePoset, PosetMap, canonical_subset, subset_poset
from .sorted_complex import (
    LOCALIZE,
    SortedComplex,
    Violation,
    _localize,
    _unit,
    apply_localization,
    is_acyclic,
    is_local,
    localize_chain_map_tables,
)


# --- fracture objects -----------------------------------------------------------

@dataclass
class FractureObject:
    """Punctured-cube diagram subject to locality and unit-edge conditions."""

    diagram: PosetDiagram
    family: LocalizationFamily
    labels: tuple = ()

    def __post_init__(self):
        self.labels = canonical_subset(self.labels or self.family.labels())
        if not set(self.labels) <= set(self.family.labels()):
            raise InputError(f"labels {self.labels} are not indices of the family "
                             f"{self.family.labels()}")
        if self.diagram.shape != subset_poset(self.labels, punctured=True):
            raise InputError(
                f"shape is not the punctured subset poset on {self.labels}")

    def vertex(self, s) -> SortedComplex:
        return self.diagram.vertex(canonical_subset(s))


def validate_fracture_object(g: FractureObject) -> list:
    """Check the locality and unit-edge conditions, peeling minima.

    Returns a list of violations; empty means the object is valid. Each
    vertex v of the face after index i is localized at i once, with no
    face diagram built, for vertex iv and unit edge v -> iv. The edges
    iv -> iw need no check: once these pass, induction on |w| makes every
    vertex with two completion labels zero (a completion kills every
    sort local for another), and every such iw holds two, so both sides
    are zero.
    """
    fam = g.family
    out = []
    for s in g.diagram.shape.elements:
        table = fam.table(min(s))
        if not is_local(g.vertex(s), table):
            out.append(Violation(f"vertex {s}", f"not fixed by {table.label()}"))
    for k, i in enumerate(g.labels[:-1]):
        table = fam.table(i)
        for v in subset_poset(g.labels[k + 1:], punctured=True).elements:
            iv, c = canonical_subset((i,) + v), g.vertex(v)
            loc = _localize(c, (table,))
            if g.vertex(iv) != loc[0]:
                out.append(Violation(
                    f"vertex {iv}",
                    f"must equal the {table.label()} localization of {v}"))
                continue
            if g.diagram.hom(v, iv) != _unit(c, loc):
                out.append(Violation(
                    f"edge {v} -> {iv}", "must be the localization unit"))
    return out


# --- generators (the free data of an object) --------------------------------------

@dataclass
class GeneratorData:
    """One local complex per index and one mixing map per index pair.

    complexes[i] must be fixed by the i-th table; maps[(i, j)] for i < j
    goes from complexes[i] into the i-localization of complexes[j].
    """

    complexes: dict
    maps: dict


def build_from_generators(gen: GeneratorData, fam: LocalizationFamily,
                          labels=None) -> FractureObject:
    labels = canonical_subset(labels if labels is not None else fam.labels())
    for i in labels:
        if i not in gen.complexes:
            raise InputError(f"missing generator complex at index {i}")
        if not is_local(gen.complexes[i], fam.table(i)):
            raise InputError(f"generator {i} is not {fam.table(i).label()}-local")
    for i in labels:
        for j in labels:
            if i < j:
                f = gen.maps.get((i, j))
                if f is None:
                    raise InputError(f"missing mixing map ({i}, {j})")
                if f.source != gen.complexes[i]:
                    raise InputError(f"mixing map ({i}, {j}) has wrong source")
                if f.target != apply_localization(gen.complexes[j], fam.table(i)):
                    raise InputError(f"mixing map ({i}, {j}) has wrong target")

    # attach each smaller index, then its generator and the mixing maps out of it
    d = PosetDiagram._trusted(subset_poset((), punctured=True), {}, {})
    for k in reversed(range(len(labels))):
        i = labels[k]
        d = attach_localization(d, fam.table(i), i)
        mixing = {((i,), (i, j)): gen.maps[(i, j)] for j in labels[k + 1:]}
        d = PosetDiagram._trusted(subset_poset(labels[k:], punctured=True),
                                  {**d.vertices, (i,): gen.complexes[i]},
                                  {**d.edges, **mixing})
    # the mixing squares come from the caller: check them once, at the end
    return FractureObject(PosetDiagram(d.shape, d.vertices, d.edges), fam, labels)


# --- the mutually inverse functors -------------------------------------------------

def fracture_limit(g: FractureObject) -> SortedComplex:
    """Homotopy limit of a fracture object; the result is jointly local."""
    hl = homotopy_limit(g.diagram)
    for s in hl.complex.sorts():
        if s.kind == "Z":
            raise InputError("limit of a fracture object exposed a raw Z sort")
    return hl.complex


def _local_fracture_cube(x: SortedComplex, fam: LocalizationFamily) -> PosetDiagram:
    if not is_local(x, LOCALIZE):
        raise InputError("input complex is not local for the family")
    return build_fracture_cube(x, fam)


def fracture_diagram(x: SortedComplex, fam: LocalizationFamily) -> FractureObject:
    """Restrict the inductive localization cube of a local complex."""
    return FractureObject(punctured_restriction(_local_fracture_cube(x, fam)), fam)


def roundtrip_check(obj, fam: LocalizationFamily) -> bool:
    """Verify the limit and diagram functors invert each other on an object.

    For a complex, the cone of the canonical map into the limit, its
    fracture cube totalized with the corner in level -1, must be acyclic.
    For a diagram, take the limit and compare the rebuilt diagram vertex
    by vertex along the localized projection legs.
    """
    if isinstance(obj, SortedComplex):
        cube = _local_fracture_cube(obj, fam)
        return is_acyclic(cube_totalization(cube).complex, fam.primes).acyclic
    if isinstance(obj, FractureObject):
        hl = homotopy_limit(obj.diagram)
        for s in obj.diagram.shape.elements:
            top = max(s)
            comparison = localize_chain_map_tables(hl.legs[(top,)], fam.tables_for(s))
            if comparison.target != obj.vertex(s):
                return False
            if not is_quasi_iso(comparison, fam.primes).acyclic:
                return False
        return True
    raise InputError(f"cannot round-trip {type(obj).__name__}")


# --- index combinatorics ------------------------------------------------------------

def _check_containment(s, s2, t):
    s, s2, t = canonical_subset(s), canonical_subset(s2), canonical_subset(t)
    if not s:
        raise InputError("the anchor subset must be nonempty")
    if not (set(s) <= set(s2) <= set(t)):
        raise InputError("need anchor within outer subset within the index set")
    return s, s2, t


def anchored_supersets(s, t) -> FinitePoset:
    """Subsets of t containing s and sharing its minimum, by inclusion."""
    s, _, t = _check_containment(s, s, t)
    return _relabeled(s, [x for x in t if x > min(s) and x not in s])


def gap_subsets(s, s2, t) -> FinitePoset:
    """Subsets of the integer gap between the two minima, forced on s2.

    The gap runs from min(s2) inclusive to min(s) exclusive; every
    member must contain the part of s2 lying in the gap.
    """
    s, s2, t = _check_containment(s, s2, t)
    lo, hi = min(s2), min(s)
    interval = [x for x in t if lo <= x < hi]
    forced = tuple(x for x in s2 if lo <= x < hi)
    return _relabeled(forced, [x for x in interval if x not in forced])


def _relabeled(fixed, free) -> FinitePoset:
    """subset_poset(free) relabeled u -> fixed + u, for fixed disjoint from free.

    Inclusion is unchanged, and so is the (size, lex) order: the first
    label where two same-size u differ is the first where fixed + u do.
    """
    base = subset_poset(free)
    return FinitePoset._trusted([canonical_subset(fixed + u) for u in base.elements],
                                base._up)


def anchor_split(s, s2, t):
    """Split the outer anchored poset into gap times anchored parts.

    The forward map sends U to its gap part paired with its part at or
    above min(s); union of components inverts it. The image inside the
    product consists of the pairs whose anchored component contains the
    tail of the outer subset, so the inverse is returned on that image
    subposet. The image is the whole product exactly when everything the
    outer subset adds lies inside the gap interval; see
    anchor_split_onto_product.
    """
    s, s2, t = _check_containment(s, s2, t)
    lo, hi = min(s2), min(s)
    outer = anchored_supersets(s2, t)
    prod = gap_subsets(s, s2, t).product(anchored_supersets(s, t))
    tail = set(x for x in s2 if x >= hi)
    image = prod.subposet([(v, w) for (v, w) in prod.elements
                           if tail <= set(w)])

    def split(u):
        return (tuple(x for x in u if lo <= x < hi),
                tuple(x for x in u if x >= hi))

    fwd = PosetMap(outer, prod, {u: split(u) for u in outer.elements})
    inv = PosetMap(image, outer,
                   {(v, w): canonical_subset(v + w) for (v, w) in image.elements})
    return fwd, inv


def anchor_split_onto_product(s, s2, t) -> bool:
    """Whether the splitting hits the whole product poset."""
    s, s2, t = _check_containment(s, s2, t)
    hi = min(s)
    return all(x < hi for x in set(s2) - set(s))


# --- diagram functors on objects -----------------------------------------------------

def diagram_functor(s, s2, x: PosetDiagram, fam: LocalizationFamily) -> PosetDiagram:
    """Push a diagram on the anchored poset of s to the one of s2.

    On a vertex U the value is the gap localization of the value at the
    part of U at or above min(s): keep the vertices of x that hold the
    part of s2 there, then attach each gap index from the top down,
    keeping only the vertices that contain it when it lies in s2.
    """
    t = fam.labels()
    s, s2, t = _check_containment(s, s2, t)
    table_min = fam.table(min(s))
    for u in x.shape.elements:
        if not is_local(x.vertex(u), table_min):
            raise InputError(f"input vertex {u} is not local at index {min(s)}")
    if x.shape != anchored_supersets(s, t):
        raise InputError("input diagram has the wrong shape")
    lo, hi = min(s2), min(s)
    tail = {v for v in s2 if v >= hi}
    out = x.restrict([u for u in x.shape.elements if tail <= set(u)])
    for j in reversed([v for v in t if lo <= v < hi]):
        out = attach_localization(out, fam.table(j), j)
        if j in s2:
            out = out.restrict([u for u in out.shape.elements if j in u])
    return out


def anchored_cover_identity(n: int) -> bool:
    """The anchored posets of the two-or-more element sets cover the
    punctured anchored poset of the singleton, compatibly on overlaps."""
    t = tuple(range(1, n + 1))
    index = [u for u in anchored_supersets((1,), t).elements if u != (1,)]
    up = {s: set(anchored_supersets(s, t).elements) for s in index}
    return (set().union(*up.values()) == set(index)
            and all(up[a] & up[b] == up[canonical_subset(a + b)]
                    for a in index for b in index))


# --- split and glue -----------------------------------------------------------------

@dataclass
class SplitData:
    top: FractureObject      # the face avoiding the first index
    bottom: PosetDiagram     # the face anchored at the first index


def split_fracture_object(z: FractureObject) -> SplitData:
    """Cut an object into its face anchored at the first index and the rest.

    The bottom face consists of the vertices containing the first
    index; away from the bare singleton it is literally the first
    localization of the top face. An object that fails validation is an
    input error naming its first violation.
    """
    fam = z.family
    labels = z.labels
    if len(labels) < 2:
        raise InputError("splitting needs at least two indices")
    bad = validate_fracture_object(z)
    if bad:
        raise InputError(f"object invalid: {bad[0].location}: {bad[0].message}")
    first = labels[0]
    rest = labels[1:]
    top = FractureObject(
        z.diagram.restrict(subset_poset(rest, punctured=True).elements),
        fam, rest)
    bottom = z.diagram.restrict(anchored_supersets((first,), labels).elements)
    return SplitData(top, bottom)


def glue_fracture_object(split: SplitData) -> FractureObject:
    """Reassemble an object from a split; inverse to splitting on the nose.

    The family is the top face's. Away from the anchor, each bottom
    vertex must equal the top face localized at the anchor index.
    """
    top = split.top
    fam = top.family
    rest = top.labels
    # the anchor is the bottom's singleton vertex, a family index below the top
    anchor = [u[0] for u in split.bottom.shape.elements if len(u) == 1]
    first = anchor[0] if anchor else None
    if first not in fam.labels() or first >= min(rest):
        raise InputError("glue expects the bottom face anchored at a family "
                         "index below every top label")
    labels = canonical_subset((first,) + rest)
    bottom_shape = anchored_supersets((first,), labels)
    if split.bottom.shape != bottom_shape:
        raise InputError(f"bottom face is not the anchored poset on {labels}")
    table = fam.table(first)
    bad = validate_fracture_object(top)
    if bad:
        raise InputError(f"top face invalid: {bad[0].location}: {bad[0].message}")
    glued = attach_localization(top.diagram, table, first)
    for u in bottom_shape.elements:
        if u != (first,) and split.bottom.vertex(u) != glued.vertex(u):
            raise InputError(f"bottom vertex {u} is not the {table.label()} "
                             "localization of the top face")
    base = split.bottom.vertex((first,))
    if not is_local(base, table):
        raise InputError(f"anchor vertex {(first,)} is not fixed by {table.label()}")
    # any other bottom edge ends at a vertex with two completion labels, zero in
    # the attached cube of the valid top and so in the bottom: it equals the
    # attached edge. The mixing squares commute in the bottom, the rest in the cube
    mixing = {(a, b): e for (a, b), e in split.bottom.edges.items() if a == (first,)}
    diagram = PosetDiagram._trusted(subset_poset(labels, punctured=True),
                                    {**glued.vertices, (first,): base},
                                    {**glued.edges, **mixing})
    return FractureObject(diagram, fam, labels)
