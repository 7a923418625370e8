"""Object-level category of fracture diagrams and its decomposition.

A fracture object over the family indices 1..n is a punctured-cube
diagram whose vertex at S is local for the smallest index of S and
whose edges in the minimal direction are literally localization units.
Such objects are equivalent to single local complexes: the limit
functor and the fracture-diagram functor are mutually inverse up to
quasi-isomorphism, verified here vertex by vertex.

A localization along a table list is one pass over the complex, and a
unit is the projection onto the basis that pass keeps. Every unit
between two subset localizations of one complex adds one index j: the
canonical unit of the j-th table at the localization above j, localized
at the indices below j. Locality is sorted_complex.is_local.

The decomposition combinatorics splits the index poset above a subset
into a gap part between the two minima and an anchored part above the
larger minimum; diagrams push forward along that splitting.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact_linalg import InputError
from .fracture import LocalizationFamily, build_fracture_cube, is_e_local
from .holim import PosetDiagram, cube_totalization, homotopy_limit, punctured_restriction
from .posets import FinitePoset, PosetMap, canonical_subset, subset_poset
from .sorted_complex import (
    ComplexMap,
    SortedComplex,
    _localize,
    _localize_chain_map,
    _unit,
    apply_localization,
    apply_tables,
    canonical_unit,
    is_acyclic,
    is_local,
    is_quasi_iso,
    localize_chain_map_tables,
)


# --- localization along index subsets ------------------------------------------

def _unit_adding(base: SortedComplex, fam: LocalizationFamily, small, j) -> ComplexMap:
    """The unit from the small-subset localization of base to the one with j
    added: the j-th canonical unit of the localization at the indices above
    j, localized at the indices below j."""
    above = fam.tables_for([x for x in small if x > j])
    unit = canonical_unit(apply_tables(base, above), fam.table(j))
    return localize_chain_map_tables(unit, fam.tables_for([x for x in small if x < j]))


# --- fracture objects -----------------------------------------------------------

@dataclass
class FractureObject:
    """Punctured-cube diagram subject to locality and unit-edge conditions."""

    diagram: PosetDiagram
    family: LocalizationFamily
    labels: tuple = ()

    def __post_init__(self):
        if not self.labels:
            object.__setattr__(self, "labels", self.family.labels())
        self.labels = canonical_subset(self.labels)
        if not set(self.labels) <= set(self.family.labels()):
            raise InputError(f"labels {self.labels} are not indices of the family "
                             f"{self.family.labels()}")
        expect = subset_poset(self.labels, punctured=True)
        if self.diagram.shape.elements != expect.elements:
            raise InputError(
                f"shape is not the punctured subset poset on {self.labels}")

    def vertex(self, s) -> SortedComplex:
        return self.diagram.vertex(canonical_subset(s))


@dataclass(frozen=True)
class ObjectViolation:
    location: str
    message: str


def validate_fracture_object(g: FractureObject) -> list:
    """Check the locality and unit-edge conditions, peeling minima.

    Returns a list of violations; empty means the object is valid.
    """
    fam = g.family
    out = []
    for s in g.diagram.shape.elements:
        table = fam.table(min(s))
        if not is_local(g.vertex(s), table):
            out.append(ObjectViolation(f"vertex {s}",
                                       f"not fixed by {table.label()}"))

    def peel(labels):
        if len(labels) <= 1:
            return
        i = labels[0]
        rest = subset_poset(labels[1:], punctured=True)
        table = fam.table(i)
        # one pass per vertex gives its unit and the localized edges out of it
        passes = {v: _localize(g.vertex(v), (table,)) for v in rest.elements}
        for v in rest.elements:
            iv = canonical_subset((i,) + v)
            if g.vertex(iv) != passes[v][0]:
                out.append(ObjectViolation(
                    f"vertex {iv}",
                    f"must equal the {table.label()} localization of {v}"))
                continue
            if g.diagram.hom(v, iv) != _unit(g.vertex(v), passes[v]):
                out.append(ObjectViolation(
                    f"edge {v} -> {iv}", "must be the localization unit"))
        for (v, w) in rest.covering_pairs():
            iv = canonical_subset((i,) + v)
            iw = canonical_subset((i,) + w)
            want = _localize_chain_map(g.diagram.hom(v, w), passes[v], passes[w])
            if g.diagram.hom(iv, iw) != want:
                out.append(ObjectViolation(
                    f"edge {iv} -> {iw}",
                    f"must be the {table.label()} localization of {v} -> {w}"))
        peel(labels[1:])

    peel(g.labels)
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

    shape = subset_poset(labels, punctured=True)
    verts = {}
    for s in shape.elements:
        m = max(s)
        verts[s] = apply_tables(gen.complexes[m],
                                fam.tables_for(tuple(x for x in s if x != m)))
    edges = {}
    for (s, s2) in shape.covering_pairs():
        (j,) = set(s2) - set(s)
        m = max(s)
        if j < m:
            edges[(s, s2)] = _unit_adding(gen.complexes[m], fam,
                                          tuple(x for x in s if x != m), j)
        else:
            f = gen.maps[(m, j)]
            edges[(s, s2)] = localize_chain_map_tables(
                f, fam.tables_for(tuple(x for x in s if x != m)))
    diagram = PosetDiagram(shape, verts, edges)
    obj = FractureObject(diagram, fam, labels)
    bad = validate_fracture_object(obj)
    if bad:
        raise InputError(f"generators violate the object conditions: "
                         f"{bad[0].location}: {bad[0].message}")
    return obj


# --- the mutually inverse functors -------------------------------------------------

def fracture_limit(g: FractureObject) -> SortedComplex:
    """Homotopy limit of a fracture object; the result is jointly local."""
    hl = homotopy_limit(g.diagram)
    for s in hl.complex.sorts():
        if s.kind == "Z":
            raise InputError("limit of a fracture object exposed a raw Z sort")
    return hl.complex


def _local_fracture_cube(x: SortedComplex, fam: LocalizationFamily) -> PosetDiagram:
    if not is_e_local(x, fam):
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
    free = [x for x in t if x > min(s) and x not in s]
    elems = [canonical_subset(s + u) for u in _all_subsets(free)]
    elems.sort(key=lambda e: (len(e), e))
    index = {e: i for i, e in enumerate(elems)}
    up = [{index[f] for f in elems if set(e) <= set(f)} for e in elems]
    return FinitePoset._trusted(elems, up)


def gap_subsets(s, s2, t) -> FinitePoset:
    """Subsets of the integer gap between the two minima, forced on s2.

    The gap runs from min(s2) inclusive to min(s) exclusive; every
    member must contain the part of s2 lying in the gap.
    """
    s, s2, t = _check_containment(s, s2, t)
    lo, hi = min(s2), min(s)
    interval = [x for x in t if lo <= x < hi]
    forced = tuple(x for x in s2 if lo <= x < hi)
    free = [x for x in interval if x not in forced]
    elems = [canonical_subset(forced + u) for u in _all_subsets(free)]
    elems.sort(key=lambda e: (len(e), e))
    index = {e: i for i, e in enumerate(elems)}
    up = [{index[f] for f in elems if set(e) <= set(f)} for e in elems]
    return FinitePoset._trusted(elems, up)


def _all_subsets(xs):
    out = [()]
    for x in xs:
        out += [u + (x,) for u in out]
    return out


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
    part of U at or above min(s); output vertices are local for the
    smaller minimum.
    """
    t = fam.labels()
    s, s2, t = _check_containment(s, s2, t)
    table_min = fam.table(min(s))
    for u in x.shape.elements:
        if not is_local(x.vertex(u), table_min):
            raise InputError(f"input vertex {u} is not local at index {min(s)}")
    lo, hi = min(s2), min(s)
    outer = anchored_supersets(s2, t)
    if x.shape.elements != anchored_supersets(s, t).elements:
        raise InputError("input diagram has the wrong shape")

    def gap(u):
        return tuple(v for v in u if lo <= v < hi)

    def upper(u):
        return tuple(v for v in u if v >= hi)

    verts = {u: apply_tables(x.vertex(upper(u)), fam.tables_for(gap(u)))
             for u in outer.elements}
    edges = {}
    for (u, w) in outer.covering_pairs():
        (j,) = set(w) - set(u)
        if lo <= j < hi:
            edges[(u, w)] = _unit_adding(x.vertex(upper(u)), fam, gap(u), j)
        else:
            edges[(u, w)] = localize_chain_map_tables(x.hom(upper(u), upper(w)),
                                                      fam.tables_for(gap(u)))
    out = PosetDiagram(outer, verts, edges)
    table_out = fam.table(min(s2))
    for u in out.shape.elements:
        if not is_local(out.vertex(u), table_out):
            raise InputError(f"output vertex {u} failed locality at {min(s2)}")
    return out


def anchored_cover_identity(n: int) -> bool:
    """The anchored posets of the two-or-more element sets cover the
    punctured anchored poset of the singleton, compatibly on overlaps."""
    t = tuple(range(1, n + 1))
    one = anchored_supersets((1,), t)
    index = [u for u in one.elements if u != (1,)]
    union = set()
    for s in index:
        union |= set(anchored_supersets(s, t).elements)
    if union != set(index):
        return False
    for s1 in index:
        for s2 in index:
            meet = set(anchored_supersets(s1, t).elements) & \
                set(anchored_supersets(s2, t).elements)
            if meet != set(anchored_supersets(canonical_subset(s1 + s2), t).elements):
                return False
    return True


# --- split and glue -----------------------------------------------------------------

@dataclass
class SplitData:
    top: FractureObject      # the face avoiding the first index
    bottom: PosetDiagram     # the face anchored at the first index
    witness: dict            # vertex U -> identity-shaped comparison map


def split_fracture_object(z: FractureObject) -> SplitData:
    """Cut an object into its first-index face, the rest, and the glue.

    The bottom face consists of the vertices containing the first
    index; away from the bare singleton it is literally the first
    localization of the top face, witnessed by identity maps.
    """
    fam = z.family
    labels = z.labels
    if len(labels) < 2:
        raise InputError("splitting needs at least two indices")
    first = labels[0]
    rest = labels[1:]
    top = FractureObject(
        z.diagram.restrict(subset_poset(rest, punctured=True).elements),
        fam, rest)
    bottom_elems = anchored_supersets((first,), labels).elements
    bottom = z.diagram.restrict(bottom_elems)
    witness = {}
    table = fam.table(first)
    for u in bottom_elems:
        if u == (first,):
            continue
        expect = apply_localization(top.vertex(tuple(x for x in u if x != first)),
                                    table)
        if bottom.vertex(u) != expect:
            raise InputError(f"object is not split-ready at {u}")
        witness[u] = ComplexMap.identity(bottom.vertex(u))
    return SplitData(top, bottom, witness)


def glue_fracture_object(split: SplitData, fam: LocalizationFamily) -> FractureObject:
    """Reassemble an object from a split; inverse to splitting on the nose.

    The witness must consist of identity-shaped isomorphisms so that the
    glued diagram stays strictly functorial; a genuine quasi-isomorphism
    witness would need a replacement step this model does not perform.
    """
    top = split.top
    rest = top.labels
    # the anchor is the bottom's singleton vertex, a family index below the top
    anchor = [u[0] for u in split.bottom.shape.elements if len(u) == 1]
    first = anchor[0] if anchor else None
    if first not in fam.labels() or first >= min(rest):
        raise InputError("glue expects the bottom face anchored at a family "
                         "index below every top label")
    labels = canonical_subset((first,) + rest)
    if set(split.bottom.shape.elements) != set(anchored_supersets((first,), labels).elements):
        raise InputError(f"bottom face is not the anchored poset on {labels}")
    table = fam.table(first)
    bad = validate_fracture_object(top)
    if bad:
        raise InputError(f"top face invalid: {bad[0].location}: {bad[0].message}")
    # one pass per top vertex gives the witness target and the unit into it
    passes = {v: _localize(top.vertex(v), (table,)) for v in top.diagram.shape.elements}
    for u, w in split.witness.items():
        if u == (first,):
            raise InputError(f"the anchor vertex {u} takes no witness")
        expect = passes[tuple(x for x in u if x != first)][0]
        if not (w.source == split.bottom.vertex(u) == expect == w.target
                and w == ComplexMap.identity(expect)):
            raise InputError(f"witness at {u} is not an identity-shaped "
                             "isomorphism onto the localized top face")
    for u in split.bottom.shape.elements:
        if u != (first,) and u not in split.witness:
            raise InputError(f"missing witness at {u}")
    shape = subset_poset(labels, punctured=True)
    verts = {}
    edges = {}
    for s in shape.elements:
        if first in s:
            verts[s] = split.bottom.vertex(s)
        else:
            verts[s] = top.vertex(s)
    for (a, b) in shape.covering_pairs():
        if first in a:
            edges[(a, b)] = split.bottom.hom(a, b)
        elif first in b:
            edges[(a, b)] = ComplexMap(verts[a], verts[b],
                                       _unit(top.vertex(a), passes[a]).maps)
        else:
            edges[(a, b)] = top.diagram.hom(a, b)
    diagram = PosetDiagram(shape, verts, edges)
    obj = FractureObject(diagram, fam, labels)
    bad = validate_fracture_object(obj)
    if bad:
        raise InputError(f"glued object invalid: {bad[0].location}: "
                         f"{bad[0].message}")
    return obj
