"""Homotopy limits of poset diagrams of sorted complexes.

The homotopy limit is a totalization: the product of the diagram's
values over a set of cells, cell c in cosimplicial level len(c) - 1
carrying the value at its top vertex, with the coface from the face
without position i entering with sign (-1)^i along the map between the
two tops. Every sorted complex is fibrant here (all terms are free of
finite rank), so this computes the derived limit. Each totalization
is one HolimResult: its coface table lists per nonzero cell its value
and, per nonzero face that is a cell, the face, the sign and that map,
so a zero cell costs no row and no composite; its layout lists per
degree only the cells with a term there, with each term's basis
offset. Every differential reads both and places only the blocks that
exist. One placement builds every map between two totalizations, one
chain map per pair of cells at one level: the totalized natural
transformations and the restrictions of the Cartesian extension. Maps
the package places from diagram composites are natural by construction
and skip the chain-map check; a caller's components do not.

A punctured cube is totalized over its vertices: one summand
G(S)[-(|S| - 1)] per nonempty S, the cubical formula for the limit.
Every other shape is totalized over the strict chains of its nerve. A
shape is a (punctured) cube only when it equals the shared subset poset
of its labels, elements and order both; cube_labels is that one check,
for homotopy_limit and every cube entry point alike. A sub-cube is
totalized straight off its parent, its cells the subsets of the free
labels and its tops their unions with the fixed ones: no face diagram
is built. The punctured-cube recursion in one direction t is the limit
of one punctured square A -> B <- G({t}), with A and B the faces away
from t and through t.

A full cube is totalized the same way with the empty corner in level
-1: the cone of the corner map into the punctured limit, summand for
summand. The total fiber is that totalization one level up, built at
its own degrees: the corner in level 0, S in level |S|, face signs
(-1)^(i+1), and a direction cube's faces read off the parent. The
mapping cone of a chain map is the totalization of its 1-cube, the
homotopy fiber that cube's total fiber, and a quasi-isomorphism a map
with an acyclic cone: the package has one cone formula and one sign
convention.

Diagrams are strictly functorial: every path composite between two
elements must agree as matrices. Limit cones built by totalization have
projection legs that commute with the diagram edges up to homotopy
only; where a strict cone is required (extending a punctured cube to a
Cartesian one), the extension totalizes each up-set over the nerve
chains that start in it, which restricts strictly and stays a diagram
on the nose.

Cubes of localizations grow one index at a time: attach_localization
sets a diagram on label subsets next to its localization at one table,
on the subsets with a new label added, joined by the units. The
fracture cube and every fracture-object builder fold this one step.
Orthogonality makes most of the fracture cube zero (12 of its 64
vertices are nonzero at |P| = 5), and a zero vertex is neither
localized nor totalized: its image is zero and so are its edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .exact_linalg import ExactMatrix, InputError, kernel_basis, solve_in_span
from .posets import FinitePoset, canonical_subset, subset_poset
from .sorted_complex import (
    AcyclicityReport,
    ComplexMap,
    EMPTY_MODULE,
    LocalizationTable,
    SortedComplex,
    SortedMap,
    SortedModule,
    _localize,
    _localize_chain_map,
    _map_from_pieces,
    _unit,
    chain_map_group,
    comparison_is_isomorphism,
    is_acyclic,
    uniform_sort,
)


class PosetDiagram:
    """Functor from a finite poset to sorted complexes, strict on the nose."""

    __slots__ = ("shape", "vertices", "edges", "_successors", "_hom_cache")

    def __init__(self, shape: FinitePoset, vertices: dict, edges: dict, *,
                 check: bool = True):
        # the keyword only keeps callers of the old signature working: a
        # diagram built here is always checked; the package's own
        # builders go through _trusted
        if check is not True:
            raise TypeError("PosetDiagram always checks its input")
        for x in shape.elements:
            if x not in vertices:
                raise InputError(f"missing vertex complex at {x!r}")
        covers = shape.covering_pairs()
        cover_set = set(covers)
        for (x, y) in edges:
            if (x, y) not in cover_set:
                raise InputError(f"edge {x!r} -> {y!r} is not a covering pair")
        for (x, y) in covers:
            src, tgt = vertices[x], vertices[y]
            e = edges.get((x, y))
            if e is None:
                if not (src.is_zero_complex() or tgt.is_zero_complex()):
                    raise InputError(f"missing edge map {x!r} -> {y!r}")
            elif e.source != src or e.target != tgt:
                raise InputError(f"edge {x!r} -> {y!r} has wrong endpoints")
        self._assign(shape, vertices, edges, covers)
        self._check_functorial()

    @classmethod
    def _trusted(cls, shape: FinitePoset, vertices: dict, edges: dict) -> "PosetDiagram":
        # fast path for diagrams that are functorial by construction
        d = object.__new__(cls)
        d._assign(shape, vertices, edges, shape.covering_pairs())
        return d

    def _assign(self, shape, vertices, edges, covers):
        # edges in covering order; a missing edge at a zero vertex is zero
        self.shape = shape
        self.vertices = verts = dict(vertices)
        self.edges = out = {}
        self._successors = succ = {x: [] for x in shape.elements}
        for pair in covers:
            x, y = pair
            e = edges.get(pair)
            out[pair] = e if e is not None else ComplexMap.zero(verts[x], verts[y])
            succ[x].append(y)
        self._hom_cache = dict(out)

    def vertex(self, x) -> SortedComplex:
        return self.vertices[x]

    def hom(self, x, y) -> ComplexMap:
        """The composite map along any covering path from x to y."""
        if not self.shape.leq(x, y):
            raise InputError(f"{x!r} is not below {y!r}")
        key = (x, y)
        if key in self._hom_cache:
            return self._hom_cache[key]
        if x == y:
            out = ComplexMap.identity(self.vertices[x])
        else:
            # in a finite poset some cover of x lies below y
            z = next(z for z in self._successors[x] if self.shape.leq(z, y))
            out = self.hom(z, y).compose(self.edges[(x, z)])
        self._hom_cache[key] = out
        return out

    def _check_functorial(self):
        # composites along all first steps must agree; induction covers
        # every pair of parallel paths, and a covering pair has one path
        for x in self.shape.elements:
            for y in self.shape.elements:
                if not self.shape.lt(x, y) or (x, y) in self.edges:
                    continue
                candidates = [self.hom(z, y).compose(self.edges[(x, z)])
                              for z in self._successors[x]
                              if self.shape.leq(z, y)]
                first = candidates[0]
                for other in candidates[1:]:
                    if other != first:
                        raise InputError(
                            f"path composites {x!r} -> {y!r} disagree")
                self._hom_cache[(x, y)] = first

    def restrict(self, keep) -> "PosetDiagram":
        sub = self.shape.subposet(keep)
        verts = {x: self.vertices[x] for x in sub.elements}
        edges = {(x, y): self.hom(x, y) for (x, y) in sub.covering_pairs()}
        return PosetDiagram._trusted(sub, verts, edges)


def localize_diagram(d: PosetDiagram, table: LocalizationTable) -> PosetDiagram:
    """Localize each nonzero vertex once and each nonzero edge over its
    localized endpoints; what is zero stays zero."""
    loc = {x: _localize(c, (table,)) for x, c in d.vertices.items() if c.modules}
    verts = {x: loc[x][0] if x in loc else c for x, c in d.vertices.items()}
    edges = {(x, y): _localize_chain_map(e, loc[x], loc[y])
             for (x, y), e in d.edges.items() if e.maps}
    return PosetDiagram._trusted(d.shape, verts, edges)


def attach_localization(d: PosetDiagram, table: LocalizationTable, label) -> PosetDiagram:
    """d, its localization on the vertices with label added, and the units.

    The vertices of d are label subsets and label occurs in none of them.
    The value at S + {label} is the localization of the value at S, the
    edge S -> S + {label} is the unit, and each nonzero edge of d is
    localized over its endpoints' passes: one localization pass per
    nonzero vertex of d. A zero vertex is not localized, its image is
    zero and so are the edges at it. The shape lists the subsets in
    (size, lex) order, as subset_poset does: the shared poset itself
    when the vertices fill it.
    """
    for s in d.shape.elements:
        if canonical_subset(s) != s:
            raise InputError(f"shape element {s!r} is not a sorted label tuple")
    labels = set().union(*d.shape.elements)
    try:
        top = canonical_subset((*labels, label))
    except InputError:
        raise InputError(f"label {label!r} does not sort with the labels "
                         f"{tuple(sorted(labels))!r}") from None
    if label in labels:
        raise InputError(f"label {label!r} already occurs in a vertex")
    up = {s: canonical_subset(s + (label,)) for s in d.shape.elements}
    loc = {s: _localize(c, (table,)) for s, c in d.vertices.items() if c.modules}
    verts, edges = dict(d.vertices), dict(d.edges)
    for s, c in d.vertices.items():
        if s in loc:
            verts[up[s]] = loc[s][0]
            edges[(s, up[s])] = _unit(c, loc[s])
        else:
            verts[up[s]] = c
    for (x, y), e in d.edges.items():
        if e.maps:
            edges[(up[x], up[y])] = _localize_chain_map(e, loc[x], loc[y])
    whole = subset_poset(top)
    shape = whole if len(verts) == len(whole) else whole.subposet(verts)
    return PosetDiagram._trusted(shape, verts, edges)


# --- totalization -------------------------------------------------------------

class HolimResult:
    """A totalization over a set of cells: its complex, coface table and layout.

    A cell is a tuple of shape elements at level len(cell) - 1 + lift
    carrying the diagram's value at its top vertex; dropping position i
    gives its i-th face. Nerve cells are the strict chains (top: the last
    element), cube cells the vertices of a cube (top: the subset itself),
    the empty vertex of a full cube in level -1 (level 0 at lift 1, the
    total fiber). The table holds, once per cell, the cell, its level, its
    value and its cofaces: each face that is a cell, the sign
    (-1)^(i + lift) and the nonzero diagram map between the two tops. The
    layout offsets[n] maps each cell with a term in degree n to the basis
    offset of that term in the degree-n module, cells in the given order.
    """

    def __init__(self, diagram: PosetDiagram, cells, top, lift: int = 0):
        self.diagram, self.top, self.lift = diagram, top, lift
        self.cells = list(cells)
        # a zero cell has no term and no coface: the table leaves it out
        vertices = diagram.vertices
        nonzero = [(c, v) for c in self.cells if (v := vertices[top(c)]).modules]
        known = {c for c, _ in nonzero}
        self.table = []
        for c, value in nonzero:
            k, cofaces = len(c) - 1 + lift, []
            for i in range(len(c)):
                face = c[:i] + c[i + 1:]
                if face in known:
                    edge = diagram.hom(top(face), top(c))
                    if edge.maps:
                        cofaces.append((face, -1 if (i + lift) % 2 else 1, edge))
            self.table.append((c, k, value, cofaces))
        self.offsets, summands, used = {}, {}, {}
        for c, k, value, _ in self.table:
            for m, module in value.modules.items():
                n = m - k
                self.offsets.setdefault(n, {})[c] = used.get(n, 0)
                used[n] = used.get(n, 0) + module.total_rank
                summands.setdefault(n, []).extend(module.summands)
        mods = {n: SortedModule(summands[n]) for n in sorted(summands)}
        self.complex = SortedComplex._trusted(mods, self._differentials(mods))

    def _differentials(self, mods: dict) -> dict:
        # one walk over the blocks that exist, each placed uncopied with its
        # sign; a nonzero block has both its terms, so its offsets exist
        offsets, pieces = self.offsets, {}
        for c, k, value, cofaces in self.table:
            # inner differential with sign (-1)^k
            for m, d in value.diffs.items():
                pieces.setdefault(m - k, []).append(
                    (offsets[m - k - 1][c], offsets[m - k][c], d.matrix, -1 if k % 2 else 1))
            for face, sign, edge in cofaces:
                for m, e in edge.maps.items():
                    pieces.setdefault(m - k + 1, []).append(
                        (offsets[m - k][c], offsets[m - k + 1][face], e.matrix, sign))
        return {n: SortedMap._trusted(mods[n], mods[n - 1], ExactMatrix.assemble_signed(
            mods[n - 1].total_rank, mods[n].total_rank, pieces[n])) for n in mods if n in pieces}

    def _base(self) -> list:
        # the level-zero cells by their top vertex, zero ones too: where
        # the cone legs live
        tops = [(self.top(c), c) for c in self.cells if len(c) == 1]
        return [(x, c, self.diagram.vertices[x]) for x, c in tops]

    @cached_property
    def legs(self) -> dict:
        """Projections onto the level-zero cells, a cone up to homotopy only.

        A larger cube vertex S gets the leg of its least label pushed
        along the diagram. A full cube's totalization has no legs.
        """
        if () in self.cells:
            raise InputError("a full cube's totalization has no legs")
        tot, projections = self.complex, {}
        for x, c, vx in self._base():
            maps = {n: _map_from_pieces(tot.module(n), m, [
                (0, self.offsets[n][c], ExactMatrix.identity(m.total_rank))])
                for n, m in vx.modules.items()}
            projections[x] = ComplexMap._trusted(tot, vx, maps)
        return {x: projections[x] if x in projections
                else self.diagram.hom(x[:1], x).compose(projections[x[:1]])
                for x in self.diagram.shape.elements}

    def cone_map(self, apex: SortedComplex, legs: dict) -> ComplexMap:
        """Canonical comparison from a strict cone into the totalization.

        The legs must commute strictly with the diagram edges; the map
        lands in the level-zero cells. Only the endpoints of the legs are
        checked.
        """
        base = self._base()
        for x, _, vx in base:
            if x not in legs:
                raise InputError(f"missing leg at vertex {x!r}")
            if legs[x].source != apex or legs[x].target != vx:
                raise InputError(f"leg at {x!r} has wrong endpoints")
        maps = {n: _map_from_pieces(apex.module(n), m, [
            (self.offsets[n][c], 0, legs[x].maps[n].matrix)
            for x, c, _ in base if n in legs[x].maps])
            for n, m in self.complex.modules.items()}
        return ComplexMap._trusted(apex, self.complex, maps)


def _place(src: HolimResult, dst: HolimResult, blocks) -> dict:
    """Degreewise maps between two totalizations, placed cell by cell.

    Each block (source cell, target cell, f) joins two cells of one level
    k; in degree n it places f at degree n + k from the source cell's term
    into the target cell's. Nothing is checked: f must map the value at
    the source cell to the value at the target cell.
    """
    pieces = {}
    for a, b, f in blocks:
        k = len(a) - 1 + src.lift
        for m, g in f.maps.items():
            pieces.setdefault(m - k, []).append(
                (dst.offsets[m - k][b], src.offsets[m - k][a], g.matrix))
    return {n: _map_from_pieces(src.complex.module(n), dst.complex.module(n), pieces[n])
            for n in src.offsets if n in pieces}


def nerve_limit(diagram: PosetDiagram) -> HolimResult:
    """Totalization over the strict chains of the shape, for any poset.

    Restricting the shape to an up-set restricts the chains, so these
    totalizations restrict strictly; the cube engine has no such maps.
    """
    chains = [c for level in diagram.shape.strict_chains() for c in level]
    return HolimResult(diagram, chains, lambda c: c[-1])


def homotopy_limit(diagram: PosetDiagram) -> HolimResult:
    """Derived limit of a finite poset diagram, with its projection cone.

    A punctured cube (the empty one included) is totalized over its
    vertices, vertex S in cosimplicial level |S| - 1; every other shape
    over the strict chains of its nerve.
    """
    if diagram.shape.elements:
        try:
            cube_labels(diagram, punctured=True)
        except InputError:
            return nerve_limit(diagram)
    return HolimResult(diagram, diagram.shape.elements, lambda s: s)


def map_between_totalizations(src: HolimResult, dst: HolimResult,
                              components: dict) -> ComplexMap:
    """Totalized map induced by a strict natural transformation.

    Both totalizations must live over the same cells; components maps
    each vertex of the source diagram to the matching vertex of the
    destination diagram. A caller's components need not be natural, so
    the result goes through the checked chain-map constructor.
    """
    if src.cells != dst.cells:
        raise InputError("totalizations have different cells")
    for x in dict.fromkeys(map(src.top, src.cells)):
        f = components.get(x)
        if f is None:
            raise InputError(f"missing component at vertex {x!r}")
        if f.source != src.diagram.vertex(x) or f.target != dst.diagram.vertex(x):
            raise InputError(f"component at {x!r} has wrong endpoints")
    return ComplexMap(src.complex, dst.complex, _place(
        src, dst, [(c, c, components[src.top(c)]) for c in src.cells]))


# --- strict limits --------------------------------------------------------------

@dataclass
class StrictLimitResult:
    complex: SortedComplex
    legs: dict  # shape element -> projection, commuting with every edge


def strict_limit(diagram: PosetDiagram) -> StrictLimitResult:
    """Degreewise equalizer of a diagram over a single sort.

    The limit of free modules over one PID-like sort is free again since
    kernels of integer matrices are saturated; mixed sorts would need
    honest completed modules and are rejected.
    """
    sort = uniform_sort(*diagram.vertices.values())
    elems = diagram.shape.elements
    degs = sorted({n for c in diagram.vertices.values() for n in c.modules})
    slices = {}
    bases = {}
    mods = {}
    for n in degs:
        off = 0
        for x in elems:
            r = diagram.vertex(x).module(n).total_rank
            slices[(n, x)] = (off, r)
            off += r
        # one block row per edge x -> y: e(v_x) - v_y = 0
        pieces, row_off = [], 0
        for (x, y), e in diagram.edges.items():
            yo, r = slices[(n, y)]
            pieces += [(row_off, slices[(n, x)][0], e.map_at(n).matrix),
                       (row_off, yo, ExactMatrix.identity(r).scale(-1))]
            row_off += r
        constraint = ExactMatrix.assemble(row_off, off, pieces)
        k = kernel_basis(constraint) if off else ExactMatrix.zeros(0, 0)
        bases[n] = k
        mods[n] = SortedModule([(sort, k.cols)]) if k.cols and sort else EMPTY_MODULE
    diffs = {}
    for n in degs:
        if n - 1 not in bases or bases[n].cols == 0 or bases[n - 1].cols == 0:
            continue
        big_d = ExactMatrix.assemble(bases[n - 1].rows, bases[n].rows, [
            (slices[(n - 1, x)][0], slices[(n, x)][0], diagram.vertex(x).diff(n).matrix)
            for x in elems])
        sol = solve_in_span(bases[n - 1], big_d * bases[n])
        diffs[n] = SortedMap._trusted(mods[n], mods[n - 1], sol)
    lim = SortedComplex._trusted(mods, diffs)
    legs = {}
    for x in elems:
        vx = diagram.vertex(x)
        maps = {}
        for n in lim.modules:
            xo, r = slices[(n, x)]
            proj = bases[n].submatrix(range(xo, xo + r), range(bases[n].cols))
            maps[n] = SortedMap._trusted(lim.module(n), vx.module(n), proj)
        legs[x] = ComplexMap._trusted(lim, vx, maps)
    return StrictLimitResult(lim, legs)


# --- cubes -----------------------------------------------------------------------

def cube_labels(diagram: PosetDiagram, punctured: bool):
    """The labels T of a shape equal to subset_poset(T, punctured).

    Elements and order must both match; any other shape is refused. A
    subset poset lists its top last, and one of another size is never
    built.
    """
    shape = diagram.shape
    if not shape.elements:
        raise InputError("empty shape")
    top = canonical_subset(shape.elements[-1])
    if len(shape) != 2 ** len(top) - punctured or shape != subset_poset(top, punctured):
        kind = "punctured subset poset" if punctured else "full subset poset"
        raise InputError(f"shape is not the {kind} on {top!r}")
    return top


def initial_corner_cube(x: SortedComplex, labels) -> PosetDiagram:
    """Cube with x at the empty corner and the zero complex elsewhere."""
    t = canonical_subset(labels)
    shape = subset_poset(t, punctured=False)
    zero = SortedComplex.zero()
    verts = {s: (x if s == () else zero) for s in shape.elements}
    return PosetDiagram._trusted(shape, verts, {})


def punctured_restriction(diagram: PosetDiagram) -> PosetDiagram:
    """The cube without its empty corner, on the shared punctured subset poset."""
    shape = subset_poset(cube_labels(diagram, punctured=False), punctured=True)
    # the edges out of the corner are not covering pairs of the shape: unread
    return PosetDiagram._trusted(shape, {s: diagram.vertices[s] for s in shape.elements},
                                 diagram.edges)


def cube_totalization(diagram: PosetDiagram) -> HolimResult:
    """Totalization of a full cube over all its vertices, S in level |S| - 1.

    This is the cone of the corner map into the punctured limit.
    """
    cube_labels(diagram, punctured=False)
    return HolimResult(diagram, diagram.shape.elements, lambda s: s)


def total_fiber(diagram: PosetDiagram) -> SortedComplex:
    """Fiber of the map from the initial vertex to the punctured limit: the
    cube's totalization one level up, S in level |S|, so a 0-cube's is its
    one vertex."""
    if not cube_labels(diagram, punctured=False):
        return diagram.vertex(())
    return HolimResult(diagram, diagram.shape.elements, lambda s: s, lift=1).complex


def is_cartesian(diagram: PosetDiagram, primes) -> bool:
    """A cube in this stable model is Cartesian iff its total fiber is acyclic."""
    return is_acyclic(cube_totalization(diagram).complex, primes).acyclic


def _arrow(f: ComplexMap) -> PosetDiagram:
    """The 1-cube of f: its source at (), its target at (1,)."""
    return PosetDiagram._trusted(subset_poset((1,)), {(): f.source, (1,): f.target},
                                 {((), (1,)): f})


def cone(f: ComplexMap) -> SortedComplex:
    """Mapping cone, the totalization of the 1-cube of f.

    In degree n it is source_{n-1} + target_n, with differential
    (c, x) -> (-d c, f c + d x).
    """
    return cube_totalization(_arrow(f)).complex


def hofib(f: ComplexMap) -> SortedComplex:
    """Homotopy fiber, the total fiber of the 1-cube of f."""
    return total_fiber(_arrow(f))


def is_quasi_iso(f: ComplexMap, primes) -> AcyclicityReport:
    """A chain map is a quasi-isomorphism when its cone is acyclic."""
    return is_acyclic(cone(f), primes)


def limit_extended_cube(punctured: PosetDiagram) -> PosetDiagram:
    """Extend a punctured cube to a Cartesian cube, strictly.

    Each vertex S is the nerve totalization over the nonempty supersets
    of S: the chains of the punctured nerve, enumerated once, whose first
    element contains S, which are the chains of that up-set. The edges
    restrict chain tuples, which makes the extension a diagram on the
    nose. The empty corner is the nerve totalization of the whole
    punctured cube and every other vertex projects quasi-isomorphically
    to the original one.
    """
    labels = cube_labels(punctured, punctured=True)
    full = subset_poset(labels, punctured=False)
    chains = [c for level in punctured.shape.strict_chains() for c in level]
    results = {s: HolimResult(punctured, [c for c in chains if set(s) <= set(c[0])],
                              lambda c: c[-1]) for s in full.elements}
    verts = {s: results[s].complex for s in full.elements}
    ident = {x: ComplexMap.identity(v) for x, v in punctured.vertices.items()}
    # the identity on every chain surviving the restriction
    edges = {(s, s2): ComplexMap._trusted(verts[s], verts[s2], _place(
        results[s], results[s2], [(c, c, ident[c[-1]]) for c in results[s2].cells]))
        for (s, s2) in full.covering_pairs()}
    return PosetDiagram._trusted(full, verts, edges)


def tfib_direction_cube(diagram: PosetDiagram, t_prime) -> PosetDiagram:
    """Cube on P(T') of total fibers of the complementary subcubes, the face
    S -> G(S + S') at S' totalized off the diagram itself, one level up."""
    labels = cube_labels(diagram, punctured=False)
    t_prime = canonical_subset(t_prime)
    if not set(t_prime) <= set(labels):
        raise InputError("direction set is not a subset of the cube labels")
    rest = tuple(x for x in labels if x not in t_prime)
    if not rest:
        # each face is one vertex, its own total fiber: the cube itself
        return diagram
    outer_shape = subset_poset(t_prime, punctured=False)
    cells = subset_poset(rest, punctured=False).elements
    up = {sp: {s: canonical_subset(s + sp) for s in cells} for sp in outer_shape.elements}
    tots = {sp: HolimResult(diagram, cells, up[sp].__getitem__, lift=1) for sp in up}
    edges = {}
    for (sp, sp2) in outer_shape.covering_pairs():
        # S + sp -> S + sp2 is a covering pair: its diagram edge, natural by
        # construction, placed where nonzero
        blocks = [(s, s, e) for s in cells if (e := diagram.edges[(up[sp][s], up[sp2][s])]).maps]
        edges[(sp, sp2)] = ComplexMap._trusted(tots[sp].complex, tots[sp2].complex,
                                               _place(tots[sp], tots[sp2], blocks))
    return PosetDiagram._trusted(outer_shape, {sp: t.complex for sp, t in tots.items()}, edges)


def total_fiber_iterated(diagram: PosetDiagram, t_prime) -> SortedComplex:
    """Total fiber computed through the direction cube of partial fibers."""
    return total_fiber(tfib_direction_cube(diagram, t_prime))


# --- recursive punctured limits ----------------------------------------------------

def punctured_limit_recursive(diagram: PosetDiagram, t) -> SortedComplex:
    """Punctured-cube limit as one homotopy pullback in the direction t.

    The limit is that of the punctured square A -> B <- G({t}), with A
    the limit of the face away from t, B the limit of the face through t
    shifted by t, phi: A -> B the induced map and psi: G({t}) -> B the
    cone map. Both faces are totalized off the diagram itself, over the
    nonempty subsets S of the other labels, with tops S and S + t.
    """
    labels = cube_labels(diagram, punctured=True)
    if len(labels) < 2:
        raise InputError("recursion needs at least two labels")
    if t not in labels:
        raise InputError(f"{t!r} is not a label of the cube")
    cells = subset_poset(tuple(x for x in labels if x != t), punctured=True).elements
    up = {s: canonical_subset(s + (t,)) for s in cells}
    a, b = HolimResult(diagram, cells, lambda s: s), HolimResult(diagram, cells, up.__getitem__)
    c = diagram.vertex((t,))
    phi = ComplexMap._trusted(a.complex, b.complex, _place(
        a, b, [(s, s, diagram.hom(s, up[s])) for s in cells]))
    psi = b.cone_map(c, {up[s]: diagram.hom((t,), up[s]) for s in cells if len(s) == 1})
    square = PosetDiagram._trusted(subset_poset((1, 2), punctured=True),
                                   {(1,): a.complex, (2,): c, (1, 2): b.complex},
                                   {((1,), (1, 2)): phi, ((2,), (1, 2)): psi})
    return homotopy_limit(square).complex


# --- the adjunction between corner inclusion and strict total fiber ------------------

def strict_total_fiber(diagram: PosetDiagram):
    """Kernel complex of the map to the strict punctured limit, with inclusion.

    It is the strict limit of X(()) -> X((i,)) <- 0 over every label i,
    and the inclusion is the limit's leg at ().
    """
    labels = cube_labels(diagram, punctured=False)
    singles = [(x,) for x in labels]
    zeros = [("0", x) for x in labels]
    shape = FinitePoset([()] + singles + zeros,
                        [((), s) for s in singles] + list(zip(zeros, singles)))
    verts = {z: SortedComplex.zero() for z in zeros}
    verts.update({s: diagram.vertex(s) for s in [()] + singles})
    lim = strict_limit(PosetDiagram._trusted(
        shape, verts, {((), s): diagram.hom((), s) for s in singles}))
    return lim.complex, lim.legs[()]


def adjunction_check(x: SortedComplex, diagram: PosetDiagram, primes) -> bool:
    """Compare maps into the strict total fiber with maps of cubes.

    Both groups are computed as solution lattices of exact linear
    systems; the comparison postcomposes the fiber inclusion and must be
    an isomorphism, certified by Smith normal form.
    """
    labels = cube_labels(diagram, punctured=False)
    corner = diagram.vertex(())
    fib, inclusion = strict_total_fiber(diagram)
    side_a = chain_map_group(x, fib)
    kill = [diagram.hom((), (lab,)) for lab in labels]
    side_b = chain_map_group(x, corner, postcompose_zero=kill)
    return comparison_is_isomorphism(side_a, side_b,
                                     side_a.postcompose(inclusion, side_b), primes)
