"""Homotopy limits of poset diagrams of sorted complexes.

The homotopy limit is the totalization of the normalized nerve cochain
construction: cosimplicial level k is the product of the values at the
tops of the strictly increasing k-chains, with the alternating coface
differential. Every sorted complex is fibrant here (all terms are free
of finite rank), so this totalization computes the derived limit.

Diagrams are strictly functorial: every path composite between two
elements must agree as matrices. Limit cones built by the nerve have
projection legs that commute with the diagram edges up to homotopy
only; where a strict cone is required (extending a punctured cube to a
Cartesian one), the extension re-totalizes each up-set, which restricts
strictly and stays a diagram on the nose.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact_linalg import ExactMatrix, InputError, kernel_basis, solve_in_span
from .posets import FinitePoset, canonical_subset, subset_poset
from .sorted_complex import (
    ComplexMap,
    EMPTY_MODULE,
    LocalizationTable,
    SortedComplex,
    SortedMap,
    SortedModule,
    apply_localization,
    apply_localization_chain_map,
    chain_map_group,
    comparison_is_isomorphism,
    direct_sum,
    hofib,
    hofib_map,
    is_acyclic,
    stack_maps,
    sum_inclusions,
    uniform_sort,
)


class PosetDiagram:
    """Functor from a finite poset to sorted complexes, strict on the nose."""

    __slots__ = ("shape", "vertices", "edges", "_hom_cache")

    def __init__(self, shape: FinitePoset, vertices: dict, edges: dict,
                 check: bool = True):
        self.shape = shape
        self.vertices = dict(vertices)
        for x in shape.elements:
            if x not in self.vertices:
                raise InputError(f"missing vertex complex at {x!r}")
        covers = shape.covering_pairs()
        self.edges = {}
        for (x, y) in covers:
            e = edges.get((x, y))
            if e is None:
                src, tgt = self.vertices[x], self.vertices[y]
                if src.is_zero_complex() or tgt.is_zero_complex():
                    e = ComplexMap.zero(src, tgt)
                else:
                    raise InputError(f"missing edge map {x!r} -> {y!r}")
            if e.source != self.vertices[x] or e.target != self.vertices[y]:
                raise InputError(f"edge {x!r} -> {y!r} has wrong endpoints")
            self.edges[(x, y)] = e
        self._hom_cache = {}
        if check:
            self._check_functorial()

    def vertex(self, x) -> SortedComplex:
        return self.vertices[x]

    def _successors(self, x):
        return [y for (a, y) in self.edges if a == x]

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
            out = None
            for z in self._successors(x):
                if not self.shape.leq(z, y):
                    continue
                out = self.hom(z, y).compose(self.edges[(x, z)])
                break
            if out is None:
                raise InputError(f"no covering path {x!r} -> {y!r}")
        self._hom_cache[key] = out
        return out

    def _check_functorial(self):
        # composites along all first steps must agree; induction covers
        # every pair of parallel paths
        for x in self.shape.elements:
            for y in self.shape.elements:
                if not self.shape.lt(x, y):
                    continue
                candidates = [self.hom(z, y).compose(self.edges[(x, z)])
                              for z in self._successors(x)
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
        return PosetDiagram(sub, verts, edges, check=False)

    def sorts(self):
        out = set()
        for c in self.vertices.values():
            out |= c.sorts()
        return out


def localize_diagram(d: PosetDiagram, table: LocalizationTable) -> PosetDiagram:
    verts = {x: apply_localization(c, table) for x, c in d.vertices.items()}
    edges = {k: apply_localization_chain_map(e, table)
             for k, e in d.edges.items()}
    return PosetDiagram(d.shape, verts, edges, check=False)


@dataclass
class ConeData:
    """A cone over a diagram: apex with one leg per shape element.

    strict=True means every leg commutes with every edge on the nose;
    nerve totalizations only provide this up to chain homotopy and are
    tagged strict=False.
    """

    apex: SortedComplex
    legs: dict
    strict: bool = True

    def check_strict(self, diagram: PosetDiagram) -> bool:
        for (x, y), e in diagram.edges.items():
            if e.compose(self.legs[x]) != self.legs[y]:
                return False
        return True


# --- nerve totalization -------------------------------------------------------

class _TotIndex:
    """Bookkeeping for the totalization: chain list and summand offsets."""

    def __init__(self, diagram: PosetDiagram):
        self.diagram = diagram
        levels = diagram.shape.strict_chains()
        self.chains = [(k, c) for k, level in enumerate(levels) for c in level]
        self.chain_pos = {c: idx for idx, (_, c) in enumerate(self.chains)}
        degs = set()
        for k, c in self.chains:
            for n in diagram.vertex(c[-1]).modules:
                degs.add(n - k)
        self.degrees = sorted(degs)
        # summand offset of each chain inside the degree-n module
        self.offsets = {}
        self.modules = {}
        for n in self.degrees:
            summands = []
            for idx, (k, c) in enumerate(self.chains):
                vm = diagram.vertex(c[-1]).module(n + k)
                self.offsets[(n, idx)] = len(summands)
                summands.extend(vm.summands)
            self.modules[n] = SortedModule(summands)

    def module(self, n: int) -> SortedModule:
        return self.modules.get(n, EMPTY_MODULE)

    def chunk(self, n: int, chain) -> tuple:
        """(summand offset, module) of a chain inside the degree-n module."""
        idx = self.chain_pos[chain]
        k = self.chains[idx][0]
        return self.offsets.get((n, idx), 0), self.diagram.vertex(chain[-1]).module(n + k)


def _tot_differential(ti: _TotIndex, n: int) -> SortedMap:
    src = ti.module(n)
    tgt = ti.module(n - 1)
    blocks: dict = {}

    def add_block(so, to, mat_blocks):
        for (i, j), m in mat_blocks.items():
            key = (so + i, to + j)
            blocks[key] = blocks[key] + m if key in blocks else m

    for idx, (k, c) in enumerate(ti.chains):
        vx = ti.diagram.vertex(c[-1])
        # inner differential with sign (-1)^k
        d = vx.diff(n + k)
        if not d.is_zero():
            so = ti.offsets.get((n, idx))
            to = ti.offsets.get((n - 1, idx))
            if so is not None and to is not None:
                dd = d if k % 2 == 0 else d.scale(-1)
                add_block(so, to, dd.blocks)
    # cofaces: each level-(m) chain collects its faces one level down
    for idx2, (m, c2) in enumerate(ti.chains):
        if m == 0:
            continue
        to = ti.offsets.get((n - 1, idx2))
        if to is None:
            continue
        q = n - 1 + m
        for i in range(m + 1):
            face = c2[:i] + c2[i + 1:]
            fidx = ti.chain_pos.get(face)
            if fidx is None:
                continue
            so = ti.offsets.get((n, fidx))
            if so is None:
                continue
            sign = -1 if i % 2 else 1
            if i < m:
                vm = ti.diagram.vertex(c2[-1]).module(q)
                ident = SortedMap.identity(vm)
                piece = ident if sign == 1 else ident.scale(-1)
                add_block(so, to, piece.blocks)
            else:
                edge = ti.diagram.hom(c2[-2], c2[-1]).map_at(q)
                piece = edge if sign == 1 else edge.scale(-1)
                add_block(so, to, piece.blocks)
    return SortedMap(src, tgt, blocks)


@dataclass
class HolimResult:
    complex: SortedComplex
    cone: ConeData
    _index: _TotIndex

    def cone_map(self, apex: SortedComplex, legs: dict) -> ComplexMap:
        """Canonical comparison from a strict cone into the totalization.

        The legs must commute strictly with the diagram edges; the map
        lands in the level-zero chains and chain-map-ness is verified.
        """
        ti = self._index
        maps = {}
        for n in self.complex.modules:
            blocks = {}
            for x in ti.diagram.shape.elements:
                leg = legs[x].map_at(n)
                off, _ = ti.chunk(n, (x,))
                for (i, j), m in leg.blocks.items():
                    blocks[(i, off + j)] = m
            maps[n] = SortedMap(apex.module(n), self.complex.module(n), blocks)
        return ComplexMap(apex, self.complex, maps)


def homotopy_limit(diagram: PosetDiagram) -> HolimResult:
    """Derived limit of a finite poset diagram, with its projection cone."""
    ti = _TotIndex(diagram)
    mods = {n: ti.module(n) for n in ti.degrees}
    diffs = {}
    for n in ti.degrees:
        if ti.module(n).is_empty() or ti.module(n - 1).is_empty():
            continue
        diffs[n] = _tot_differential(ti, n)
    tot = SortedComplex(mods, diffs)
    legs = {}
    for x in diagram.shape.elements:
        vx = diagram.vertex(x)
        maps = {}
        for n in vx.modules:
            off, vm = ti.chunk(n, (x,))
            blocks = {(off + i, i): ExactMatrix.identity(r)
                      for i, (_, r) in enumerate(vm.summands)}
            maps[n] = SortedMap(tot.module(n), vm, blocks)
        legs[x] = ComplexMap(tot, vx, maps)
    return HolimResult(tot, ConeData(tot, legs, strict=False), ti)


def map_between_totalizations(src: HolimResult, dst: HolimResult,
                              components: dict) -> ComplexMap:
    """Totalized map induced by a strict natural transformation.

    Both totalizations must live over the same shape; components maps
    each vertex of the source diagram to the matching vertex of the
    destination diagram.
    """
    sti, dti = src._index, dst._index
    if sti.diagram.shape.elements != dti.diagram.shape.elements:
        raise InputError("totalizations have different shapes")
    maps = {}
    degs = set(src.complex.modules) | set(dst.complex.modules)
    for n in degs:
        blocks = {}
        for idx, (k, c) in enumerate(sti.chains):
            comp = components[c[-1]].map_at(n + k)
            if comp.is_zero():
                continue
            so = sti.offsets.get((n, idx))
            do = dti.offsets.get((n, idx))
            for (i, j), m in comp.blocks.items():
                blocks[(so + i, do + j)] = m
        maps[n] = SortedMap(src.complex.module(n), dst.complex.module(n), blocks)
    return ComplexMap(src.complex, dst.complex, maps)


# --- strict limits --------------------------------------------------------------

@dataclass
class StrictLimitResult:
    complex: SortedComplex
    cone: ConeData
    _bases: dict  # degree -> kernel basis in the ambient product

    def factor_cone(self, apex: SortedComplex, legs: dict,
                    diagram: PosetDiagram) -> ComplexMap:
        """The unique strict factorization of a strict cone through the limit."""
        maps = {}
        for n in apex.modules:
            stacked = []
            for x in diagram.shape.elements:
                stacked.append(legs[x].map_at(n).to_dense())
            amb = ExactMatrix.block([[m] for m in stacked]) if stacked else \
                ExactMatrix.zeros(0, apex.module(n).total_rank)
            k = self._bases.get(n, ExactMatrix.zeros(amb.rows, 0))
            x = solve_in_span(k, amb)
            maps[n] = SortedMap.from_dense(apex.module(n),
                                           self.complex.module(n), x)
        return ComplexMap(apex, self.complex, maps)


def strict_limit(diagram: PosetDiagram) -> StrictLimitResult:
    """Degreewise equalizer of a diagram over a single sort.

    The limit of free modules over one PID-like sort is free again since
    kernels of integer matrices are saturated; mixed sorts would need
    honest completed modules and are rejected.
    """
    sort = uniform_sort(*diagram.vertices.values())
    elems = diagram.shape.elements
    degs = sorted({n for c in diagram.vertices.values() for n in c.modules})
    covers = list(diagram.edges)
    slices = {}
    bases = {}
    mods = {}
    for n in degs:
        off = 0
        for x in elems:
            r = diagram.vertex(x).module(n).total_rank
            slices[(n, x)] = (off, r)
            off += r
        total = off
        rows = []
        row_off = 0
        entries = {}
        for (x, y) in covers:
            e = diagram.edges[(x, y)].map_at(n).to_dense()
            tgt_rank = diagram.vertex(y).module(n).total_rank
            xo, _ = slices[(n, x)]
            yo, _ = slices[(n, y)]
            for (i, j), v in e.items():
                entries[(row_off + i, xo + j)] = v
            for i in range(tgt_rank):
                entries[(row_off + i, yo + i)] = \
                    entries.get((row_off + i, yo + i), 0) - 1
            row_off += tgt_rank
        constraint = ExactMatrix(row_off, total, entries)
        k = kernel_basis(constraint) if total else ExactMatrix.zeros(0, 0)
        bases[n] = k
        mods[n] = SortedModule([(sort, k.cols)]) if k.cols and sort else EMPTY_MODULE
    diffs = {}
    for n in degs:
        if n - 1 not in bases or bases[n].cols == 0 or bases[n - 1].cols == 0:
            continue
        entries = {}
        for x in elems:
            d = diagram.vertex(x).diff(n).to_dense()
            so, _ = slices[(n, x)]
            to, _ = slices[(n - 1, x)]
            for (i, j), v in d.items():
                entries[(to + i, so + j)] = v
        big_d = ExactMatrix(bases[n - 1].rows, bases[n].rows, entries)
        sol = solve_in_span(bases[n - 1], big_d * bases[n])
        diffs[n] = SortedMap.from_dense(mods[n], mods[n - 1], sol)
    lim = SortedComplex(mods, diffs)
    legs = {}
    for x in elems:
        vx = diagram.vertex(x)
        maps = {}
        for n in lim.modules:
            xo, r = slices[(n, x)]
            proj = bases[n].submatrix(range(xo, xo + r), range(bases[n].cols))
            maps[n] = SortedMap.from_dense(lim.module(n), vx.module(n), proj)
        legs[x] = ComplexMap(lim, vx, maps)
    cone_data = ConeData(lim, legs, strict=True)
    result = StrictLimitResult(lim, cone_data, bases)
    return result


# --- cubes -----------------------------------------------------------------------

def cube_labels(diagram: PosetDiagram, punctured: bool):
    """Recover T from a (punctured) subset-poset shape, validating it."""
    elems = diagram.shape.elements
    if not elems:
        raise InputError("empty shape")
    top = max(elems, key=len)
    expect = subset_poset(top, punctured=punctured)
    if expect.elements != elems:
        kind = "punctured subset poset" if punctured else "full subset poset"
        raise InputError(f"shape is not the {kind} on {top!r}")
    return top


def initial_corner_cube(x: SortedComplex, labels) -> PosetDiagram:
    """Cube with x at the empty corner and the zero complex elsewhere."""
    t = canonical_subset(labels)
    shape = subset_poset(t, punctured=False)
    zero = SortedComplex.zero()
    verts = {s: (x if s == () else zero) for s in shape.elements}
    return PosetDiagram(shape, verts, {}, check=False)


def punctured_restriction(diagram: PosetDiagram) -> PosetDiagram:
    labels = cube_labels(diagram, punctured=False)
    return diagram.restrict([s for s in diagram.shape.elements if s != ()])


def corner_comparison_map(diagram: PosetDiagram):
    """The canonical map from the initial vertex into the punctured limit."""
    labels = cube_labels(diagram, punctured=False)
    punct = punctured_restriction(diagram)
    hl = homotopy_limit(punct)
    legs = {s: diagram.hom((), s) for s in punct.shape.elements}
    psi = hl.cone_map(diagram.vertex(()), legs)
    return psi, hl


def total_fiber(diagram: PosetDiagram) -> SortedComplex:
    """Fiber of the map from the initial vertex to the punctured limit."""
    psi, _ = corner_comparison_map(diagram)
    return hofib(psi)


def is_cartesian(diagram: PosetDiagram, primes) -> bool:
    """A cube in this stable model is Cartesian iff its total fiber is acyclic."""
    return is_acyclic(total_fiber(diagram), primes).acyclic


def limit_extended_cube(punctured: PosetDiagram) -> PosetDiagram:
    """Extend a punctured cube to a Cartesian cube, strictly.

    Each vertex S is the totalization over the nonempty supersets of S;
    the edges restrict chain tuples, which makes the extension a diagram
    on the nose. The empty corner is the homotopy limit itself and every
    other vertex projects quasi-isomorphically to the original one.
    """
    labels = cube_labels(punctured, punctured=True)
    full = subset_poset(labels, punctured=False)
    results = {}
    for s in full.elements:
        upset = [u for u in punctured.shape.elements if set(s) <= set(u)]
        results[s] = homotopy_limit(punctured.restrict(upset))
    verts = {s: results[s].complex for s in full.elements}
    edges = {}
    for (s, s2) in full.covering_pairs():
        sti = results[s]._index
        dti = results[s2]._index
        maps = {}
        for n in set(verts[s].modules) | set(verts[s2].modules):
            blocks = {}
            # identity on every chain surviving the restriction
            for idx, (k, c) in enumerate(dti.chains):
                src_idx = sti.chain_pos[c]
                so = sti.offsets.get((n, src_idx))
                do = dti.offsets.get((n, idx))
                if so is None or do is None:
                    continue
                vm = punctured.vertex(c[-1]).module(n + k)
                for i, (_, r) in enumerate(vm.summands):
                    blocks[(so + i, do + i)] = ExactMatrix.identity(r)
            maps[n] = SortedMap(verts[s].module(n), verts[s2].module(n), blocks)
        edges[(s, s2)] = ComplexMap(verts[s], verts[s2], maps, check=False)
    return PosetDiagram(full, verts, edges, check=True)


def vertex_projection(extended: PosetDiagram, punctured: PosetDiagram, s):
    """Quasi-isomorphism from an extended vertex back to the original one."""
    upset = [u for u in punctured.shape.elements if set(s) <= set(u)]
    hl = homotopy_limit(punctured.restrict(upset))
    if hl.complex != extended.vertex(s):
        raise InputError("extended cube does not match the punctured diagram")
    return hl.cone.legs[s]


def tfib_direction_cube(diagram: PosetDiagram, t_prime) -> PosetDiagram:
    """Cube on P(T') of total fibers of the complementary subcubes."""
    labels = cube_labels(diagram, punctured=False)
    t_prime = canonical_subset(t_prime)
    if not set(t_prime) <= set(labels):
        raise InputError("direction set is not a subset of the cube labels")
    rest = tuple(x for x in labels if x not in t_prime)
    outer_shape = subset_poset(t_prime, punctured=False)
    inner_shape = subset_poset(rest, punctured=False)

    def subcube(s_prime) -> PosetDiagram:
        verts = {s: diagram.vertex(canonical_subset(s + s_prime))
                 for s in inner_shape.elements}
        edges = {(a, b): diagram.hom(canonical_subset(a + s_prime),
                                     canonical_subset(b + s_prime))
                 for (a, b) in inner_shape.covering_pairs()}
        return PosetDiagram(inner_shape, verts, edges, check=False)

    cubes = {sp: subcube(sp) for sp in outer_shape.elements}
    psis = {}
    tots = {}
    for sp in outer_shape.elements:
        psi, hl = corner_comparison_map(cubes[sp])
        psis[sp] = psi
        tots[sp] = hl
    verts = {sp: hofib(psis[sp]) for sp in outer_shape.elements}
    edges = {}
    for (sp, sp2) in outer_shape.covering_pairs():
        comps = {s: diagram.hom(canonical_subset(s + sp), canonical_subset(s + sp2))
                 for s in inner_shape.elements}
        u = comps[()]
        punct_comps = {s: comps[s] for s in inner_shape.elements if s != ()}
        v = map_between_totalizations(
            tots[sp], tots[sp2], punct_comps)
        edges[(sp, sp2)] = hofib_map(psis[sp], psis[sp2], u, v)
    return PosetDiagram(outer_shape, verts, edges, check=True)


def total_fiber_iterated(diagram: PosetDiagram, t_prime) -> SortedComplex:
    """Total fiber computed through the direction cube of partial fibers."""
    return total_fiber(tfib_direction_cube(diagram, t_prime))


# --- recursive punctured limits ----------------------------------------------------

def _plabels(diagram: PosetDiagram):
    return cube_labels(diagram, punctured=True)


def _shift_diagram(diagram: PosetDiagram, t) -> PosetDiagram:
    """S maps to G({t} union S) on the punctured cube without t."""
    labels = _plabels(diagram)
    rest = tuple(x for x in labels if x != t)
    shape = subset_poset(rest, punctured=True)
    verts = {s: diagram.vertex(canonical_subset(s + (t,))) for s in shape.elements}
    edges = {(a, b): diagram.hom(canonical_subset(a + (t,)),
                                 canonical_subset(b + (t,)))
             for (a, b) in shape.covering_pairs()}
    return PosetDiagram(shape, verts, edges, check=False)


def _restrict_away(diagram: PosetDiagram, t) -> PosetDiagram:
    labels = _plabels(diagram)
    rest = tuple(x for x in labels if x != t)
    return diagram.restrict(subset_poset(rest, punctured=True).elements)


@dataclass
class _RecLimit:
    complex: SortedComplex
    # layout of the homotopy pullback pieces, None at the base
    parts: tuple | None  # (A, C, B) recursive results / complexes


def _rec_limit(diagram: PosetDiagram, t=None) -> _RecLimit:
    labels = _plabels(diagram)
    if len(labels) == 1:
        return _RecLimit(diagram.vertex(labels), None)
    if t is None:
        t = labels[0]
    a_diag = _restrict_away(diagram, t)
    b_diag = _shift_diagram(diagram, t)
    a = _rec_limit(a_diag)
    b = _rec_limit(b_diag)
    c = diagram.vertex((t,))
    rest = tuple(x for x in labels if x != t)
    phi = _rec_map(a_diag, b_diag,
                   {s: diagram.hom(s, canonical_subset(s + (t,)))
                    for s in a_diag.shape.elements}, a, b)
    psi = _rec_cone(c, {s: diagram.hom((t,), canonical_subset(s + (t,)))
                        for s in b_diag.shape.elements}, b_diag, b)
    total, inc_a, inc_c, proj_a, proj_c = sum_inclusions(a.complex, c)
    delta = phi.compose(proj_a) - psi.compose(proj_c)
    return _RecLimit(hofib(delta), (a, c, b, delta))


def _rec_map(src_diag, dst_diag, components, src: _RecLimit, dst: _RecLimit) -> ComplexMap:
    """Map of recursive limits induced by a strict natural transformation."""
    labels = _plabels(src_diag)
    if len(labels) == 1:
        return components[labels]
    t = labels[0]
    sa_diag, sb_diag = _restrict_away(src_diag, t), _shift_diagram(src_diag, t)
    da_diag, db_diag = _restrict_away(dst_diag, t), _shift_diagram(dst_diag, t)
    sa, sc, sb, sdelta = src.parts
    da, dc, db, ddelta = dst.parts
    u_a = _rec_map(sa_diag, da_diag,
                   {s: components[s] for s in sa_diag.shape.elements}, sa, da)
    u_b = _rec_map(sb_diag, db_diag,
                   {s: components[canonical_subset(s + (t,))]
                    for s in sb_diag.shape.elements}, sb, db)
    u_c = components[(t,)]
    # block sum on A + C, then the induced map of fibers
    u_ac = _direct_sum_map(u_a, u_c)
    return hofib_map(sdelta, ddelta, u_ac, u_b)


def _direct_sum_map(f: ComplexMap, g: ComplexMap) -> ComplexMap:
    src = direct_sum(f.source, g.source)
    tgt = direct_sum(f.target, g.target)
    maps = {}
    for n in set(src.modules) | set(tgt.modules):
        maps[n] = stack_maps(
            [f.source.module(n), g.source.module(n)],
            [f.target.module(n), g.target.module(n)],
            {(0, 0): f.map_at(n), (1, 1): g.map_at(n)})
    return ComplexMap(src, tgt, maps, check=False)


def _rec_cone(apex: SortedComplex, legs: dict, diagram: PosetDiagram,
              rec: _RecLimit) -> ComplexMap:
    """Canonical map from a strict cone into the recursive limit."""
    labels = _plabels(diagram)
    if len(labels) == 1:
        return legs[labels]
    t = labels[0]
    a_diag, b_diag = _restrict_away(diagram, t), _shift_diagram(diagram, t)
    a, c, b, delta = rec.parts
    into_a = _rec_cone(apex, {s: legs[s] for s in a_diag.shape.elements},
                       a_diag, a)
    into_c = legs[(t,)]
    fib = rec.complex
    maps = {}
    for n in apex.modules:
        maps[n] = stack_maps(
            [apex.module(n)],
            [a.complex.module(n), c.module(n), b.complex.module(n + 1)],
            {(0, 0): into_a.map_at(n), (0, 1): into_c.map_at(n)})
    return ComplexMap(apex, fib, maps)


def punctured_limit_recursive(diagram: PosetDiagram, t) -> SortedComplex:
    """Punctured-cube limit computed by the one-direction pullback recursion."""
    labels = _plabels(diagram)
    if len(labels) < 2:
        raise InputError("recursion needs at least two labels")
    if t not in labels:
        raise InputError(f"{t!r} is not a label of the cube")
    return _rec_limit(diagram, t).complex


# --- the adjunction between corner inclusion and strict total fiber ------------------

def strict_total_fiber(diagram: PosetDiagram):
    """Kernel complex of the map to the strict punctured limit, with inclusion."""
    labels = cube_labels(diagram, punctured=False)
    corner = diagram.vertex(())
    sort = uniform_sort(*diagram.vertices.values())
    singles = [(x,) for x in labels]
    degs = sorted(corner.modules)
    bases = {}
    mods = {}
    for n in degs:
        stacked = [diagram.hom((), s).map_at(n).to_dense() for s in singles]
        stacked = [m for m in stacked if m.rows]
        amb = (ExactMatrix.block([[m] for m in stacked]) if stacked
               else ExactMatrix.zeros(0, corner.module(n).total_rank))
        k = kernel_basis(amb)
        bases[n] = k
        mods[n] = SortedModule([(sort, k.cols)]) if k.cols else EMPTY_MODULE
    diffs = {}
    for n in degs:
        if bases.get(n) is None or bases.get(n - 1) is None:
            continue
        if bases[n].cols == 0 or bases[n - 1].cols == 0:
            continue
        sol = solve_in_span(bases[n - 1], corner.diff(n).to_dense() * bases[n])
        diffs[n] = SortedMap.from_dense(mods[n], mods[n - 1], sol)
    fib = SortedComplex(mods, diffs)
    inc_maps = {}
    for n in fib.modules:
        inc_maps[n] = SortedMap.from_dense(fib.module(n), corner.module(n),
                                           bases[n])
    inclusion = ComplexMap(fib, corner, inc_maps)
    return fib, inclusion


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

    amb_index_b = {pos: i for i, pos in enumerate(side_b.positions)}
    entries = {}
    for ai, (n, r, c) in enumerate(side_a.positions):
        inc = inclusion.map_at(n).to_dense()
        for (rr, r2), v in inc.items():
            if r2 != r:
                continue
            bi = amb_index_b.get((n, rr, c))
            if bi is not None:
                entries[(bi, ai)] = v
    t = ExactMatrix(len(side_b.positions), len(side_a.positions), entries)
    return comparison_is_isomorphism(side_a, side_b, lambda m: t * m, primes)
