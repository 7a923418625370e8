"""Seeded generators shared by the unit and acceptance suites."""

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from fracturecube import serialize
from fracturecube.exact_linalg import (
    ExactMatrix,
    InputError,
    _eye,
    _int_rows,
    _smith,
    kernel_basis,
)
from fracturecube.cube_categories import FractureObject
from fracturecube.holim import (
    HolimResult,
    PosetDiagram,
    _place,
    attach_localization,
    cube_labels,
    homotopy_limit,
    nerve_limit,
    punctured_restriction,
    total_fiber,
    total_fiber_iterated,
)
from fracturecube.posets import FinitePoset, canonical_subset, subset_poset
from fracturecube.sorted_complex import (
    ZLOC,
    Q,
    Qp,
    Zp,
    Sort,
    SortedComplex,
    SortedModule,
    SortedMap,
    ComplexMap,
    EMPTY_MODULE,
    Z,
    _localize,
    _map_from_pieces,
    canonical_unit,
    chain_map_group,
    direct_sum,
    is_local,
    Violation,
)


def _permuted(c: SortedComplex, rng: random.Random) -> SortedComplex:
    """Scramble the basis of each degree by a signed permutation.

    Entry bounds are preserved, block structure is not, which keeps the
    generated complexes honest while staying inside the stated ranges.
    """
    perms = {}
    for n, m in c.modules.items():
        r = m.total_rank
        perm = list(range(r))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(r)]
        perms[n] = ExactMatrix(r, r, {(perm[i], i): signs[i] for i in range(r)})
    mods = {}
    for n, m in c.modules.items():
        sort = m.summands[0][0]
        mods[n] = SortedModule([(sort, m.total_rank)])
    diffs = {}
    for n, d in c.diffs.items():
        dense = perms[n - 1] * d.matrix * perms[n].transpose()
        diffs[n] = SortedMap.from_dense(mods[n], mods[n - 1], dense)
    return SortedComplex(mods, diffs)


def unimodular_base_change(c: SortedComplex, rng: random.Random,
                           steps: int = 6) -> SortedComplex:
    """c with the basis of each degree changed by a unimodular matrix.

    P_n is a product of elementary matrices I + k e_ij, i != j in one
    summand, and its inverse the product of the I - k e_ij in reverse;
    the new differential P_{n-1} d_n P_n^{-1} goes through the checked
    SortedMap.from_dense and SortedComplex.
    """
    change, inverse = {}, {}
    for n, m in c.modules.items():
        r = m.total_rank
        one = {(t, t): 1 for t in range(r)}
        p = q = ExactMatrix.identity(r)
        for _ in range(steps):
            s = rng.randrange(len(m.summands))
            if m.rank(s) < 2:
                continue
            i, j = rng.sample(range(m.offset(s), m.offset(s) + m.rank(s)), 2)
            k = rng.choice((-2, -1, 1, 2))
            p = ExactMatrix(r, r, {**one, (i, j): k}) * p
            q = q * ExactMatrix(r, r, {**one, (i, j): -k})
        change[n], inverse[n] = p, q
    diffs = {n: SortedMap.from_dense(c.module(n), c.module(n - 1),
                                     change[n - 1] * d.matrix * inverse[n])
             for n, d in c.diffs.items()}
    return SortedComplex(c.modules, diffs)


def random_complex(rng: random.Random, sort: Sort = Z, deg_lo: int = 0,
                   deg_hi: int = 4, max_rank: int = 6, bound: int = 9,
                   pieces: int = 4) -> SortedComplex:
    """Random bounded complex with d^2 = 0 and entries within the bound.

    Built as a direct sum of rank-one two-term pieces, standalone lines,
    and three-term pieces with a Koszul-style zero composite, then base
    changed by a signed permutation per degree.
    """
    parts = []
    for _ in range(rng.randint(1, pieces)):
        kind = rng.random()
        top = rng.randint(deg_lo, deg_hi)
        if kind < 0.25 or top == deg_lo:
            parts.append(SortedComplex.single(sort, rng.randint(1, 2), top))
        elif kind < 0.8:
            k = rng.randint(-bound, bound)
            parts.append(SortedComplex.two_term(
                sort, ExactMatrix.from_rows([[k]]), top))
        else:
            if top - 1 <= deg_lo:
                parts.append(SortedComplex.single(sort, 1, top))
                continue
            a, b = rng.randint(-3, 3), rng.randint(1, 3)
            c = rng.randint(-3, 3)
            mid = SortedModule([(sort, 2)])
            topm = SortedModule([(sort, 1)])
            botm = SortedModule([(sort, 1)])
            d_top = SortedMap(topm, mid, {(0, 0): ExactMatrix.from_rows(
                [[-b * c], [a * c]])})
            d_bot = SortedMap(mid, botm, {(0, 0): ExactMatrix.from_rows([[a, b]])})
            parts.append(SortedComplex(
                {top: topm, top - 1: mid, top - 2: botm},
                {top: d_top, top - 1: d_bot}))
    total = parts[0]
    for p in parts[1:]:
        total = direct_sum(total, p)
    # trim ranks that exceeded the cap by dropping whole pieces
    while any(m.total_rank > max_rank for m in total.modules.values()) and len(parts) > 1:
        parts.pop()
        total = parts[0]
        for p in parts[1:]:
            total = direct_sum(total, p)
    if total.is_zero_complex():
        total = SortedComplex.single(sort, 1, deg_lo)
    return _permuted(total, rng)


def random_chain_map(rng: random.Random, a: SortedComplex, b: SortedComplex,
                     coeff_bound: int = 2) -> ComplexMap:
    group = chain_map_group(a, b)
    coeffs = [rng.randint(-coeff_bound, coeff_bound) for _ in range(group.rank)]
    return group.element(coeffs)


@dataclass
class ReferenceGroup:
    """A chain map group over named coordinates: `positions[i]` is the
    (degree, row, col) entry that coordinate i holds."""

    source: SortedComplex
    target: SortedComplex
    positions: list
    constraints: ExactMatrix
    basis: ExactMatrix

    @property
    def rank(self) -> int:
        return self.basis.cols

    def element(self, coeffs) -> ComplexMap:
        vec = self.basis * ExactMatrix.from_rows([[c] for c in coeffs])
        per_degree = {}
        for (idx, _), v in sorted(vec._n.items()):
            n, r, c = self.positions[idx]
            per_degree.setdefault(n, {})[(r, c)] = v
        return ComplexMap(self.source, self.target, {
            n: SortedMap._trusted(self.source.module(n), self.target.module(n),
                                  ExactMatrix._trusted(self.target.module(n).total_rank,
                                                       self.source.module(n).total_rank,
                                                       entries, vec.den))
            for n, entries in per_degree.items()})

    def postcompose(self, h: ComplexMap, onto: "ReferenceGroup") -> ExactMatrix:
        """f -> h f entry by entry, the adjunction check's first transform."""
        index = {pos: i for i, pos in enumerate(onto.positions)}
        entries = {}
        for ai, (n, r, c) in enumerate(self.positions):
            for (rr, r2), v in h.map_at(n).matrix.items():
                bi = index.get((n, rr, c))
                if r2 == r and bi is not None:
                    entries[(bi, ai)] = v
        return ExactMatrix(len(onto.positions), len(self.positions), entries)


def reference_chain_map_group(a: SortedComplex, b: SortedComplex,
                              postcompose_zero=()) -> ReferenceGroup:
    """Chain maps a -> b solved entry by entry: one constraint row per
    (row, column) of each product, walking the matrices for each row.
    The closed-form oracle for chain_map_group."""
    positions, pos_index = [], {}
    for n in sorted(set(a.modules) & set(b.modules)):
        for r in range(b.module(n).total_rank):
            for c in range(a.module(n).total_rank):
                pos_index[(n, r, c)] = len(positions)
                positions.append((n, r, c))
    rows = []

    def add_rows(n_src, left, right, n_tgt_rows, n_cols):
        # left * f_{n_src} - f_{n_src - 1} * right = 0, cleared of denominators
        for r in range(n_tgt_rows):
            for c in range(n_cols):
                row = {}
                for (rr, k), v in left._n.items():
                    idx = pos_index.get((n_src, k, c))
                    if rr == r and idx is not None:
                        row[idx] = row.get(idx, 0) + v * right.den
                for (k, cc), v in right._n.items():
                    idx = pos_index.get((n_src - 1, r, k))
                    if cc == c and idx is not None:
                        row[idx] = row.get(idx, 0) - v * left.den
                if row:
                    rows.append(row)

    for n in sorted(set(a.modules) | set(b.modules)):
        add_rows(n, b.diff(n).matrix, a.diff(n).matrix,
                 b.module(n - 1).total_rank, a.module(n).total_rank)
    for g in postcompose_zero:
        for n in sorted(set(a.modules) & set(b.modules)):
            zero = ExactMatrix.zeros(a.module(n - 1).total_rank, a.module(n).total_rank)
            add_rows(n, g.map_at(n).matrix, zero,
                     g.target.module(n).total_rank, a.module(n).total_rank)
    constraints = ExactMatrix._trusted(len(rows), len(positions), {
        (i, j): v for i, row in enumerate(rows) for j, v in row.items() if v})
    return ReferenceGroup(a, b, positions, constraints, kernel_basis(constraints))


# --- random cubes ----------------------------------------------------------------

def _upset_cube(shape, labels, corner, x: SortedComplex):
    zero = SortedComplex.zero()
    verts = {}
    for s in shape.elements:
        verts[s] = x if set(corner) <= set(s) else zero
    edges = {}
    for (a, b) in shape.covering_pairs():
        if set(corner) <= set(a):
            edges[(a, b)] = ComplexMap.identity(x)
    return PosetDiagram._trusted(shape, verts, edges)


def _scalar_cube(shape, labels, x: SortedComplex, scalars: dict):
    """Constant vertex with direction edges acting by fixed integers."""
    verts = {s: x for s in shape.elements}
    edges = {}
    for (a, b) in shape.covering_pairs():
        (new,) = set(b) - set(a)
        k = scalars[new]
        edges[(a, b)] = ComplexMap._trusted(
            x, x, {n: SortedMap.identity(m).scale(k)
                   for n, m in x.modules.items()})
    return PosetDiagram._trusted(shape, verts, edges)


def _collapse_cube(rng, shape, labels, t, base, target):
    """Source half arbitrary in direction t, target half one constant complex."""
    f = random_chain_map(rng, base.vertex(max(base.shape.elements, key=len)), target)
    top = max(base.shape.elements, key=len)
    verts = {}
    edges = {}
    for s in base.shape.elements:
        s2 = tuple(sorted(s + (t,)))
        verts[s] = base.vertex(s)
        verts[s2] = target
        edges[(s, s2)] = f.compose(base.hom(s, top))
    for (a, b) in base.shape.covering_pairs():
        a2 = tuple(sorted(a + (t,)))
        b2 = tuple(sorted(b + (t,)))
        edges[(a, b)] = base.hom(a, b)
        edges[(a2, b2)] = ComplexMap.identity(target)
    return PosetDiagram._trusted(shape, verts, edges)


def _direct_sum_map(f: ComplexMap, g: ComplexMap) -> ComplexMap:
    src = direct_sum(f.source, g.source)
    tgt = direct_sum(f.target, g.target)
    maps = {}
    for n in set(src.modules) | set(tgt.modules):
        fn, gn = f.map_at(n), g.map_at(n)
        dense = ExactMatrix.assemble(
            tgt.module(n).total_rank, src.module(n).total_rank,
            [(0, 0, fn.matrix), (fn.target.total_rank, fn.source.total_rank, gn.matrix)])
        maps[n] = SortedMap.from_dense(src.module(n), tgt.module(n), dense)
    return ComplexMap._trusted(src, tgt, maps)


def cube_direct_sum(d1, d2):
    verts = {s: direct_sum(d1.vertex(s), d2.vertex(s)) for s in d1.shape.elements}
    edges = {(x, y): _direct_sum_map(d1.hom(x, y), d2.hom(x, y))
             for (x, y) in d1.shape.covering_pairs()}
    return PosetDiagram._trusted(d1.shape, verts, edges)


def _conjugate_cube(d, rng):
    """Change basis at every vertex by a signed permutation per degree."""

    def scramble(c: SortedComplex):
        perms = {}
        inv = {}
        for n, m in c.modules.items():
            r = m.total_rank
            perm = list(range(r))
            rng.shuffle(perm)
            signs = [rng.choice((1, -1)) for _ in range(r)]
            p = ExactMatrix(r, r, {(perm[i], i): signs[i] for i in range(r)})
            perms[n] = p
            inv[n] = ExactMatrix(r, r, {(i, perm[i]): signs[i] for i in range(r)})
        sort = next(iter(c.sorts())) if c.sorts() else None
        mods = {n: SortedModule([(sort, m.total_rank)])
                for n, m in c.modules.items()}
        diffs = {}
        for n, dmap in c.diffs.items():
            dense = perms[n - 1] * dmap.matrix * inv[n]
            diffs[n] = SortedMap.from_dense(mods[n], mods[n - 1], dense)
        return SortedComplex(mods, diffs), perms, inv

    # a zero vertex is not stored and draws nothing from rng
    scrambled = {s: scramble(c) for s, c in d.vertices.items()}
    verts = {s: trip[0] for s, trip in scrambled.items()}
    edges = {}
    for (x, y), e in d.edges.items():
        _, px, ix = scrambled[x]
        cy, py, iy = scrambled[y]
        maps = {}
        for n in set(e.maps):
            dense = py.get(n, ExactMatrix.zeros(0, 0)) * e.map_at(n).matrix \
                * ix.get(n, ExactMatrix.zeros(0, 0))
            maps[n] = SortedMap.from_dense(verts[x].module(n),
                                           verts[y].module(n), dense)
        edges[(x, y)] = ComplexMap._trusted(verts[x], verts[y], maps)
    return PosetDiagram(d.shape, verts, edges)


def random_cube(rng: random.Random, labels, sort: Sort = Z, deg_lo: int = 0,
                deg_hi: int = 2, max_rank: int = 3, punctured: bool = False,
                pieces: int = 3):
    """Seeded strictly functorial cube with genuinely mixed edge maps."""
    labels = tuple(sorted(labels))
    shape = subset_poset(labels, punctured=False)

    def small():
        return random_complex(rng, sort=sort, deg_lo=deg_lo, deg_hi=deg_hi,
                              max_rank=max_rank, pieces=2)

    def one_piece():
        kind = rng.random()
        if kind < 0.35 or not labels:
            corner = tuple(x for x in labels if rng.random() < 0.5)
            return _upset_cube(shape, labels, corner, small())
        if kind < 0.6:
            scalars = {x: rng.randint(-3, 3) for x in labels}
            return _scalar_cube(shape, labels, small(), scalars)
        t = labels[-1]
        base = random_cube(rng, labels[:-1], sort, deg_lo, deg_hi,
                           max_rank, pieces=max(1, pieces - 1))
        return _collapse_cube(rng, shape, labels, t, base, small())

    total = one_piece()
    for _ in range(rng.randint(0, pieces - 1)):
        total = cube_direct_sum(total, one_piece())
    total = _conjugate_cube(total, rng)
    if punctured:
        total = total.restrict([s for s in shape.elements if s != ()])
    return total


def scaled(c, k):
    """c with every differential scaled by k; still d^2 = 0."""
    return SortedComplex(c.modules, {n: d.scale(k) for n, d in c.diffs.items()})


def scaled_cube(d, k):
    """The cube with every vertex's differentials scaled by k: each edge
    commutes with them as before."""
    verts = {s: scaled(d.vertex(s), k) for s in d.shape.elements}
    return PosetDiagram(d.shape, verts, {
        (s, t): ComplexMap(verts[s], verts[t], e.maps) for (s, t), e in d.edges.items()})


def nerve_total_fiber(d):
    """Total fiber through the nerve totalization: the reference oracle."""
    punct = punctured_restriction(d)
    legs = {s: d.hom((), s) for s in punct.shape.elements}
    return reference_hofib(nerve_limit(punct).cone_map(d.vertex(()), legs))


def tfib_direction_cube(diagram: PosetDiagram, t_prime) -> PosetDiagram:
    """Cube on P(T') of total fibers of the complementary subcubes, the face
    S -> G(S + S') at S' totalized off the diagram itself, one level up: the
    reference for total_fiber_iterated, which is its total fiber."""
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
        blocks = [(s, s, e) for s in cells
                  if (e := diagram.edges.get((up[sp][s], up[sp2][s]))) is not None]
        edges[(sp, sp2)] = ComplexMap._trusted(tots[sp].complex, tots[sp2].complex,
                                               _place(tots[sp], tots[sp2], blocks))
    return PosetDiagram._trusted(outer_shape, {sp: t.complex for sp, t in tots.items()}, edges)


def iterated_to_direct(d, tp) -> ComplexMap:
    """The block permutation from total_fiber_iterated(d, tp) onto total_fiber(d).

    Both complexes hold, in degree n, the term of d at U in degree
    n + |U| once for each nonzero cell U: the iterated one lists U as
    S' + S, S' over the subsets of tp and S over the other labels, nested;
    the direct one lists the subsets in order. Cell S' + S goes to cell
    sorted(S' + S) by the identity times the sign of the shuffle of S'
    against S. The checked constructor makes it a chain map; a signed
    permutation of the bases, it is an isomorphism.
    """
    labels = max(d.shape.elements, key=len)
    rest = tuple(x for x in labels if x not in tp)
    # the shuffle's sign: -1 to the number of pairs a in S', b in S with a > b
    sign = {canonical_subset(sp + s): -1 if sum(a > b for a in sp for b in s) % 2 else 1
            for sp in subset_poset(tp).elements for s in subset_poset(rest).elements}

    def layout(cells):
        # the offset of each cell's term in each degree, cells in order
        offsets, used = {}, {}
        for u in cells:
            for m, module in d.vertex(u).modules.items():
                offsets[(m - len(u), u)] = used.get(m - len(u), 0)
                used[m - len(u)] = used.get(m - len(u), 0) + module.total_rank
        return offsets

    src, dst = total_fiber_iterated(d, tp), total_fiber(d)
    at = layout(subset_poset(labels).elements)
    pieces = {}
    for (n, u), col in layout(sign).items():
        one = ExactMatrix.identity(d.vertex(u).module(n + len(u)).total_rank)
        pieces.setdefault(n, []).append((at[(n, u)], col, one.scale(sign[u])))
    return ComplexMap(src, dst, {n: _map_from_pieces(src.module(n), dst.module(n), p)
                                 for n, p in pieces.items()})


# --- closed-form cones and sums ------------------------------------------------------
# The package builds every cone as the totalization of a 1-cube and every
# product as a limit. These are the degreewise formulas, with zero blocks
# read through diff(n) and map_at(n), so the oracles share no assembly
# with the totalization kernel.

def sum_inclusions(c: SortedComplex, d: SortedComplex):
    """(c + d, include c, include d, project to c, project to d)."""
    total = direct_sum(c, d)

    def part_map(piece, other, first: bool, into: bool):
        maps = {}
        for n in piece.modules:
            pm = piece.module(n)
            off = 0 if first else other.module(n).total_rank
            one = ExactMatrix.identity(pm.total_rank)
            if into:
                maps[n] = _map_from_pieces(pm, total.module(n), [(off, 0, one)])
            else:
                maps[n] = _map_from_pieces(total.module(n), pm, [(0, off, one)])
        src = piece if into else total
        tgt = total if into else piece
        return ComplexMap._trusted(src, tgt, maps)

    return (total,
            part_map(c, d, True, True), part_map(d, c, False, True),
            part_map(c, d, True, False), part_map(d, c, False, False))


def reference_cone(f: ComplexMap) -> SortedComplex:
    """Mapping cone with differential (c, x) -> (-d c, f c + d x)."""
    c, d = f.source, f.target
    degs = {n + 1 for n in c.modules} | set(d.modules)
    mods = {n: SortedModule.concat(c.module(n - 1), d.module(n)) for n in degs}
    diffs = {}
    for n in degs:
        below, here = c.module(n - 2).total_rank, c.module(n - 1).total_rank
        diffs[n] = _map_from_pieces(mods[n], mods.get(n - 1, EMPTY_MODULE), [
            (0, 0, c.diff(n - 1).matrix.scale(-1)),
            (below, 0, f.map_at(n - 1).matrix),
            (below, here, d.diff(n).matrix)])
    return SortedComplex._trusted(mods, diffs)


def shift(c: SortedComplex, k: int) -> SortedComplex:
    """Degree shift: shift(c, k)_n = c_{n-k}; differentials pick up (-1)^k.

    The reference for complexes the package builds at their own degrees,
    such as the total fiber: the cube's totalization shifted by -1.
    """
    sign = -1 if k % 2 else 1
    mods = {n + k: m for n, m in c.modules.items()}
    diffs = {n + k: (d if sign == 1 else d.scale(-1))
             for n, d in c.diffs.items()}
    return SortedComplex._trusted(mods, diffs)


def reference_hofib(f: ComplexMap) -> SortedComplex:
    return shift(reference_cone(f), -1)


def reference_residue(c: SortedComplex, survives):
    """Dimensions and differentials of the summands whose sort survives.

    The closed form: every differential restricted to the surviving
    basis, empty and whole restrictions included.
    """
    keep = {n: [i for i in range(len(m.summands)) if survives(m.sort(i))]
            for n, m in c.modules.items()}
    dims = {n: sum(c.module(n).rank(i) for i in keep[n]) for n in c.modules}
    mats = {n: d.matrix.submatrix(d.target.basis(keep.get(n - 1, [])),
                                  d.source.basis(keep[n]))
            for n, d in c.diffs.items()}
    return dims, mats


# --- closed-form index posets --------------------------------------------------------

def _all_subsets(xs):
    out = [()]
    for x in xs:
        out += [u + (x,) for u in out]
    return out


def _inclusion_poset(elems) -> FinitePoset:
    # (size, lex) order, inclusion tested pairwise
    elems = sorted(elems, key=lambda e: (len(e), e))
    index = {e: i for i, e in enumerate(elems)}
    up = [{index[f] for f in elems if set(e) <= set(f)} for e in elems]
    return FinitePoset._trusted(elems, up)


def face_poset(maximal_faces) -> FinitePoset:
    """The nonempty faces of the simplicial complex these faces span (its
    maximal faces suffice), as sorted tuples ordered by inclusion. Its
    order complex is the barycentric subdivision of the complex, so the
    two share homology."""
    return _inclusion_poset({u for f in maximal_faces for u in _all_subsets(sorted(f)) if u})


def reference_subset_poset(base: tuple, punctured: bool) -> FinitePoset:
    """The subset poset on sorted labels, each subset's supersets built by
    adding the labels it lacks one at a time and found by their tuples."""
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


def reference_anchored_supersets(s, t) -> FinitePoset:
    """Subsets of t containing s and sharing its minimum, by inclusion."""
    s, t = canonical_subset(s), canonical_subset(t)
    free = [x for x in t if x > min(s) and x not in s]
    return _inclusion_poset([canonical_subset(s + u) for u in _all_subsets(free)])


def reference_gap_subsets(s, s2, t) -> FinitePoset:
    """Subsets of the gap [min(s2), min(s)) of t that contain s2's part there."""
    s, s2, t = canonical_subset(s), canonical_subset(s2), canonical_subset(t)
    lo, hi = min(s2), min(s)
    interval = [x for x in t if lo <= x < hi]
    forced = tuple(x for x in s2 if lo <= x < hi)
    free = [x for x in interval if x not in forced]
    return _inclusion_poset([canonical_subset(forced + u) for u in _all_subsets(free)])


def reference_irreducible(p: FinitePoset, x) -> bool:
    """Whether the strict up-set of x has a minimum or its strict down-set
    a maximum, each read off its own subposet."""
    up = [y for y in p.elements if p.lt(x, y)]
    down = [y for y in p.elements if p.lt(y, x)]
    return bool((up and p.subposet(up).minimum() is not None)
                or (down and p.subposet(down).maximum() is not None))


def reference_is_dismantlable(p: FinitePoset):
    """The greedy dismantling loop on a new subposet after every removal,
    each element asked through the subposet reading."""
    current = p
    witness = []
    while len(current) > 1:
        removable = next((x for x in current.elements
                          if reference_irreducible(current, x)), None)
        if removable is None:
            return False, witness
        witness.append(removable)
        current = current.subposet([y for y in current.elements if y != removable])
    return True, witness


def random_poset(rng: random.Random, n: int, density: float = 0.4) -> FinitePoset:
    """Random order on range(n): the transitive closure of random pairs i < j."""
    above = [set() for _ in range(n)]
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            if rng.random() < density:
                above[i] |= {j} | above[j]
    return FinitePoset(range(n), [(i, j) for i in range(n) for j in above[i]])


# --- reference composites ----------------------------------------------------------

def apply_tables(c: SortedComplex, tables) -> SortedComplex:
    """The localization along a table list, in application order: the
    closed-form reference for cube vertices."""
    return _localize(c, tables)[0]


def all_sorts(primes):
    out = [Z, ZLOC, Q]
    for p in primes:
        out += [Zp(p), Qp(p)]
    return out


def composite_kills_all(second, first, primes) -> bool:
    """Whether applying the table first then second kills every sort."""
    return all((u := first.apply_sort(s)) is None or second.apply_sort(u) is None
               for s in all_sorts(primes))


def vertex_projection(extended, punctured, s) -> ComplexMap:
    """Quasi-isomorphism from an extended vertex back to the original one."""
    upset = [u for u in punctured.shape.elements if set(s) <= set(u)]
    hl = nerve_limit(punctured.restrict(upset))
    assert hl.complex == extended.vertex(s), "extended cube does not match the punctured diagram"
    return hl.legs[s]


def unit_of_tables(c: SortedComplex, tables) -> ComplexMap:
    """The composite of the localization units along a list of tables."""
    total = ComplexMap.identity(c)
    cur = c
    for t in tables:
        u = canonical_unit(cur, t)
        total = u.compose(total)
        cur = u.target
    return total


def leg_compatibility(data, holim_result) -> bool:
    """Whether each comparison leg factors as the limit leg after eta."""
    for i, leg in data.legs.items():
        if holim_result.legs[(i,)].compose(data.eta) != leg:
            return False
    return True


# --- block-wise oracles for the flat sorted map ---------------------------------------

def blockwise_compose(g_blocks: dict, f_blocks: dict) -> dict:
    """Blocks of g after f, one block pair at a time."""
    acc = {}
    for (i, j), m1 in f_blocks.items():
        for (j2, k), m2 in g_blocks.items():
            if j2 == j:
                acc[(i, k)] = acc[(i, k)] + m2 * m1 if (i, k) in acc else m2 * m1
    return acc


def blockwise_sum(f_blocks: dict, g_blocks: dict) -> dict:
    acc = dict(f_blocks)
    for key, m in g_blocks.items():
        acc[key] = acc[key] + m if key in acc else m
    return acc


def blockwise_scale(f_blocks: dict, c) -> dict:
    return {key: m.scale(c) for key, m in f_blocks.items()}


def dense_assemble(rows: int, cols: int, pieces) -> ExactMatrix:
    """Sum of placed pieces, accumulated entry by entry in a list of lists."""
    out = [[0] * cols for _ in range(rows)]
    for ro, co, m in pieces:
        for i, row in enumerate(to_rows(m)):
            for j, v in enumerate(row):
                out[ro + i][co + j] += v
    return ExactMatrix(rows, cols, {(i, j): v for i, row in enumerate(out)
                                    for j, v in enumerate(row)})


# --- a Fraction-dict oracle for ExactMatrix ----------------------------------------------
# An oracle matrix is (rows, cols, {(i, j): nonzero Fraction}), computed
# entry by entry in Fraction arithmetic, independent of the numerator form.

def frac_of(m: ExactMatrix):
    return m.rows, m.cols, dict(m.items())


def to_rows(m: ExactMatrix):
    """Dense rows of m as Fractions, zeros included."""
    out = [[Fraction(0)] * m.cols for _ in range(m.rows)]
    for (i, j), v in m.items():
        out[i][j] = v
    return out


def _nonzero(rows, cols, d):
    return rows, cols, {k: Fraction(v) for k, v in d.items() if v}


def frac_assemble(rows, cols, pieces):
    out = {}
    for ro, co, (_, _, d) in pieces:
        for (i, j), v in d.items():
            out[(ro + i, co + j)] = out.get((ro + i, co + j), 0) + v
    return _nonzero(rows, cols, out)


def frac_mul(a, b):
    out = {}
    for (i, j), x in a[2].items():
        for (j2, k), y in b[2].items():
            if j2 == j:
                out[(i, k)] = out.get((i, k), 0) + x * y
    return _nonzero(a[0], b[1], out)


def frac_scale(a, c):
    return _nonzero(a[0], a[1], {k: c * v for k, v in a[2].items()})


def frac_add(a, b):
    return frac_assemble(a[0], a[1], [(0, 0, a), (0, 0, b)])


def frac_sub(a, b):
    return frac_add(a, frac_scale(b, -1))


def frac_transpose(a):
    return a[1], a[0], {(j, i): v for (i, j), v in a[2].items()}


def frac_submatrix(a, row_idx, col_idx):
    return len(row_idx), len(col_idx), {
        (ii, jj): a[2][(i, j)] for ii, i in enumerate(row_idx)
        for jj, j in enumerate(col_idx) if (i, j) in a[2]}


def smith_normal_form(m: ExactMatrix):
    """Exact Smith decomposition m = u * d * v, the transforms inverted.

    u and v are unimodular, d is diagonal with nonnegative entries
    d1 | d2 | ... Raises InputError on non-integral input. The reference
    for the transform bookkeeping of exact_linalg._smith.
    """
    a = [row + e for row, e in zip(_int_rows(m), _eye(m.rows))] + _eye(m.cols)
    _smith(a, m.rows, m.cols)
    n = min(m.rows, m.cols)
    d = ExactMatrix._trusted(m.rows, m.cols, {(i, i): a[i][i] for i in range(n) if a[i][i]})
    return _inverse([row[m.cols:] for row in a[:m.rows]]), d, _inverse(a[m.rows:])


def _inverse(rows) -> ExactMatrix:
    """Inverse of an invertible square integer row list, by Gauss-Jordan over Q.

    Not by solve_in_span: the Smith transforms of a dense integer matrix
    can carry entries of a thousand digits, and a second Smith elimination
    grows them further, orders of magnitude slower than this.
    """
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for t in range(n):
        p = next(i for i in range(t, n) if a[i][t])
        a[t], a[p] = a[p], a[t]
        pivot = a[t][t]
        a[t] = [x / pivot for x in a[t]]
        for i in range(n):
            if i != t and a[i][t]:
                c = a[i][t]
                a[i] = [x - c * y for x, y in zip(a[i], a[t])]
    return ExactMatrix(n, n, {(i, j): a[i][n + j] for i in range(n) for j in range(n)})


def assert_canonical(m: ExactMatrix):
    """Nonzero int numerators inside the shape over a positive den, in lowest terms."""
    assert type(m.den) is int and m.den >= 1
    assert all(type(v) is int and v for v in m._n.values())
    assert all(0 <= i < m.rows and 0 <= j < m.cols for i, j in m._n)
    assert gcd(m.den, *m._n.values()) == 1


# --- the codec as it parsed and formatted every entry and label ------------------------
# Reference versions of the serialize functions that now skip zero entries
# and look labels up once; the new ones must agree with them.

def reference_matrix_to_json(m: ExactMatrix) -> dict:
    return {"rows": m.rows, "cols": m.cols,
            "entries": [[serialize.rational_to_str(v) for v in row] for row in to_rows(m)]}


def reference_matrix_from_json(d, path="$") -> ExactMatrix:
    serialize._only_keys(d, ("rows", "cols", "entries"), path)
    rows = serialize._expect(d["rows"], int, f"{path}.rows")
    cols = serialize._expect(d["cols"], int, f"{path}.cols")
    entries = serialize._expect(d["entries"], list, f"{path}.entries")
    if len(entries) != rows:
        raise serialize.SchemaError(f"{path}.entries", f"expected {rows} rows")
    data = []
    for i, row in enumerate(entries):
        serialize._expect(row, list, f"{path}.entries[{i}]")
        if len(row) != cols:
            raise serialize.SchemaError(f"{path}.entries[{i}]", f"expected {cols} columns")
        data.append([serialize.rational_from_str(v, f"{path}.entries[{i}][{j}]")
                     for j, v in enumerate(row)])
    return ExactMatrix(rows, cols, {(i, j): v for i, row in enumerate(data)
                                    for j, v in enumerate(row)})


def reference_diagram_to_json(d) -> dict:
    label = serialize.subset_to_str
    verts = {}
    for s in d.shape.elements:
        verts[label(s)] = serialize.complex_to_json(d.vertex(s))
    edges = []
    for (x, y) in sorted(d.shape.covering_pairs(), key=lambda p: (label(p[0]), label(p[1]))):
        edges.append({"from": label(x), "to": label(y),
                      "components": serialize._complex_map_components_to_json(d.hom(x, y))})
    return {"vertices": verts, "edges": edges}


def reference_diagram_over(shape, payloads: dict, d, path):
    SchemaError = serialize.SchemaError
    if set(payloads) != set(shape.elements):
        raise SchemaError(f"{path}.vertices", "keys do not form the diagram's "
                          f"poset on {serialize.subset_to_str(max(shape.elements, key=len))}")
    verts = {s: serialize.complex_from_json(v, f"{path}.vertices.{k}")
             for s, (k, v) in payloads.items()}
    edges = {}
    for k, e in enumerate(serialize._expect(d["edges"], list, f"{path}.edges")):
        epath = f"{path}.edges[{k}]"
        serialize._only_keys(e, ("from", "to", "components"), epath)
        x = serialize.subset_from_str(e["from"], f"{epath}.from")
        y = serialize.subset_from_str(e["to"], f"{epath}.to")
        if x not in verts or y not in verts:
            raise SchemaError(epath, "edge endpoint is not a vertex")
        if (x, y) in edges:
            raise SchemaError(epath, "repeated edge")
        edges[(x, y)] = serialize._complex_map_from_json(e["components"], verts[x], verts[y],
                                                         f"{epath}.components")
    try:
        out = PosetDiagram(shape, verts, edges)
    except InputError as exc:
        raise SchemaError(path, str(exc)) from None
    for (x, y) in shape.covering_pairs():
        if (x, y) not in edges and not (verts[x].is_zero_complex()
                                        or verts[y].is_zero_complex()):
            raise SchemaError(path, f"missing edge map {x!r} -> {y!r}")
    return out


# --- sub-cubes as their own diagrams ------------------------------------------------
# The package totalizes a sub-cube straight off its parent cube. These build
# the face or up-set diagram first and totalize that, as the package once did.

def _face(diagram: PosetDiagram, fixed, free, punctured: bool = False) -> PosetDiagram:
    """The face S -> diagram(S + fixed) over the subsets S of free."""
    # a covering pair of the face is one of the diagram: read its edge
    shape = subset_poset(free, punctured=punctured)
    verts = {s: diagram.vertex(canonical_subset(s + fixed)) for s in shape.elements}
    edges = {(a, b): diagram.hom(canonical_subset(a + fixed), canonical_subset(b + fixed))
             for (a, b) in shape.covering_pairs()}
    return PosetDiagram._trusted(shape, verts, edges)


def reference_punctured_limit_recursive(diagram: PosetDiagram, t) -> SortedComplex:
    """The pullback of A -> B <- G({t}) over the two face diagrams."""
    labels = max(diagram.shape.elements, key=len)
    rest = tuple(x for x in labels if x != t)
    a_diag = _face(diagram, (), rest, punctured=True)
    b_diag = _face(diagram, (t,), rest, punctured=True)
    a, b = homotopy_limit(a_diag), homotopy_limit(b_diag)
    c = diagram.vertex((t,))
    phi = ComplexMap._trusted(a.complex, b.complex, _place(
        a, b, [(s, s, diagram.hom(s, canonical_subset(s + (t,)))) for s in a.cells]))
    psi = b.cone_map(c, {s: diagram.hom((t,), canonical_subset(s + (t,)))
                         for s in b_diag.shape.elements})
    square = PosetDiagram._trusted(subset_poset((1, 2), punctured=True),
                                   {(1,): a.complex, (2,): c, (1, 2): b.complex},
                                   {((1,), (1, 2)): phi, ((2,), (1, 2)): psi})
    return homotopy_limit(square).complex


def reference_limit_extended_cube(punctured: PosetDiagram) -> PosetDiagram:
    """The Cartesian extension with one restricted diagram and one nerve per vertex."""
    full = subset_poset(max(punctured.shape.elements, key=len))
    results = {}
    for s in full.elements:
        upset = [u for u in punctured.shape.elements if set(s) <= set(u)]
        results[s] = nerve_limit(punctured.restrict(upset))
    verts = {s: results[s].complex for s in full.elements}
    ident = {x: ComplexMap.identity(punctured.vertex(x)) for x in punctured.shape.elements}
    edges = {(s, s2): ComplexMap._trusted(verts[s], verts[s2], _place(
        results[s], results[s2], [(c, c, ident[c[-1]]) for c in results[s2].cells]))
        for (s, s2) in full.covering_pairs()}
    return PosetDiagram._trusted(full, verts, edges)


def reference_validate_fracture_object(g: FractureObject) -> list:
    """The validation with its third loop: every edge iv -> iw inside the
    localized face checked against the localization of v -> w."""
    fam = g.family
    out = []
    for s in g.diagram.shape.elements:
        table = fam.table(min(s))
        if not is_local(g.vertex(s), table):
            out.append(Violation(f"vertex {s}", f"not fixed by {table.label()}"))
    for k, i in enumerate(g.labels[:-1]):
        rest = subset_poset(g.labels[k + 1:], punctured=True)
        table = fam.table(i)
        want = attach_localization(g.diagram.restrict(rest.elements), table, i)
        for v in rest.elements:
            iv = canonical_subset((i,) + v)
            if g.vertex(iv) != want.vertex(iv):
                out.append(Violation(
                    f"vertex {iv}",
                    f"must equal the {table.label()} localization of {v}"))
                continue
            if g.diagram.hom(v, iv) != want.hom(v, iv):
                out.append(Violation(
                    f"edge {v} -> {iv}", "must be the localization unit"))
        for (v, w) in rest.covering_pairs():
            iv = canonical_subset((i,) + v)
            iw = canonical_subset((i,) + w)
            if g.diagram.hom(iv, iw) != want.hom(iv, iw):
                out.append(Violation(
                    f"edge {iv} -> {iw}",
                    f"must be the {table.label()} localization of {v} -> {w}"))
    return out
