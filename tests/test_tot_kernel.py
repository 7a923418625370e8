"""The totalization kernel against its per-degree closed form.

The package totalizes from a coface table built once per totalization
and places only the blocks that exist. The reference here is the plain
per-degree formula: in every degree, every cell's inner differential
with sign (-1)^k and, for every face that is a cell, the diagram map
between the two tops with sign (-1)^i, each read through diff(n) and
map_at(n) with their zero blocks. The totalized map of a natural
transformation is the same per-degree placement of its components. A
mapping cone is the totalization of a 1-cube; its reference is the
degreewise cone formula. The total fiber and the direction-cube faces,
built one level up off the parent cube, are checked against the shift
by -1 of the full cube's totalization and of each face's.
"""

import random
from fractions import Fraction

import pytest

from fracturecube import holim
from fracturecube.exact_linalg import ExactMatrix
from fracturecube.cube_categories import fracture_diagram, roundtrip_check
from fracturecube.fracture import (
    LocalizationFamily,
    build_fracture_cube,
    completion_pair_square,
    e_localize,
    verify_fracture,
)
from fracturecube.holim import (
    PosetDiagram,
    cone,
    cube_totalization,
    hofib,
    homotopy_limit,
    initial_corner_cube,
    is_quasi_iso,
    limit_extended_cube,
    localize_diagram,
    nerve_limit,
    punctured_limit_recursive,
    punctured_restriction,
    tfib_direction_cube,
    total_fiber,
    total_fiber_iterated,
)
from fracturecube.posets import FinitePoset, canonical_subset, subset_poset
from fracturecube.sorted_complex import (
    EMPTY_MODULE,
    ComplexMap,
    SortedComplex,
    SortedMap,
    SortedModule,
    RATIONALIZE,
    Z,
    ZLOC,
    canonical_unit,
    direct_sum,
    homology_p_local,
)

from genutil import (
    _direct_sum_map,
    _face,
    _scalar_cube,
    _upset_cube,
    cube_direct_sum,
    random_chain_map,
    random_complex,
    random_cube,
    reference_cone,
    reference_hofib,
    reference_limit_extended_cube,
    reference_punctured_limit_recursive,
    scaled_cube,
    shift,
)
from test_cube_totalization import CUBES


class Reference:
    """Layout and complex of a totalization, computed degree by degree."""

    def __init__(self, diagram, cells, top):
        self.cells = [(len(c) - 1, c) for c in cells]
        self.top = top
        cell_pos = {c: idx for idx, (_, c) in enumerate(self.cells)}

        def value(c):
            return diagram.vertex(top(c))

        degrees = sorted({n - k for k, c in self.cells for n in value(c).modules})
        self.offsets, modules = {}, {}
        for n in degrees:
            summands, off = [], 0
            for idx, (k, c) in enumerate(self.cells):
                m = value(c).module(n + k)
                self.offsets[(n, idx)] = off
                off += m.total_rank
                summands.extend(m.summands)
            modules[n] = SortedModule(summands)

        def module(n):
            return modules.get(n, EMPTY_MODULE)

        diffs = {}
        for n in degrees:
            if module(n).is_empty() or module(n - 1).is_empty():
                continue
            pieces = []
            for idx, (k, c) in enumerate(self.cells):
                d = value(c).diff(n + k).matrix
                to = self.offsets[(n - 1, idx)]
                pieces.append((to, self.offsets[(n, idx)], d if k % 2 == 0 else d.scale(-1)))
                for i in range(k + 1):
                    face = c[:i] + c[i + 1:]
                    if face not in cell_pos:
                        continue
                    edge = diagram.hom(top(face), top(c)).map_at(n - 1 + k).matrix
                    pieces.append((to, self.offsets[(n, cell_pos[face])],
                                   edge if i % 2 == 0 else edge.scale(-1)))
            diffs[n] = SortedMap._trusted(module(n), module(n - 1), ExactMatrix.assemble(
                module(n - 1).total_rank, module(n).total_rank, pieces))
        # the public constructor re-checks shapes and d^2 = 0
        self.complex = SortedComplex(modules, diffs)


def reference_map(src: Reference, dst: Reference, components) -> ComplexMap:
    """Totalized natural transformation, one block per cell and degree."""
    maps = {}
    for n in set(src.complex.modules) | set(dst.complex.modules):
        pieces = []
        for idx, (k, c) in enumerate(src.cells):
            comp = components[src.top(c)].map_at(n + k)
            if not comp.is_zero():
                pieces.append((dst.offsets[(n, idx)], src.offsets[(n, idx)], comp.matrix))
        s_mod, d_mod = src.complex.module(n), dst.complex.module(n)
        maps[n] = SortedMap.from_dense(s_mod, d_mod, ExactMatrix.assemble(
            d_mod.total_rank, s_mod.total_rank, pieces))
    return ComplexMap(src.complex, dst.complex, maps)


def cube_reference(d):
    return Reference(d, d.shape.elements, lambda s: s)


def nerve_reference(d):
    chains = [c for level in d.shape.strict_chains() for c in level]
    return Reference(d, chains, lambda c: c[-1])


# --- seeded diagrams with zero vertices, missing edges and gaps in degree -------

def gapped(rng):
    """A complex with an empty degree between two occupied ones."""
    lo = random_complex(rng, sort=ZLOC, deg_lo=0, deg_hi=1, max_rank=2, pieces=2)
    hi = random_complex(rng, sort=ZLOC, deg_lo=3, deg_hi=4, max_rank=2, pieces=2)
    return direct_sum(lo, hi)


def zero_pattern_cubes():
    rng = random.Random(52)
    for labels in ((1,), (1, 2), (1, 2, 3)):
        shape = subset_poset(labels)
        yield initial_corner_cube(gapped(rng), labels)
        # zero below the corner, so no edge into it is stored
        upset = _upset_cube(shape, labels, labels[-1:], gapped(rng))
        yield upset
        # edges present between nonzero vertices but zero in one direction
        scalars = {x: (0 if x == labels[0] else rng.choice((1, -2, 3))) for x in labels}
        scalar = _scalar_cube(shape, labels, gapped(rng), scalars)
        yield scalar
        yield cube_direct_sum(upset, scalar)


ZERO_PATTERN_CUBES = list(zero_pattern_cubes())


def nerve_diagrams():
    """Non-cube shapes with zero vertices and random chain maps elsewhere."""
    rng = random.Random(53)
    zero = SortedComplex.zero()
    chain = FinitePoset("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    cospan = FinitePoset("abcd", [("a", "c"), ("b", "c"), ("a", "d")])
    antichain = FinitePoset("xy", [])
    for shape, zeros in ((chain, "b"), (chain, ""), (cospan, "d"), (cospan, ""),
                         (antichain, "x")):
        verts = {x: zero if x in zeros else gapped(rng) for x in shape.elements}
        edges = {(x, y): random_chain_map(rng, verts[x], verts[y])
                 for (x, y) in shape.covering_pairs()
                 if x not in zeros and y not in zeros}
        yield PosetDiagram(shape, verts, edges)
    # a full cube is not a punctured one, so it goes through the nerve too
    for labels in ((1, 2), (1, 2, 3)):
        yield random_cube(rng, labels, sort=ZLOC, max_rank=2)
    yield from (d for d in ZERO_PATTERN_CUBES if len(d.shape) == 4)


NERVE_DIAGRAMS = list(nerve_diagrams())
ALL_CUBES = [d for _, d in CUBES] + ZERO_PATTERN_CUBES


def test_seeded_diagrams_have_the_zero_patterns():
    has_zero_vertex = any(c.is_zero_complex() for d in ZERO_PATTERN_CUBES
                          for c in d.vertices.values())
    has_zero_edge = any(e.is_zero() and not e.source.is_zero_complex()
                        and not e.target.is_zero_complex()
                        for d in ZERO_PATTERN_CUBES for e in d.edges.values())
    has_gap = any(n - 1 in c.modules and n + 1 in c.modules and n not in c.modules
                  for d in ZERO_PATTERN_CUBES for c in d.vertices.values()
                  for n in range(-1, 6))
    assert has_zero_vertex and has_zero_edge and has_gap
    assert any(c.is_zero_complex() for d in NERVE_DIAGRAMS for c in d.vertices.values())


@pytest.mark.parametrize("k", range(len(ALL_CUBES)))
def test_cube_totalization_matches_the_reference(k):
    d = ALL_CUBES[k]
    assert cube_totalization(d).complex == cube_reference(d).complex


@pytest.mark.parametrize("k", range(len(ALL_CUBES)))
def test_punctured_limit_matches_the_reference(k):
    g = punctured_restriction(ALL_CUBES[k])
    assert homotopy_limit(g).complex == cube_reference(g).complex


@pytest.mark.parametrize("k", range(len(ALL_CUBES)))
def test_sub_cube_limits_match_the_face_diagram_references(k, monkeypatch):
    # the sub-cubes are totalized off the punctured cube, so each limit
    # builds one diagram, where the references build one per face or up-set
    g = punctured_restriction(ALL_CUBES[k])
    labels = g.shape.elements[-1]
    built = []
    trusted = PosetDiagram._trusted.__func__

    def counted(cls, *args):
        built.append(args[0])
        return trusted(cls, *args)

    monkeypatch.setattr(PosetDiagram, "_trusted", classmethod(counted))

    def run(fn, *args):
        built.clear()
        return fn(*args), len(built)

    (ext, n), (ref, n_ref) = run(limit_extended_cube, g), run(reference_limit_extended_cube, g)
    assert (n, n_ref) == (1, 2 ** len(labels) + 1)
    assert ext.shape is ref.shape
    assert ext.vertices == ref.vertices and ext.edges == ref.edges
    for t in labels if len(labels) > 1 else ():
        (rec, n), (ref, n_ref) = (run(punctured_limit_recursive, g, t),
                                  run(reference_punctured_limit_recursive, g, t))
        assert (n, n_ref) == (1, 3)
        assert rec == ref


def fracture_cubes():
    """Fracture cubes of seeded raw-Z inputs for |P| = 1..4, the cubes
    with the most zero vertices; the input at |P| = 3 is torsion only."""
    rng = random.Random(56)
    primes = (2, 3, 5, 7)
    for k in range(1, 5):
        fam = LocalizationFamily(primes[:k])
        if k == 3:
            x = SortedComplex.two_term(Z, ExactMatrix.from_rows([
                [rng.choice((2, 6, 15, 9)), 0], [0, rng.choice((4, 10, 35))]]))
        else:
            x = random_complex(rng, deg_hi=2, max_rank=3)
        yield build_fracture_cube(e_localize(x, fam), fam)


FRACTURE_CUBES = list(fracture_cubes())


def test_fracture_cubes_are_mostly_zero():
    # 2k + 2 of the 2^(k + 1) vertices are nonzero at |P| = k
    for k, d in enumerate(FRACTURE_CUBES, start=1):
        assert len(d.shape) == 2 ** (k + 1)
        assert sum(not c.is_zero_complex() for c in d.vertices.values()) == 2 * k + 2
    torsion = homology_p_local(FRACTURE_CUBES[2].vertex(()), (2, 3, 5))
    assert torsion and all(inv.free_rank == 0 for inv in torsion.values())


@pytest.mark.parametrize("k", range(len(FRACTURE_CUBES)))
def test_fracture_cube_totalization_matches_the_reference(k):
    d = FRACTURE_CUBES[k]
    assert cube_totalization(d).complex == cube_reference(d).complex
    g = punctured_restriction(d)
    assert homotopy_limit(g).complex == cube_reference(g).complex


@pytest.mark.parametrize("k", range(len(NERVE_DIAGRAMS)))
def test_nerve_totalization_matches_the_reference(k):
    d = NERVE_DIAGRAMS[k]
    assert nerve_limit(d).complex == nerve_reference(d).complex


def assert_direction_cubes_match_the_reference(d):
    """Every direction cube of d, vertices and edges, against the shifted
    references of its faces."""
    labels = max(d.shape.elements, key=len)
    for tp in subset_poset(labels).elements:
        rest = tuple(x for x in labels if x not in tp)
        dc = tfib_direction_cube(d, tp)
        refs = {sp: cube_reference(_face(d, sp, rest)) for sp in dc.shape.elements}
        for sp, ref in refs.items():
            assert dc.vertex(sp) == shift(ref.complex, -1), (tp, sp)
        for (sp, sp2), e in dc.edges.items():
            src, dst = refs[sp], refs[sp2]
            comps = {s: d.hom(canonical_subset(s + sp), canonical_subset(s + sp2))
                     for s in subset_poset(rest).elements}
            f = reference_map(src, dst, comps)
            want = ComplexMap(shift(src.complex, -1), shift(dst.complex, -1),
                              {n - 1: m for n, m in f.maps.items()})
            assert e == want, (tp, sp, sp2)


@pytest.mark.parametrize("k", [k for k, d in enumerate(ALL_CUBES) if len(d.shape) > 2])
def test_direction_cube_edges_match_the_reference_map(k):
    assert_direction_cubes_match_the_reference(ALL_CUBES[k])


@pytest.mark.parametrize("k", range(len(ALL_CUBES)))
def test_total_fibers_match_the_shifted_totalization(k):
    # the old path, a face diagram totalized and then shifted down, is the
    # oracle for the total fiber built at its own degrees
    d = ALL_CUBES[k]
    assert total_fiber(d) == shift(cube_totalization(d).complex, -1)
    labels = max(d.shape.elements, key=len)
    for tp in subset_poset(labels).elements:
        rest = tuple(x for x in labels if x not in tp)
        dc = tfib_direction_cube(d, tp)
        for sp in dc.shape.elements:
            want = shift(cube_totalization(_face(d, sp, rest)).complex, -1)
            assert dc.vertex(sp) == want, (tp, sp)
        # a 0-cube at tp = (), the cube itself at tp = labels
        assert total_fiber(dc) == shift(cube_totalization(dc).complex, -1), tp


def scaled_cubes():
    """ZlocP cubes whose differentials carry the denominator 5."""
    rng = random.Random(57)
    for labels in ((1, 2), (1, 2, 3)):
        for _ in range(3):
            yield scaled_cube(random_cube(rng, labels, sort=ZLOC, max_rank=3, pieces=4),
                              Fraction(1, 5))


SCALED_CUBES = list(scaled_cubes())


def test_scaled_cubes_totalize_with_denominators():
    dens = {m.matrix.den for d in SCALED_CUBES for m in total_fiber(d).diffs.values()}
    assert dens - {1}, dens


@pytest.mark.parametrize("k", range(len(SCALED_CUBES)))
def test_scaled_cube_totalizations_match_the_reference(k):
    # each block enters over the common denominator of its degree, so a
    # numerator read over the wrong denominator shows here
    d = SCALED_CUBES[k]
    ref = cube_reference(d)
    assert cube_totalization(d).complex == ref.complex
    assert total_fiber(d) == shift(ref.complex, -1)
    assert_direction_cubes_match_the_reference(d)


# --- cones: the totalization of a 1-cube against the degreewise formula ---------

def seeded_cone_maps():
    """Chain maps with absent differentials, absent components and gaps."""
    rng = random.Random(55)
    zero = SortedComplex.zero()

    def small(deg_lo=0, deg_hi=2):
        return random_complex(rng, sort=ZLOC, deg_lo=deg_lo, deg_hi=deg_hi, max_rank=3)

    for _ in range(6):
        a, b = small(), small()
        yield random_chain_map(rng, a, b)
    for _ in range(3):
        # a source, then a target, with no differential at all
        line = SortedComplex.single(ZLOC, rng.randint(1, 2), rng.randint(0, 2))
        yield random_chain_map(rng, line, small())
        yield random_chain_map(rng, small(), line)
        a, b = gapped(rng), gapped(rng)
        yield random_chain_map(rng, a, b)
        # zero in degrees 4..5, where both ends are nonzero
        yield _direct_sum_map(random_chain_map(rng, small(), small()),
                              ComplexMap.zero(small(4, 5), small(4, 5)))
    a = small()
    yield ComplexMap.identity(a)
    yield ComplexMap.zero(zero, a)
    yield ComplexMap.zero(a, zero)
    yield ComplexMap.zero(zero, zero)
    # a unit between two sorts
    yield canonical_unit(a, RATIONALIZE)


CONE_MAPS = list(seeded_cone_maps())


def test_seeded_cone_maps_have_the_patterns():
    def nonzero_without_diffs(c):
        return not c.is_zero_complex() and not c.diffs

    assert any(nonzero_without_diffs(f.source) for f in CONE_MAPS)
    assert any(nonzero_without_diffs(f.target) for f in CONE_MAPS)
    assert any(n in f.source.modules and n in f.target.modules and n not in f.maps
               for f in CONE_MAPS for n in range(6))
    assert any(n - 1 in c.modules and n + 1 in c.modules and n not in c.modules
               for f in CONE_MAPS for c in (f.source, f.target) for n in range(6))
    assert any(f.source.is_zero_complex() and not f.target.is_zero_complex()
               for f in CONE_MAPS)
    assert any(f.target.is_zero_complex() and not f.source.is_zero_complex()
               for f in CONE_MAPS)


@pytest.mark.parametrize("k", range(len(CONE_MAPS)))
def test_cone_matches_the_reference(k):
    f = CONE_MAPS[k]
    # module equality compares the summand lists, so order and sorts too
    assert cone(f) == reference_cone(f)
    assert hofib(f) == reference_hofib(f)


def test_kernel_builds_no_zero_blocks(monkeypatch):
    rng = random.Random(54)
    cubes = [random_cube(rng, (1, 2, 3), sort=ZLOC, max_rank=3) for _ in range(2)]
    cubes += ZERO_PATTERN_CUBES[-4:]
    xs = [random_complex(rng, deg_hi=2, max_rank=3) for _ in range(2)]
    punctured = [punctured_restriction(d) for d in cubes]
    calls = []
    make_zero = SortedMap.zero.__func__

    def counted(cls, source, target):
        calls.append((source, target))
        return make_zero(cls, source, target)

    monkeypatch.setattr(SortedMap, "zero", classmethod(counted))
    for d in cubes:
        cube_totalization(d)
        for tp in subset_poset(max(d.shape.elements, key=len)).elements:
            total_fiber_iterated(d, tp)
    for x in xs:
        for primes in ((2,), (2, 3), (2, 3, 5)):
            fam = LocalizationFamily(primes)
            verify_fracture(x, fam)
            roundtrip_check(fracture_diagram(e_localize(x, fam), fam), fam)
        completion_pair_square(x, 2, 3)
    for f in CONE_MAPS:
        cone(f)
        hofib(f)
        is_quasi_iso(f, (2, 3))
        direct_sum(f.source, f.target)
    for g in punctured:
        for t in (1, 2, 3):
            punctured_limit_recursive(g, t)
    assert len(calls) == 0


def test_total_fibers_build_no_copies(monkeypatch):
    # the total fiber is built at its own degrees and each direction-cube
    # face off the parent: no face diagram, no shifted or negated copy
    rng = random.Random(54)
    cubes = [random_cube(rng, (1, 2, 3), sort=ZLOC, max_rank=3) for _ in range(2)]
    cubes += ZERO_PATTERN_CUBES[-4:]
    calls = []
    scale, totalize = ExactMatrix.scale, holim.cube_totalization

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ExactMatrix, "scale", counted("scale", scale))
    monkeypatch.setattr(holim, "cube_totalization", counted("cube_totalization", totalize))
    for d in cubes:
        holim.total_fiber(d)
        for tp in subset_poset(max(d.shape.elements, key=len)).elements:
            holim.total_fiber_iterated(d, tp)
    assert calls == []


def test_totalization_layer_builds_nothing_checked(monkeypatch):
    # the package's own totalized maps are natural by construction, so
    # none goes through a public constructor that re-checks it
    rng = random.Random(54)
    cubes = [random_cube(rng, (1, 2, 3), sort=ZLOC, max_rank=3) for _ in range(2)]
    cubes += ZERO_PATTERN_CUBES[-4:]
    punctured = [punctured_restriction(d) for d in cubes]
    fams = [LocalizationFamily(primes) for primes in ((2,), (2, 3), (2, 3, 5))]
    xs = [random_complex(rng, deg_hi=2, max_rank=3) for _ in range(2)]
    objects = [(fracture_diagram(e_localize(x, fam), fam), fam) for x in xs for fam in fams]
    calls = []
    checked_map = ComplexMap.__init__
    from_dense = SortedMap.from_dense.__func__

    def counted_map(self, source, target, maps):
        calls.append("ComplexMap")
        checked_map(self, source, target, maps)

    def counted_dense(cls, source, target, dense):
        calls.append("from_dense")
        return from_dense(cls, source, target, dense)

    monkeypatch.setattr(ComplexMap, "__init__", counted_map)
    monkeypatch.setattr(SortedMap, "from_dense", classmethod(counted_dense))
    for d in cubes:
        cube_totalization(d)
        for tp in subset_poset(max(d.shape.elements, key=len)).elements:
            total_fiber_iterated(d, tp)
    for g in punctured:
        limit_extended_cube(g)
        for t in (1, 2, 3):
            punctured_limit_recursive(g, t)
    for x in xs:
        for fam in fams:
            verify_fracture(x, fam)
    for obj, fam in objects:
        roundtrip_check(obj, fam)
    assert calls == []


def test_zero_vertices_cost_nothing(monkeypatch):
    # at |P| = 5, 12 of the fracture cube's 64 vertices are nonzero: only
    # they are localized, and only they enter the coface table
    x = random_complex(random.Random(54), deg_hi=2, max_rank=3)
    fam = LocalizationFamily((2, 3, 5, 7, 11))
    calls = []
    localize = holim._localize

    def counted(c, tables):
        calls.append(c)
        return localize(c, tables)

    monkeypatch.setattr(holim, "_localize", counted)
    cube = build_fracture_cube(e_localize(x, fam), fam)
    assert sum(not c.is_zero_complex() for c in cube.vertices.values()) == 12
    # one pass per nonzero vertex of the cubes on 0, 1, ..., 5 labels
    assert len(calls) == 21
    assert not any(c.is_zero_complex() for c in calls)
    assert len(cube_totalization(cube).table) == 12
    calls.clear()
    localize_diagram(cube, fam.table(1))
    assert len(calls) == 12
    # every covering pair keeps its edge, zero or not
    assert list(cube.edges) == cube.shape.covering_pairs()


def test_direction_cubes_read_covering_edges(monkeypatch):
    # faces and direction-cube edges read diagram.edges, and no zero edge
    # is placed: hom runs only for the coface tables of nonzero cells
    x = random_complex(random.Random(54), deg_hi=2, max_rank=3)
    fam = LocalizationFamily((2, 3, 5))
    cube = build_fracture_cube(e_localize(x, fam), fam)
    want = total_fiber_iterated(cube, (1, 2))
    calls = []
    hom = PosetDiagram.hom

    def counted(self, a, b):
        calls.append((self.vertices[a].is_zero_complex()
                      or self.vertices[b].is_zero_complex()))
        return hom(self, a, b)

    monkeypatch.setattr(PosetDiagram, "hom", counted)
    assert total_fiber_iterated(cube, (1, 2)) == want
    assert len(calls) == 8
    assert not any(calls)
