import random
import time

import pytest

from fracturecube.exact_linalg import ExactMatrix, InputError
from fracturecube.cube_categories import (
    FractureObject,
    GeneratorData,
    SplitData,
    anchor_split,
    anchor_split_onto_product,
    anchored_cover_identity,
    anchored_supersets,
    build_from_generators,
    diagram_functor,
    fracture_diagram,
    fracture_limit,
    gap_subsets,
    glue_fracture_object,
    roundtrip_check,
    split_fracture_object,
    validate_fracture_object,
)
from fracturecube.fracture import LocalizationFamily, build_fracture_cube, e_localize
from fracturecube.holim import PosetDiagram, homotopy_limit, is_quasi_iso
from fracturecube.posets import FinitePoset, canonical_subset, subset_poset
from fracturecube.sorted_complex import (
    ZLOC,
    ComplexMap,
    Q,
    Qp,
    Sort,
    SortedComplex,
    SortedMap,
    SortedModule,
    Z,
    Zp,
    apply_localization,
    canonical_unit,
    complete,
    direct_sum,
    localize_chain_map_tables,
)

from genutil import (
    apply_tables,
    random_complex,
    reference_anchored_supersets,
    reference_gap_subsets,
    reference_validate_fracture_object,
    sum_inclusions,
)

FAM2 = LocalizationFamily((2,))
FAM3 = LocalizationFamily((2, 3))


def zsphere():
    return SortedComplex.single(Z)


def local_sphere(fam):
    return e_localize(zsphere(), fam)


# --- closed-form references ---------------------------------------------------

def _unit_adding(base: SortedComplex, fam: LocalizationFamily, small, j) -> ComplexMap:
    """The unit from the small-subset localization of base to the one with j
    added: the j-th canonical unit of the localization at the indices above
    j, localized at the indices below j."""
    above = fam.tables_for([x for x in small if x > j])
    unit = canonical_unit(apply_tables(base, above), fam.table(j))
    return localize_chain_map_tables(unit, fam.tables_for([x for x in small if x < j]))


def closed_form_functor(s, s2, x: PosetDiagram, fam: LocalizationFamily) -> PosetDiagram:
    """The pushed diagram read off vertex by vertex and edge by edge: at U,
    the gap localization of x at the part of U at or above min(s)."""
    t = fam.labels()
    lo, hi = min(s2), min(s)
    outer = anchored_supersets(s2, t)

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
    return PosetDiagram(outer, verts, edges)


def scaled_edge_object():
    # the edge (3,) -> (1, 3) of the local sphere's object, doubled; the
    # diagram stays functorial because the vertex (1, 2, 3) is zero
    g = fracture_diagram(local_sphere(FAM3), FAM3)
    edges = dict(g.diagram.edges)
    e = edges[((3,), (1, 3))]
    edges[((3,), (1, 3))] = ComplexMap(e.source, e.target,
                                       {n: m.scale(2) for n, m in e.maps.items()})
    return FractureObject(PosetDiagram(g.diagram.shape, g.diagram.vertices, edges), FAM3)


class TestUnits:
    def test_single_index_units_are_the_cube_edges(self):
        # the unit adding one index j to a subset, built from canonical_unit
        # at j, against the independent inductive construction of the cube
        rng = random.Random(11)
        for _ in range(4):
            raw = random_complex(rng, deg_hi=2, max_rank=3)
            for x in (raw, e_localize(raw, FAM3)):
                cube = build_fracture_cube(x, FAM3)
                for small in cube.shape.elements:
                    for j in set(FAM3.labels()) - set(small):
                        large = canonical_subset(small + (j,))
                        unit = _unit_adding(x, FAM3, small, j)
                        assert unit == cube.hom(small, large)


class TestValidate:
    def test_induced_object_is_valid(self):
        for fam in (FAM2, FAM3):
            g = fracture_diagram(local_sphere(fam), fam)
            assert validate_fracture_object(g) == []

    def test_cospan_with_unit_edges(self):
        x1 = SortedComplex.single(Q)
        x2 = SortedComplex.single(Zp(2))
        f = ComplexMap(x1, SortedComplex.single(Qp(2)),
                       {0: SortedMap(x1.module(0),
                                     SortedComplex.single(Qp(2)).module(0),
                                     {(0, 0): ExactMatrix.identity(1)})})
        gen = GeneratorData({1: x1, 2: x2}, {(1, 2): f})
        obj = build_from_generators(gen, FAM2)
        assert validate_fracture_object(obj) == []
        assert obj.vertex((1, 2)) == SortedComplex.single(Qp(2))

    def test_non_unit_edge_flagged(self):
        g = fracture_diagram(local_sphere(FAM2), FAM2)
        doubled = dict(g.diagram.edges)
        bad_edge = doubled[((2,), (1, 2))]
        doubled[((2,), (1, 2))] = ComplexMap(
            bad_edge.source, bad_edge.target,
            {n: m.scale(2) for n, m in bad_edge.maps.items()})
        broken = PosetDiagram._trusted(g.diagram.shape, g.diagram.vertices, doubled)
        report = validate_fracture_object(FractureObject(broken, FAM2))
        assert any("unit" in v.message for v in report)

    def test_locality_flagged(self):
        shape = subset_poset((1,), punctured=True)
        g = FractureObject(
            PosetDiagram(shape, {(1,): SortedComplex.single(Z)}, {}),
            LocalizationFamily(()), (1,))
        report = validate_fracture_object(g)
        assert report and "not fixed" in report[0].message

    def test_shape_order_checked(self):
        # the punctured square's elements, ordered as a chain (1,) < (2,) < (1, 2)
        chain = FinitePoset([(1,), (2,), (1, 2)],
                            [((1,), (2,)), ((2,), (1, 2)), ((1,), (1, 2))])
        d = PosetDiagram(chain, {s: SortedComplex.zero() for s in chain.elements}, {})
        with pytest.raises(InputError, match="not the punctured subset poset on"):
            FractureObject(d, FAM2)


def seeded_objects():
    """Fracture objects of seeded complexes for |P| = 0..3, all valid."""
    rng = random.Random(61)
    for primes in ((), (2,), (2, 3), (2, 3, 5)):
        fam = LocalizationFamily(primes)
        for _ in range(2):
            x = random_complex(rng, deg_hi=2, max_rank=3)
            yield fracture_diagram(e_localize(x, fam), fam)


SEEDED_OBJECTS = list(seeded_objects())


def swapped_sorts(c: SortedComplex) -> SortedComplex:
    """c with each sort traded for another of the same rank, matrices kept."""
    swap = {"Q": ZLOC, "ZlocP": Q}
    mods = {n: SortedModule([(swap.get(s.kind) or Sort("Qp" if s.kind == "Zp" else "Zp",
                                                         s.prime), r)
                             for s, r in m.summands]) for n, m in c.modules.items()}
    return SortedComplex._trusted(mods, {n: SortedMap._trusted(mods[n], mods[n - 1], d.matrix)
                                         for n, d in c.diffs.items()})


def corrupted(g: FractureObject):
    """Copies of g with one nonzero vertex or one nonzero unit edge changed;
    the edges at a changed vertex keep their matrices and take it as endpoint."""
    d = g.diagram
    for s, c in d.vertices.items():
        if c.modules:
            verts = {**d.vertices, s: swapped_sorts(c)}
            edges = {(x, y): ComplexMap._trusted(verts[x], verts[y], e.maps)
                     for (x, y), e in d.edges.items()}
            yield FractureObject(PosetDiagram._trusted(d.shape, verts, edges),
                                 g.family, g.labels)
    for (v, iv), e in d.edges.items():
        if e.maps and min(iv) < min(v):
            doubled = ComplexMap._trusted(e.source, e.target,
                                          {n: m.scale(2) for n, m in e.maps.items()})
            yield FractureObject(PosetDiagram._trusted(
                d.shape, d.vertices, {**d.edges, (v, iv): doubled}), g.family, g.labels)


class TestValidateWithoutFaceEdges:
    """The edges iv -> iw inside a localized face were checked by a third
    loop; orthogonality makes it repeat the other two."""

    def test_seeded_objects_cover_every_size(self):
        assert {len(g.labels) for g in SEEDED_OBJECTS} == {1, 2, 3, 4}
        assert all(validate_fracture_object(g) == [] for g in SEEDED_OBJECTS)

    def test_face_edge_targets_are_zero(self):
        # every vertex iw the loop visited: i, then w with two labels or more
        visited = 0
        for g in SEEDED_OBJECTS:
            for k, i in enumerate(g.labels[:-1]):
                rest = subset_poset(g.labels[k + 1:], punctured=True)
                for (_, w) in rest.covering_pairs():
                    assert g.vertex((i,) + w).is_zero_complex()
                    visited += 1
        assert visited > 20

    @pytest.mark.parametrize("k", range(len(SEEDED_OBJECTS)))
    def test_agrees_with_the_three_loop_reference(self, k):
        refuted_by_face_edges = 0
        for obj in [SEEDED_OBJECTS[k], *corrupted(SEEDED_OBJECTS[k])]:
            new, ref = validate_fracture_object(obj), reference_validate_fracture_object(obj)
            face_edges = [v for v in ref if v.location.startswith("edge")
                          and v.message != "must be the localization unit"]
            assert (new == []) == (ref == [])
            assert new == [v for v in ref if v not in face_edges]
            refuted_by_face_edges += bool(face_edges)
        if len(SEEDED_OBJECTS[k].labels) > 2:
            # the loop did report lines, each on an object already refuted
            assert refuted_by_face_edges


class TestGenerators:
    def test_zero_generators(self):
        zero = SortedComplex.zero()
        gen = GeneratorData({1: zero, 2: zero},
                            {(1, 2): ComplexMap.zero(zero, zero)})
        obj = build_from_generators(gen, FAM2)
        assert all(c.is_zero_complex() for c in obj.diagram.vertices.values())

    def test_three_indices_zero_mixing_maps(self):
        xs = {1: SortedComplex.single(Q), 2: SortedComplex.single(Zp(2)),
              3: SortedComplex.single(Zp(3))}
        maps = {(i, j): ComplexMap.zero(
            xs[i], apply_localization(xs[j], FAM3.table(i)))
            for i in (1, 2, 3) for j in (1, 2, 3) if i < j}
        obj = build_from_generators(GeneratorData(xs, maps), FAM3)
        assert validate_fracture_object(obj) == []
        # still a genuine object of the category, so the round trip holds
        assert roundtrip_check(obj, FAM3)

    def test_three_indices_with_free_mixing_maps(self):
        # nonzero mixing maps out of the first index; the bottom square
        # commutes because everything through the second index vanishes
        x1 = SortedComplex.single(Q)
        x2 = SortedComplex.single(Zp(2))
        x3 = SortedComplex.single(Zp(3), rank=2)
        l1x2 = apply_localization(x2, FAM3.table(1))
        l1x3 = apply_localization(x3, FAM3.table(1))
        f12 = ComplexMap(x1, l1x2, {0: SortedMap(
            x1.module(0), l1x2.module(0), {(0, 0): ExactMatrix.from_rows([[3]])})})
        f13 = ComplexMap(x1, l1x3, {0: SortedMap(
            x1.module(0), l1x3.module(0),
            {(0, 0): ExactMatrix.from_rows([[1], [2]])})})
        f23 = ComplexMap.zero(x2, apply_localization(x3, FAM3.table(2)))
        obj = build_from_generators(
            GeneratorData({1: x1, 2: x2, 3: x3},
                          {(1, 2): f12, (1, 3): f13, (2, 3): f23}), FAM3)
        assert validate_fracture_object(obj) == []
        assert roundtrip_check(obj, FAM3)

    def test_cospan_object_limit_is_the_local_sphere(self):
        # the limit of the unit-edge cospan is the 2-local sphere, seen
        # through the canonical comparison from the jointly local model
        x1 = SortedComplex.single(Q)
        x2 = SortedComplex.single(Zp(2))
        qp = SortedComplex.single(Qp(2))
        f = ComplexMap(x1, qp, {0: SortedMap(
            x1.module(0), qp.module(0), {(0, 0): ExactMatrix.identity(1)})})
        obj = build_from_generators(GeneratorData({1: x1, 2: x2}, {(1, 2): f}),
                                    FAM2)
        hl = homotopy_limit(obj.diagram)
        sphere_loc = local_sphere(FAM2)
        legs = {}
        for s in obj.diagram.shape.elements:
            v = obj.vertex(s)
            legs[s] = ComplexMap(sphere_loc, v, {0: SortedMap(
                sphere_loc.module(0), v.module(0),
                {(0, 0): ExactMatrix.identity(1)})})
        eta = hl.cone_map(sphere_loc, legs)
        assert is_quasi_iso(eta, FAM2.primes).acyclic

    def test_locality_of_generators_enforced(self):
        gen = GeneratorData({1: zsphere(), 2: SortedComplex.single(Zp(2))},
                            {(1, 2): ComplexMap.zero(
                                zsphere(), SortedComplex.single(Qp(2)))})
        with pytest.raises(InputError, match="local"):
            build_from_generators(gen, FAM2)

    @pytest.mark.parametrize("primes", [(2,), (2, 3), (2, 3, 5)])
    def test_generators_of_an_object_rebuild_it(self, primes):
        fam = LocalizationFamily(primes)
        rng = random.Random(len(fam.primes))
        for _ in range(2):
            g = fracture_diagram(e_localize(random_complex(rng, deg_hi=2, max_rank=3),
                                            fam), fam)
            labels = fam.labels()
            gen = GeneratorData({i: g.vertex((i,)) for i in labels},
                                {(i, j): g.diagram.hom((i,), (i, j))
                                 for i in labels for j in labels if i < j})
            obj = build_from_generators(gen, fam)
            assert obj.diagram.shape == g.diagram.shape
            assert obj.diagram.vertices == g.diagram.vertices
            assert obj.diagram.edges == g.diagram.edges

    def test_mixing_map_target_enforced(self):
        x1 = SortedComplex.single(Q)
        x2 = SortedComplex.single(Zp(2))
        gen = GeneratorData({1: x1, 2: x2}, {(1, 2): ComplexMap.zero(x1, x2)})
        with pytest.raises(InputError, match="target"):
            build_from_generators(gen, FAM2)


class TestFunctors:
    def test_limit_of_induced_object(self):
        x = local_sphere(FAM2)
        g = fracture_diagram(x, FAM2)
        lim = fracture_limit(g)
        # the limit carries the local sphere's homology, checked by the
        # canonical comparison being a quasi-isomorphism
        hl = homotopy_limit(g.diagram)
        cube = build_fracture_cube(x, FAM2)
        legs = {s: cube.hom((), s) for s in g.diagram.shape.elements}
        assert is_quasi_iso(hl.cone_map(x, legs), FAM2.primes).acyclic
        assert lim.sorts() == {Q, Zp(2), Qp(2)}

    def test_zero_object(self):
        g = fracture_diagram(SortedComplex.zero(), FAM3)
        assert fracture_limit(g).is_zero_complex()

    def test_seven_vertex_object_with_zero_vertices(self):
        fam = LocalizationFamily((2, 3))
        x = e_localize(SortedComplex.two_term(Z, ExactMatrix.from_rows([[6]])),
                       fam)
        g = fracture_diagram(x, fam)
        assert len(g.diagram.shape.elements) == 7
        zero_verts = [s for s in g.diagram.shape.elements
                      if g.vertex(s).is_zero_complex()]
        assert zero_verts == [(2, 3), (1, 2, 3)]

    def test_diagram_functor_restriction_case(self):
        # same minimum: the functor is literally restriction to the face
        x = local_sphere(FAM3)
        g = fracture_diagram(x, FAM3)
        src = g.diagram.restrict(anchored_supersets((1,), (1, 2, 3)).elements)
        out = diagram_functor((1,), (1, 2), src, FAM3)
        for u in out.shape.elements:
            assert out.vertex(u) == src.vertex(u)

    def test_requires_e_local_input(self):
        with pytest.raises(InputError, match="not local"):
            fracture_diagram(zsphere(), FAM2)


class TestMaxFaceStructure:
    def test_fixed_maximum_face_is_the_localization_cube(self):
        # the face of subsets with a fixed maximum carries exactly the
        # inductive localization cube of the singleton vertex, edges included
        rng = random.Random(7)
        x = e_localize(random_complex(rng, deg_hi=2, max_rank=3), FAM3)
        g = fracture_diagram(x, FAM3)
        for k in (1, 2, 3):
            face = [s for s in g.diagram.shape.elements if s and max(s) == k]
            base = g.vertex((k,))
            cube = build_fracture_cube(base, FAM3)
            for s in face:
                below = tuple(i for i in s if i < k)
                assert g.vertex(s) == apply_tables(base, FAM3.tables_for(below))
            for s in face:
                for s2 in face:
                    if set(s) < set(s2) and len(s2) == len(s) + 1:
                        below = tuple(i for i in s if i < k)
                        below2 = tuple(i for i in s2 if i < k)
                        assert g.diagram.hom(s, s2) == cube.hom(below, below2)


class TestRoundTrips:
    def test_direction_one_sphere(self):
        assert roundtrip_check(local_sphere(FAM2), FAM2)

    def test_direction_two_induced(self):
        rng = random.Random(0)
        x = e_localize(random_complex(rng, deg_hi=3, max_rank=4), FAM3)
        g = fracture_diagram(x, FAM3)
        assert roundtrip_check(g, FAM3)

    def test_broken_vertex_fails(self):
        g = fracture_diagram(local_sphere(FAM2), FAM2)
        verts = dict(g.diagram.vertices)
        edges = dict(g.diagram.edges)
        wrong = direct_sum(verts[(1, 2)], SortedComplex.single(Qp(2)))
        _, inc, _, _, _ = sum_inclusions(verts[(1, 2)], SortedComplex.single(Qp(2)))
        verts[(1, 2)] = wrong
        edges[((1,), (1, 2))] = inc.compose(edges[((1,), (1, 2))])
        edges[((2,), (1, 2))] = inc.compose(edges[((2,), (1, 2))])
        broken = FractureObject(
            PosetDiagram(g.diagram.shape, verts, edges), FAM2)
        assert not roundtrip_check(broken, FAM2)

    def test_random_suite(self):
        rng = random.Random(1)
        for _ in range(5):
            x = e_localize(random_complex(rng, deg_hi=2, max_rank=3), FAM3)
            assert roundtrip_check(x, FAM3)
            assert roundtrip_check(fracture_diagram(x, FAM3), FAM3)


class TestIndexCombinatorics:
    def test_worked_example(self):
        fwd, inv = anchor_split((3,), (1, 3), (1, 2, 3))
        assert fwd.source.elements == ((1, 3), (1, 2, 3))
        assert gap_subsets((3,), (1, 3), (1, 2, 3)).elements == ((1,), (1, 2))
        assert anchored_supersets((3,), (1, 2, 3)).elements == ((3,),)
        assert fwd((1, 3)) == ((1,), (3,))
        assert fwd((1, 2, 3)) == ((1, 2), (3,))

    def test_equal_subsets_degenerate_gap(self):
        fwd, inv = anchor_split((2, 3), (2, 3), (1, 2, 3))
        gap = gap_subsets((2, 3), (2, 3), (1, 2, 3))
        assert gap.elements == ((),)
        for u in fwd.source.elements:
            assert inv(fwd(u)) == u

    def test_same_min_gives_subposet(self):
        alpha_big = set(anchored_supersets((1,), (1, 2, 3)).elements)
        alpha_small = set(anchored_supersets((1, 3), (1, 2, 3)).elements)
        assert alpha_small <= alpha_big

    def test_isomorphism_exhaustive_up_to_five(self):
        for n in range(1, 6):
            t = tuple(range(1, n + 1))
            subsets = [s for s in subset_poset(t).elements if s]
            for s in subsets:
                for s2 in subsets:
                    if not set(s) <= set(s2):
                        continue
                    fwd, inv = anchor_split(s, s2, t)
                    image = set(inv.source.elements)
                    for u in fwd.source.elements:
                        assert fwd(u) in image
                        assert inv(fwd(u)) == u
                    for v in inv.source.elements:
                        assert fwd(inv(v)) == v
                    # order embedding both ways
                    for u in fwd.source.elements:
                        for w in fwd.source.elements:
                            assert fwd.source.leq(u, w) == \
                                fwd.target.leq(fwd(u), fwd(w))
                    onto = anchor_split_onto_product(s, s2, t)
                    assert onto == (len(image) == len(fwd.target.elements))
                    assert onto == all(x < min(s) for x in set(s2) - set(s))

    def test_non_surjective_pair_identified(self):
        # everything the outer subset adds must sit in the gap for the
        # splitting to hit the full product; ((1,),(1,2)) violates that
        assert not anchor_split_onto_product((1,), (1, 2), (1, 2))
        fwd, inv = anchor_split((1,), (1, 2), (1, 2))
        assert len(inv.source.elements) == 1
        assert len(fwd.target.elements) == 2
        assert anchor_split_onto_product((3,), (1, 3), (1, 2, 3))

    def test_cover_identity(self):
        for n in (2, 3, 4):
            assert anchored_cover_identity(n)

    def test_relabeled_posets_match_the_closed_form(self):
        # every (s, t) and (s, s2, t) up to six labels: elements and order
        cases = 0
        for n in range(1, 7):
            t = tuple(range(1, n + 1))
            subsets = [u for u in subset_poset(t).elements if u]
            for s in subsets:
                assert anchored_supersets(s, t) == reference_anchored_supersets(s, t)
                cases += 1
                for s2 in subsets:
                    if set(s) <= set(s2):
                        assert gap_subsets(s, s2, t) == reference_gap_subsets(s, s2, t)
                        cases += 1
        assert cases == 1086

    def test_size_cap_comes_first(self):
        # 13 free labels each: refused before any subset is listed
        start = time.perf_counter()
        with pytest.raises(InputError, match="exceeds cap"):
            anchored_supersets((1,), range(1, 15))
        with pytest.raises(InputError, match="exceeds cap"):
            gap_subsets((15,), (1, 15), range(1, 16))
        assert time.perf_counter() - start < 1

    def test_containment_validated(self):
        with pytest.raises(InputError):
            anchor_split((1,), (2,), (1, 2))
        with pytest.raises(InputError):
            gap_subsets((), (1,), (1, 2))


class TestDiagramFunctor:
    def test_vertical_functor_shape(self):
        x3 = apply_localization(zsphere(), complete(3))
        shape = anchored_supersets((3,), (1, 2, 3))
        d = PosetDiagram(shape, {(3,): x3}, {})
        out = diagram_functor((3,), (1, 3), d, FAM3)
        assert out.vertex((1, 3)) == SortedComplex.single(Qp(3))
        assert out.vertex((1, 2, 3)).is_zero_complex()

    def test_composition_identity_random(self):
        rng = random.Random(2)
        for _ in range(5):
            x = e_localize(random_complex(rng, deg_hi=2, max_rank=3), FAM3)
            g = fracture_diagram(x, FAM3)
            d = g.diagram.restrict(anchored_supersets((3,), (1, 2, 3)).elements)
            via = diagram_functor((2, 3), (1, 2, 3),
                                  diagram_functor((3,), (2, 3), d, FAM3), FAM3)
            direct = diagram_functor((3,), (1, 2, 3), d, FAM3)
            assert via.vertices == direct.vertices
            assert via.edges == direct.edges

    def test_zero_diagram(self):
        d = PosetDiagram(anchored_supersets((3,), (1, 2, 3)),
                         {(3,): SortedComplex.zero()}, {})
        out = diagram_functor((3,), (1, 3), d, FAM3)
        assert all(c.is_zero_complex() for c in out.vertices.values())

    @pytest.mark.parametrize("primes", [(2,), (2, 3), (2, 3, 5)])
    def test_matches_the_closed_form(self, primes):
        # every anchor pair s within s2, against the diagram read off
        # vertex by vertex with the closed-form units
        fam = LocalizationFamily(primes)
        t = fam.labels()
        subsets = [u for u in subset_poset(t).elements if u]
        rng = random.Random(20 + len(t))
        for _ in range(2):
            g = fracture_diagram(e_localize(random_complex(rng, deg_hi=2, max_rank=3),
                                            fam), fam)
            for s2 in subsets:
                for s in subsets:
                    if not set(s) <= set(s2):
                        continue
                    d = g.diagram.restrict(anchored_supersets(s, t).elements)
                    out = diagram_functor(s, s2, d, fam)
                    want = closed_form_functor(s, s2, d, fam)
                    assert out.shape == want.shape
                    assert out.vertices == want.vertices
                    assert out.edges == want.edges

    def test_shape_order_checked(self):
        # the anchored elements of (2,), but ordered as an antichain
        x2 = apply_localization(zsphere(), complete(2))
        flat = FinitePoset(anchored_supersets((2,), (1, 2, 3)).elements, [])
        d = PosetDiagram(flat, {u: x2 for u in flat.elements}, {})
        with pytest.raises(InputError, match="wrong shape"):
            diagram_functor((2,), (1, 2), d, FAM3)

    def test_locality_checked(self):
        d = PosetDiagram(anchored_supersets((3,), (1, 2, 3)),
                         {(3,): SortedComplex.single(Q)}, {})
        with pytest.raises(InputError, match="local"):
            diagram_functor((3,), (1, 3), d, FAM3)


class TestSplitGlue:
    def test_split_of_induced_sphere(self):
        g = fracture_diagram(local_sphere(FAM2), FAM2)
        sp = split_fracture_object(g)
        assert sp.top.vertex((2,)) == SortedComplex.single(Zp(2))
        assert sp.bottom.vertex((1,)) == SortedComplex.single(Q)
        assert sp.bottom.vertex((1, 2)) == SortedComplex.single(Qp(2))
        assert list(sp.witness) == [(1, 2)]

    def test_round_trip_literal(self):
        rng = random.Random(3)
        for fam in (FAM2, FAM3):
            x = e_localize(random_complex(rng, deg_hi=2, max_rank=3), fam)
            g = fracture_diagram(x, fam)
            sp = split_fracture_object(g)
            back = glue_fracture_object(sp, fam)
            assert back.diagram.vertices == g.diagram.vertices
            assert back.diagram.edges == g.diagram.edges
            sp2 = split_fracture_object(back)
            assert sp2.top.diagram.vertices == sp.top.diagram.vertices
            assert sp2.bottom.vertices == sp.bottom.vertices

    def test_zero_object(self):
        g = fracture_diagram(SortedComplex.zero(), FAM2)
        sp = split_fracture_object(g)
        back = glue_fracture_object(sp, FAM2)
        assert all(c.is_zero_complex() for c in back.diagram.vertices.values())

    def test_two_index_case_is_bottom_morphism(self):
        # splitting the two-index object leaves exactly the data of the
        # morphism from the first-index vertex into the localized top
        g = fracture_diagram(local_sphere(FAM2), FAM2)
        sp = split_fracture_object(g)
        assert set(sp.bottom.shape.elements) == {(1,), (1, 2)}
        edge = sp.bottom.hom((1,), (1, 2))
        assert edge.source == sp.bottom.vertex((1,))
        assert edge.target == apply_localization(sp.top.vertex((2,)),
                                                 FAM2.table(1))

    def test_split_of_a_face_glues_back(self):
        # the top face of a 3-label object is an object on labels (2, 3); its
        # split is anchored at 2, the label of the bottom's singleton vertex
        rng = random.Random(5)
        for _ in range(3):
            x = e_localize(random_complex(rng, deg_hi=2, max_rank=3), FAM3)
            t = split_fracture_object(fracture_diagram(x, FAM3)).top
            assert t.labels == (2, 3)
            back = glue_fracture_object(split_fracture_object(t), FAM3)
            assert back.labels == t.labels
            assert back.diagram.vertices == t.diagram.vertices
            assert back.diagram.edges == t.diagram.edges

    def test_anchor_must_lie_below_the_top(self):
        whole = split_fracture_object(fracture_diagram(local_sphere(FAM3), FAM3))
        face = split_fracture_object(whole.top)
        with pytest.raises(InputError, match="below every top label"):
            glue_fracture_object(SplitData(whole.top, face.bottom, face.witness), FAM3)
        # anchored at 1 below the top (3,), but a bottom face on labels 1, 2, 3
        with pytest.raises(InputError, match="not the anchored poset"):
            glue_fracture_object(SplitData(face.top, whole.bottom, whole.witness), FAM3)

    def test_split_validates_its_input(self):
        # the doubled unit is functorial, so only validation refutes it
        obj = scaled_edge_object()
        report = validate_fracture_object(obj)
        assert [(v.location, v.message) for v in report] == \
            [("edge (3,) -> (1, 3)", "must be the localization unit")]
        with pytest.raises(InputError, match=r"edge \(3,\) -> \(1, 3\): must be the "
                                             "localization unit"):
            split_fracture_object(obj)

    def test_bottom_order_checked(self):
        # the anchored elements in their order, but as an antichain
        sp = split_fracture_object(fracture_diagram(local_sphere(FAM3), FAM3))
        flat = FinitePoset(sp.bottom.shape.elements, [])
        bottom = PosetDiagram(flat, sp.bottom.vertices, {})
        with pytest.raises(InputError, match=r"bottom face is not the anchored poset "
                                             r"on \(1, 2, 3\)"):
            glue_fracture_object(SplitData(sp.top, bottom, sp.witness), FAM3)

    def test_non_local_anchor_rejected(self):
        sp = split_fracture_object(fracture_diagram(local_sphere(FAM2), FAM2))
        z, target = zsphere(), sp.bottom.vertex((1, 2))
        bottom = PosetDiagram(sp.bottom.shape, {(1,): z, (1, 2): target},
                              {((1,), (1, 2)): ComplexMap.zero(z, target)})
        with pytest.raises(InputError, match=r"anchor vertex \(1,\) is not fixed"):
            glue_fracture_object(SplitData(sp.top, bottom, sp.witness), FAM2)

    def test_bad_witness_rejected(self):
        g = fracture_diagram(local_sphere(FAM2), FAM2)
        sp = split_fracture_object(g)
        doubled = {u: ComplexMap(w.source, w.target,
                                 {n: m.scale(2) for n, m in w.maps.items()})
                   for u, w in sp.witness.items()}
        with pytest.raises(InputError, match="witness"):
            glue_fracture_object(SplitData(sp.top, sp.bottom, doubled), FAM2)
