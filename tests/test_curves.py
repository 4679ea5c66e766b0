"""
Normal coordinates: validation, tracing, transport, and cutting.

Frozen values and their independent derivations:

- On the two-triangle punctured-torus model every triangle carries all three
  edges, so admissible vectors are even-sum triples obeying the triangle
  inequality.  Total weight 2 gives the three permutations of (0,1,1), all
  single curves; total weight 4 gives the three permutations of (0,2,2)
  (doubled curves) and the three of (1,1,2) (single).  Hence exactly six
  essential single curves of weight at most 4.

- The transport rule across a flip replaces the flipped weight e by
  max(a+c, b+d) - e,  a,b,c,d the cyclic quad weights.  For (1,0,1) and the
  middle edge the quad reads (1,1,1,1), giving max(2,2) - 0 = 2, so the
  image is (1,2,1); for (0,1,1) and the first edge the quad is (1,1,1,1)
  and the image is (2,1,1).

- Cutting the closed genus-2 model along the weight-2 curve below leaves
  one piece of Euler characteristic -2 with two boundary circles (a
  one-holed torus seen from both sides of the curve); cutting along the
  separating weight-8 curve leaves two pieces of characteristic -1, one
  holding the vertex and one vertex-free.
"""

import json

import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from curvetwist import (InvalidCurveError, MulticurveCoords, validate,
                        is_single_curve, is_essential, is_parallel,
                        transform_under_flip, intersects, cut_along,
                        enumerate_single_curves, standard_curves,
                        coords_to_jsonable, coords_from_jsonable,
                        build_surface, flip, automorphisms, twist, Flip,
                        Relabel, TopologyError, triangulation_to_json,
                        triangulation_from_json, CurveSystem,
                        check_independent)
from curvetwist.curves import _Strands, _enumerate_vectors, _one_curve
from oracles import (flip_square_relabeling, reference_act,
                     reference_disjoint, reference_trace)


# -- validation ---------------------------------------------------------------

def test_standard_curves_are_single_and_essential(s11, ab):
    a, b = ab
    for c in ab:
        assert validate(c)
        assert is_single_curve(c)
        assert is_essential(c)
    assert a.weights == (0, 1, 1)
    assert b.weights == (1, 0, 1)


def test_odd_triangle_sum_is_rejected(s11):
    with pytest.raises(InvalidCurveError):
        validate(MulticurveCoords(s11, (1, 1, 1)))


def test_triangle_inequality_is_enforced(s11):
    with pytest.raises(InvalidCurveError):
        validate(MulticurveCoords(s11, (4, 1, 1)))


def test_negative_weights_are_rejected(s11):
    with pytest.raises(InvalidCurveError):
        MulticurveCoords(s11, (-1, 1, 0))


def test_wrong_length_is_rejected(s11):
    with pytest.raises(InvalidCurveError):
        MulticurveCoords(s11, (1, 1))


def test_multiplicity_of_doubled_curve(s11, ab):
    a, _ = ab
    doubled = MulticurveCoords(s11, tuple(2 * w for w in a.weights))
    comps = validate(doubled)
    assert comps == ((a.weights, 2),)
    assert sum(m for _, m in validate(doubled)) == 2
    assert not is_single_curve(doubled)


def test_vertex_links_are_inessential(s20):
    for link in s20.vertex_links():
        c = MulticurveCoords(s20, link)
        assert is_single_curve(c)
        assert not is_essential(c)


def test_coords_are_immutable(s11, ab):
    a, _ = ab
    with pytest.raises(AttributeError):
        a.weights = (1, 1, 0)


# -- enumeration (frozen counts, derivation in the module docstring) ----------

def test_enumeration_on_punctured_torus(s11):
    got = list(enumerate_single_curves(s11, 4))
    assert got == [(0, 1, 1), (1, 0, 1), (1, 1, 0),
                   (1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert len(enumerate_single_curves(s11, 6)) == 12


def test_enumeration_on_four_punctured_sphere(s04):
    got = list(enumerate_single_curves(s04, 4))
    assert len(got) == 3
    # each is a quadrilateral around two punctures: four crossings
    assert all(sum(v) == 4 for v in got)
    assert len(enumerate_single_curves(s04, 6)) == 3


def test_enumeration_on_closed_genus_two(s20):
    assert len(enumerate_single_curves(s20, 4)) == 6
    assert len(enumerate_single_curves(s20, 6)) == 12


def test_enumerated_curves_validate(s20):
    for vec in enumerate_single_curves(s20, 6):
        c = MulticurveCoords(s20, vec)
        assert is_single_curve(c)
        assert is_essential(c)


def test_standard_curves_cross_once_on_punctured_torus(ab):
    a, b = ab
    assert intersects(a, b)


# -- transport ----------------------------------------------------------------

def test_flip_transport_frozen_examples(s11):
    b = MulticurveCoords(s11, (1, 0, 1))
    assert transform_under_flip(b, 1).weights == (1, 2, 1)
    a = MulticurveCoords(s11, (0, 1, 1))
    assert transform_under_flip(a, 0).weights == (2, 1, 1)


def test_flip_involution_on_coordinates(s20):
    """Flip, flip again, and carry the coordinates home: the identity."""
    rels = {lab: flip_square_relabeling(s20, lab)
            for lab in s20.edge_labels if s20.is_flippable(lab)}
    for vec in enumerate_single_curves(s20, 6):
        for lab, rel in rels.items():
            loop = [Flip(lab), Flip(lab), Relabel(rel)]
            assert reference_act(s20, loop, vec) == vec


def test_transport_preserves_component_structure(s11):
    for vec in enumerate_single_curves(s11, 6):
        c = MulticurveCoords(s11, vec)
        for lab in s11.edge_labels:
            image = transform_under_flip(c, lab)
            assert is_single_curve(image)


def test_relabeling_transport_preserves_validity(s20):
    c = MulticurveCoords(s20, (0, 0, 1, 0, 0, 0, 0, 1, 0))
    for rel in automorphisms(s20):
        image = reference_act(s20, [Relabel(rel)], c.weights)
        assert is_single_curve(MulticurveCoords(s20, image))


# -- disjointness -------------------------------------------------------------

def test_parallel_copies_are_disjoint(s11, ab):
    a, _ = ab
    assert not intersects(a, a)
    assert is_parallel(a, a)


def test_curves_parallel_across_the_vertex_are_parallel(s20):
    """On the closed genus-2 model sep and sep2 differ as vectors but are
    parallel in the surface: their cut has an annulus holding the vertex,
    and check_independent refuses them as parallel."""
    sep = MulticurveCoords(s20, (0, 0, 2, 2, 0, 0, 0, 2, 2))
    sep2 = MulticurveCoords(s20, (2, 2, 0, 0, 0, 2, 2, 0, 0))
    c = MulticurveCoords(s20, (0, 0, 1, 0, 0, 0, 0, 1, 0))
    x = MulticurveCoords(s20, (0, 1, 0, 1, 2, 1, 1, 1, 1))
    assert is_parallel(sep, sep2) and is_parallel(sep2, sep)
    assert not check_independent(CurveSystem(s20, {"sep": sep,
                                                   "sep2": sep2}))
    # disjoint and not parallel, crossing, and the same curve
    assert not is_parallel(c, sep)
    assert not is_parallel(x, sep)
    assert is_parallel(sep, sep)


def test_crossing_pair_fails_disjointness(ab):
    a, b = ab
    assert intersects(a, b)
    doubled = MulticurveCoords(a.host, [2 * x for x in a.weights])
    assert intersects(doubled, b) and not intersects(doubled, a)


def test_disjoint_pair_on_genus_two(s20):
    c = MulticurveCoords(s20, (0, 0, 1, 0, 0, 0, 0, 1, 0))
    sep = MulticurveCoords(s20, (0, 0, 2, 2, 0, 0, 0, 2, 2))
    d = MulticurveCoords(s20, (1, 0, 0, 0, 0, 1, 0, 0, 0))
    # c, d and the separating curve form one pants decomposition
    assert not intersects(c, d)
    assert not intersects(c, sep)
    x = MulticurveCoords(s20, (0, 1, 0, 1, 2, 1, 1, 1, 1))
    assert intersects(x, sep)


# -- cutting (frozen statistics, derivation in the module docstring) ----------

def test_cut_along_nonseparating_curve(s20):
    c = MulticurveCoords(s20, (0, 0, 1, 0, 0, 0, 0, 1, 0))
    cut = cut_along(c)
    stats = [(p.euler_characteristic, p.boundary_circles, p.punctures,
              p.contains_vertex) for p in cut.pieces]
    assert stats == [(-2, 2, 0, True)]
    assert not cut.pieces[0].is_pants


def test_cut_along_separating_curve(s20):
    sep = MulticurveCoords(s20, (0, 0, 2, 2, 0, 0, 0, 2, 2))
    cut = cut_along(sep)
    stats = sorted((p.euler_characteristic, p.boundary_circles, p.punctures,
                    p.contains_vertex) for p in cut.pieces)
    assert stats == [(-1, 1, 0, False), (-1, 1, 0, True)]
    assert any(not p.contains_puncture_or_vertex for p in cut.pieces)


def test_place_locates_curves_and_is_none_for_each_fault(s20):
    sep = MulticurveCoords(s20, (0, 0, 2, 2, 0, 0, 0, 2, 2))
    c = MulticurveCoords(s20, (0, 0, 1, 0, 0, 0, 0, 1, 0))
    d = MulticurveCoords(s20, (1, 0, 0, 0, 0, 1, 0, 0, 0))
    x = MulticurveCoords(s20, (0, 1, 0, 1, 2, 1, 1, 1, 1))
    cut = cut_along(sep)
    # c and d lie in the two one-holed tori on either side of sep; x
    # crosses sep, and sep is parallel to itself
    assert {cut.place(c.weights), cut.place(d.weights)} == {0, 1}
    assert cut.place(x.weights) is None
    assert cut.place(sep.weights) is None


def test_cut_on_punctured_torus_gives_pants(s11, ab):
    a, _ = ab
    cut = cut_along(a)
    assert len(cut.pieces) == 1
    p = cut.pieces[0]
    assert (p.euler_characteristic, p.boundary_circles, p.punctures) \
        == (-1, 2, 1)
    assert p.is_pants


def test_euler_characteristic_conservation(s20, s04):
    for tri, cap in ((s20, 6), (s04, 6)):
        for vec in enumerate_single_curves(tri, cap):
            cut = cut_along(MulticurveCoords(tri, vec))
            total = sum(p.euler_characteristic for p in cut.pieces)
            assert total == tri.euler_characteristic


def test_maximal_system_cuts_into_pants(s20):
    joint = MulticurveCoords(s20, [a + b + c for a, b, c in zip(
        (0, 0, 1, 0, 0, 0, 0, 1, 0),
        (1, 0, 0, 0, 0, 1, 0, 0, 0),
        (0, 0, 2, 2, 0, 0, 0, 2, 2))])
    cut = cut_along(joint)
    assert all(p.is_pants for p in cut.pieces)
    # a maximal system on the closed genus-2 model has 2g - 2 = 2 pants
    assert len(cut.pieces) == 2


# -- serialization ------------------------------------------------------------

def test_coords_json_round_trip(s20):
    c = MulticurveCoords(s20, (0, 0, 2, 2, 0, 0, 0, 2, 2))
    back = coords_from_jsonable(s20, coords_to_jsonable(c))
    assert back.weights == c.weights
    doc = coords_to_jsonable(c)
    assert all(isinstance(w, str) for w in doc["weights"])


def test_standard_curve_names(s11, s20):
    named = standard_curves(s11)
    assert named["a"].weights == (0, 1, 1)
    assert named["b"].weights == (1, 0, 1)
    assert standard_curves(s20)


# -- the integer tracer against the arc-level reference ---------------------

TRACE_MODELS = [build_surface(*gh) for gh in
                [(1, 1), (2, 0), (1, 2), (0, 5), (2, 1), (3, 0), (0, 4)]]
TRACE_SETTINGS = settings(max_examples=60, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])


def _traced(tri, weights):
    """(components, partition) of the package's tracer, or the message of
    its InvalidCurveError.  The partition is the multiset of (vector, arc
    set) pairs, arcs named (t, j, k): it does not see the order of equal
    parallel components."""
    try:
        strands = _Strands(tri, weights)
        comps, arc_component = strands.trace()
    except InvalidCurveError as e:
        return str(e)
    arcs = [(t, j, k) for t in range(tri.num_triangles) for j in range(3)
            for k in range(strands.counts[3 * t + j])]
    return comps, _partition(comps, zip(arcs, arc_component))


def _reference_traced(tri, weights):
    try:
        comps, arc_component = reference_trace(tri, weights)
    except InvalidCurveError as e:
        return str(e)
    return comps, _partition(comps, arc_component.items())


def _partition(comps, arc_comp_pairs):
    members = [[] for _ in comps]
    for arc, comp in arc_comp_pairs:
        members[comp].append(arc)
    return sorted((v, sorted(m)) for v, m in zip(comps, members))


@st.composite
def curve_sums(draw):
    """A model and the sum of 1-3 of its curves of weight <= 8, or a
    random vector of small weights (mostly not realizable)."""
    tri = draw(st.sampled_from(TRACE_MODELS))
    if draw(st.booleans()):
        singles = enumerate_single_curves(tri, 8)
        parts = draw(st.lists(st.sampled_from(singles), min_size=1,
                              max_size=3))
        return tri, tuple(map(sum, zip(*parts)))
    return tri, tuple(draw(st.lists(st.integers(0, 6), min_size=tri.num_edges,
                                    max_size=tri.num_edges)))


@TRACE_SETTINGS
@given(curve_sums())
def test_tracer_matches_the_arc_level_reference(case):
    tri, weights = case
    assert _traced(tri, weights) == _reference_traced(tri, weights)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10 ** 4))
@example(10 ** 4)
def test_tracer_matches_the_reference_on_heavy_twists(n):
    """T_a^n(b) on S(1,1) is one strand of about 2n arcs."""
    named = standard_curves(TRACE_MODELS[0])
    weights = twist(named["a"], n).act(named["b"]).weights
    got = _traced(TRACE_MODELS[0], weights)
    assert got == _reference_traced(TRACE_MODELS[0], weights)
    assert got[0] == (weights,)


@st.composite
def realizable_vectors(draw):
    """A model and a realizable vector on it: one from the enumeration's
    search, a sum of two disjoint curves, a doubled curve, a vertex link,
    or T_a^n(b) on S(1,1) for n <= 10^3."""
    kind = draw(st.sampled_from(["search", "sum", "double", "link", "twist"]))
    if kind == "twist":
        named = standard_curves(TRACE_MODELS[0])
        n = draw(st.integers(0, 10 ** 3))
        return TRACE_MODELS[0], twist(named["a"], n).act(named["b"]).weights
    tri = draw(st.sampled_from(TRACE_MODELS))
    if kind == "search":
        return tri, draw(st.sampled_from(_enumerate_vectors(tri, 0, 8)))
    if kind == "link":
        return tri, draw(st.sampled_from(sorted(tri.vertex_links())))
    singles = enumerate_single_curves(tri, 8)
    v = draw(st.sampled_from(singles))
    if kind == "double":
        return tri, tuple(2 * x for x in v)
    w = draw(st.sampled_from([w for w in singles if reference_disjoint(
        tri, [MulticurveCoords(tri, v), MulticurveCoords(tri, w)])]))
    return tri, tuple(x + y for x, y in zip(v, w))


@TRACE_SETTINGS
@given(realizable_vectors())
@example((TRACE_MODELS[0], (2, 0, 2)))
@example((TRACE_MODELS[1], (1, 0, 1, 0, 0, 1, 0, 1, 0)))
def test_connectivity_count_agrees_with_the_tracer(case):
    """The enumeration keeps a realizable vector when its arcs join into
    one tree; the tracer says the same when the vector is its only
    component, of multiplicity one."""
    tri, weights = case
    assert _one_curve(tri, weights) == (
        validate(MulticurveCoords(tri, weights)) == ((weights, 1),))


# -- intersects against the reference -----------------------------------------

@st.composite
def multicurves(draw, tri):
    """A multicurve on tri: a curve of weight <= 8, that curve doubled,
    its union with a disjoint one (maybe itself), or a vertex link."""
    kind = draw(st.sampled_from(["single", "double", "sum", "link"]))
    if kind == "link":
        return MulticurveCoords(tri, draw(st.sampled_from(
            sorted(tri.vertex_links()))))
    singles = [MulticurveCoords(tri, v)
               for v in enumerate_single_curves(tri, 8)]
    v = draw(st.sampled_from(singles))
    if kind == "single":
        return v
    if kind == "double":
        return MulticurveCoords(tri, [2 * x for x in v.weights])
    w = draw(st.sampled_from([w for w in singles
                              if reference_disjoint(tri, [v, w])]))
    return MulticurveCoords(tri, map(sum, zip(v.weights, w.weights)))


@TRACE_SETTINGS
@given(st.sampled_from(TRACE_MODELS[:3]).flatmap(
    lambda tri: st.tuples(multicurves(tri), multicurves(tri))))
@example((MulticurveCoords(TRACE_MODELS[0], (0, 2, 2)),
          MulticurveCoords(TRACE_MODELS[0], (1, 0, 1))))
@example((MulticurveCoords(TRACE_MODELS[0], (0, 2, 2)),
          MulticurveCoords(TRACE_MODELS[0], (0, 1, 1))))
def test_intersects_agrees_with_the_reference(pair):
    """On S(1,1), S(2,0) and S(1,2), two multicurves intersect exactly when
    the reference, which validates their sum, finds them not disjoint."""
    u, v = pair
    assert intersects(u, v) == (not reference_disjoint(u.host, [u, v]))


def test_a_json_host_with_an_unglued_slot_is_refused(s11):
    """The tracer reads every slot's partner, so a host with an unglued
    slot is refused when it is read, before any curve can live on it."""
    doc = json.loads(triangulation_to_json(s11))
    (a, _), *doc["gluing"] = doc["gluing"]
    with pytest.raises(TopologyError, match=r"^slot \(%d, %d\) is unglued"
                                            % tuple(a)):
        triangulation_from_json(json.dumps(doc))
