"""
The standard models, the flip calculus, and isomorphism search.

Frozen expectations below are forced by Euler characteristic counting: an
ideal model of a punctured surface has T = 2|chi| triangles and E = 3|chi|
edges with one ideal vertex per puncture; a closed genus-g model on one
vertex has E = 6g - 3 and T = 4g - 2.
"""

import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from curvetwist import (TopologyError, Triangulation, MulticurveCoords,
                        build_surface, flip, isomorphisms,
                        automorphisms, twist, shorten,
                        enumerate_single_curves,
                        triangulation_to_json, triangulation_from_json)
from oracles import (flip_square_relabeling, inverse_relabeling,
                     compose_relabelings, reference_quad,
                     reference_flip_gluing,
                     reference_relabelings, reference_isomorphism,
                     reference_automorphisms, reference_min_form_maps,
                     reference_vertex_orbits, reference_vertex_links)


MODEL_STATS = {
    # (genus, punctures): (triangles, edges, vertices, chi, ideal)
    (0, 3): (2, 3, 3, -1, True),
    (0, 4): (4, 6, 4, -2, True),
    (0, 5): (6, 9, 5, -3, True),
    (1, 1): (2, 3, 1, -1, True),
    (1, 2): (4, 6, 2, -2, True),
    (2, 0): (6, 9, 1, -2, False),
    (2, 1): (6, 9, 1, -3, True),
    (3, 0): (10, 15, 1, -4, False),
}


@pytest.mark.parametrize("gh,stats", sorted(MODEL_STATS.items()))
def test_standard_model_shape(gh, stats):
    g, h = gh
    tri = build_surface(g, h)
    assert (tri.num_triangles, tri.num_edges, tri.num_vertices,
            tri.euler_characteristic, tri.ideal) == stats
    assert tri.genus == g
    assert tri.num_punctures == h
    assert tri.edge_labels == range(tri.num_edges)
    # one link per vertex, each a valid weight vector crossing each edge
    # once per endpoint at that vertex
    links = tri.vertex_links()
    assert len(links) == tri.num_vertices
    total = [sum(col) for col in zip(*links)]
    assert all(w == 2 for w in total)


@pytest.mark.parametrize("gh", [(0, 0), (0, 1), (0, 2), (1, 0)])
def test_nonhyperbolic_models_refused(gh):
    with pytest.raises(TopologyError):
        build_surface(*gh)


def test_flip_changes_complex_and_keeps_counts(s11):
    for lab in s11.edge_labels:
        if not s11.is_flippable(lab):
            continue
        out = flip(s11, lab)
        assert out.num_triangles == s11.num_triangles
        assert sorted(out.edge_labels) == sorted(s11.edge_labels)
        assert out.euler_characteristic == s11.euler_characteristic


def test_flip_square_relabeling_returns_home(s20):
    """Flipping the same label twice is the identity complex up to the
    recorded relabeling."""
    for lab in s20.edge_labels:
        if not s20.is_flippable(lab):
            continue
        twice = flip(flip(s20, lab), lab)
        rel = flip_square_relabeling(s20, lab)
        # the relabeling carries the double flip home
        assert rel.source == twice
        assert rel.target == s20
        assert inverse_relabeling(rel).source == s20


def test_unflippable_edges_exist_only_in_self_glued_triangles(s11):
    # on the two-triangle punctured torus every edge is flippable
    assert all(s11.is_flippable(lab) for lab in s11.edge_labels)


def test_canonical_form_is_relabel_invariant(s20):
    base = s20.canonical_form()
    for rel in automorphisms(s20):
        assert rel.target.canonical_form() == base


def test_isomorphism_between_equal_builds(s04):
    other = build_surface(0, 4)
    rel = next(isomorphisms(s04, other), None)
    assert rel is not None
    assert rel.source == s04 and rel.target == other


def test_isomorphism_rejects_different_models(s11, s04):
    assert next(isomorphisms(s11, s04), None) is None


def test_automorphism_group_contains_identity(s11):
    autos = automorphisms(s11)
    assert any(rel.is_edge_identity() for rel in autos)
    # composition stays in the group (spot check on a small group)
    pairs = [(f, g) for f in autos[:4] for g in autos[:4]]
    forms = {tuple(sorted(rel.edge_map.items())) for rel in autos}
    for f, g in pairs:
        assert tuple(sorted(compose_relabelings(f, g).edge_map.items())) \
            in forms


def test_triangulation_json_round_trip():
    for gh in MODEL_STATS:
        tri = build_surface(*gh)
        back = triangulation_from_json(triangulation_to_json(tri))
        assert back == tri
        # serialized form is stable
        assert triangulation_to_json(back) == triangulation_to_json(tri)


def test_json_rejects_tampered_labels(s11):
    doc = json.loads(triangulation_to_json(s11))
    doc["labels"] = [99, 98, 97]
    with pytest.raises(TopologyError):
        triangulation_from_json(json.dumps(doc))


# the gluing of the thrice-punctured sphere model, as its JSON lists it; the
# cases below change only the labels on its two triangles
SPHERE_PAIRS = [[[0, 0], [1, 0]], [[0, 1], [1, 2]], [[0, 2], [1, 1]]]


@pytest.mark.parametrize("triangles", [
    [(0, 1, 5), (0, 5, 1)],
    [(0, 1, 1), (0, 1, 1)],
    [(0, 1, "2"), (0, "2", 1)],
    [(0, 1, 2.0), (0, 2.0, 1)],
], ids=["sparse", "repeated", "string", "float"])
def test_labels_other_than_0_to_E_minus_1_are_refused(triangles):
    """An edge's label is its position in every weight vector, so the
    labels must be 0..E-1, each on one glued pair of slots."""
    message = r"^edge labels must be 0\.\.2, each on exactly two slots$"
    with pytest.raises(TopologyError, match=message):
        Triangulation(triangles, ideal=True)
    doc = {"ideal": True, "triangles": [list(t) for t in triangles],
           "gluing": SPHERE_PAIRS}
    if all(type(lab) is int for t in triangles for lab in t):
        with pytest.raises(TopologyError, match=message):
            triangulation_from_json(json.dumps(doc))


# -- flip geometry and isomorphism search against the references ---------------

LADDER = [build_surface(*gh)
          for gh in [(1, 1), (2, 0), (1, 2), (0, 5), (2, 1), (3, 0)]]

SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def flipped_models(draw, max_flips=10):
    """A ladder model after a random sequence of flips."""
    tri = draw(st.sampled_from(LADDER))
    for _ in range(draw(st.integers(0, max_flips))):
        labels = [lab for lab in tri.edge_labels
                  if reference_quad(tri, lab) is not None]
        tri = flip(tri, draw(st.sampled_from(labels)))
    return tri


def _slot_maps(relabelings):
    return [sorted(rel.slot_map.items()) for rel in relabelings]


def _flippable(tri):
    return [lab for lab in tri.edge_labels if tri.is_flippable(lab)]


@SETTINGS
@given(flipped_models())
def test_quad_matches_slot_arithmetic(tri):
    for lab in tri.edge_labels:
        ref = reference_quad(tri, lab)
        assert tri.quad(lab) == ref
        assert tri.is_flippable(lab) == (ref is not None)


def _sphere_json(gluing):
    return json.dumps({"ideal": True, "triangles": [[0, 1, 2], [0, 2, 1]],
                       "gluing": gluing})


def test_unglued_slots_are_refused():
    # the sphere model's JSON glued along edge 0 only: the other sides of
    # both triangles have no partner
    with pytest.raises(TopologyError,
                       match=r"^slot \(0, 1\) is unglued; every side must "
                             r"be glued$"):
        triangulation_from_json(_sphere_json([[[0, 0], [1, 0]]]))


@pytest.mark.parametrize("gluing,message", [
    ([[[0, 0], [1, 0]], [[0, 1], [1, 2]], [[0, 2], [2, 1]]],
     r"no slot \(2, 1\)"),
    ([[[0, 0], [1, 0]], [[0, 1], [0, 1]], [[0, 2], [1, 1]]],
     r"slot \(0, 1\) is glued to itself"),
    ([[[0, 0], [1, 0]], [[0, 1], [1, 2]], [[0, 1], [1, 2]]],
     r"slot \(0, 1\) is in two gluing pairs"),
    ([[[0, 0], [1, 0]], [[0, 1], [1, 1]], [[0, 2], [1, 2]]],
     r"glued slots \(0, 1\) and \(1, 1\) carry different edge labels"),
], ids=["unknown-slot", "self-glued", "slot-in-two-pairs", "two-labels"])
def test_a_json_gluing_other_than_the_labels_is_refused(gluing, message):
    """The gluing is derived from the labels; a JSON "gluing" that differs
    is refused with one line naming the first slot it gets wrong."""
    assert triangulation_from_json(_sphere_json(SPHERE_PAIRS)) == \
        build_surface(0, 3)
    with pytest.raises(TopologyError, match="^%s$" % message):
        triangulation_from_json(_sphere_json(gluing))


# sha256 of the JSON of every model with g <= 5 and n <= 6 and of each of its
# single flips, with each edge's quad, as the package wrote them when each
# builder and flip still stored a gluing of its own
MODEL_FLIP_DIGEST = \
    "85d4cfa4a04cba06219777e0517ba528ef567f78631b9e262bfbbe91cc9bdc60"


def test_model_and_flip_json_is_unchanged():
    h = hashlib.sha256()
    for g in range(6):
        for n in range(7):
            if 2 - 2 * g - n >= 0:
                continue
            tri = build_surface(g, n)
            h.update(triangulation_to_json(tri).encode())
            for lab in tri.edge_labels:
                quad = tri.quad(lab)
                h.update(repr(quad).encode())
                if quad is not None:
                    h.update(triangulation_to_json(flip(tri, lab)).encode())
    assert h.hexdigest() == MODEL_FLIP_DIGEST


@SETTINGS
@given(st.sampled_from(LADDER), st.data())
def test_derived_gluing_follows_the_slot_moves_of_each_flip(model, data):
    """The gluing a flipped host derives from its labels is the model's
    gluing (pinned by the digest above) with the quad's side slots moved
    through every flip, as the oracle carries it."""
    tri, glue = model, model._glue
    for _ in range(data.draw(st.integers(0, 10))):
        lab = data.draw(st.sampled_from(_flippable(tri)))
        glue = reference_flip_gluing(tri, glue, lab)
        tri = flip(tri, lab)
        assert tri._glue == glue


@pytest.mark.parametrize("slot", [(0, 3), (0, -1), (2, 0), (-1, 0)])
def test_slot_accessors_refuse_a_pair_outside_the_complex(s11, slot):
    with pytest.raises(TopologyError, match="no slot"):
        s11.glued(slot)


def test_quad_rejects_unknown_labels(s11):
    for lab in (3, -1, "a"):
        with pytest.raises(TopologyError, match="no edge labelled"):
            s11.quad(lab)
        with pytest.raises(TopologyError, match="no edge labelled"):
            flip(s11, lab)


def test_quad_is_none_on_a_self_folded_edge():
    # two flips on the twice-punctured torus fold edge 5 onto one triangle
    tri = flip(flip(build_surface(1, 2), 3), 4)
    assert tri.triangles[3] == (5, 5, 4)
    assert tri.quad(5) is None and reference_quad(tri, 5) is None
    with pytest.raises(TopologyError):
        flip(tri, 5)


@SETTINGS
@given(flipped_models())
def test_vertices_match_the_corner_by_corner_reference(tri):
    orbits = reference_vertex_orbits(tri)
    vertex_of = {c: k for k, orbit in enumerate(orbits) for c in orbit}
    assert tri._corner_vertex == tuple(
        vertex_of[divmod(c, 3)] for c in range(3 * tri.num_triangles))
    assert tri.vertex_links() == reference_vertex_links(tri)
    assert tri.num_vertices == len(orbits)


@SETTINGS
@given(flipped_models())
def test_automorphisms_match_reference_in_order(tri):
    assert _slot_maps(automorphisms(tri)) == \
        _slot_maps(reference_automorphisms(tri))


@SETTINGS
@given(flipped_models(), st.data())
def test_isomorphism_witness_matches_reference(tri, data):
    flipped = flip(tri, data.draw(st.sampled_from(_flippable(tri))))
    for src, dst in ((flipped, tri), (tri, flipped), (tri, tri)):
        got = next(isomorphisms(src, dst), None)
        ref = reference_isomorphism(src, dst)
        assert (got is None) == (ref is None)
        if got is not None:
            assert got.slot_map == ref.slot_map


@SETTINGS
@given(flipped_models(), st.data())
def test_isomorphisms_match_propagation_for_every_edge_map(tri, data):
    src = flip(tri, data.draw(st.sampled_from(_flippable(tri))))
    isos = list(isomorphisms(src, tri))
    assert set(isos) == set(reference_relabelings(src, tri))
    by_edge_map = {}
    for rel in isos:
        by_edge_map.setdefault(tuple(sorted(rel.edge_map.items())),
                               set()).add(rel)
    for edge_map, rels in by_edge_map.items():
        assert rels == set(reference_relabelings(src, tri, dict(edge_map)))


@pytest.mark.parametrize("tri", LADDER, ids=repr)
def test_twist_block_closes_with_the_least_swap_relabeling(tri):
    """At a weight-two curve the twist is one flip of the first crossed
    edge p and the least relabeling (by sorted slot map) that swaps p with
    the other crossed edge q: at the model's own weight-two curves and at
    the short positions its curves of weight <= 8 reach."""
    for vec in enumerate_single_curves(tri, 8):
        short = shorten(MulticurveCoords(tri, vec))[1]
        if short.total_weight != 2:
            continue
        host = short.host
        (mv_flip, mv_rel) = twist(short).moves
        p = mv_flip.label
        (q,) = [lab for lab, w in zip(host.edge_labels, short.weights)
                if w and lab != p]
        swap = {lab: lab for lab in host.edge_labels}
        swap[p], swap[q] = q, p
        refs = reference_relabelings(flip(host, p), host, swap)
        least = min(refs, key=lambda rel: sorted(rel.slot_map.items()))
        assert mv_rel.relabeling.slot_map == least.slot_map


# -- canonical forms against the full BFS of every root ---------------------

FORM_MODELS = LADDER + [build_surface(0, 4)]


@st.composite
def decorated_models(draw):
    """A model after up to 10 random flips, with edge weights 0..3 or
    none."""
    tri = draw(st.sampled_from(FORM_MODELS))
    for _ in range(draw(st.integers(0, 10))):
        tri = flip(tri, draw(st.sampled_from(_flippable(tri))))
    weights = draw(st.none() | st.fixed_dictionaries(
        {lab: st.integers(0, 3) for lab in tri.edge_labels}))
    return tri, weights


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(decorated_models())
def test_least_form_and_its_roots_match_the_full_bfs(case):
    """Advancing all roots together and dropping the losing ones finds the
    same least form and the slot maps of the same tied roots, in (t, r)
    order, as building every rooted form in full."""
    tri, weights = case
    table = None
    if weights is not None:
        table = [[weights[lab] for lab in t] for t in tri.triangles]
    form, maps = tri._min_form_maps(table)
    ref_form, ref_maps = reference_min_form_maps(tri, weights)
    assert form == ref_form
    assert [list(m.items()) for m in maps] == \
        [list(m.items()) for m in ref_maps]
    assert tri.canonical_form(weights) == (tri.ideal, ref_form)
