"""
Differential tests of the two curve-system questions against the filters
they replaced (tests/oracles.py): which enumerated curves lie in a piece of
a cut (the head of mapping._piece_curves), and whether a family is an
independent multicurve (check_independent, also behind
invariant_multicurve_search);
of the cut itself (pieces in order, the piece `place` finds for a curve)
against the tuple-keyed cut it replaced (reference_cut); and of the
one-trace crossing test of two single curves (curves._crossing) against
intersects.
"""

from itertools import takewhile

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from curvetwist import (MulticurveCoords, CurveSystem, Encoding,
                        InvalidCurveError, Relabel, SystemError_,
                        automorphisms, build_surface, check_independent,
                        cut_along, enumerate_single_curves, intersects,
                        invariant_multicurve_search, standard_curves, twist)
from curvetwist.curves import _crossing
from curvetwist.mapping import _piece_curves

from oracles import (reference_cell_of, reference_check_independent,
                     reference_curves_in_piece, reference_cut,
                     reference_disjoint,
                     reference_invariant_multicurve_search)


MODELS = [build_surface(*gh)
          for gh in ((1, 1), (2, 0), (1, 2), (0, 5), (2, 1), (3, 0), (0, 4))]

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _curves(tri, cap=6):
    return [MulticurveCoords(tri, v) for v in enumerate_single_curves(tri, cap)]


@st.composite
def systems(draw):
    """One enumerated curve, or two disjoint non-parallel ones, summed."""
    tri = draw(st.sampled_from(MODELS))
    curves = _curves(tri)
    first = draw(st.sampled_from(curves))
    partners = [c for c in curves if c != first
                and reference_disjoint(tri, [first, c])]
    parts = [first]
    if partners and draw(st.booleans()):
        parts.append(draw(st.sampled_from(partners)))
    return CurveSystem(tri, {str(i): c for i, c in enumerate(parts)})


def _piece_head(cut, tri, piece, cap):
    """The curves of weight <= cap in the piece: the head of its stream,
    or, in a piece with finitely many curves (chi >= 0, or a pair of pants
    without the vertex), whose stream is refused, the enumerated curves
    that `place` puts there."""
    p = cut.pieces[piece]
    if p.euler_characteristic >= 0 or p.is_pants and not p.contains_vertex:
        vecs = [v for v in enumerate_single_curves(tri, cap)
                if cut.place(v) == piece]
    else:
        vecs = takewhile(lambda v: sum(v) <= cap,
                         _piece_curves(tri, cut, piece))
    return [MulticurveCoords(tri, v) for v in vecs]


def test_a_piece_with_finitely_many_curves_is_refused_at_once(s11, s20):
    """A pair of pants without the vertex, or a piece with chi >= 0, holds
    finitely many curves, no two crossing: its stream is refused on the
    first read instead of enumerating for ever."""
    pants = cut_along(MulticurveCoords(s11, (0, 1, 1)))
    assert [p.is_pants for p in pants.pieces] == [True]
    with pytest.raises(SystemError_, match="^piece 0 is a pair of pants: "
                                           "no two of its curves cross$"):
        next(_piece_curves(s11, pants, 0))
    # two separating curves parallel across the vertex bound an annulus
    ring = cut_along(MulticurveCoords(s20, (2, 2, 2, 2, 0, 2, 2, 2, 2)))
    (annulus,) = [i for i, p in enumerate(ring.pieces)
                  if p.euler_characteristic == 0]
    with pytest.raises(SystemError_, match="^piece %d has chi 0: no two of "
                                           "its curves cross$" % annulus):
        next(_piece_curves(s20, ring, annulus))


@SETTINGS
@given(systems(), st.integers(4, 8))
def test_curves_in_piece_matches_the_reference_filter(system, cap):
    """The stream skips untraced the vectors meeting a non-isolating
    system curve; they lie in no piece, so its head is the reference
    filter's list exactly."""
    joint = system.joint_coords()
    cut = cut_along(joint)
    for piece in range(len(cut.pieces)):
        assert _piece_head(cut, joint.host, piece, cap) == \
            reference_curves_in_piece(joint, piece, cap)


@st.composite
def cut_systems(draw):
    """A multicurve to cut along: the sum of one to three enumerated curves
    (always realizable, though its components need not be the summands),
    sometimes moved by a random twist word."""
    tri = draw(st.sampled_from(MODELS))
    curves = _curves(tri)
    parts = draw(st.lists(st.sampled_from(curves), min_size=1, max_size=3))
    coords = MulticurveCoords(tri, map(sum, zip(*(c.weights for c in parts))))
    for _ in range(draw(st.integers(0, 2))):
        coords = twist(draw(st.sampled_from(curves)),
                       draw(st.sampled_from([-1, 1]))).act(coords)
    return coords


def _reference_place(coords, cell_piece, d):
    """The reference piece of the single curve d, or None where d meets
    the system or is parallel to one of its components."""
    try:
        return cell_piece[reference_cell_of(coords, d)]
    except InvalidCurveError as e:
        assert "not disjoint" in str(e) or "parallel" in str(e), e
        return None


def _assert_cut_matches_the_reference(coords, cap, located=40):
    """Pieces in order, the piece `place` finds for each of the first
    `located` enumerated curves (None where the reference names a fault),
    and every piece's candidates."""
    cut = cut_along(coords)
    pieces, cell_piece = reference_cut(coords)
    assert cut.pieces == pieces
    for d in _curves(coords.host, 8)[:located]:
        assert cut.place(d.weights) == _reference_place(coords, cell_piece, d)
    for piece in range(len(pieces)):
        assert _piece_head(cut, coords.host, piece, cap) == \
            reference_curves_in_piece(coords, piece, cap)


@SETTINGS
@given(cut_systems(), st.integers(4, 8))
# the cut along a multicurve of puncture links, which the stream skips in
# its intersection pre-filter
@example(MulticurveCoords(MODELS[2], (2, 2, 2, 1, 1, 1)), 4)
@example(MulticurveCoords(MODELS[6], (2, 2, 2, 1, 1, 1)), 4)
def test_cut_matches_the_tuple_keyed_reference(coords, cap):
    _assert_cut_matches_the_reference(coords, cap)


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10 ** 4))
@example(10 ** 4)
def test_cut_matches_the_reference_on_heavy_twists(n):
    """T_a^n(b) on S(1,1), one strand of about 2n arcs, cut into a pants;
    each curve located costs two arc-level traces of that weight."""
    named = standard_curves(MODELS[0])
    _assert_cut_matches_the_reference(twist(named["a"], n).act(named["b"]),
                                      4, located=6)


@st.composite
def families(draw):
    """Families mixing enumerated curves (so parallel and crossing pairs),
    vertex links, doubled curves and arbitrary, mostly unrealizable,
    vectors."""
    tri = draw(st.sampled_from(MODELS))
    pool = ([c.weights for c in _curves(tri, 4)] + list(tri.vertex_links())
            + [tuple(2 * x for x in c.weights) for c in _curves(tri, 2)])
    arbitrary = st.lists(st.integers(0, 3), min_size=tri.num_edges,
                         max_size=tri.num_edges).map(tuple)
    bound = 3 * tri.genus + tri.num_punctures - 3
    element = st.sampled_from(pool)
    if draw(st.booleans()):
        element = st.one_of(element, arbitrary)
    vectors = draw(st.lists(element, min_size=1, max_size=bound + 1))
    return CurveSystem(tri, {"c%d" % i: MulticurveCoords(tri, v)
                             for i, v in enumerate(vectors)})


@SETTINGS
@given(families())
def test_check_independent_matches_the_reference(system):
    rep = check_independent(system)
    assert (rep.ok, rep.problems) == reference_check_independent(system)


def test_check_independent_reference_covers_each_problem(s11, s20):
    """The strategy's kinds of fault, once each, on fixed families."""
    a, b = _curves(s11, 2)[:2]
    link = MulticurveCoords(s20, s20.vertex_links()[0])
    c = _curves(s20, 2)[0]
    doubled = MulticurveCoords(s20, [2 * x for x in c.weights])
    odd = MulticurveCoords(s20, [1] + [0] * (s20.num_edges - 1))
    # separating curves on either side of the vertex, parallel in S(2,0)
    sep = MulticurveCoords(s20, (0, 0, 2, 2, 0, 0, 0, 2, 2))
    sep2 = MulticurveCoords(s20, (2, 2, 0, 0, 0, 2, 2, 0, 0))
    for host, parts in ((s11, [a, b]), (s20, [c, c]), (s20, [link]),
                        (s20, [doubled]), (s20, [odd]), (s11, [a, a]),
                        (s20, [c, sep, sep2])):
        system = CurveSystem(host, {"c%d" % i: p for i, p in enumerate(parts)})
        rep = check_independent(system)
        assert not rep.ok
        assert (rep.ok, rep.problems) == reference_check_independent(system)
    assert check_independent(CurveSystem(s20, {"sep": sep, "sep2": sep2})
                             ).problems == (
        "'sep' and 'sep2' are parallel across the vertex",)


@st.composite
def words(draw):
    """A product of one to three twist powers about curves of weight <= 6
    on one model, sometimes followed by a symmetry of the model, whose
    orbits can be longer than one curve."""
    tri = draw(st.sampled_from(MODELS))
    curves = _curves(tri)
    enc = Encoding.identity(tri)
    for _ in range(draw(st.integers(1, 3))):
        enc = enc * twist(draw(st.sampled_from(curves)),
                          draw(st.sampled_from([-2, -1, 1, 2])))
    if draw(st.booleans()):
        symmetry = draw(st.sampled_from(automorphisms(tri)))
        enc = enc * Encoding(tri, [Relabel(symmetry)])
    return enc


@SETTINGS
@given(words(), st.integers(2, 6), st.data())
def test_invariant_multicurve_search_matches_the_reference(e, cap, data):
    seeds = data.draw(st.lists(st.sampled_from(_curves(e.source, 6)),
                               max_size=2))
    assert invariant_multicurve_search(e, weight_cap=cap, extra_seeds=seeds) \
        == reference_invariant_multicurve_search(e, weight_cap=cap,
                                                 extra_seeds=seeds)


def test_invariant_multicurve_search_matches_on_finite_orbits(ab, s20):
    """Orbits longer than one curve, which random words rarely reach: the
    model's curve-swapping symmetry after a twist about c permutes two
    disjoint curves; T_a T_b on the punctured torus permutes triples of
    crossing curves, so no orbit is an invariant multicurve."""
    swap = next(rel for rel in automorphisms(s20) if not rel.is_edge_identity())
    c = MulticurveCoords(s20, (0, 0, 1, 0, 0, 0, 0, 1, 0))
    g = twist(c, 1) * Encoding(s20, [Relabel(swap)])
    a, b = ab
    h = twist(a, 1) * twist(b, 1)
    for cap in (2, 4, 6):
        got = invariant_multicurve_search(g, weight_cap=cap)
        assert got is not None and got[1] == 2
        assert got == reference_invariant_multicurve_search(g, weight_cap=cap)
        assert invariant_multicurve_search(h, weight_cap=cap) is None
        assert reference_invariant_multicurve_search(h, weight_cap=cap) is None


@st.composite
def curve_pairs(draw):
    """Two curves of weight <= 8 on one model (the same curve, disjoint or
    crossing), both moved by one random twist word of up to three factors."""
    tri = draw(st.sampled_from(MODELS))
    curves = _curves(tri, 8)
    v, w = draw(st.sampled_from(curves)), draw(st.sampled_from(curves))
    enc = Encoding.identity(tri)
    for _ in range(draw(st.integers(0, 3))):
        enc = enc * twist(draw(st.sampled_from(_curves(tri))),
                          draw(st.sampled_from([-2, -1, 1, 2])))
    return enc.act(v), enc.act(w)


@SETTINGS
@given(curve_pairs())
def test_crossing_matches_intersects(pair):
    v, w = pair
    assert _crossing(v.host, v.weights, w.weights) == intersects(v, w)
    assert _crossing(v.host, w.weights, v.weights) == intersects(v, w)


def test_crossing_sees_both_answers(ab, s20):
    a, b = ab
    assert _crossing(a.host, a.weights, b.weights)
    assert not _crossing(a.host, a.weights, a.weights)
    c, d = (0, 0, 1, 0, 0, 0, 0, 1, 0), (1, 0, 0, 0, 0, 1, 0, 0, 0)
    assert not _crossing(s20, c, d)
    assert _crossing(s20, c, (0, 1, 0, 1, 2, 1, 1, 1, 1))
