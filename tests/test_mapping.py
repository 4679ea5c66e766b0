"""
Flip-sequence mapping classes and exact Dehn twists.

Frozen handedness values.  With a = (0,1,1) and b = (1,0,1) on the
punctured-torus model, the repo-wide twist direction is pinned by

    T_a(b) = (1, 1, 2)      T_b(a) = (1, 1, 0)

and every other twist inherits its direction from the same catalogue block,
so these two lines freeze the global convention.  The growth sequence of
(T_a T_b^{-1})^n applied to b is frozen below; its ratios approach
(3 + sqrt 5)/2, the square of the golden ratio, which is the dilatation of
the standard two-twist pseudo-Anosov pair.
"""

import json
import re

import pytest
from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)

from curvetwist import (EncodingError, InvalidCurveError, MulticurveCoords,
                        Encoding, Flip, Relabel, replay, intersects,
                        spanning_probes, shorten, twist,
                        parse_twist_word, encoding_to_jsonable,
                        encoding_from_jsonable, enumerate_single_curves,
                        is_single_curve, cut_along, automorphisms,
                        Triangulation, build_surface)
from curvetwist.mapping import (_intersection, _at_isolating_minimum,
                                _isolating_block, _plateau_escape)
from oracles import (agree_on, reference_disjoint, reference_inverse_moves,
                     reference_greedy_shorten, reference_intersection,
                     reference_isolating_chain, reference_shorten,
                     reference_spanning_probes)


GOLDEN_TA_OF_B = (1, 1, 2)
GOLDEN_TB_OF_A = (1, 1, 0)
GOLDEN_GROWTH = [4, 10, 26, 68, 178, 466, 1220, 3194]


@pytest.fixture(scope="module")
def ta(ab):
    return twist(ab[0], 1)


@pytest.fixture(scope="module")
def tb(ab):
    return twist(ab[1], 1)


# -- the frozen handedness file ------------------------------------------------

def test_golden_handedness(ab, ta, tb):
    a, b = ab
    assert ta.act(b).weights == GOLDEN_TA_OF_B
    assert tb.act(a).weights == GOLDEN_TB_OF_A


def test_golden_growth_sequence(ab, ta, tb):
    _, b = ab
    g = ta * tb.inverse()
    c = b
    got = []
    for _ in range(len(GOLDEN_GROWTH)):
        c = g.act(c)
        got.append(c.total_weight)
    assert got == GOLDEN_GROWTH


# -- twist algebra ---------------------------------------------------------------

def test_twist_fixes_its_own_curve(s11, s20):
    vectors = {
        s11: [(0, 1, 1), (1, 1, 2)],
        s20: [(0, 0, 1, 0, 0, 0, 0, 1, 0),
              (0, 0, 2, 2, 0, 0, 0, 2, 2)],   # includes a separating curve
    }
    for tri, vecs in vectors.items():
        for vec in vecs:
            c = MulticurveCoords(tri, vec)
            assert twist(c, 1).act(c).weights == c.weights
            assert twist(c, -1).act(c).weights == c.weights


def test_twist_power_matches_repetition(ab):
    a, b = ab
    probes = spanning_probes(a.host)
    assert agree_on(twist(a, 3), twist(a, 1) * twist(a, 1) * twist(a, 1),
                    probes)
    assert agree_on(twist(a, -2), (twist(a, 1) * twist(a, 1)).inverse(),
                    probes)


def test_twist_inverse_cancels(ab):
    a, _ = ab
    probes = spanning_probes(a.host)
    ident = Encoding.identity(a.host)
    assert agree_on(twist(a, 1) * twist(a, -1), ident, probes)


def test_twist_zero_is_identity(ab):
    a, _ = ab
    assert len(twist(a, 0)) == 0


def test_twist_requires_essential_curve(s20):
    link = MulticurveCoords(s20, s20.vertex_links()[0])
    with pytest.raises(InvalidCurveError):
        twist(link, 1)


def test_disjoint_twists_commute(s20):
    c = MulticurveCoords(s20, (0, 0, 1, 0, 0, 0, 0, 1, 0))
    d = MulticurveCoords(s20, (1, 0, 0, 0, 0, 1, 0, 0, 0))
    assert not intersects(c, d)
    probes = spanning_probes(s20)
    assert agree_on(twist(c, 1) * twist(d, 1), twist(d, 1) * twist(c, 1),
                    probes)


def test_braid_relation_for_once_crossing_pair(ab, ta, tb):
    a, b = ab
    assert intersects(a, b)
    probes = spanning_probes(a.host)
    assert agree_on(ta * tb * ta, tb * ta * tb, probes)


def test_two_twist_composite_has_order_three_on_curves(ab, ta, tb):
    """T_a T_b acts on curves through the modular group; its matrix is
    elliptic of order six and the quotient by the hyperelliptic sign gives
    order three on unoriented curves."""
    probes = spanning_probes(ab[0].host)
    g = ta * tb
    ident = Encoding.identity(ab[0].host)
    assert not agree_on(g, ident, probes)
    g2 = g * g
    assert not agree_on(g2, ident, probes)
    assert agree_on(g2 * g, ident, probes)


def test_twist_direction_is_conjugation_equivariant(ab, ta, tb):
    """h T_c h^{-1} = T_{h(c)} with the same handedness: the catalogue
    direction is not an artifact of the position of the curve."""
    a, b = ab
    probes = spanning_probes(a.host)
    lhs = tb * ta * tb.inverse()
    rhs = twist(tb.act(a), 1)
    assert agree_on(lhs, rhs, probes)


# -- shortening ----------------------------------------------------------------

def test_shorten_reaches_weight_two_for_nonisolating(s11, s20):
    for tri, cap in ((s11, 6), (s20, 4)):
        for vec in enumerate_single_curves(tri, cap):
            c = MulticurveCoords(tri, vec)
            moves, short = shorten(c)
            assert short.total_weight == 2
            # replaying the moves transports the curve to its short position
            path = replay(tri, moves)
            assert path[-1] == short.host


def test_greedy_shortening_reads_each_quad_once(s11, monkeypatch):
    """Each greedy step reads the quad of every edge once and flips with
    the quad it read: 3 reads per flip on S(1,1)."""
    c = MulticurveCoords(s11, (1, 200, 201))
    want = reference_greedy_shorten(c)
    reads = []
    quad = Triangulation.quad

    def counted(tri, label):
        reads.append(label)
        return quad(tri, label)

    monkeypatch.setattr(Triangulation, "quad", counted)
    moves, short = shorten(c)
    assert len(moves) == 200 and len(reads) <= 600
    assert (list(moves), short) == want


def test_plateau_search_reads_each_quad_once_per_state(s20, monkeypatch):
    """A plateau state's greedy scan also lists its level flips, so no
    quad is read twice: T_x^3(sep) on S(2,0) shortens with 279 reads (396
    when the level flips were a second scan of 117 reads)."""
    sep = MulticurveCoords(s20, (0, 0, 2, 2, 0, 0, 0, 2, 2))
    x = MulticurveCoords(s20, (0, 1, 0, 1, 2, 1, 1, 1, 1))
    c = twist(x, 3).act(sep)
    reads = []
    quad = Triangulation.quad

    def counted(tri, label):
        reads.append(label)
        return quad(tri, label)

    monkeypatch.setattr(Triangulation, "quad", counted)
    shorten(c)
    assert c.total_weight == 54 and len(reads) <= 279


def test_shorten_is_stationary_on_short_curves(ab):
    a, _ = ab
    moves, short = shorten(a)
    assert list(moves) == []
    assert short.weights == a.weights


def test_isolating_curve_stalls_above_weight_two(s20):
    sep = MulticurveCoords(s20, (0, 0, 2, 2, 0, 0, 0, 2, 2))
    moves, short = shorten(sep)
    assert short.total_weight > 2
    # every edge weight stays even: the curve bounds on both sides
    assert all(w % 2 == 0 for w in short.weights)


def test_isolating_twist_inverse_cancels(s20):
    sep = MulticurveCoords(s20, (0, 0, 2, 2, 0, 0, 0, 2, 2))
    probes = spanning_probes(s20)
    assert agree_on(twist(sep, 1) * twist(sep, -1),
                    Encoding.identity(s20), probes)


# -- probes ---------------------------------------------------------------------

def test_spanning_probes_are_essential_singles(s11, s20):
    for tri, expected in ((s11, 6), (s20, 26)):
        probes = spanning_probes(tri)
        assert len(probes) == expected
        for p in probes:
            assert is_single_curve(p)


def test_probes_separate_known_distinct_maps(ab, ta, tb):
    probes = spanning_probes(ab[0].host)
    assert not agree_on(ta, tb, probes)


# -- encodings ------------------------------------------------------------------

def test_encoding_composition_acts_as_sequencing(ab, ta, tb):
    a, b = ab
    assert (ta * tb).act(a).weights == ta.act(tb.act(a)).weights


def test_encoding_power_and_inverse(ab, ta):
    a, _ = ab
    probes = spanning_probes(a.host)
    assert agree_on(ta.power(3), ta * ta * ta, probes)
    assert agree_on(ta.power(-2), (ta * ta).inverse(), probes)
    assert agree_on(ta.power(0), Encoding.identity(a.host), probes)


def test_invert_moves_round_trip(ab, ta):
    a, _ = ab
    host = a.host
    back = reference_inverse_moves(host, ta.moves)
    path = replay(host, list(ta.moves) + list(back))
    assert path[-1] == host
    enc = Encoding(host, list(ta.moves) + list(back))
    assert agree_on(enc, Encoding.identity(host), spanning_probes(host))


def test_encoding_rejects_open_paths(s11):
    with pytest.raises(EncodingError):
        Encoding(s11, [Flip(0)])


def test_relabel_moves_validate_their_source(s11, s20):
    rel = automorphisms(s20)[0]
    with pytest.raises(EncodingError):
        Encoding(s11, [Relabel(rel)])


def test_encoding_json_round_trip(ab, ta, tb):
    a, _ = ab
    host = a.host
    f = ta * tb.inverse() * ta
    doc = encoding_to_jsonable(f)
    text = json.dumps(doc, sort_keys=True)
    g = encoding_from_jsonable(host, json.loads(text))
    assert agree_on(f, g, spanning_probes(host))
    # serialization is stable under a round trip
    assert json.dumps(encoding_to_jsonable(g), sort_keys=True) == text


# -- twist words -----------------------------------------------------------------

def test_parse_and_format_words(ab, ta, tb):
    a, b = ab
    curves = {"a": a, "b": b}
    probes = spanning_probes(a.host)
    f = parse_twist_word("T(a)^2 * T(b)^-1", curves)
    assert agree_on(f, ta * ta * tb.inverse(), probes)
    bare = parse_twist_word("a b^-1", curves)
    assert agree_on(bare, ta * tb.inverse(), probes)


def test_word_composition_order(ab, ta, tb):
    """The leftmost factor is applied last."""
    a, b = ab
    curves = {"a": a, "b": b}
    f = parse_twist_word("T(a) * T(b)", curves)
    assert f.act(a).weights == ta.act(tb.act(a)).weights


def test_parse_rejects_unknown_names_and_bad_exponents(ab):
    a, b = ab
    curves = {"a": a, "b": b}
    with pytest.raises(EncodingError):
        parse_twist_word("T(zz)", curves)
    with pytest.raises(EncodingError):
        parse_twist_word("T(a)^x", curves)


@pytest.mark.parametrize("word", [7, ["T(a)"], None])
def test_parse_rejects_a_word_that_is_not_a_string(ab, word):
    a, b = ab
    with pytest.raises(EncodingError, match="twist word %s is not a string"
                       % re.escape(repr(word))):
        parse_twist_word(word, {"a": a, "b": b})


def test_empty_word_is_identity(ab):
    a, b = ab
    f = parse_twist_word("", {"a": a, "b": b})
    assert len(f) == 0


# -- cut interaction -------------------------------------------------------------

def test_twisted_curves_keep_cut_statistics(s20):
    """A homeomorphism preserves the topology of the complement."""
    c = MulticurveCoords(s20, (0, 0, 1, 0, 0, 0, 0, 1, 0))
    x = MulticurveCoords(s20, (0, 1, 0, 1, 2, 1, 1, 1, 1))
    image = twist(x, 1).act(c)
    before = sorted((p.euler_characteristic, p.boundary_circles)
                    for p in cut_along(c).pieces)
    after = sorted((p.euler_characteristic, p.boundary_circles)
                   for p in cut_along(image).pieces)
    assert before == after


# -- intersection numbers at the short position -------------------------------

LADDER = [build_surface(*gh)
          for gh in ((1, 1), (2, 0), (1, 2), (0, 5), (2, 1), (3, 0))]
S20 = LADDER[1]


# a separating curve of S(3,0) whose vertex-free side has genus 2, so that
# its twist is (T_{c_1} ... T_{c_4})^10
GENUS_TWO_SIDE = MulticurveCoords(LADDER[5], (0, 0, 2, 2, 2, 2, 2, 0, 0,
                                              0, 2, 2, 2, 2, 2))


def _isolating(c):
    return any(not p.contains_puncture_or_vertex for p in cut_along(c).pieces)


@st.composite
def moved_isolating_curves(draw):
    """An isolating curve of weight <= 8 on S(2,0), S(3,0) or S(2,1), moved
    by up to two twist powers about curves of weight <= 6."""
    tri = draw(st.sampled_from([LADDER[1], LADDER[5], LADDER[4]]))
    curves = [MulticurveCoords(tri, v)
              for v in enumerate_single_curves(tri, 8)]
    c = draw(st.sampled_from([c for c in curves if _isolating(c)]))
    twisters = [t for t in curves if t.total_weight <= 6]
    for _ in range(draw(st.integers(0, 2))):
        c = twist(draw(st.sampled_from(twisters)),
                  draw(st.sampled_from([-2, -1, 1, 2]))).act(c)
    return c


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(moved_isolating_curves())
@example(MulticurveCoords(S20, (0, 0, 2, 2, 0, 0, 0, 2, 2)))
@example(GENUS_TWO_SIDE)
def test_isolating_twist_fixes_exactly_the_disjoint_probes(c):
    """T_c fixes c, and fixes a curve p iff i(c, p) = 0 (Farb-Margalit,
    Prop. 3.2), on the probes and disjointness of the references."""
    t = twist(c, 1)
    assert t.act(c) == c
    for p in reference_spanning_probes(c.host):
        assert (t.act(p) == p) == reference_disjoint(c.host, [c, p])


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(moved_isolating_curves())
@example(MulticurveCoords(S20, (0, 0, 2, 2, 0, 0, 0, 2, 2)))
@example(GENUS_TWO_SIDE)
def test_isolating_block_is_the_chain_relation_of_the_reference_chain(c):
    """The lazy chain search finds the chain of the eager reference search,
    so the block is (T_{c_1} ... T_{c_2h})^(4h+2) over that chain, move for
    move."""
    short = shorten(c)[1]
    chain = reference_isolating_chain(short)
    prod = Encoding.identity(short.host)
    for d in chain:
        prod = prod * twist(d, 1)
    assert encoding_to_jsonable(_isolating_block(short)) == \
        encoding_to_jsonable(prod.power(2 * len(chain) + 2))


@st.composite
def curve_pairs(draw):
    """(s, b) on a ladder model: curves of weight <= 8, each moved by its
    own word of up to two twist powers about curves of weight <= 6, so
    that s reaches weight 30 or so and b more; an isolating s stays put."""
    tri = draw(st.sampled_from(LADDER))
    curves = [MulticurveCoords(tri, v)
              for v in enumerate_single_curves(tri, 8)]
    twisters = [c for c in curves if c.total_weight <= 6]
    s, b = draw(st.sampled_from(curves)), draw(st.sampled_from(curves))
    moved = []
    for c in (s, b):
        if not (c is s and _isolating(s)):
            for _ in range(draw(st.integers(0, 2))):
                c = twist(draw(st.sampled_from(twisters)),
                          draw(st.sampled_from([-2, -1, 1, 2]))).act(c)
        moved.append(c)
    return tuple(moved)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(curve_pairs())
# s crosses p and q of its annulus once each and sep is disjoint from it,
# where min(b_r1, b_r2) is 2
@example((MulticurveCoords(S20, (0, 0, 1, 0, 0, 0, 0, 1, 0)),
          MulticurveCoords(S20, (0, 0, 2, 2, 0, 0, 0, 2, 2))))
def test_intersection_matches_the_twist_growth(pair):
    s, b = pair
    i = _intersection(s.host, s.weights, b.weights)
    if _isolating(s):
        assert i is None
    else:
        assert i == reference_intersection(s, b)


def test_intersection_of_disjoint_curves_is_zero(s20):
    s = (0, 0, 1, 0, 0, 0, 0, 1, 0)
    sep = (0, 0, 2, 2, 0, 0, 0, 2, 2)
    assert _intersection(s20, s, sep) == _intersection(s20, s, s) == 0
    assert _intersection(s20, sep, s) is None


# -- the certificate of an isolating minimum ----------------------------------

S30 = LADDER[5]
# greedy flips stall on this isolating S(3,0) curve at weight 10, above
# the certificate's 3H + 2; the plateau search goes on to weight 8
STALLS_ABOVE = MulticurveCoords(S30, (0, 0, 0, 0, 2, 2, 0, 0, 0, 0, 0, 0,
                                      2, 2, 2))


def _odd_triangles(c):
    """H: the triangles whose corner-arc counts are odd."""
    w = c.weights
    return sum((w[x] + w[y] - w[z]) // 2 % 2 for x, y, z in c.host.triangles)


@st.composite
def shortening_inputs(draw):
    """A curve of weight <= 8 on a ladder model, isolating or not, moved by
    up to three twist powers about curves of weight <= 6, at weight <= 300
    in all."""
    tri = draw(st.sampled_from(LADDER))
    curves = [MulticurveCoords(tri, v)
              for v in enumerate_single_curves(tri, 8)]
    isolating = [c for c in curves if _isolating(c)]
    twisters = [c for c in curves if c.total_weight <= 6]
    pool = isolating if isolating and draw(st.booleans()) else curves
    c = draw(st.sampled_from(pool))
    for _ in range(draw(st.integers(0, 3))):
        c = twist(draw(st.sampled_from(twisters)),
                  draw(st.sampled_from([-2, -1, 1, 2]))).act(c)
    assume(c.total_weight <= 300)
    return c


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(shortening_inputs())
@example(STALLS_ABOVE)
@example(MulticurveCoords(S20, (0, 0, 2, 2, 0, 0, 0, 2, 2)))
def test_shorten_matches_the_exhaustive_plateau_search(c):
    moves, short = shorten(c)
    want_moves, want_short = reference_shorten(c)
    assert list(moves) == want_moves
    assert short == want_short


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(shortening_inputs().filter(_isolating))
@example(STALLS_ABOVE)
def test_a_certified_stall_has_no_way_down(c):
    """Where shorten stops on the certificate, the exhaustive plateau
    search finds no way down, and w = 3H + 2 = 12h - 4 with h the genus of
    the cut's vertex-free piece."""
    _, short = shorten(c)
    assert _at_isolating_minimum(short)
    assert _plateau_escape(short) is None
    (piece,) = [p for p in cut_along(short).pieces
                if not p.contains_puncture_or_vertex]
    h = (1 - piece.euler_characteristic) // 2
    assert short.total_weight == 3 * _odd_triangles(short) + 2 == 12 * h - 4


def test_an_isolating_stall_above_the_certificate_searches_on():
    _, stall = reference_greedy_shorten(STALLS_ABOVE)
    assert stall.total_weight == 10 > 3 * _odd_triangles(stall) + 2
    assert not _at_isolating_minimum(stall)
    assert _plateau_escape(stall) is not None
    moves, short = shorten(STALLS_ABOVE)
    assert short.total_weight == 8 and _at_isolating_minimum(short)


def test_the_certificate_needs_even_weights(s20):
    """This curve crosses edges an odd number of times, so it is not
    isolating; halving its odd corner sums downwards would count H = 2 and
    meet w = 3H + 2 = 8."""
    d = MulticurveCoords(s20, (1, 1, 1, 1, 2, 0, 1, 0, 1))
    assert d.total_weight == 3 * _odd_triangles(d) + 2
    assert not _at_isolating_minimum(d)
