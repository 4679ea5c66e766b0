"""
Compiled flip programs against full replay.

An encoding acts through a flip program compiled once from its move list;
composition, powers, inverses and twists join programs without replaying
any move.  Every test here draws random twist words and checks the joined
result against the references in oracles.py, which replay the move list
triangulation by triangulation: the move lists must be equal, and the
images of the spanning probes, and of their images under another random
word, must agree.  A last group checks that the unchecked triangulations
built by `flip` equal fully checked ones rebuilt from the same data.
"""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from curvetwist import (Triangulation, MulticurveCoords, Flip, build_surface,
                        flip, twist, parse_twist_word, format_twist_word,
                        spanning_probes, encoding_to_jsonable,
                        encoding_from_jsonable)
from oracles import (reference_encoding, reference_act,
                     reference_inverse_moves, reference_to_jsonable)


S11 = build_surface(1, 1)
S20 = build_surface(2, 0)
NAMED = {
    S11: {"a": (0, 1, 1), "b": (1, 0, 1)},
    # a pants system c, d, sep (sep separating, so its twist is built by
    # the chain relation) and a curve x filling with it
    S20: {"c": (0, 0, 1, 0, 0, 0, 0, 1, 0),
          "d": (1, 0, 0, 0, 0, 1, 0, 0, 0),
          "sep": (0, 0, 2, 2, 0, 0, 0, 2, 2),
          "x": (0, 1, 0, 1, 2, 1, 1, 1, 1)},
}
CURVES = {tri: {n: MulticurveCoords(tri, w) for n, w in named.items()}
          for tri, named in NAMED.items()}
LADDER = [(1, 1), (2, 0), (1, 2), (0, 5), (2, 1), (3, 0)]

SETTINGS = settings(max_examples=15, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

surfaces = st.sampled_from([S11, S20])
exponents = st.integers(1, 3).flatmap(
    lambda k: st.sampled_from([k, -k]))


def words(tri, max_len=4):
    names = sorted(NAMED[tri])
    return st.lists(st.tuples(st.sampled_from(names), exponents),
                    min_size=1, max_size=max_len)


@st.composite
def word_pairs(draw):
    """A surface, a word f and a word g on it, as (name, exponent) lists."""
    tri = draw(surfaces)
    return tri, draw(words(tri)), draw(words(tri, 3))


def build(tri, factors):
    return parse_twist_word(format_twist_word(factors), CURVES[tri])


def sample_points(tri, g):
    """The spanning probes and their images under g."""
    probes = [p.weights for p in spanning_probes(tri)]
    return probes + [g.act_on_weights(w) for w in probes]


def assert_same_action(tri, enc, moves, points):
    for w in points:
        assert enc.act_on_weights(w) == reference_act(tri, moves, w)


# -- group operations -------------------------------------------------------------

@SETTINGS
@given(word_pairs())
def test_word_is_the_concatenation_of_its_twists(case):
    tri, factors, other = case
    f = build(tri, factors)
    moves = ()
    for name, k in reversed(factors):
        moves += twist(CURVES[tri][name], k).moves
    assert f.moves == moves
    assert len(f) == len(moves)
    assert_same_action(tri, f, moves, sample_points(tri, build(tri, other)))


@SETTINGS
@given(word_pairs())
def test_compose_matches_replay(case):
    tri, factors, other = case
    f, g = build(tri, factors), build(tri, other)
    fg = f * g
    assert fg.moves == g.moves + f.moves
    assert len(fg) == len(fg.moves)
    ref = reference_encoding(tri, fg.moves)
    for w in sample_points(tri, g):
        assert fg.act_on_weights(w) == ref.act_on_weights(w) \
            == reference_act(tri, fg.moves, w)


@SETTINGS
@given(word_pairs(), st.integers(0, 5))
def test_power_matches_replay(case, k):
    tri, factors, other = case
    f = build(tri, factors)
    fk = f.power(k)
    assert fk.moves == f.moves * k
    assert len(fk) == len(f) * k
    assert_same_action(tri, fk, fk.moves,
                       sample_points(tri, build(tri, other)))


@SETTINGS
@given(word_pairs())
def test_inverse_matches_replay(case):
    tri, factors, other = case
    f = build(tri, factors)
    inv = f.inverse()
    # the length is known before the move list is built
    assert len(inv) == len(reference_inverse_moves(tri, f.moves))
    assert inv.moves == tuple(reference_inverse_moves(tri, f.moves))
    points = sample_points(tri, build(tri, other))
    assert_same_action(tri, inv, inv.moves, points)
    for w in points:
        assert inv.act_on_weights(f.act_on_weights(w)) == w


@SETTINGS
@given(word_pairs(), st.integers(-5, -1))
def test_negative_power_is_the_inverse_repeated(case, k):
    tri, factors, other = case
    f = build(tri, factors)
    fk = f.power(k)
    assert fk.moves == tuple(reference_inverse_moves(tri, f.moves)) * -k
    assert_same_action(tri, fk, fk.moves,
                       sample_points(tri, build(tri, other)))


@SETTINGS
@given(surfaces.flatmap(lambda tri: st.tuples(
    st.just(tri), st.sampled_from(sorted(NAMED[tri])), exponents)))
def test_twist_power_matches_replayed_unit_twists(case):
    tri, name, k = case
    c = CURVES[tri][name]
    unit = twist(c, 1 if k > 0 else -1)
    tk = twist(c, k)
    assert tk.act_on_weights(c.weights) == c.weights
    repeated = unit.moves * abs(k)
    assert_same_action(tri, tk, repeated, sample_points(tri, unit))
    # T^-1 acts as the replayed inverse of T
    if k < 0:
        back = reference_inverse_moves(tri, twist(c, 1).moves)
        assert_same_action(tri, unit, back, sample_points(tri, unit))


@SETTINGS
@given(word_pairs())
def test_json_round_trip_matches_replay(case):
    tri, factors, other = case
    f = build(tri, factors).inverse() * build(tri, other)
    doc = encoding_to_jsonable(f)
    assert doc == reference_to_jsonable(f.moves)
    back = encoding_from_jsonable(tri, json.loads(json.dumps(doc)))
    assert back.moves == f.moves
    assert len(back) == len(f)
    assert_same_action(tri, back, f.moves, sample_points(tri, f))


def test_long_words_build_their_move_lists():
    """Move lists of joined encodings are flat, however many joins."""
    factors = [("a", 1), ("b", -1)] * 800
    f = build(S11, factors)
    g = f.inverse().power(2) * f
    assert len(f.moves) == len(f)
    assert len(g.moves) == len(g) == 3 * len(f) + 2 * sum(
        isinstance(mv, Flip) for mv in f.moves)


# -- unchecked flips ---------------------------------------------------------------

def rebuilt(tri):
    gluing = {}
    for a, b in tri.gluing_pairs():
        gluing[a] = b
        gluing[b] = a
    return Triangulation(tri.triangles, gluing, tri.ideal)


def assert_flip_is_valid(tri, label):
    out = flip(tri, label)
    full = rebuilt(out)
    assert out == full and full == out
    assert hash(out) == hash(full)
    assert out.edge_labels == full.edge_labels
    assert out.edge_index == full.edge_index
    assert out.euler_characteristic == full.euler_characteristic
    assert out.vertex_orbits == full.vertex_orbits
    return out


def test_every_flip_of_every_ladder_model_is_valid():
    for gh in LADDER:
        tri = build_surface(*gh)
        for lab in tri.edge_labels:
            if tri.is_flippable(lab):
                assert_flip_is_valid(tri, lab)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(LADDER), st.lists(st.integers(0, 10 ** 6),
                                         min_size=1, max_size=30))
def test_random_flip_sequences_stay_valid(gh, picks):
    tri = build_surface(*gh)
    for pick in picks:
        labels = [lab for lab in tri.edge_labels if tri.is_flippable(lab)]
        tri = assert_flip_is_valid(tri, labels[pick % len(labels)])
        # every label keeps its place, so weights stay aligned
        assert tri.edge_labels == build_surface(*gh).edge_labels

