"""
Compiled flip programs against full replay.

An encoding stores one normal form, flips then one closing relabeling, as
a flip program; composition, powers, inverses and twists join programs
without replaying any move.  Every test here draws random twist words and
checks the joined result against the references in oracles.py, which
replay a move list triangulation by triangulation: `.moves` must equal the
reference normal form of the replayed list, the images of the spanning
probes, and of their images under another random word, must agree, and the
moves must rebuild the same encoding through the constructor and through
JSON.  A last group checks that the unchecked triangulations built by
`flip` equal fully checked ones rebuilt from the same data.
"""

import json
import os

from hypothesis import HealthCheck, given, settings, strategies as st

from curvetwist import (Triangulation, MulticurveCoords, Encoding, Flip,
                        Relabel, build_surface, flip, twist, parse_twist_word,
                        spanning_probes, automorphisms,
                        enumerate_single_curves, encoding_to_jsonable,
                        encoding_from_jsonable)
from oracles import (reference_encoding, reference_act,
                     reference_inverse_moves, reference_normal_form,
                     reference_to_jsonable)


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
    word = " * ".join("T(%s)^%d" % f for f in factors)
    return parse_twist_word(word, CURVES[tri])


def sample_points(tri, g):
    """The spanning probes and their images under g."""
    probes = [p.weights for p in spanning_probes(tri)]
    return probes + [g.act_on_weights(w) for w in probes]


def assert_same_action(tri, enc, moves, points):
    for w in points:
        assert enc.act_on_weights(w) == reference_act(tri, moves, w)


def assert_normal_form_of(tri, enc, replayed, points):
    """enc is the normal form of the move list `replayed`: its moves are
    the reference's, it acts like the replayed list, and its moves rebuild
    it through the constructor and through JSON."""
    assert enc.moves == reference_normal_form(tri, replayed)
    assert_same_action(tri, enc, replayed, points)
    assert_lossless(tri, enc, points)


def assert_lossless(tri, enc, points):
    """The moves count len(enc) and rebuild enc through the constructor
    and through JSON."""
    moves = enc.moves
    assert len(enc) == len(moves)
    for back in (Encoding(tri, moves), encoding_from_jsonable(
            tri, json.loads(json.dumps(encoding_to_jsonable(enc))))):
        assert back.moves == moves
        assert all(back.act_on_weights(w) == enc.act_on_weights(w)
                   for w in points)


# -- group operations -------------------------------------------------------------

@SETTINGS
@given(word_pairs())
def test_word_is_the_concatenation_of_its_twists(case):
    tri, factors, other = case
    f = build(tri, factors)
    moves = ()
    for name, k in reversed(factors):
        moves += twist(CURVES[tri][name], k).moves
    assert_normal_form_of(tri, f, moves, sample_points(tri, build(tri, other)))


@SETTINGS
@given(word_pairs())
def test_word_program_equals_the_left_fold_of_its_twists(case):
    tri, factors, _ = case
    fold = Encoding.identity(tri)
    for name, k in factors:
        fold = fold * twist(CURVES[tri][name], k)
    assert build(tri, factors)._program == fold._program


def test_long_word_joins_its_factors_once(monkeypatch):
    """A 3,200-factor word makes one _chain call besides its twists (whose
    encodings are looked up here), so parsing is linear in its length."""
    from curvetwist import mapping
    units = {(n, k): twist(CURVES[S11][n], k) for n in "ab" for k in (1, -1)}
    monkeypatch.setattr(mapping, "twist", lambda c, k: units[
        ("a" if c == CURVES[S11]["a"] else "b", k)])
    calls = []
    chain = mapping._chain

    def counted(programs):
        calls.append(len(programs))
        return chain(programs)

    monkeypatch.setattr(mapping, "_chain", counted)
    f = build(S11, [("a", 1), ("b", -1)] * 1600)
    assert calls == [3200]
    assert len(f._program[0]) == 1600 * (len(units["a", 1]._program[0])
                                         + len(units["b", -1]._program[0]))


@SETTINGS
@given(word_pairs())
def test_compose_matches_replay(case):
    tri, factors, other = case
    f, g = build(tri, factors), build(tri, other)
    fg = f * g
    assert_normal_form_of(tri, fg, g.moves + f.moves, sample_points(tri, g))
    ref = reference_encoding(tri, g.moves + f.moves)
    assert ref.moves == fg.moves


@SETTINGS
@given(word_pairs(), st.integers(0, 5))
def test_power_matches_replay(case, k):
    tri, factors, other = case
    f = build(tri, factors)
    fk = f.power(k)
    assert_normal_form_of(tri, fk, f.moves * k,
                          sample_points(tri, build(tri, other)))


@SETTINGS
@given(word_pairs())
def test_inverse_matches_replay(case):
    tri, factors, other = case
    f = build(tri, factors)
    inv = f.inverse()
    assert len(inv) == len(f)
    points = sample_points(tri, build(tri, other))
    assert_normal_form_of(tri, inv, reference_inverse_moves(tri, f.moves),
                          points)
    for w in points:
        assert inv.act_on_weights(f.act_on_weights(w)) == w
    assert inv.inverse().moves == f.moves


@SETTINGS
@given(word_pairs(), st.integers(-5, -1))
def test_negative_power_is_the_inverse_repeated(case, k):
    tri, factors, other = case
    f = build(tri, factors)
    fk = f.power(k)
    assert_normal_form_of(tri, fk, reference_inverse_moves(tri, f.moves) * -k,
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
    assert_lossless(tri, tk, sample_points(tri, unit))
    # T^-1 acts as the replayed inverse of T
    if k < 0:
        back = reference_inverse_moves(tri, twist(c, 1).moves)
        assert_same_action(tri, unit, back, sample_points(tri, unit))


@SETTINGS
@given(word_pairs())
def test_json_round_trip_matches_replay(case):
    tri, factors, other = case
    f, g = build(tri, factors), build(tri, other)
    fg = f.inverse() * g
    replayed = g.moves + tuple(reference_inverse_moves(tri, f.moves))
    doc = encoding_to_jsonable(fg)
    assert doc == reference_to_jsonable(reference_normal_form(tri, replayed))
    back = encoding_from_jsonable(tri, json.loads(json.dumps(doc)))
    assert back.moves == fg.moves
    assert len(back) == len(fg)
    assert_same_action(tri, back, replayed, sample_points(tri, fg))


def test_long_words_build_their_move_lists():
    """Normal forms of long joins: flips, then at most one relabeling."""
    factors = [("a", 1), ("b", -1)] * 800
    f = build(S11, factors)
    g = f.inverse().power(2) * f
    flips = len(f._program[0])
    assert len(f.moves) == len(f) == flips + 1
    assert len(f.inverse()) == len(f)
    assert len(g.moves) == len(g) == 3 * flips + 1
    replayed = f.moves + tuple(reference_inverse_moves(S11, f.moves)) * 2
    assert g.moves == reference_normal_form(S11, replayed)


def test_inverse_json_is_no_larger():
    """The inverse of e^40, e = T_a T_b^-1 on S(1,1), serializes to as many
    moves and bytes as e^40: flips, then one relabeling."""
    e40 = build(S11, [("a", 1), ("b", -1)]).power(40)
    docs = [json.dumps(encoding_to_jsonable(x))
            for x in (e40, e40.inverse())]
    assert len(e40) == len(e40.inverse()) == 81
    assert len(docs[1]) <= len(docs[0])


def test_an_edge_fixing_relabeling_is_kept():
    """The hyperelliptic involution of S(1,1) fixes every edge, so only the
    closing slot map tells it from the identity."""
    (hyper,) = [rl for rl in automorphisms(S11)
                if rl.is_edge_identity() and any(
                    s != img for s, img in rl.slot_map.items())]
    enc = Encoding(S11, [Relabel(hyper)])
    assert enc.moves == (Relabel(hyper),) and len(enc) == 1
    assert all(enc.act_on_weights(w) == w
               for w in sample_points(S11, enc))
    back = encoding_from_jsonable(S11, encoding_to_jsonable(enc))
    assert back.moves == enc.moves
    assert len(enc * enc) == len(enc.power(-2)) == 0
    a = twist(CURVES[S11]["a"])
    assert (enc * a).moves == reference_normal_form(
        S11, a.moves + enc.moves)


def random_flips(tri, picks):
    moves = []
    for pick in picks:
        labels = [lab for lab in tri.edge_labels if tri.is_flippable(lab)]
        moves.append(Flip(labels[pick % len(labels)]))
        tri = flip(tri, moves[-1].label)
    return moves


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(LADDER), st.lists(st.integers(0, 10 ** 6),
                                         max_size=8),
       st.lists(st.integers(0, 10 ** 6), max_size=8), st.integers(0, 10 ** 6))
def test_random_loops_reduce_to_the_normal_form(gh, first, then, pick):
    """Loops with relabelings anywhere: flips, the replayed way back, a
    symmetry of the model, more flips and their way back."""
    tri = build_surface(*gh)
    autos = automorphisms(tri)
    out, more = random_flips(tri, first), random_flips(tri, then)
    loop = (out + reference_inverse_moves(tri, out)
            + [Relabel(autos[pick % len(autos)])]
            + more + reference_inverse_moves(tri, more))
    enc = Encoding(tri, loop)
    points = list(enumerate_single_curves(tri, 4))
    assert_normal_form_of(tri, enc, loop, points)
    assert_normal_form_of(tri, enc.inverse(),
                          reference_inverse_moves(tri, loop), points)
    assert len(enc.inverse()) == len(enc)


DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def test_per_flip_relabeling_documents_still_load():
    """g = T(a) * T(b)^-1 as `map compose g` wrote it before the normal
    form: a relabeling after every flip of each inverse twist."""
    with open(os.path.join(DATA, "torus_g_per_flip_relabels.json")) as fh:
        doc = json.load(fh)
    assert len(doc["moves"]) == 5
    old = encoding_from_jsonable(S11, doc)
    g = build(S11, [("a", 1), ("b", -1)])
    assert old.moves == g.moves and len(old) == len(g) == 3
    for w in sample_points(S11, g):
        assert old.act_on_weights(w) == g.act_on_weights(w)


# -- unchecked flips ---------------------------------------------------------------

def rebuilt(tri):
    return Triangulation(tri.triangles, tri.ideal)


def assert_flip_is_valid(tri, label):
    out = flip(tri, label)
    full = rebuilt(out)
    assert out == full and full == out
    assert hash(out) == hash(full)
    assert out.edge_labels == full.edge_labels
    assert out.euler_characteristic == full.euler_characteristic
    assert out.vertex_links() == full.vertex_links()
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

