"""
Completion, twist families, and the exponent sweep.

The flagship fixture: one curve a on the punctured torus with the
prescribed action f = T_b.  With the frozen handedness the candidate
g(k) = T_b T_a^k acts on homology with trace 2 - k, so k = 1..3 are
periodic, k = 4 is reducible, and k = 5 is the first pseudo-Anosov power,
with dilatation (3 + sqrt 5)/2.  The sweep must report exactly that trail.
"""

import random
import sys
import time
from fractions import Fraction

import pytest

from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from curvetwist import (MulticurveCoords, CurveSystem, Encoding, twist,
                        spanning_probes, decimal_string,
                        standard_curves, check_maximal, build_gamma,
                        find_orbit, maximalize,
                        SearchSchedule, Refused, Accepted, Exhausted,
                        search_twist_family, ClassifyParams,
                        PseudoAnosovEvidence, build_surface,
                        enumerate_single_curves, intersects, cut_along,
                        check_independent, SystemError_)
from curvetwist.construct import (_completion_pair, _exponent_vectors,
                                  _realize, _result_jsonable)

from oracles import (agree_on, reference_completion_pair,
                     reference_curves_in_piece, reference_lightest_pair,
                     spectral_radius)


# -- families -------------------------------------------------------------------

def test_realized_family_agrees_with_prescribed_action(s20):
    """The twists fix the system curves, so f's action survives exactly."""
    c = MulticurveCoords(s20, (0, 0, 1, 0, 0, 0, 0, 1, 0))
    d = MulticurveCoords(s20, (1, 0, 0, 0, 0, 1, 0, 0, 0))
    sep = MulticurveCoords(s20, (0, 0, 2, 2, 0, 0, 0, 2, 2))
    x = MulticurveCoords(s20, (0, 1, 0, 1, 2, 1, 1, 1, 1))
    f = twist(x, 1)
    curves = (("c", c), ("d", d), ("e", sep))
    rng = random.Random(7)
    for _ in range(100):
        ks = tuple(rng.randint(-3, 3) for _ in curves)
        g = _realize(f, curves, ks)
        for _, cc in curves:
            assert g.act(cc).weights == f.act(cc).weights


def test_zero_exponents_reproduce_f_everywhere(ab):
    a, _ = ab
    f = twist(ab[1], 1)
    g = _realize(f, (("a", a),), (0,))
    assert agree_on(f, g, spanning_probes(a.host))


# -- maximalize -------------------------------------------------------------------

def check_completion(tri, comps, f, expected_size):
    sys_ = CurveSystem(tri, comps)
    t0 = time.monotonic()
    full, fp = maximalize(sys_, f)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    assert len(full) == expected_size
    assert check_maximal(full)
    for name, c in comps.items():
        assert fp.act(c).weights == f.act(c).weights
    assert find_orbit(build_gamma(full)) is None
    return full, fp


def test_maximalize_punctured_torus_from_empty(s11, ab):
    check_completion(s11, {}, twist(ab[1], 1), 1)


def test_maximalize_genus_two_single_curve(s20):
    c = MulticurveCoords(s20, (0, 0, 1, 0, 0, 0, 0, 1, 0))
    x = MulticurveCoords(s20, (0, 1, 0, 1, 2, 1, 1, 1, 1))
    full, _ = check_completion(s20, {"c": c}, twist(x, 1), 3)
    # frozen completion: the standard disjoint partner and the separating
    # curve of the pants decomposition
    assert full.components["d1"].weights == (1, 0, 0, 0, 0, 1, 0, 0, 0)
    assert full.components["d2"].weights == (0, 0, 2, 2, 0, 0, 0, 2, 2)


def test_maximalize_genus_two_other_seed(s20):
    d = MulticurveCoords(s20, (1, 0, 0, 0, 0, 1, 0, 0, 0))
    y = MulticurveCoords(s20, (0, 1, 0, 0, 0, 1, 1, 0, 0))
    check_completion(s20, {"d": d}, twist(y, 1), 3)


def test_maximalize_genus_two_from_empty(s20):
    x = MulticurveCoords(s20, (0, 1, 0, 1, 2, 1, 1, 1, 1))
    check_completion(s20, {}, twist(x, 1), 3)


def test_maximalize_twice_punctured_torus(s12):
    named = standard_curves(s12)
    c0 = named["c0"]
    cross = named["c1"]
    full, _ = check_completion(s12, {"c0": c0}, twist(cross, 1), 2)
    assert full.components["d1"].weights == (0, 1, 1, 1, 0, 1)


def test_maximalize_four_punctured_sphere_from_empty(s04):
    named = standard_curves(s04)
    check_completion(s04, {}, twist(named["c0"], 1), 1)


LADDER = [build_surface(*gh)
          for gh in ((1, 1), (2, 0), (1, 2), (0, 5), (2, 1), (3, 0))]


@st.composite
def partial_systems(draw):
    """Independent systems on a ladder model: from a random list of curves
    of weight <= 6 (<= 8 on S(2,0) and S(2,1)), each one that keeps the
    system independent is kept; sometimes all are moved by one twist about
    a curve of weight <= 6."""
    tri = draw(st.sampled_from(LADDER))
    curves = [MulticurveCoords(tri, v)
              for v in enumerate_single_curves(tri, 6)]
    # the separating curves of genus two weigh 8, and a cut along one
    # leaves two pieces that are not pants; on S(2,0) two of them can be
    # parallel across the vertex, which check_independent refuses
    pool = curves if (tri.genus, tri.num_punctures) not in (
        (2, 0), (2, 1)) else [
        MulticurveCoords(tri, v) for v in enumerate_single_curves(tri, 8)]
    kept = []
    for c in draw(st.lists(st.sampled_from(pool), max_size=4)):
        if check_independent(CurveSystem(tri, {"c%d" % i: x for i, x in
                                               enumerate(kept + [c])})):
            kept.append(c)
    if draw(st.booleans()):
        t = twist(draw(st.sampled_from(curves)),
                  draw(st.sampled_from([-1, 1])))
        kept = [t.act(c) for c in kept]
    return CurveSystem(tri, {"c%d" % i: c for i, c in enumerate(kept)})


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(partial_systems())
@example(CurveSystem(LADDER[1], {"sep": MulticurveCoords(
    LADDER[1], (0, 0, 2, 2, 0, 0, 0, 2, 2))}))
def test_completion_pair_is_the_cap_ladder_pair(system):
    """In each non-pants piece: the lightest candidate and the lightest
    candidate crossing it.  The cap ladder took the first candidate with a
    crossing partner under its cap, so the two pairs agree exactly when the
    lightest candidate has one there.  They need not: on S(2,0), cut along
    two disjoint non-separating curves, the lightest candidate is the
    separating curve of weight 8, whose lightest crossing partner weighs
    18, and the ladder stopped at cap 16 with a pair of weights 8 and 14."""
    joint = system.joint_coords()
    cut = cut_along(joint)
    for piece, p in enumerate(cut.pieces):
        if p.is_pants:
            continue
        first, partner = _completion_pair(joint.host, cut, piece)
        assert intersects(first, partner)
        assert first == reference_curves_in_piece(joint, piece,
                                                  first.total_weight)[0]
        ref = reference_completion_pair(joint, piece)
        if ref is not None and ref[0] == first:
            assert ref[1] == partner
        else:
            last = 20 if ref is None else next(
                cap for cap in (12, 16, 20) if cap >= ref[1].total_weight)
            assert partner.total_weight > last


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(partial_systems())
# the separating curve of S(2,0): two non-pants pieces, which the drawn
# systems give only on S(2,1)
@example(CurveSystem(LADDER[1], {"sep": MulticurveCoords(
    LADDER[1], (0, 0, 2, 2, 0, 0, 0, 2, 2))}))
def test_completion_pair_is_the_eager_lightest_pair(system):
    """The streamed pair is the pair found by listing every candidate of
    the piece at each cap, in every non-pants piece."""
    joint = system.joint_coords()
    cut = cut_along(joint)
    for piece, p in enumerate(cut.pieces):
        if not p.is_pants:
            assert _completion_pair(joint.host, cut, piece) == \
                reference_lightest_pair(joint, piece)


def test_completion_pair_can_differ_from_the_cap_ladder(s20):
    c = MulticurveCoords(s20, (0, 0, 3, 4, 0, 0, 0, 1, 4))
    d = MulticurveCoords(s20, (1, 0, 0, 0, 0, 1, 0, 0, 0))
    joint = CurveSystem(s20, {"c": c, "d": d}).joint_coords()
    cut = cut_along(joint)
    assert [p.is_pants for p in cut.pieces] == [False]
    assert [c.weights for c in _completion_pair(s20, cut, 0)] == [
        (0, 0, 2, 2, 0, 0, 0, 2, 2), (1, 0, 3, 4, 2, 1, 2, 1, 4)]
    assert [c.weights for c in reference_completion_pair(joint, 0)] == [
        (2, 2, 0, 0, 0, 2, 2, 0, 0), (1, 0, 2, 2, 2, 1, 2, 2, 2)]


def test_completion_pair_refuses_an_annulus_piece(s20):
    """Cut along two separating curves parallel across the vertex: the
    annulus between them holds no two crossing curves, and the completion
    refuses it with one line instead of streaming candidates for ever."""
    joint = MulticurveCoords(s20, (2, 2, 2, 2, 0, 2, 2, 2, 2))
    cut = cut_along(joint)
    (annulus,) = [i for i, p in enumerate(cut.pieces)
                  if p.euler_characteristic == 0]
    with pytest.raises(SystemError_, match="chi 0"):
        _completion_pair(s20, cut, annulus)


def test_maximalize_refuses_orbit(ab):
    a, _ = ab
    sys_ = CurveSystem(a.host, {"a": a})
    with pytest.raises(ValueError):
        maximalize(sys_, Encoding.identity(a.host))


# -- the sweep --------------------------------------------------------------------

def test_search_refuses_on_orbit(ab):
    a, _ = ab
    res = search_twist_family(CurveSystem(a.host, {"a": a}),
                              Encoding.identity(a.host))
    assert isinstance(res, Refused)
    assert res.orbit == ("a",)
    assert res.period == 1
    assert res.witness["cycle"] == ["a"]
    assert res.witness["image_map"] == {"a": "a"}
    assert "power fixes" in res.witness["consequence"]


def test_search_flagship_trail(ab):
    """k = 1..3 periodic, k = 4 reducible, k = 5 accepted."""
    a, b = ab
    res = search_twist_family(CurveSystem(a.host, {"a": a}), twist(b, 1))
    assert isinstance(res, Accepted)
    assert res.exponents == {"a": 5}
    trail = [r.verdict.kind for _, r in res.reports]
    assert trail == ["periodic", "periodic", "periodic",
                     "reducible_evidence", "pseudo_anosov_evidence"]
    v = res.report.verdict
    assert abs(v.lam_hat - spectral_radius(3)) < Fraction(1, 10 ** 4)
    assert decimal_string(v.lam_hat, 6) == "2.618034"


def test_search_exhausts_reportably(ab):
    a, b = ab
    res = search_twist_family(CurveSystem(a.host, {"a": a}), twist(b, 1),
                              SearchSchedule(k_max=3))
    assert isinstance(res, Exhausted)
    assert res.k_max == 3
    assert len(res.reports) == 3
    doc = _result_jsonable(res, SearchSchedule(k_max=3))
    assert doc["status"] == "exhausted"
    assert len(doc["attempts"]) == 3


def test_search_genus_two_end_to_end(s20):
    c = MulticurveCoords(s20, (0, 0, 1, 0, 0, 0, 0, 1, 0))
    x = MulticurveCoords(s20, (0, 1, 0, 1, 2, 1, 1, 1, 1))
    res = search_twist_family(CurveSystem(s20, {"c": c}), twist(x, 1))
    assert isinstance(res, Accepted)
    assert isinstance(res.report.verdict, PseudoAnosovEvidence)
    # the sweep exponent lands on every chain representative
    assert set(res.exponents.values()) <= {0, res.exponents["c"]} or \
        set(res.exponents.values()) == {res.exponents["c"]}


def _independence_checks_from_construct(monkeypatch):
    """A list that gets one True per check_independent call whose nearest
    caller outside orbits.py is in construct.py."""
    from curvetwist import construct, orbits
    calls = []
    check = orbits.check_independent

    def counted(system):
        frame = sys._getframe(1)
        while frame.f_code.co_filename == orbits.__file__:
            frame = frame.f_back
        calls.append(frame.f_code.co_filename == construct.__file__)
        return check(system)

    monkeypatch.setattr(orbits, "check_independent", counted)
    return calls


def test_search_checks_independence_once(monkeypatch, ab, s20):
    """The search checks its input once, and its completion reads that
    check instead of making its own."""
    calls = _independence_checks_from_construct(monkeypatch)
    a, b = ab
    assert isinstance(search_twist_family(CurveSystem(a.host, {"a": a}),
                                          twist(b, 1)), Accepted)
    assert sum(calls) == 1
    del calls[:]
    vecs = enumerate_single_curves(s20, 8)
    c = MulticurveCoords(s20, vecs[0])
    d = max((v for v in vecs if intersects(c, MulticurveCoords(s20, v))),
            key=lambda v: (sum(v), v))
    res = search_twist_family(CurveSystem(s20, {"c": c}),
                              twist(MulticurveCoords(s20, d), 1),
                              SearchSchedule(k_max=4))
    assert isinstance(res, Accepted)
    assert sum(calls) == 1


def test_search_independent_mode(s20):
    c = MulticurveCoords(s20, (0, 0, 1, 0, 0, 0, 0, 1, 0))
    x = MulticurveCoords(s20, (0, 1, 0, 1, 2, 1, 1, 1, 1))
    res = search_twist_family(CurveSystem(s20, {"c": c}), twist(x, 1),
                              SearchSchedule(k_max=2, independent=True))
    assert isinstance(res, Accepted)


def test_exponent_sweep_orders():
    diag = list(_exponent_vectors(("p", "q"), ("p", "q"),
                                  SearchSchedule(k_max=3)))
    assert diag == [{"p": 1, "q": 1}, {"p": 2, "q": 2}, {"p": 3, "q": 3}]
    indep = list(_exponent_vectors(("p", "q"), ("p", "q"),
                                   SearchSchedule(k_max=2,
                                                  independent=True)))
    assert indep == [{"p": 1, "q": 1}, {"p": 1, "q": 2}, {"p": 2, "q": 1},
                     {"p": 2, "q": 2}]
    # non-representatives always get zero
    with_fixed = list(_exponent_vectors(("p", "q"), ("q",),
                                        SearchSchedule(k_max=2)))
    assert with_fixed == [{"p": 0, "q": 1}, {"p": 0, "q": 2}]


def test_refusal_serializes(ab):
    a, _ = ab
    res = search_twist_family(CurveSystem(a.host, {"a": a}),
                              Encoding.identity(a.host))
    doc = _result_jsonable(res, SearchSchedule())
    assert doc["status"] == "refused"
    assert doc["orbit"] == ["a"]
    assert doc["period"] == 1
    assert doc["witness"]["cycle"] == ["a"]
