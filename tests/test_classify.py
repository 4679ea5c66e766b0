"""
The three-way classifier against exact linear-algebra ground truth.

On the punctured torus a word in the two standard twists acts on homology by
an integer matrix; its absolute trace decides the type exactly, and for
hyperbolic traces the dilatation is (|t| + sqrt(t^2 - 4))/2.  The matrix
oracle in oracles.py is independent of the package and the frozen handedness
makes both sides comparable.
"""

import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from curvetwist import (MulticurveCoords, Encoding, Flip, Relabel, twist,
                        automorphisms, decimal_string, Periodic,
                        ReducibleEvidence, PseudoAnosovEvidence,
                        periodic_check, invariant_multicurve_search,
                        dilatation_estimate, classify, build_surface,
                        spanning_probes, flip, isomorphisms)
from curvetwist.classify import _OrbitTable, _order_cap

from oracles import word_trace, spectral_radius, reference_periodic_check
from test_curve_systems import SETTINGS, words


WORDS = [
    [("a", 1), ("b", -1)],
    [("a", -1), ("b", 1)],
    [("a", 2), ("b", -1)],
    [("a", 1), ("b", -2)],
    [("a", 2), ("b", -2)],
    [("a", 3), ("b", -1)],
    [("a", 5), ("b", 1)],
    [("a", 3), ("b", 3)],
    [("a", 1), ("b", -1), ("a", 1), ("b", -1)],
    [("a", 2), ("b", -1), ("a", 1), ("b", -1)],
    [("a", 4), ("b", 2)],
    [("a", 6), ("b", 1)],
]


def encode_word(ab, factors):
    a, b = ab
    by_name = {"a": a, "b": b}
    enc = Encoding.identity(a.host)
    for name, k in factors:
        enc = enc * twist(by_name[name], k)
    return enc


# -- dilatation agreement with the matrix oracle --------------------------------

@pytest.mark.parametrize("factors", WORDS,
                         ids=["".join("%s%+d" % f for f in w) for w in WORDS])
def test_hyperbolic_words_match_oracle(ab, factors):
    trace = word_trace(factors)
    assert abs(trace) > 2
    lam = spectral_radius(trace)
    report = classify(encode_word(ab, factors))
    v = report.verdict
    assert isinstance(v, PseudoAnosovEvidence)
    assert abs(v.lam_hat - lam) < Fraction(1, 10 ** 4)
    assert v.residual < Fraction(1, 10 ** 6)


def test_flagship_dilatation_is_golden_square(ab):
    report = classify(encode_word(ab, [("a", 1), ("b", -1)]))
    assert decimal_string(report.verdict.lam_hat, 6) == "2.618034"


def test_conjugation_invariance(ab):
    """Conjugate words classify identically with matching dilatations."""
    g = encode_word(ab, [("a", 2), ("b", -1)])
    h = encode_word(ab, [("b", 1), ("a", 1)])
    conj = h * g * h.inverse()
    r1 = classify(g).verdict
    r2 = classify(conj).verdict
    assert isinstance(r1, PseudoAnosovEvidence)
    assert isinstance(r2, PseudoAnosovEvidence)
    lam = spectral_radius(word_trace([("a", 2), ("b", -1)]))
    assert abs(r1.lam_hat - lam) < Fraction(1, 10 ** 4)
    assert abs(r2.lam_hat - lam) < Fraction(1, 10 ** 4)


# -- periodicity -----------------------------------------------------------------

def test_identity_is_periodic_order_one(s11):
    report = classify(Encoding.identity(s11))
    assert report.verdict == Periodic(1)
    # the thrice-punctured sphere has no probes at all
    pants = classify(Encoding.identity(build_surface(0, 3)))
    assert pants.verdict == Periodic(1)


def test_two_twist_composite_is_periodic_order_three(ab):
    report = classify(encode_word(ab, [("a", 1), ("b", 1)]))
    assert report.verdict == Periodic(3)
    assert abs(word_trace([("a", 1), ("b", 1)])) < 2


def test_involution_is_periodic_order_two(s20):
    swap = next(rel for rel in automorphisms(s20)
                if not rel.is_edge_identity())
    report = classify(Encoding(s20, [Relabel(swap)]))
    assert report.verdict == Periodic(2)


@SETTINGS
@given(words())
def test_periodic_check_matches_the_reference(e):
    """The probe-by-probe lcm against powers of e on all probes at once, up
    to the model's cap, on twist words and symmetries of finite order."""
    assert periodic_check(e) == reference_periodic_check(e)


def _cycling(tri, cycles):
    """A stand-in for an encoding that moves each tuple of `cycles` one
    step round its cycle and fixes every other vector."""
    image = {w: c[(k + 1) % len(c)] for c in cycles for k, w in enumerate(c)}
    return SimpleNamespace(source=tri, act_on_weights=lambda w: image.get(w, w))


def test_periodic_check_takes_the_lcm_of_the_probe_periods(s20):
    """On S(2,0), whose cap is 10: probes in a 2-cycle and a 3-cycle return
    together first at 6; in a 3-cycle and a 5-cycle each returns within
    the cap, but not all of them before 15; and a probe that returns only
    after 11 steps, through vectors that are no probes, is above the cap
    on its own."""
    p = [c.weights for c in spanning_probes(s20)]
    detour = [p[0]] + [(k,) for k in range(10)]
    for cycles, order in (([p[:2], p[2:5]], 6), ([p[:3], p[3:8]], None),
                          ([detour], None)):
        e = _cycling(s20, cycles)
        assert periodic_check(e) == order
        assert reference_periodic_check(e) == order
    assert reference_periodic_check(_cycling(s20, [p[:3], p[3:8]]), 15) == 15
    assert reference_periodic_check(_cycling(s20, [detour]), 11) == 11


@SETTINGS
@given(words(), st.integers(2, 6))
def test_detectors_read_the_same_on_the_orbit_table(e, cap):
    """The three detectors, in classify's order on one table, return what
    they return on the bare encoding."""
    table = _OrbitTable(e)
    assert periodic_check(table) == periodic_check(e)
    assert invariant_multicurve_search(table, weight_cap=cap) == \
        invariant_multicurve_search(e, weight_cap=cap)
    for seed in spanning_probes(e.source)[:3]:
        assert dilatation_estimate(table, seed, 12) == \
            dilatation_estimate(e, seed, 12)


def test_default_order_bounds():
    assert _order_cap(build_surface(1, 1)) == 6
    assert _order_cap(build_surface(2, 0)) == 10
    assert _order_cap(build_surface(0, 4)) == 4
    assert _order_cap(build_surface(0, 6)) == 6
    assert _order_cap(build_surface(1, 7)) == 7
    assert _order_cap(build_surface(2, 1)) == 10


def _closings(tri, labels):
    """The encodings "flip each of `labels`, then one closing relabeling",
    one per isomorphism back to the model."""
    end = tri
    for lab in labels:
        end = flip(end, lab)
    return [Encoding(tri, [Flip(lab) for lab in labels] + [Relabel(rel)])
            for rel in isomorphisms(end, tri)]


def test_order_five_maps_of_the_spheres_are_periodic():
    """Maps of order 5 on S(0,5) and S(0,6), above the old caps of 4g + 4:
    two of the six closings of "flip 0, flip 4" on S(0,5) were Inconclusive,
    and so was the one-flip map of S(0,6) below."""
    s05, s06 = build_surface(0, 5), build_surface(0, 6)
    kinds = sorted((r.verdict.kind, getattr(r.verdict, "order", None))
                   for r in map(classify, _closings(s05, [0, 4])))
    assert kinds == [("periodic", 2), ("periodic", 3), ("periodic", 5),
                     ("periodic", 5), ("reducible_evidence", None),
                     ("reducible_evidence", None)]
    (e,) = [e for e in _closings(s06, [3])
            if reference_periodic_check(e, 60) == 5]
    assert periodic_check(e) == 5
    assert classify(e).verdict == Periodic(5)


def test_no_short_flip_loop_is_periodic_above_the_order_bound():
    """Every automorphism of the seven trace-count models and of S(0,6),
    and every closing of a flip sequence of length <= 2 from one of them:
    none is periodic on curves with an order above the model's cap, looked
    for up to 60 by the reference, and periodic_check finds each order up
    to the cap.  The largest order each model reaches is pinned, so the
    loops really hold periodic maps."""
    largest = {}
    for gh in ((1, 1), (2, 0), (1, 2), (0, 5), (2, 1), (3, 0), (0, 4),
               (0, 6)):
        tri = build_surface(*gh)
        sequences = [[]]
        for a in tri.edge_labels:
            if tri.is_flippable(a):
                mid = flip(tri, a)
                sequences += [[a]] + [[a, b] for b in mid.edge_labels
                                      if mid.is_flippable(b)]
        cap = _order_cap(tri)
        orders = []
        for e in (e for labels in sequences for e in _closings(tri, labels)):
            order = reference_periodic_check(e, 60)
            assert periodic_check(e) == (
                order if order is not None and order <= cap else None)
            orders.append(order)
        largest[gh] = max(o for o in orders if o is not None)
        assert largest[gh] <= cap, gh
    assert largest == {(1, 1): 3, (2, 0): 2, (1, 2): 4, (0, 5): 5,
                       (2, 1): 2, (3, 0): 1, (0, 4): 3, (0, 6): 5}


# -- reducibility ----------------------------------------------------------------

def test_single_twist_is_reducible_with_its_curve(ab):
    a, _ = ab
    report = classify(twist(a, 1))
    v = report.verdict
    assert isinstance(v, ReducibleEvidence)
    assert v.period == 1
    assert v.multicurve.weights == a.weights


def test_separating_twist_is_reducible(s20):
    sep = MulticurveCoords(s20, (0, 0, 2, 2, 0, 0, 0, 2, 2))
    t = twist(sep, 1)
    report = classify(t)
    v = report.verdict
    assert isinstance(v, ReducibleEvidence)
    assert v.period == 1
    # the witness is some invariant curve disjoint from the twisting curve
    # (the search may return a lighter one than the twisting curve itself)
    assert t.act(v.multicurve).weights == v.multicurve.weights


def test_curve_swapping_map_is_reducible_with_period_two(s20):
    swap = next(rel for rel in automorphisms(s20)
                if not rel.is_edge_identity())
    c = MulticurveCoords(s20, (0, 0, 1, 0, 0, 0, 0, 1, 0))
    g = twist(c, 1) * Encoding(s20, [Relabel(swap)])
    report = classify(g)
    v = report.verdict
    assert isinstance(v, ReducibleEvidence)
    assert v.period == 2
    # the invariant multicurve is the union over the two-cycle
    d = MulticurveCoords(s20, (1, 0, 0, 0, 0, 1, 0, 0, 0))
    assert v.multicurve.weights == tuple(
        x + y for x, y in zip(c.weights, d.weights))


def test_invariant_search_uses_extra_seeds(s20):
    sep = MulticurveCoords(s20, (0, 0, 2, 2, 0, 0, 0, 2, 2))
    got = invariant_multicurve_search(twist(sep, 1), weight_cap=2,
                                      extra_seeds=(sep,))
    assert got is not None
    union, period, orbit = got
    assert period == 1
    assert union.weights == sep.weights


# -- estimates and rendering -------------------------------------------------------

def test_dilatation_estimate_converges(ab):
    a, _ = ab
    g = encode_word(ab, [("a", 1), ("b", -1)])
    lam, residual, weights = dilatation_estimate(g, a, iters=30)
    assert len(weights) == 31
    assert residual < Fraction(1, 10 ** 6)
    assert abs(lam - spectral_radius(3)) < Fraction(1, 10 ** 6)


def test_quadratic_value_decimal():
    assert decimal_string(spectral_radius(3), 10) == "2.6180339887"
    assert decimal_string(spectral_radius(4), 10) == "3.7320508076"


def test_decimal_string_rounds_half_up():
    assert decimal_string(Fraction(1, 3), 10) == "0.3333333333"
    assert decimal_string(Fraction(15, 1000), 2) == "0.02"
    assert decimal_string(Fraction(5, 2), 0) == "3"


def test_oracle_trichotomy():
    """|trace| below 2 is periodic, 2 reducible, above 2 pseudo-Anosov."""
    assert word_trace([("a", 2), ("b", 1)]) == 0
    assert word_trace([("a", 4), ("b", 1)]) == -2
    assert word_trace([("a", 5), ("b", 1)]) == -3
    with pytest.raises(ValueError):
        spectral_radius(-2)


def test_report_serializes_to_json(ab):
    report = classify(encode_word(ab, [("a", 1), ("b", -1)]))
    doc = report.to_jsonable()
    text = json.dumps(doc, sort_keys=True)
    assert json.loads(text)["verdict"] == "pseudo_anosov_evidence"
    assert isinstance(doc["lambda_hat"], str)


def test_classification_is_deterministic(ab):
    g = encode_word(ab, [("a", 2), ("b", -2)])
    r1 = classify(g).to_jsonable()
    r2 = classify(g).to_jsonable()
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
