"""
Differential tests of the per-surface context (curves._CONTEXTS) against
fresh computations (tests/oracles.py): enumerated curves and the spanning
probe family must not depend on the order in which caps were asked for.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from curvetwist import (build_surface, enumerate_single_curves, flip,
                        spanning_probes)
from curvetwist.curves import _CONTEXTS

from oracles import reference_single_curves, reference_spanning_probes


MODELS = [build_surface(*gh)
          for gh in ((1, 1), (2, 0), (1, 2), (0, 5), (0, 4))]


@st.composite
def hosts(draw):
    """A ladder model, as built or after up to five random flips (the hosts
    that shortening reaches are flipped triangulations)."""
    tri = draw(st.sampled_from(MODELS))
    for _ in range(draw(st.integers(0, 5))):
        tri = flip(tri, draw(st.sampled_from(
            [lab for lab in tri.edge_labels if tri.is_flippable(lab)])))
    return tri


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(hosts(), st.lists(st.one_of(st.integers(0, 12), st.just("probes")),
                         min_size=1, max_size=6))
def test_context_answers_match_fresh_computations_in_any_order(tri, asks):
    _CONTEXTS.clear()
    for ask in asks + ["probes"]:
        if ask == "probes":
            assert spanning_probes(tri) == reference_spanning_probes(tri)
        else:
            assert list(enumerate_single_curves(tri, ask)) == \
                reference_single_curves(tri, ask)


def test_genus_three_enumeration_extends_from_cap_8_to_12():
    tri = build_surface(3, 0)
    _CONTEXTS.clear()
    for cap in (8, 12):
        assert list(enumerate_single_curves(tri, cap)) == \
            reference_single_curves(tri, cap)
