"""
Differential tests of the per-surface context (curves._CONTEXTS) against
fresh computations (tests/oracles.py): enumerated curves and the spanning
probe family must not depend on the order in which caps were asked for.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

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
# S(1,2) flipped at edges 4 and 5 has the triangle (3, 3, 5), which the
# enumeration completes by setting edge 3 on two of its sides at once
@example(flip(flip(MODELS[2], 4), 5), [12])
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


@pytest.mark.parametrize("genus, punctures", [(3, 0), (2, 1)])
def test_enumeration_at_cap_16_matches_the_reference(genus, punctures):
    # the cap the S(3,0) rung's completion reaches
    tri = build_surface(genus, punctures)
    _CONTEXTS.clear()
    assert list(enumerate_single_curves(tri, 16)) == \
        reference_single_curves(tri, 16)
