"""
Strand-trace, shortening, flip and flip-program counts: each curve is
traced once per question and shortened once per surface, warm group
operations build no triangulation, and a classification moves each weight
vector at most once.

The counts come from a fresh interpreter, so the package's surface contexts
start empty and the numbers repeat exactly.  The child wraps
curves._Strands.trace, the one place a weight vector is traced,
curves._one_curve, the enumeration's trace-free connectivity count,
mapping._shorten, the one shortening loop, surface.isomorphisms, the
isomorphism search, and Triangulation.canonical_form, the plateau search's
state key (or, for the group operations, every flip, replay and checked
triangulation), and prints their counts as JSON.  Counters carry no
timing noise, so these pins guard the trace-once property without timing
anything.
"""

import json
import subprocess
import sys
from collections import Counter

import pytest

from curvetwist import build_surface, enumerate_single_curves
from curvetwist.mapping import _intersection
from test_cli import CHILD_ENV


CHILD = r"""
import json
import sys
import curvetwist as ct
from curvetwist import curves, mapping, surface
from curvetwist.curves import (_CONTEXTS, _Strands, _enumerate_vectors,
                               CutResult)
from curvetwist.surface import Triangulation

traced = []
counted = []
shortened = []
placed = []
forms = [0]
searches = [0]
trace = _Strands.trace
one_curve = curves._one_curve
shorten = mapping._shorten
isomorphisms = surface.isomorphisms
place = CutResult.place
canonical_form = Triangulation.canonical_form


def counted_trace(self):
    traced.append(self.weights)
    return trace(self)


def counted_one_curve(tri, vec):
    counted.append(vec)
    return one_curve(tri, vec)


def counted_shorten(coords):
    shortened.append(coords.weights)
    return shorten(coords)


def counted_isomorphisms(src, dst):
    searches[0] += 1
    return isomorphisms(src, dst)


def counted_place(self, vec):
    # each vector a placement traces, with the system it was placed against
    before = len(traced)
    piece = place(self, vec)
    if len(traced) > before:
        placed.append([list(map(list, self._components)), list(vec)])
    return piece


def counted_canonical_form(self, weights=None):
    forms[0] += 1
    return canonical_form(self, weights)


_Strands.trace = counted_trace
curves._one_curve = counted_one_curve
mapping._shorten = counted_shorten
CutResult.place = counted_place
Triangulation.canonical_form = counted_canonical_form
# every module of the package that binds the search by name
for module in list(sys.modules.values()):
    if module.__name__.startswith("curvetwist") \
            and getattr(module, "isomorphisms", None) is isomorphisms:
        module.isomorphisms = counted_isomorphisms
out = {"enumerate": {}, "caps": {}}
for gh in ((1, 1), (2, 0), (1, 2), (0, 5), (2, 1), (3, 0), (0, 4)):
    tri = ct.build_surface(*gh)
    model = "S(%d,%d)" % gh
    _CONTEXTS.clear()
    del traced[:], counted[:]
    ct.enumerate_single_curves(tri, 8)
    out["enumerate"][model] = [len(traced), len(counted),
                               len(_enumerate_vectors(tri, 0, 8))]
    _CONTEXTS.clear()
    del traced[:], counted[:]
    for cap in (8, 4, 12, 6):
        ct.enumerate_single_curves(tri, cap)
    out["caps"][model] = [len(traced), list(map(list, counted)),
                          list(map(list, _enumerate_vectors(tri, 0, 12)))]

# the stream of one cut on S(2,0) along a non-separating curve (one piece),
# read twice up to weight 12 with the curves enumerated: the vectors it
# traces, and the cut curve
_CONTEXTS.clear()
tri = ct.build_surface(2, 0)
vecs = ct.enumerate_single_curves(tri, 12)
cut = ct.cut_along(ct.MulticurveCoords(tri, vecs[0]))
del traced[:]
for _ in range(2):
    for vec in mapping._piece_curves(tri, cut, 0):
        if sum(vec) > 12:
            break
out["filter"] = [list(map(list, traced)), list(vecs[0])]


def rung(genus=2, punctures=0):
    # a search_ladder rung: c is the first essential curve of weight <= 8,
    # d the heaviest such curve crossing c, f = T(d), k_max 4
    _CONTEXTS.clear()
    tri = ct.build_surface(genus, punctures)
    vecs = ct.enumerate_single_curves(tri, 8)
    c = ct.MulticurveCoords(tri, vecs[0])
    d = max((v for v in vecs if ct.intersects(c, ct.MulticurveCoords(tri, v))),
            key=lambda v: (sum(v), v))
    del shortened[:]
    f = ct.twist(ct.MulticurveCoords(tri, d))
    del traced[:]
    del placed[:]
    forms[0] = searches[0] = 0
    res = ct.search_twist_family(ct.CurveSystem(tri, {"c": c}), f,
                                 ct.SearchSchedule(k_max=4))
    # per context holding spanning probes, whether it is the model's
    probed = [t == tri for t, ctx in _CONTEXTS.items()
              if ctx.probes is not None]
    return {"traces": len(traced), "distinct": len(set(traced)),
            "status": res.status, "shortened": list(map(list, shortened)),
            "placed": list(placed), "forms": forms[0], "probed": probed,
            "isomorphisms": searches[0]}


out["search"] = rung()
out["again"] = rung()
out["s30"] = rung(3, 0)
out["s31"] = rung(3, 1)
out["s40"] = rung(4, 0)
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def counts():
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True,
                          text=True, timeout=300, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_enumeration_counts_each_vector_once_and_traces_none(counts):
    # each realizable vector was traced once before the enumeration counted
    # its arcs' components without a trace
    for model, (traces, checked, nonzero) in counts["enumerate"].items():
        assert traces == 0 and checked == nonzero, model


def test_enumeration_in_any_cap_order_counts_each_vector_once(counts):
    # caps 8, 4, 12, 6: the smaller caps read the stored list and 12 counts
    # only the vectors heavier than 8
    for model, (traces, checked, nonzero) in counts["caps"].items():
        assert traces == 0, model
        assert sorted(checked) == sorted(nonzero), model


def test_candidate_filter_traces_each_candidate_once_per_cut(counts):
    """Read twice, the stream traces each vector once, never one meeting
    the cut curve, and every curve of weight <= 12 that does not meet it."""
    traced, cut_curve = counts["filter"]
    tri, cut_curve = build_surface(2, 0), tuple(cut_curve)
    # a placement traces the sum of the cut curve and the vector
    traced = [tuple(x - y for x, y in zip(v, cut_curve)) for v in traced]
    assert len(traced) == len(set(traced))
    disjoint = {v for v in enumerate_single_curves(tri, 12)
                if v != cut_curve and _intersection(tri, cut_curve, v) == 0}
    assert disjoint <= set(traced)
    assert not any(_intersection(tri, cut_curve, v) for v in traced)


def test_ladder_rung_search_trace_budget(counts):
    traces, status = counts["search"]["traces"], counts["search"]["status"]
    assert status == "accepted"
    # 2,399 before the curve filter and the independence check traced each
    # curve once per question; 1,061 before the surface context; 867 before
    # the lightest-pair completion and the one-trace crossing test; 698
    # before the completion placed its candidates one at a time; 628
    # before it skipped, untraced, the candidates with a positive
    # intersection number with a non-isolating system curve; 585 before
    # the enumeration counted components without a trace; 240 before the
    # isolating twist read its candidates lazily; 217 before the pipeline's
    # own twists skipped the essentiality check of curves it enumerated
    assert traces <= 211


def test_placement_traces_only_candidates_meeting_no_short_system_curve(
        counts):
    """On the S(3,0) rung, CutResult.place traces only candidates whose
    intersection number with every non-isolating system curve is 0 (the
    rung places 17 curves disjoint from the system, 5 of them for the
    isolating twist's chains; 2 more meet only isolating curves, which
    have no such number)."""
    status, placed = counts["s30"]["status"], counts["s30"]["placed"]
    assert status == "accepted"
    # 746 before the completion read intersection numbers, 47 before the
    # isolating twist read its candidates lazily from the same stream
    assert len(placed) == 19
    tri = build_surface(3, 0)
    for system, vec in placed:
        assert not any(_intersection(tri, tuple(s), tuple(vec))
                       for s in system)


def test_ladder_rung_search_shortens_each_curve_once(counts):
    # 24 shortenings of 14 curves before the surface context
    shortened = Counter(map(tuple, counts["search"]["shortened"]))
    assert shortened and set(shortened.values()) == {1}


def test_rungs_stop_shortening_at_certified_isolating_minima(counts):
    """Canonical forms (plateau states) and strand traces of the searches
    on the S(3,0) rung and on the S(3,1) and S(4,0) rungs beyond the
    ladder.  Before shorten stopped at the
    certificate of an isolating minimum, the S(3,0) search built 1,531
    forms and S(3,1) 3,134, and S(4,0) raised ShorteningError after 20,000
    plateau states (217,118 forms).  Before the isolating twist read its
    chain from intersection numbers, the searches made 446, 546 and 1,732
    strand traces; before it read its candidates lazily, 404, 446 and 813,
    and S(3,1) built 192 forms; before the completion read the search's
    independence check of its input instead of making its own, 376, 392
    and 715; before the pipeline's own twists skipped the essentiality
    check of curves it enumerated, 375, 391 and 714."""
    got = {rung: [counts[rung][key] for key in ("status", "forms", "traces")]
           for rung in ("s30", "s31", "s40")}
    assert got == {"s30": ["accepted", 60, 363],
                   "s31": ["accepted", 60, 377],
                   "s40": ["accepted", 710, 694]}


def test_rung_searches_make_no_isomorphism_search(counts):
    """The twist block closes with a slot map read off its annulus, not
    found by a search: 5, 11, 12 and 17 searches on the S(2,0), S(3,0),
    S(3,1) and S(4,0) rungs before."""
    for rung in ("search", "s30", "s31", "s40"):
        assert counts[rung]["isomorphisms"] == 0, rung


def test_only_the_model_holds_spanning_probes(counts):
    """The rung searches twist isolating curves at their short hosts but
    build the probe family only for the classifier, on the model.  Before
    the isolating twist read its chain from intersection numbers, the
    S(4,0) search built it on a short host too."""
    for rung in ("s30", "s31", "s40"):
        assert counts[rung]["probed"] == [True], rung


def test_cleared_contexts_repeat_the_cold_counts(counts):
    # no derived fact outlives _CONTEXTS.clear(): a second run after it
    # does exactly the work of the first
    assert counts["again"] == counts["search"]


CLI_CHILD = r"""
import argparse
import contextlib
import io
import json
import sys
import curvetwist as ct
from curvetwist.cli import main
from curvetwist.curves import _Strands

calls = {"trace": 0, "parser": 0}
trace = _Strands.trace
parser_init = argparse.ArgumentParser.__init__


def counted_trace(self):
    calls["trace"] += 1
    return trace(self)


def counted_parser_init(self, *args, **kwargs):
    calls["parser"] += 1
    parser_init(self, *args, **kwargs)


_Strands.trace = counted_trace
argparse.ArgumentParser.__init__ = counted_parser_init

# the search_ladder rung workspace on S(2,0), as in rung() above
tri = ct.build_surface(2, 0)
vecs = ct.enumerate_single_curves(tri, 8)
c = ct.MulticurveCoords(tri, vecs[0])
d = max((v for v in vecs if ct.intersects(c, ct.MulticurveCoords(tri, v))),
        key=lambda v: (sum(v), v))
with open(sys.argv[1], "w") as fh:
    json.dump({"surface": {"genus": 2, "punctures": 0},
               "curves": {"c": {"weights": [str(x) for x in c.weights]},
                          "d": {"weights": [str(x) for x in d]}},
               "maps": {"f": {"word": "T(d)"}},
               "system": {"components": ["c"], "map": "f"},
               "params": {"k_max": 4}}, fh)
runs = []
for _ in range(2):
    for key in calls:
        calls[key] = 0
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["construct", "search", sys.argv[1]])
    runs.append(dict(calls, code=code, report=out.getvalue()))
print(json.dumps(runs))
"""


def test_warm_cli_search_builds_no_parser_and_places_few_curves(tmp_path):
    proc = subprocess.run([sys.executable, "-c", CLI_CHILD,
                           str(tmp_path / "rung.json")], capture_output=True,
                          text=True, timeout=300, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    cold, warm = json.loads(proc.stdout)
    assert cold["code"] == warm["code"] == 0
    assert warm["report"] == cold["report"]
    assert cold["parser"] > 0 and warm["parser"] == 0
    # 124 before the completion placed its candidates one at a time, 54
    # before it read intersection numbers
    assert warm["trace"] <= 11


GROUP_CHILD = r"""
import json
import curvetwist as ct
from curvetwist import curves, mapping, surface

calls = {"flip": 0, "replay": 0, "Triangulation": 0}


def counted(name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


# every flip, public or private, ends in surface._flip; curves holds its
# own binding of it and mapping its own binding of replay
surface._flip = curves._flip = counted("flip", surface._flip)
mapping.replay = counted("replay", mapping.replay)
surface.Triangulation.__init__ = counted("Triangulation",
                                         surface.Triangulation.__init__)

tri = ct.build_surface(2, 0)
named = {"c": (0, 0, 1, 0, 0, 0, 0, 1, 0), "d": (1, 0, 0, 0, 0, 1, 0, 0, 0),
         "sep": (0, 0, 2, 2, 0, 0, 0, 2, 2),
         "x": (0, 1, 0, 1, 2, 1, 1, 1, 1)}
curve = {n: ct.MulticurveCoords(tri, w) for n, w in named.items()}


def group_ops():
    f = ct.twist(curve["c"], 2) * ct.twist(curve["x"], -1)
    g = ct.twist(curve["sep"], -1).compose(ct.twist(curve["d"]))
    (f * g).power(3).inverse().power(-2) * f.inverse()


group_ops()
cold = dict(calls)
for key in calls:
    calls[key] = 0
group_ops()
print(json.dumps({"cold": cold, "warm": calls}))
"""


def test_warm_group_operations_build_no_triangulation():
    proc = subprocess.run([sys.executable, "-c", GROUP_CHILD],
                          capture_output=True, text=True, timeout=300,
                          env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    # the cold pass shortens the curves and builds the twist blocks, from
    # the flips the shortening took, without replaying them
    assert out["cold"]["flip"] > 0 and out["cold"]["replay"] == 0
    assert out["warm"] == {"flip": 0, "replay": 0, "Triangulation": 0}


CLASSIFY_CHILD = r"""
import json
import curvetwist as ct
from curvetwist import mapping

runs = [0]
act = mapping.Encoding.act_on_weights


def counted_act(self, weights):
    runs[0] += 1
    return act(self, weights)


mapping.Encoding.act_on_weights = counted_act
s11, s20 = ct.build_surface(1, 1), ct.build_surface(2, 0)
named = {s11: {"a": (0, 1, 1), "b": (1, 0, 1)},
         s20: {"c": (0, 0, 1, 0, 0, 0, 0, 1, 0),
               "d": (1, 0, 0, 0, 0, 1, 0, 0, 0),
               "sep": (0, 0, 2, 2, 0, 0, 0, 2, 2),
               "x": (0, 1, 0, 1, 2, 1, 1, 1, 1)}}
out = {}
for tri, word in ((s11, "T(b)^1000"), (s11, "T(a) * T(b)"),
                  (s11, "T(a)^2 * T(b)^-1"),
                  (s20, "T(d)^-1 * T(sep) * T(c)^-1"),
                  (s20, "T(sep) * T(x)^-2 * T(d)^2 * T(c)")):
    e = ct.parse_twist_word(word, {n: ct.MulticurveCoords(tri, w)
                                   for n, w in named[tri].items()})
    out[word] = []
    for _ in range(2):
        runs[0] = 0
        kind = ct.classify(e).verdict.kind
        out[word].append([runs[0], kind])
print(json.dumps(out))
"""


def test_classify_moves_each_vector_at_most_once():
    """Flip-program runs (Encoding.act_on_weights calls) per classify call,
    cold and warm: the periodic check stops at the first probe that does not
    return, and the detectors share one orbit table per call."""
    proc = subprocess.run([sys.executable, "-c", CLASSIFY_CHILD],
                          capture_output=True, text=True, timeout=300,
                          env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    # before the probe-by-probe check and the orbit table: 57, 18, 282,
    # 261 and 558 runs
    assert json.loads(proc.stdout) == {
        "T(b)^1000": [[9, "reducible_evidence"]] * 2,
        "T(a) * T(b)": [[12, "periodic"]] * 2,
        "T(a)^2 * T(b)^-1": [[144, "pseudo_anosov_evidence"]] * 2,
        "T(d)^-1 * T(sep) * T(c)^-1": [[12, "reducible_evidence"]] * 2,
        "T(sep) * T(x)^-2 * T(d)^2 * T(c)":
            [[260, "pseudo_anosov_evidence"]] * 2}
