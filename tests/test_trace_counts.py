"""
Strand-trace counts: each curve is traced once per question.

The counts come from a fresh interpreter, so the package's caches start
empty and the numbers repeat exactly.  The child wraps curves._Strands.trace,
the one place a weight vector is traced, and prints its counts as JSON.
Counters carry no timing noise, so these pins guard the trace-once property
without timing anything.
"""

import json
import subprocess
import sys

import pytest

from test_cli import CHILD_ENV


CHILD = r"""
import json
import curvetwist as ct
from curvetwist.curves import _Strands, _enumerate_vectors

count = [0]
trace = _Strands.trace


def counted(self):
    count[0] += 1
    return trace(self)


_Strands.trace = counted
out = {"enumerate": {}}
for gh in ((1, 1), (2, 0), (1, 2), (0, 5), (2, 1), (3, 0), (0, 4)):
    tri = ct.build_surface(*gh)
    nonzero = sum(1 for v in _enumerate_vectors(tri, 8) if any(v))
    count[0] = 0
    ct.enumerate_single_curves(tri, 8)
    out["enumerate"]["S(%d,%d)" % gh] = [count[0], nonzero]

# the search_ladder rung on S(2,0): c is the first essential curve of
# weight <= 8, d the heaviest such curve crossing c, f = T(d), k_max 4
tri = ct.build_surface(2, 0)
vecs = ct.enumerate_single_curves(tri, 8)
c = ct.MulticurveCoords(tri, vecs[0])
d = max((v for v in vecs if ct.intersects(c, ct.MulticurveCoords(tri, v))),
        key=lambda v: (sum(v), v))
f = ct.twist(ct.MulticurveCoords(tri, d))
count[0] = 0
res = ct.search_twist_family(ct.CurveSystem(tri, {"c": c}), f,
                             ct.SearchSchedule(k_max=4))
out["search"] = [count[0], res.status]
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def counts():
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True,
                          text=True, timeout=300, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_enumeration_traces_each_vector_once(counts):
    for model, (traces, nonzero) in counts["enumerate"].items():
        assert traces == nonzero, model


def test_ladder_rung_search_trace_budget(counts):
    traces, status = counts["search"]
    assert status == "accepted"
    # 2,399 before the curve filter and the independence check traced each
    # curve once per question
    assert traces <= 1061
