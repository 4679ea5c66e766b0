"""
The timed operations of each workload and the checks on their outputs.

An operation is a call into the package through a name in
`curvetwist.__all__` or through `curvetwist.cli.main`, looked up when it
runs so that a traced run sees the tracer's wrappers.  Its check runs after
the call and outside its timing, and compares the output with values made
apart from the package (oracle.py) or handed over by the generator.
"""

import contextlib
import io
import json
from fractions import Fraction
from itertools import product

from oracle import TWIST, act_on_slope, mat_mul, mat_pow, slope_of_weights, \
    weights_of_slope


class Mismatch(Exception):
    """An output that disagrees with its expected value."""


def expect(ok, message):
    if not ok:
        raise Mismatch(message)


class Op:
    __slots__ = ("name", "fn", "check", "warm")

    def __init__(self, name, fn, check, warm=True):
        self.name = name
        self.fn = fn
        self.check = check
        self.warm = warm


# -- search_ladder ------------------------------------------------------------

EXIT_CODES = {"accepted": 0, "refused": 2, "exhausted": 3}


def ladder_ops(ct, inputs):
    seed = inputs["seed"]
    ops = []
    for search in inputs["searches"]:
        argv = ["construct", "search", search["workspace"],
                "--seed", str(seed)]

        def fn(argv=argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = ct.cli.main(argv)
            return code, out.getvalue()

        ops.append(Op(search["name"], fn,
                      _search_check(search["expect"], seed), search["warm"]))
    return ops


def _search_check(exp, seed):
    first = []

    def check(result):
        code, text = result
        if first:
            expect(text == first[0], "report differs from the cold pass")
            return
        rep = json.loads(text)
        status = rep.get("status")
        expect(code == EXIT_CODES.get(status),
               "exit code %r for status %r" % (code, status))
        expect(rep.get("seed") == seed and
               rep.get("command") == "construct search", "report header")
        kind = exp["kind"]
        if kind == "rung":
            expect(status in ("accepted", "exhausted"), "status %r" % status)
            if status == "accepted":
                expect(len(rep["exponents"]) == exp["curves"],
                       "completed to %d curves, not %d"
                       % (len(rep["exponents"]), exp["curves"]))
                expect(rep["report"]["verdict"] == "pseudo_anosov_evidence",
                       "accepted without pseudo-Anosov evidence")
        elif kind == "accepted":
            expect(status == "accepted", "status %r" % status)
            expect(rep["exponents"] == exp["exponents"],
                   "accepted at %r" % rep["exponents"])
            lam = Fraction(rep["report"]["lambda_hat"])
            expect(abs(lam - Fraction(exp["lambda"])) <= Fraction(1, 10 ** 4),
                   "lambda_hat %s" % rep["report"]["lambda_hat"])
        elif kind == "exhausted":
            expect(status == "exhausted", "status %r" % status)
            expect(rep["k_max"] == exp["k_max"] and
                   len(rep["attempts"]) == exp["k_max"],
                   "%d attempts" % len(rep["attempts"]))
        else:
            expect(status == "refused", "status %r" % status)
            expect(rep["orbit"] == exp["orbit"] and
                   rep["period"] == exp["period"],
                   "orbit %r period %r" % (rep["orbit"], rep["period"]))
        first.append(text)

    return check


# -- classify_words -----------------------------------------------------------

def words_ops(ct, inputs):
    curves = {}
    for surface, (g, h) in (("s11", (1, 1)), ("s20", (2, 0))):
        tri = ct.build_surface(g, h)
        curves[surface] = {n: ct.MulticurveCoords(tri, w)
                           for n, w in inputs[surface].items()}
    pants = [tuple(inputs["s20"][n]) for n in ("c", "d", "sep")]
    ops = []
    for k, item in enumerate(inputs["words"]):
        named = curves[item["surface"]]

        def fn(word=item["word"], named=named):
            return ct.classify(ct.parse_twist_word(word, named))

        ops.append(Op("%s_%02d" % (item["surface"], k), fn,
                      _verdict_check(item["expect"], pants)))
    return ops


def _verdict_check(exp, pants):
    kind = exp["kind"]

    def check(report):
        v = report.verdict
        if kind in ("pseudo_anosov", "penner"):
            expect(v.kind == "pseudo_anosov_evidence", "verdict %s" % v.kind)
            if kind == "penner":
                expect(v.lam_hat > 1, "lambda_hat %s" % v.lam_hat)
            else:
                expect(abs(v.lam_hat - Fraction(exp["lambda"]))
                       <= Fraction(1, 10 ** 4), "lambda_hat %s" % v.lam_hat)
        elif kind == "periodic":
            expect(v.kind == "periodic" and v.order == exp["order"],
                   "verdict %r" % (v,))
        elif kind == "beyond_cap":
            # the fixed curve lies past the search's weight cap, and the
            # parabolic word's growth is linear
            expect(v.kind == "inconclusive" and
                   "growth not exponential" in v.reason, "verdict %r" % (v,))
        elif kind == "reducible":
            expect(v.kind == "reducible_evidence", "verdict %s" % v.kind)
            expect(v.period == 1 and tuple(v.multicurve.weights)
                   == weights_of_slope(*exp["slope"]),
                   "invariant multicurve %r" % (v.multicurve.weights,))
        else:
            expect(v.kind == "reducible_evidence", "verdict %s" % v.kind)
            expect(_pants_combination(tuple(v.multicurve.weights), pants),
                   "multicurve %r is not carried by the pants system"
                   % (v.multicurve.weights,))

    return check


def _pants_combination(w, pants, top=8):
    """True when w is a non-zero sum of the pants curves with coefficients
    at most `top` (classify()'s orbit depth), which every multitwist on
    them fixes."""
    for coef in product(range(top + 1), repeat=len(pants)):
        if any(coef) and all(sum(k * p[i] for k, p in zip(coef, pants)) == x
                             for i, x in enumerate(w)):
            return True
    return False


# -- heavy_powers -------------------------------------------------------------

def heavy_ops(ct, inputs):
    sizes = inputs["sizes"]
    s11 = ct.build_surface(1, 1)
    s20 = ct.build_surface(2, 0)
    b = ct.MulticurveCoords(s11, inputs["b"])
    torus_probes = [tuple(w) for w in inputs["torus_probes"]]
    probes = [tuple(w) for w in inputs["s20_probes"]]
    e = ct.encoding_from_jsonable(s20, inputs["long_word"])
    ops = []

    for n in sizes["n_twist"]:
        # T_{h(b)} = h T_b h^-1 with h = T_a^n
        m = mat_mul(mat_mul(mat_pow(TWIST["a"], n), TWIST["b"]),
                    mat_pow(TWIST["a"], -n))
        curve = ct.MulticurveCoords(s11, (1, n, n + 1))
        ops.append(Op("twist_Ta^%d(b)" % n,
                      lambda curve=curve: ct.twist(curve),
                      _torus_action_check(m, torus_probes)))
    for n in sizes["n_trace"]:
        curve = ct.MulticurveCoords(s11, (1, n, n + 1))
        ops.append(Op("validate_Ta^%d(b)" % n,
                      lambda curve=curve: ct.validate(curve),
                      _validate_check(n)))
    for n in sizes["n_trace"]:
        curve = ct.MulticurveCoords(s11, (1, n, n + 1))
        ops.append(Op("cut_Ta^%d(b)" % n,
                      lambda curve=curve: ct.cut_along(curve),
                      _cut_check([(-1, 2, 1)])))
    images = [(m, inputs["sep_images"][str(m)]) for m in sizes["m_sep"]]
    for m, image in images:
        z = ct.MulticurveCoords(s20, image["weights"])
        ops.append(Op("twist_Tx^%d(sep)" % m, lambda z=z: ct.twist(z),
                      _isolating_check(z.weights, probes,
                                       image["fixed_probes"])))
    for m, image in images:
        z = ct.MulticurveCoords(s20, image["weights"])
        ops.append(Op("cut_Tx^%d(sep)" % m, lambda z=z: ct.cut_along(z),
                      _cut_check([(-1, 1, 0), (-1, 1, 0)])))

    state = {}
    for k in sizes["k_power"]:
        def power(k=k):
            state[k] = e.power(k)
            return state[k]

        ops.append(Op("power_e^%d" % k, power, _power_check(e, k, probes)))
        ops.append(Op("inverse_e^%d" % k, lambda k=k: state[k].inverse(),
                      _inverse_check(state, k, probes)))
        ops.append(Op("json_e^%d" % k,
                      lambda k=k: ct.encoding_from_jsonable(
                          s20, ct.encoding_to_jsonable(state[k])),
                      _same_action_check(state, k, probes)))
    for k in sizes["k_classify"]:
        ops.append(Op("classify_Tb^%d" % k,
                      lambda k=k: ct.classify(ct.twist(b, k)),
                      _fixed_curve_check(b.weights)))
    return ops


def _torus_action_check(m, probes):
    def check(enc):
        for w in probes:
            want = weights_of_slope(*act_on_slope(m, slope_of_weights(w)))
            got = enc.act_on_weights(w)
            expect(tuple(got) == want, "probe %r goes to %r, not %r"
                   % (w, got, want))
    return check


def _validate_check(n):
    def check(comps):
        expect(tuple(comps) == (((1, n, n + 1), 1),),
               "components %r" % (comps,))
    return check


def _cut_check(pieces):
    """pieces: sorted (euler characteristic, boundary circles, punctures)."""
    def check(cut):
        got = sorted((p.euler_characteristic, p.boundary_circles, p.punctures)
                     for p in cut.pieces)
        expect(got == sorted(pieces), "pieces %r" % (got,))
    return check


def _isolating_check(z, probes, fixed):
    def check(enc):
        expect(tuple(enc.act_on_weights(z)) == z, "the twist moves its curve")
        for w, disjoint in zip(probes, fixed):
            expect((tuple(enc.act_on_weights(w)) == w) == disjoint,
                   "probe %r: fixed must mean disjoint" % (w,))
    return check


def _power_check(e, k, probes):
    def check(ek):
        for w in probes:
            want = w
            for _ in range(k):
                want = e.act_on_weights(want)
            expect(tuple(ek.act_on_weights(w)) == tuple(want),
                   "e^%d disagrees with %d applications of e" % (k, k))
    return check


def _inverse_check(state, k, probes):
    def check(inv):
        for w in probes:
            expect(tuple(inv.act_on_weights(state[k].act_on_weights(w)))
                   == w, "e^-%d e^%d moves probe %r" % (k, k, w))
    return check


def _same_action_check(state, k, probes):
    def check(enc):
        expect(len(enc) == len(state[k]), "round trip changed the length")
        for w in probes:
            expect(enc.act_on_weights(w) == state[k].act_on_weights(w),
                   "round trip changed the action on %r" % (w,))
    return check


def _fixed_curve_check(b):
    def check(report):
        v = report.verdict
        expect(v.kind == "reducible_evidence" and v.period == 1
               and tuple(v.multicurve.weights) == tuple(b),
               "verdict %r" % (v,))
    return check


WORKLOAD_OPS = {"search_ladder": ladder_ops, "classify_words": words_ops,
                "heavy_powers": heavy_ops}
