r"""
Evidence-grade dynamical classification of a mapping class.

Every surface mapping class is periodic, reducible (preserves a multicurve),
or pseudo-Anosov.  This module gathers exact evidence for one of the three:
a periodic order is certified by probe equality of a power with the
identity, up to the proven cap on the order of a periodic class of the
model; reducibility by an explicit finite curve orbit whose union is an
invariant multicurve; pseudo-Anosov behavior by exponential, seed-
independent growth of curve weights under iteration, with the growth rate
estimated as an exact rational and reported against the thresholds below,
which every report prints.  Nothing here is proof-grade (no invariant track
is built): the verdicts are labeled as evidence, and the honest fallback is
Inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .curves import MulticurveCoords, enumerate_single_curves
from .mapping import spanning_probes
from .orbits import CurveSystem, check_independent


def decimal_string(value, digits=10):
    """Fixed-point decimal rendering of a Fraction, half-up rounding."""
    fr = Fraction(value)
    sign = "-" if fr < 0 else ""
    fr = abs(fr)
    scaled = fr * 10 ** digits
    n = scaled.numerator // scaled.denominator
    if 2 * (scaled.numerator % scaled.denominator) >= scaled.denominator:
        n += 1
    whole, frac = divmod(n, 10 ** digits)
    if digits == 0:
        return "%s%d" % (sign, whole)
    return "%s%d.%0*d" % (sign, whole, digits, frac)


# -- verdicts -----------------------------------------------------------------

@dataclass(frozen=True)
class Periodic:
    """e^order fixes every spanning probe: order is the lcm of the probe
    periods, the order of the action on curves.  It can be less than the
    order in the mapping class group (T_a T_b on S(1,1) is Periodic(3), of
    order 6), and on a closed model it is the order in Mod(S, v)."""
    order: int
    kind = "periodic"


@dataclass(frozen=True)
class ReducibleEvidence:
    """An exactly invariant multicurve, the union of one curve's orbit of
    `period` curves, found under a weight cap.  A closed model is a
    one-vertex triangulation, so its curves live in S minus the vertex v
    and its verdicts are about Mod(S, v), not Mod(S).  On S(2,0),
    T(sep) T(sep')^-1 with sep = (0,0,2,2,0,0,0,2,2) and
    sep' = (2,2,0,0,0,2,2,0,0) pushes v around the annulus between the two
    curves: it is the identity of Mod(S), and this verdict in Mod(S, v)."""
    multicurve: MulticurveCoords
    period: int
    orbit: tuple
    kind = "reducible_evidence"


@dataclass(frozen=True)
class PseudoAnosovEvidence:
    """Exponential, seed-independent growth of curve weights: lam_hat is
    the exact ratio of the last two weights after `iterations` steps, and
    residual its largest recent deviation.  On a closed model the curves
    live in S minus the vertex, so this is evidence about Mod(S, v), where
    pushing v along a filling loop is pseudo-Anosov although it is the
    identity of Mod(S)."""
    lam_hat: Fraction
    residual: Fraction
    iterations: int
    kind = "pseudo_anosov_evidence"


@dataclass(frozen=True)
class Inconclusive:
    reason: str
    kind = "inconclusive"


@dataclass(frozen=True)
class ClassificationReport:
    verdict: object
    diagnostics: dict

    def to_jsonable(self):
        v = self.verdict
        data = {"verdict": v.kind}
        if isinstance(v, Periodic):
            data["order"] = v.order
        elif isinstance(v, ReducibleEvidence):
            data["invariant_multicurve"] = [str(x)
                                            for x in v.multicurve.weights]
            data["period"] = v.period
            data["orbit"] = [[str(x) for x in w] for w in v.orbit]
        elif isinstance(v, PseudoAnosovEvidence):
            data["lambda_hat"] = "%d/%d" % (v.lam_hat.numerator,
                                            v.lam_hat.denominator)
            data["lambda_hat_decimal"] = decimal_string(v.lam_hat, 10)
            data["residual_decimal"] = decimal_string(v.residual, 12)
            data["iterations"] = v.iterations
        else:
            data["reason"] = v.reason
        data["diagnostics"] = self.diagnostics
        return data


# the evidence thresholds: invariant orbits are looked for up to DEPTH
# steps; each of the first DILATATION_SEEDS probes is iterated ITERATIONS
# times, and its weight must double across every trailing DOUBLING_WINDOW
# steps and its rate exceed 1 by LAM_MARGIN
DEPTH = 8
ITERATIONS = 30
DILATATION_SEEDS = 3
LAM_MARGIN = Fraction(1, 1000)
DOUBLING_WINDOW = 8


@dataclass(frozen=True)
class ClassifyParams:
    """The budgets a caller sets: the weight cap of the invariant-multicurve
    seeds and the residual tolerance of the growth estimates.  jsonable()
    also prints the fixed thresholds, so a report shows all that decided
    its verdict."""
    weight_cap: int = 8
    residual_tol: Fraction = Fraction(1, 10 ** 6)

    def jsonable(self):
        return {
            "depth": DEPTH,
            "weight_cap": self.weight_cap,
            "iterations": ITERATIONS,
            "dilatation_seeds": DILATATION_SEEDS,
            "residual_tol": str(self.residual_tol),
            "lam_margin": str(LAM_MARGIN),
            "doubling_window": DOUBLING_WINDOW,
        }


def _order_cap(tri):
    """The largest order of a periodic mapping class of the model: 4g + 2
    for genus g >= 2, max(6, n) for genus 1 and n for genus 0, with n
    punctures.

    Proof.  A periodic mapping class of a surface with chi < 0 is realized
    by a homeomorphism h of the same order (Nielsen realization;
    Farb-Margalit, A Primer on Mapping Class Groups, 7.1-7.2), which
    permutes the punctures and fixes the vertex of a closed model; filling
    the punctures in, h is a periodic homeomorphism of the closed surface.
    For g >= 2 its order is at most 4g + 2 (Wiman; Farb-Margalit, Thm 7.5).
    For g = 1, h either has a fixed point, and then it is conjugate to a
    linear map of the torus, of order 1, 2, 3, 4 or 6, or it acts freely,
    so that every puncture lies in an orbit of size equal to its order m,
    and m <= n.  For g = 0, h is conjugate to a rotation, which fixes two
    points and moves every other in an orbit of size m; at least one of
    the n >= 3 punctures is not fixed, so m <= n.  The order of the action
    on curves divides the order of the class, so no periodic map exceeds
    the bound on curves either."""
    g, n = tri.genus, tri.num_punctures
    if g >= 2:
        return 4 * g + 2
    return max(6, n) if g == 1 else n


# -- the three detectors --------------------------------------------------------

def periodic_check(e):
    """Least p with e^p equal to the identity on the spanning probes, or
    None when e is not periodic.

    e permutes curves, so the powers of e fixing a probe are the multiples
    of its period, and the least p fixing every probe is the lcm of their
    periods.  No periodic map of the model has an order above _order_cap
    (proved there), so each probe is moved only up to that cap: the check
    ends with None at the first probe that does not return within it, or as
    soon as the lcm exceeds it.
    """
    tri = e.source
    cap = _order_cap(tri)
    order = 1
    for probe in spanning_probes(tri):
        w = e.act_on_weights(probe.weights)
        period = 1
        while w != probe.weights:
            if period >= cap:
                return None
            w = e.act_on_weights(w)
            period += 1
        order = lcm(order, period)
        if order > cap:
            return None
    return order


def invariant_multicurve_search(e, depth=DEPTH, weight_cap=8,
                                extra_seeds=()):
    """A curve with finite orbit under e, packaged as evidence.

    Seeds are the extra curves first (a caller's system curves), then the
    enumerated essential curves up to the weight cap.  For the first seed c
    with e^p(c) = c at some p <= depth whose orbit curves pass
    check_independent, returns (orbit union, p, orbit tuple); else None.
    """
    tri = e.source
    seeds = dict.fromkeys(c.weights for c in extra_seeds)
    seeds.update(dict.fromkeys(enumerate_single_curves(tri, weight_cap)))
    for seed in seeds:
        orbit = [seed]
        for _ in range(depth):
            w = e.act_on_weights(orbit[-1])
            if w == seed:
                break
            orbit.append(w)
        else:
            continue
        # the orbit curves are distinct, and a disjoint, essential,
        # non-parallel family never exceeds the size bound
        found = CurveSystem(tri, {str(i): MulticurveCoords(tri, v)
                                  for i, v in enumerate(orbit)})
        if check_independent(found).ok:
            return (found.joint_coords(), len(orbit), tuple(orbit))
    return None


def dilatation_estimate(e, seed, iters=ITERATIONS):
    """Power iteration on total curve weight.

    Returns (lam_hat, residual, weights): lam_hat is the exact ratio of the
    last two weights, residual the largest relative deviation of the three
    final step ratios from lam_hat.  Exponential behavior is judged by the
    caller from the weight list.
    """
    if iters < 3:
        raise ValueError("need at least 3 iterations")
    w = seed.weights
    weights = [sum(w)]
    for _ in range(iters):
        w = e.act_on_weights(w)
        total = sum(w)
        if total == 0:
            raise ArithmeticError("iterate lost all weight; invalid seed")
        weights.append(total)
    lam = Fraction(weights[-1], weights[-2])
    residual = Fraction(0)
    for n in range(iters - 3, iters):
        step = Fraction(weights[n + 1], weights[n])
        dev = abs(step - lam) / lam
        if dev > residual:
            residual = dev
    return lam, residual, weights


# -- the combined classifier --------------------------------------------------

def _doubling(weights, window):
    """Weight at least doubles across every trailing window."""
    n = len(weights)
    if n <= window:
        return False
    for k in range(max(1, n - 4 - window), n - window):
        if weights[k + window] < 2 * weights[k]:
            return False
    return True


class _OrbitTable:
    """e for the detectors of one classify call: the image of every vector
    moved is kept, so each vector is moved at most once.  A probe's orbit
    from the periodic check serves again as a seed orbit of the invariant
    search and as the first iterates of a dilatation estimate."""

    __slots__ = ("source", "_act", "_image")

    def __init__(self, e):
        self.source = e.source
        self._act = e.act_on_weights
        self._image = {}

    def act_on_weights(self, weights):
        image = self._image.get(weights)
        if image is None:
            image = self._image[weights] = self._act(weights)
        return image


def classify(e, params=None, extra_seeds=()):
    """Periodicity, then reducibility, then growth; first verdict wins.

    PseudoAnosovEvidence demands that every dilatation seed shows doubling
    growth, that the estimates agree pairwise within the residual
    tolerance, that each residual clears the same bar, and that the rate
    exceeds 1 by LAM_MARGIN.  Anything else that neither closes an order
    nor exhibits an invariant multicurve is Inconclusive.  The three
    detectors share one orbit table, dropped when the call returns.
    """
    params = params or ClassifyParams()
    e = _OrbitTable(e)
    tri = e.source
    diag = {"params": params.jsonable()}

    order = periodic_check(e)
    if order is not None:
        return ClassificationReport(Periodic(order), diag)

    found = invariant_multicurve_search(e, DEPTH, params.weight_cap,
                                        extra_seeds)
    if found is not None:
        mc, period, orbit = found
        return ClassificationReport(ReducibleEvidence(mc, period, orbit), diag)

    probes = spanning_probes(tri)
    seeds = list(probes[:DILATATION_SEEDS])
    if not seeds:
        return ClassificationReport(Inconclusive("no seed curves"), diag)
    runs = []
    for seed in seeds:
        lam, residual, weights = dilatation_estimate(e, seed, ITERATIONS)
        runs.append((lam, residual, weights))
    diag["growth"] = [[str(x) for x in weights] for _, _, weights in runs]
    diag["lambda_hats"] = [decimal_string(lam, 10) for lam, _, _ in runs]
    diag["residuals"] = [decimal_string(r, 12) for _, r, _ in runs]

    exponential = all(_doubling(weights, DOUBLING_WINDOW)
                      for _, _, weights in runs)
    lams = [lam for lam, _, _ in runs]
    agree = all(abs(lams[i] - lams[j]) <= params.residual_tol * lams[j]
                for i in range(len(lams)) for j in range(len(lams)))
    tight = all(r <= params.residual_tol for _, r, _ in runs)
    big = all(lam >= 1 + LAM_MARGIN for lam in lams)
    if exponential and agree and tight and big:
        best = max(runs, key=lambda t: sum(t[2]))
        return ClassificationReport(
            PseudoAnosovEvidence(best[0], best[1], ITERATIONS), diag)
    reasons = []
    if not exponential:
        reasons.append("growth not exponential")
    if not agree:
        reasons.append("seeds disagree on the rate")
    if not tight:
        reasons.append("residual above tolerance")
    if not big:
        reasons.append("rate too close to one")
    return ClassificationReport(Inconclusive("; ".join(reasons)), diag)
