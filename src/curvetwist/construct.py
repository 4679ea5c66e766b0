r"""
The constructive pipeline: completing a curve system to a maximal one while
preserving a prescribed action, realizing twist families over it, and
sweeping twist exponents for pseudo-Anosov candidates.

Given disjoint curves 𝒞 with images under f, the decisive question is
whether the orbit graph has a cycle.  If it does, no map agreeing with f on
𝒞 can be pseudo-Anosov: the cycle gives a subfamily permuted up to isotopy,
hence an invariant multicurve for every candidate, and the search refuses.
If not, the system is completed curve by curve: c', the lightest curve of
a non-pants piece, joins the system, and f is post-composed with the least
twist power about c'', the lightest curve of the piece crossing c', that
makes the image of c' non-parallel to everything retained.  Twists about
curves disjoint from the old system leave the old images untouched, so the
prescribed action survives verbatim and no new cycle can close.

Over the completed system, the candidates are f' composed with twists about
the system curves.  The twists fix every system curve, so each candidate
still realizes the prescribed action; the exponent sweep assigns a power k
to one representative per chain of the orbit graph and zero elsewhere, and
each candidate is classified.  There is no effective bound for how large k
must be, so exhausting the sweep is a legitimate, reportable outcome.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .curves import MulticurveCoords, cut_along, _crossing
from .mapping import _twist, _intersection, _piece_curves
from .orbits import (CurveSystem, build_gamma, _orbit_graph, find_orbit,
                     chain_decomposition)
from .classify import ClassifyParams, classify, PseudoAnosovEvidence


def _realize(f, curves, exponents):
    """f composed with the twists about the named curves (name, coords) to
    the given exponents, f ∘ T_{c_1}^{k_1} ∘ ... ∘ T_{c_n}^{k_n}: the
    sweep's candidate.  The curves are those of a system checked essential
    and built disjoint, so the twists commute and fix every system curve,
    and the result agrees with f on each of them; nothing here checks it."""
    enc = f
    for (_, c), k in zip(curves, exponents):
        if k:
            enc = enc * _twist(c.host, c.weights, k)
    return enc


def maximalize(sys, f):
    """Complete the system to a maximal one without disturbing f's action.

    Returns (completed system with images under the adjusted map, adjusted
    encoding).  Requires an independent, orbit-free input.  Each step adds
    c', the lightest curve of the first non-pants piece, and post-composes
    f with the least power of the twist about c'', the lightest curve of
    the piece crossing c', that keeps the image of c' off every retained
    class: both curves exist (see _completion_pair), and a power up to the
    grown system's size plus one does (see the comment on k).
    """
    if find_orbit(build_gamma(sys.with_images(f))) is not None:
        raise ValueError("input system already contains an orbit")
    return _complete(sys, f)


def _complete(sys, f):
    """maximalize(sys, f) for an input already checked independent and
    orbit-free."""
    host = sys.host
    comps = dict(sys.components)
    fp = f
    fresh = itertools.count(1)
    # with fewer than 3g + h - 3 curves, some piece is not a pair of pants
    for _ in range(3 * host.genus + host.num_punctures - 3 - len(comps)):
        cut = cut_along(CurveSystem(host, comps).joint_coords())
        piece = next(i for i, p in enumerate(cut.pieces) if not p.is_pants)
        c_new, c_aux = _completion_pair(host, cut, piece)
        name = "d%d" % next(fresh)
        while name in comps:
            name = "d%d" % next(fresh)
        taken = {c.weights for c in comps.values()} | {c_new.weights}
        # c_aux crosses c_new, so the classes T_{c_aux}^k(c_new), k >= 1,
        # are pairwise distinct, and fp is a bijection on classes: one of
        # the first len(taken) + 1 powers keeps the image off `taken`
        k = next(k for k in range(1, len(taken) + 2)
                 if fp.act(_twist(host, c_aux.weights, k).act(c_new)).weights
                 not in taken)
        comps[name] = c_new
        fp = fp * _twist(host, c_aux.weights, k)
    done = CurveSystem.from_encoding(host, comps, fp)
    for name, c in sys.components.items():
        if fp.act(c).weights != f.act(c).weights:
            raise AssertionError("completion disturbed the image of %r"
                                 % name)
    if find_orbit(_orbit_graph(done)) is not None:
        raise AssertionError("completion created an orbit")
    return done, fp


def _completion_pair(host, cut, piece):
    """(c', c''): the lightest curve of a non-pants piece and the lightest
    curve of the piece crossing it, in enumeration order.  In a piece with
    chi < 0 that is not a pair of pants, another curve crosses every
    non-peripheral curve (Farb-Margalit, A Primer on Mapping Class Groups),
    so the piece's stream (mapping._piece_curves) yields both, and is read
    up to c'' only; the stream refuses any other piece, such as an annulus
    between parallel curves, which an independent system does not have.
    Whether a candidate crosses c' is read from i(c', v)
    (mapping._intersection) unless c' is isolating."""
    stream = _piece_curves(host, cut, piece)
    first = next(stream)

    def crosses(v):
        i = _intersection(host, first, v)
        return _crossing(host, first, v) if i is None else i > 0

    partner = next(filter(crosses, stream))
    return MulticurveCoords(host, first), MulticurveCoords(host, partner)


# -- the exponent sweep -------------------------------------------------------

@dataclass(frozen=True)
class SearchSchedule:
    k_max: int = 10
    independent: bool = False
    classify_params: ClassifyParams = field(default_factory=ClassifyParams)

    def jsonable(self):
        return {"k_max": self.k_max, "independent": self.independent,
                "classify": self.classify_params.jsonable()}


@dataclass(frozen=True)
class Refused:
    orbit: tuple
    period: int
    witness: dict
    status = "refused"


@dataclass(frozen=True)
class Accepted:
    exponents: dict
    report: object
    reports: tuple
    status = "accepted"


@dataclass(frozen=True)
class Exhausted:
    k_max: int
    reports: tuple
    status = "exhausted"


def _result_jsonable(res, schedule):
    data = {"status": res.status, "schedule": schedule.jsonable()}
    if isinstance(res, Refused):
        data["orbit"] = list(res.orbit)
        data["period"] = res.period
        data["witness"] = res.witness
    elif isinstance(res, Accepted):
        data["exponents"] = dict(res.exponents)
        data["report"] = res.report.to_jsonable()
        data["attempts"] = [{"exponents": dict(k), "verdict":
                             r.verdict.kind} for k, r in res.reports]
    else:
        data["k_max"] = res.k_max
        data["attempts"] = [{"exponents": dict(k), "report":
                             r.to_jsonable()} for k, r in res.reports]
    return data


def _exponent_vectors(names, reps, schedule):
    """Exponent assignments in increasing order of the sweep.

    Diagonal mode puts the same k on every representative; independent mode
    enumerates all positive vectors over the representatives ordered by
    their maximum, then lexicographically.
    """
    reps = tuple(reps)
    if not schedule.independent:
        for k in range(1, schedule.k_max + 1):
            yield {n: (k if n in reps else 0) for n in names}
        return
    for top in range(1, schedule.k_max + 1):
        for combo in itertools.product(range(1, top + 1), repeat=len(reps)):
            if max(combo) != top:
                continue
            by_rep = dict(zip(reps, combo))
            yield {n: by_rep.get(n, 0) for n in names}


def search_twist_family(sys, f, schedule=None):
    """Decide realizability and sweep for a pseudo-Anosov candidate.

    An orbit in the graph refuses immediately: the witness records the
    cycle, whose curves any candidate agreeing with f permutes, so some
    power fixes each of them.  Otherwise the system is completed, one
    representative per chain receives the twist exponent, and candidates
    are classified in sweep order; the first pseudo-Anosov evidence wins.
    """
    schedule = schedule or SearchSchedule()
    gamma = build_gamma(sys.with_images(f))
    orbit = find_orbit(gamma)
    if orbit is not None:
        witness = {
            "cycle": list(orbit),
            "period": len(orbit),
            "image_map": {src: dst for src, dst in gamma.edges
                          if src in orbit},
            "consequence": "every candidate agreeing with the prescribed "
                           "action permutes these classes, so its %d-th "
                           "power fixes each of them" % len(orbit),
        }
        return Refused(orbit, len(orbit), witness)
    full, fp = _complete(sys, f)
    chains = chain_decomposition(_orbit_graph(full))
    reps = [ch.representative for ch in chains]
    curves = tuple(full.components.items())
    names = full.names
    system_curves = [c for _, c in curves]
    reports = []
    for vec in _exponent_vectors(names, reps, schedule):
        enc = _realize(fp, curves, [vec[n] for n in names])
        report = classify(enc, schedule.classify_params,
                          extra_seeds=system_curves)
        reports.append((vec, report))
        if isinstance(report.verdict, PseudoAnosovEvidence):
            return Accepted(vec, report, tuple(reports))
    return Exhausted(schedule.k_max, tuple(reports))
