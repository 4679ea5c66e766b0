"""
The seven acceptance criteria, one test and one printed pass/fail line each.

1. Orbit necessity, exact, over randomized cycle-bearing fixtures.
2. Realized twist families agree with the prescribed action exactly.
3. Chain structure of orbit-free graphs against subset brute force.
4. Completion postconditions on non-maximal fixtures.
5. Dilatation agreement with the exact matrix oracle on the punctured torus.
6. Structural conservation laws and twist group axioms.
7. End-to-end sweep acceptance at desk scale; exhaustion is reportable.
"""

import random
import time
from fractions import Fraction

from curvetwist import (MulticurveCoords, CurveSystem, Encoding, Relabel,
                        twist, spanning_probes, automorphisms,
                        enumerate_single_curves, standard_curves, cut_along,
                        Flip, build_gamma, find_orbit, OrbitGraph,
                        chain_decomposition, maximalize, check_maximal,
                        SearchSchedule, Refused, Accepted, Exhausted,
                        search_twist_family, classify,
                        PseudoAnosovEvidence, build_surface)

from curvetwist.construct import _realize

from oracles import (agree_on, brute_force_chains, random_orbit_free_graph,
                     word_trace, spectral_radius, flip_square_relabeling,
                     reference_act)


def _line(n, label, ok):
    print("criterion %d (%s): %s" % (n, label, "PASS" if ok else "FAIL"))


# -- criterion 1 ---------------------------------------------------------------

def test_criterion_1_orbit_necessity(s11, s20, ab):
    ok = False
    try:
        started = time.monotonic()
        rng = random.Random(11)
        a, b = ab
        c = MulticurveCoords(s20, (0, 0, 1, 0, 0, 0, 0, 1, 0))
        d = MulticurveCoords(s20, (1, 0, 0, 0, 0, 1, 0, 0, 0))
        sep = MulticurveCoords(s20, (0, 0, 2, 2, 0, 0, 0, 2, 2))
        swap = next(rel for rel in automorphisms(s20)
                    if not rel.is_edge_identity())
        swap_enc = Encoding(s20, [Relabel(swap)])

        fixtures = []
        # single fixed curves under the identity and under their own twist
        for vec in ((0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 2), (1, 2, 1)):
            cc = MulticurveCoords(s11, vec)
            fixtures.append((s11, {"a": cc}, Encoding.identity(s11)))
            fixtures.append((s11, {"a": cc}, twist(cc, rng.randint(1, 2))))
        for cc in (c, d, sep):
            fixtures.append((s20, {"c": cc}, Encoding.identity(s20)))
            fixtures.append((s20, {"c": cc}, twist(cc, rng.randint(1, 2))))
        # larger systems fixed pointwise by a twist about a member
        fixtures.append((s20, {"c": c, "d": d}, twist(sep, 1)))
        fixtures.append((s20, {"c": c, "d": d, "e": sep}, twist(c, 2)))
        fixtures.append((s20, {"c": c, "d": d, "e": sep},
                         Encoding.identity(s20)))
        # a genuine two-cycle from the curve-swapping involution
        fixtures.append((s20, {"c": c, "d": d}, swap_enc))
        fixtures.append((s20, {"c": c, "d": d}, swap_enc * twist(sep, 1)))
        fixtures.append((s20, {"c": c, "d": d, "e": sep}, swap_enc))
        assert len(fixtures) >= 20

        for tri, comps, f in fixtures:
            sys_ = CurveSystem(tri, comps)
            res = search_twist_family(sys_, f)
            assert isinstance(res, Refused)
            orbit, p = res.orbit, res.period
            assert find_orbit(build_gamma(sys_.with_images(f))) == orbit
            # every realized candidate has e^p fixing each cycle curve
            curves = tuple(comps.items())
            for _ in range(3):
                ks = tuple(rng.randint(-2, 2) for _ in curves)
                e = _realize(f, curves, ks)
                ep = e.power(p)
                for name in orbit:
                    cc = comps[name]
                    assert ep.act(cc).weights == cc.weights
        assert time.monotonic() - started < 10.0
        ok = True
    finally:
        _line(1, "orbit necessity, exact", ok)


# -- criterion 2 ---------------------------------------------------------------

def test_criterion_2_family_realization(s20, ab):
    ok = False
    try:
        a, _ = ab
        rng = random.Random(22)
        c = MulticurveCoords(s20, (0, 0, 1, 0, 0, 0, 0, 1, 0))
        d = MulticurveCoords(s20, (1, 0, 0, 0, 0, 1, 0, 0, 0))
        sep = MulticurveCoords(s20, (0, 0, 2, 2, 0, 0, 0, 2, 2))
        x = MulticurveCoords(s20, (0, 1, 0, 1, 2, 1, 1, 1, 1))
        fixtures = [
            ((("a", a),), twist(ab[1], 1)),
            ((("c", c), ("d", d), ("e", sep)), twist(x, 1)),
        ]
        for curves, f in fixtures:
            for _ in range(100):
                ks = tuple(rng.randint(-3, 3) for _ in curves)
                g = _realize(f, curves, ks)
                for _, cc in curves:
                    assert g.act(cc).weights == f.act(cc).weights
        ok = True
    finally:
        _line(2, "realized families agree with f on the system", ok)


# -- criterion 3 ---------------------------------------------------------------

def _brute_force_has_orbit(vertices, edges):
    """A cycle exists iff some nonempty subset induces its own successor
    structure with exactly one out-edge per vertex inside the subset."""
    vertices = list(vertices)
    n = len(vertices)
    for mask in range(1, 1 << n):
        sub = {vertices[i] for i in range(n) if mask >> i & 1}
        induced = [(u, v) for u, v in edges if u in sub and v in sub]
        if len(induced) != len(sub):
            continue
        if {u for u, _ in induced} == sub and {v for _, v in induced} == sub:
            return True
    return False


def test_criterion_3_chain_structure():
    ok = False
    try:
        rng = random.Random(33)
        for _ in range(200):
            names, edges = random_orbit_free_graph(rng)
            graph = OrbitGraph(names, edges)
            assert find_orbit(graph) is None
            assert not _brute_force_has_orbit(names, edges)
            chains = chain_decomposition(graph)
            got = {(ch.vertices, ch.representative) for ch in chains}
            assert got == brute_force_chains(names, edges)
            for ch in chains:
                assert ch.is_isolated == (len(ch.vertices) == 1)
        # brute force also agrees on the positive side
        for _ in range(30):
            names, edges = random_orbit_free_graph(rng)
            if len(names) < 2:
                continue
            chains = chain_decomposition(OrbitGraph(names, edges))
            tail = chains[0].vertices[-1]
            head = chains[0].representative
            closed = list(edges) + [(tail, head)]
            graph = OrbitGraph(names, closed)
            assert find_orbit(graph) is not None
            assert _brute_force_has_orbit(names, closed)
        ok = True
    finally:
        _line(3, "chain structure matches subset brute force", ok)


# -- criterion 4 ---------------------------------------------------------------

def test_criterion_4_completion(s11, s20, s12, s04, ab):
    ok = False
    try:
        c = MulticurveCoords(s20, (0, 0, 1, 0, 0, 0, 0, 1, 0))
        d = MulticurveCoords(s20, (1, 0, 0, 0, 0, 1, 0, 0, 0))
        x = MulticurveCoords(s20, (0, 1, 0, 1, 2, 1, 1, 1, 1))
        y = MulticurveCoords(s20, (0, 1, 0, 0, 0, 1, 1, 0, 0))
        named12 = standard_curves(s12)
        named04 = standard_curves(s04)
        fixtures = [
            (s11, {}, twist(ab[1], 1)),
            (s20, {"c": c}, twist(x, 1)),
            (s20, {"d": d}, twist(y, 1)),
            (s20, {}, twist(x, 1)),
            (s12, {"c0": named12["c0"]}, twist(named12["c1"], 1)),
            (s04, {}, twist(named04["c0"], 1)),
        ]
        assert len(fixtures) >= 5
        for tri, comps, f in fixtures:
            target = 3 * tri.genus + tri.num_punctures - 3
            sys_ = CurveSystem(tri, comps)
            started = time.monotonic()
            full, fp = maximalize(sys_, f)
            assert time.monotonic() - started < 60.0
            assert len(full) == target
            assert check_maximal(full)
            for name, cc in comps.items():
                assert fp.act(cc).weights == f.act(cc).weights
            assert find_orbit(build_gamma(full)) is None
        ok = True
    finally:
        _line(4, "completion postconditions", ok)


# -- criterion 5 ---------------------------------------------------------------

def test_criterion_5_dilatation_oracle(ab):
    ok = False
    try:
        a, b = ab
        words = [
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
        assert len(words) >= 10
        by_name = {"a": a, "b": b}
        for factors in words:
            trace = word_trace(factors)
            assert abs(trace) > 2
            enc = Encoding.identity(a.host)
            for name, k in factors:
                enc = enc * twist(by_name[name], k)
            started = time.monotonic()
            verdict = classify(enc).verdict
            assert time.monotonic() - started < 1.0
            assert isinstance(verdict, PseudoAnosovEvidence)
            lam = spectral_radius(trace)
            assert abs(verdict.lam_hat - lam) < Fraction(1, 10 ** 4)
        # the flagship word stretches by (3 + sqrt 5) / 2
        lam = spectral_radius(word_trace([("a", 1), ("b", -1)]))
        assert abs(lam - Fraction(2618033988749895, 10 ** 15)) \
            < Fraction(1, 10 ** 12)
        ok = True
    finally:
        _line(5, "dilatation matches the exact oracle", ok)


# -- criterion 6 ---------------------------------------------------------------

def test_criterion_6_conservation_and_axioms(s11, s20, s04, ab):
    ok = False
    try:
        # Euler characteristic conservation over the whole enumerated corpus,
        # including doubled curves and a full pants system
        corpora = {s11: 6, s20: 6, s04: 6}
        for tri, cap in corpora.items():
            vectors = list(enumerate_single_curves(tri, cap))
            vectors += [tuple(2 * w for w in v) for v in vectors[:4]]
            for vec in vectors:
                cut = cut_along(MulticurveCoords(tri, vec))
                assert sum(p.euler_characteristic for p in cut.pieces) \
                    == tri.euler_characteristic
        pants = MulticurveCoords(s20, tuple(
            p + q + r for p, q, r in zip((0, 0, 1, 0, 0, 0, 0, 1, 0),
                                         (1, 0, 0, 0, 0, 1, 0, 0, 0),
                                         (0, 0, 2, 2, 0, 0, 0, 2, 2))))
        cut = cut_along(pants)
        assert sum(p.euler_characteristic for p in cut.pieces) == -2

        # flip involution on coordinates
        for tri in (s11, s20):
            rels = {lab: flip_square_relabeling(tri, lab)
                    for lab in tri.edge_labels if tri.is_flippable(lab)}
            for vec in enumerate_single_curves(tri, 4):
                cc = MulticurveCoords(tri, vec)
                for lab, rel in rels.items():
                    loop = [Flip(lab), Flip(lab), Relabel(rel)]
                    assert reference_act(tri, loop, vec) == vec

        # twist group axioms on a randomized corpus
        rng = random.Random(66)
        pool = [MulticurveCoords(s11, v)
                for v in enumerate_single_curves(s11, 6)]
        pool += [MulticurveCoords(s20, v)
                 for v in enumerate_single_curves(s20, 4)]
        pool.append(MulticurveCoords(s20, (0, 0, 2, 2, 0, 0, 0, 2, 2)))
        probes = {s11: spanning_probes(s11), s20: spanning_probes(s20)}
        for _ in range(12):
            cc = rng.choice(pool)
            pr = probes[cc.host]
            ident = Encoding.identity(cc.host)
            assert len(twist(cc, 0)) == 0
            assert agree_on(twist(cc, 1) * twist(cc, -1), ident, pr)
            m, n = rng.randint(-2, 2), rng.randint(-2, 2)
            assert agree_on(twist(cc, m) * twist(cc, n),
                            twist(cc, m + n), pr)
        ok = True
    finally:
        _line(6, "conservation laws and twist axioms", ok)


# -- criterion 7 ---------------------------------------------------------------

def test_criterion_7_end_to_end(s11, s20, ab):
    ok = False
    try:
        a, b = ab
        res = search_twist_family(CurveSystem(s11, {"a": a}), twist(b, 1))
        assert isinstance(res, Accepted)
        assert max(abs(k) for k in res.exponents.values()) <= 10
        assert isinstance(res.report.verdict, PseudoAnosovEvidence)

        c = MulticurveCoords(s20, (0, 0, 1, 0, 0, 0, 0, 1, 0))
        x = MulticurveCoords(s20, (0, 1, 0, 1, 2, 1, 1, 1, 1))
        res2 = search_twist_family(CurveSystem(s20, {"c": c}), twist(x, 1))
        assert isinstance(res2, Accepted)
        assert max(abs(k) for k in res2.exponents.values()) <= 10
        assert isinstance(res2.report.verdict, PseudoAnosovEvidence)

        # exhaustion is reportable, not a failure
        res3 = search_twist_family(CurveSystem(s11, {"a": a}), twist(b, 1),
                                   SearchSchedule(k_max=3))
        assert isinstance(res3, Exhausted)
        assert len(res3.reports) == 3
        ok = True
    finally:
        _line(7, "end-to-end sweep acceptance", ok)
