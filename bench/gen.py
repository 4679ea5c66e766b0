"""
Input generator: builds one workload's inputs from a seed and writes them
to a directory.

    python3 bench/gen.py --workload NAME --seed N --out DIR

Everything that only the package can derive (the ladder's curves, the
curve-swapping involution of the genus-2 model, the separating curve, the
filling check of the Penner system, heavy curve images, probe families)
is computed here anew, in a process of its own, so the timed workers start
with the package's caches empty.  Seeded choices (word corpora, sizes, the
order of operations) use the benchmark's own generator.  The result is
DIR/inputs.json plus, for search_ladder, one workspace file per search.
"""

import argparse
import json
import os
import random
import sys

from oracle import spectral_radius, torus_probes, trace, \
    weights_of_slope, word_class, word_matrix
from worker import import_package

LADDER = ((1, 1), (2, 0), (1, 2), (0, 5), (2, 1), (3, 0))
# rungs whose warm passes would dominate the run; timed cold only
COLD_ONLY = {(3, 0)}
LADDER_K_MAX = 4


def fraction_text(fr):
    return "%d/%d" % (fr.numerator, fr.denominator)


def weights_text(w):
    return [str(x) for x in w]


def ladder_curves(ct, tri):
    """c: the first essential curve of weight <= 8; d: the heaviest
    weight-<= 8 curve crossing it (last in weight-then-lex order)."""
    vecs = ct.enumerate_single_curves(tri, 8)
    c = ct.MulticurveCoords(tri, vecs[0])
    crossing = [v for v in vecs
                if ct.intersects(c, ct.MulticurveCoords(tri, v))]
    return vecs[0], max(crossing, key=lambda v: (sum(v), v))


def genus_two_system(ct):
    """The genus-2 model's curves used by two workloads.

    c is the first essential curve; the model's curve-swapping involution
    sends it to d; sep is the first isolating curve disjoint from both, so
    {c, d, sep} is a pants system; x is the first curve crossing all three
    for which every spanning probe meets one of c, d, sep, x (the Penner
    filling check).
    """
    tri = ct.build_surface(2, 0)
    vecs = ct.enumerate_single_curves(tri, 8)
    curve = lambda v: ct.MulticurveCoords(tri, v)
    c = curve(vecs[0])
    swap = None
    for rel in ct.automorphisms(tri):
        if rel.is_edge_identity():
            continue
        enc = ct.Encoding(tri, [ct.Relabel(rel)])
        image = enc.act(c)
        if image.weights != c.weights and enc.act(image).weights == c.weights \
                and not ct.intersects(c, image):
            swap = enc
            break
    if swap is None:
        raise SystemExit("gen: no curve-swapping involution on S(2,0)")
    d = swap.act(c)
    sep = None
    for v in vecs:
        s = curve(v)
        if v in (c.weights, d.weights) or ct.intersects(s, c) \
                or ct.intersects(s, d):
            continue
        if any(not p.contains_puncture_or_vertex
               for p in ct.cut_along(s).pieces):
            sep = s
            break
    if sep is None:
        raise SystemExit("gen: no separating curve disjoint from c and d")
    probes = ct.spanning_probes(tri)
    pants = (c, d, sep)
    x = None
    for v in vecs:
        cand = curve(v)
        if not all(ct.intersects(cand, p) for p in pants):
            continue
        if all(any(ct.intersects(pr, q) for q in pants + (cand,))
               for pr in probes):
            x = cand
            break
    if x is None:
        raise SystemExit("gen: no curve fills with the pants system")
    names = {"c": c, "d": d, "sep": sep, "x": x}
    return tri, names, swap, probes


def gen_search_ladder(ct, seed, out):
    rng = random.Random(seed)
    searches = []

    def write(name, doc):
        path = os.path.join(out, "ws_%s.json" % name)
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
        return path

    for g, h in LADDER:
        tri = ct.build_surface(g, h)
        c, d = ladder_curves(ct, tri)
        name = "rung_S%d_%d" % (g, h)
        path = write(name, {
            "surface": {"genus": g, "punctures": h},
            "curves": {"c": {"weights": weights_text(c)},
                       "d": {"weights": weights_text(d)}},
            "maps": {"f": {"word": "T(d)"}},
            "system": {"components": ["c"], "map": "f"},
            "params": {"k_max": LADDER_K_MAX},
        })
        searches.append({"name": name, "workspace": path,
                         "warm": (g, h) not in COLD_ONLY,
                         "expect": {"kind": "rung",
                                    "curves": 3 * g + h - 3}})

    s11 = ct.build_surface(1, 1)
    named = ct.standard_curves(s11)
    a, b = named["a"].weights, named["b"].weights
    # the first exponent k with T_b T_a^k hyperbolic, and its dilatation
    k = next(k for k in range(1, 20)
             if abs(trace(word_matrix([("b", 1), ("a", k)]))) > 2)
    lam = spectral_radius(trace(word_matrix([("b", 1), ("a", k)])))
    flagship = {
        "surface": {"genus": 1, "punctures": 1},
        "curves": {"a": {"weights": weights_text(a)},
                   "b": {"weights": weights_text(b)}},
        "maps": {"f": {"word": "T(b)"}},
        "system": {"components": ["a"], "map": "f"},
        "params": {},
    }
    searches.append({"name": "flagship_S1_1",
                     "workspace": write("flagship", flagship), "warm": True,
                     "expect": {"kind": "accepted", "exponents": {"a": k},
                                "lambda": fraction_text(lam)}})
    flagship["params"] = {"k_max": k - 2}
    searches.append({"name": "flagship_exhausted",
                     "workspace": write("exhausted", flagship), "warm": True,
                     "expect": {"kind": "exhausted", "k_max": k - 2}})

    _, names, swap, _ = genus_two_system(ct)
    refused = write("refused", {
        "surface": {"genus": 2, "punctures": 0},
        "curves": {n: {"weights": weights_text(names[n].weights)}
                   for n in ("c", "d")},
        "maps": {"swap": ct.encoding_to_jsonable(swap)},
        "system": {"components": ["c", "d"], "map": "swap"},
        "params": {},
    })
    searches.append({"name": "swap_refused_S2_0", "workspace": refused,
                     "warm": True, "expect": {"kind": "refused",
                                              "orbit": ["c", "d"],
                                              "period": 2}})
    rng.shuffle(searches)
    return {"searches": searches}


# -- classify_words -----------------------------------------------------------

# (class, length) -> words per corpus; lengths are numbers of factors.
# "beyond_cap" words are reducible with a fixed curve heavier than
# REDUCING_CAP (none has 2 factors); a fixed number of them keeps the mix of
# classify()'s paths the same for every seed.
TORUS_QUOTA = {("pseudo_anosov", 2): 8, ("pseudo_anosov", 4): 14,
               ("pseudo_anosov", 6): 14, ("periodic", 2): 5,
               ("periodic", 4): 4, ("periodic", 6): 3,
               ("reducible", 2): 2, ("reducible", 4): 4,
               ("reducible", 6): 4, ("beyond_cap", 4): 1,
               ("beyond_cap", 6): 1}
PENNER_WORDS = 12
MULTITWISTS = 6
# classify()'s default search cap for invariant multicurves
REDUCING_CAP = 8


def word_text(factors):
    return " * ".join("T(%s)" % n if k == 1 else "T(%s)^%d" % (n, k)
                      for n, k in factors)


def torus_words(rng):
    """Alternating words in a, b with exponents in +-1..3, drawn until each
    (class, length) cell of TORUS_QUOTA is full.

    classify() documents that its invariant-multicurve search stops at
    REDUCING_CAP and that it falls back to Inconclusive; a reducible word
    whose fixed curve is heavier grows linearly, so its expected verdict is
    Inconclusive for growth that is not exponential.
    """
    need = dict(TORUS_QUOTA)
    out = []
    while any(need.values()):
        length = rng.choice((2, 4, 6))
        first = rng.randrange(2)
        factors = [("ab"[(first + j) % 2], rng.choice((1, 2, 3)) *
                    rng.choice((1, -1))) for j in range(length)]
        kind, value = word_class(factors)
        if kind == "reducible" and \
                sum(weights_of_slope(*value)) > REDUCING_CAP:
            kind = "beyond_cap"
        if not need.get((kind, length)):
            continue
        if kind in ("reducible", "beyond_cap"):
            expect = {"kind": kind, "slope": list(value)}
        elif kind == "periodic":
            expect = {"kind": kind, "order": value}
        else:
            expect = {"kind": kind, "lambda": fraction_text(value)}
        need[(kind, length)] -= 1
        out.append({"surface": "s11", "word": word_text(factors),
                    "expect": expect})
    return out


def genus_two_words(rng):
    """Penner words (positive twists on the pants system c, d, sep and
    negative twists on x, each curve once) and multitwists on the pants
    system."""
    out = []
    for _ in range(PENNER_WORDS):
        factors = [("c", rng.choice((1, 2))), ("d", rng.choice((1, 2))),
                   ("sep", 1), ("x", -rng.choice((1, 2)))]
        rng.shuffle(factors)
        out.append({"surface": "s20", "word": word_text(factors),
                    "expect": {"kind": "penner"}})
    for _ in range(MULTITWISTS):
        factors = [("c", rng.choice((1, 2, 3)) * rng.choice((1, -1))),
                   ("d", rng.choice((1, 2, 3)) * rng.choice((1, -1))),
                   ("sep", rng.choice((1, -1)))]
        rng.shuffle(factors)
        out.append({"surface": "s20", "word": word_text(factors),
                    "expect": {"kind": "multitwist"}})
    return out


def gen_classify_words(ct, seed, out):
    rng = random.Random(seed)
    _, names, _, _ = genus_two_system(ct)
    words = torus_words(rng) + genus_two_words(rng)
    rng.shuffle(words)
    s11 = ct.standard_curves(ct.build_surface(1, 1))
    return {"s11": {n: list(s11[n].weights) for n in ("a", "b")},
            "s20": {n: list(c.weights) for n, c in names.items()},
            "words": words}


# -- heavy_powers -------------------------------------------------------------

# two sizes per operation; the seed moves each by at most 2 %
BASE_SIZES = {"n_twist": (100, 1000), "n_trace": (1000, 10000),
              "m_sep": (0, 100), "k_power": (10, 40),
              "k_classify": (100, 1000)}
LONG_WORD = "T(c) * T(d)^-1 * T(x)"


def gen_heavy_powers(ct, seed, out):
    rng = random.Random(seed)
    sizes = {key: [n + rng.randrange(n // 50 + 1) for n in base]
             for key, base in BASE_SIZES.items()}
    _, names, _, probes = genus_two_system(ct)
    images = {}
    for m in sizes["m_sep"]:
        z = ct.twist(names["x"], m).act(names["sep"])
        images[str(m)] = {
            "weights": weights_text(z.weights),
            "fixed_probes": [not ct.intersects(pr, z) for pr in probes]}
    e = ct.parse_twist_word(LONG_WORD, names)
    s11 = ct.standard_curves(ct.build_surface(1, 1))
    return {"sizes": sizes,
            "b": list(s11["b"].weights),
            "s20_probes": [list(p.weights) for p in probes],
            "sep_images": images,
            "long_word": ct.encoding_to_jsonable(e),
            "torus_probes": [list(w) for w in torus_probes()]}


GENERATORS = {"search_ladder": gen_search_ladder,
              "classify_words": gen_classify_words,
              "heavy_powers": gen_heavy_powers}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    ct = import_package()
    os.makedirs(args.out, exist_ok=True)
    data = GENERATORS[args.workload](ct, args.seed, os.path.abspath(args.out))
    data["seed"] = args.seed
    with open(os.path.join(args.out, "inputs.json"), "w") as fh:
        json.dump(data, fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
