"""
Command-line front end.

A workspace is a single JSON document describing one standard surface, named
curves on it, named maps (twist words or serialized encodings), an optional
curve system with a prescribed action, and default run parameters.  Every
subcommand reads the workspace, runs one library operation, and prints a
JSON report to standard output; diagnostics go to standard error.

Reports are byte-identical for identical inputs and seeds: keys are sorted,
weights and other possibly large integers are decimal strings, and wall
clock timings are included only when asked for with --timing.

Exit codes: 0 on success or an accepted candidate, 2 when an orbit in the
curve graph refuses the construction, 3 when the exponent sweep is
exhausted, 1 on any input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from .surface import (TopologyError, build_surface, triangulation_to_json)
from .curves import (InvalidCurveError, validate, is_single_curve,
                     is_essential, cut_along, coords_to_jsonable,
                     coords_from_jsonable, _strict_int, _refusal, _quoted,
                     _Strands)
from .mapping import (EncodingError, ShorteningError, parse_twist_word,
                      encoding_to_jsonable, encoding_from_jsonable)
from .orbits import (SystemError_, CurveSystem, build_gamma, find_orbit,
                     chain_decomposition)
from .classify import ClassifyParams, classify
from .construct import (SearchSchedule, search_twist_family,
                        _result_jsonable, _complete)


class WorkspaceError(ValueError):
    """Raised when the workspace document cannot be interpreted."""


_INPUT_ERRORS = (WorkspaceError, InvalidCurveError, TopologyError,
                 EncodingError, ShorteningError, SystemError_)


def _integer(least):
    """The rule of an integer setting no smaller than `least`."""
    def rule(key, val):
        n = _strict_int(val)
        if n is None or n < least:
            raise WorkspaceError(_refusal(key, val, "an integer >= %d"
                                          % least))
        return n
    return rule


def _decimal(key, val):
    text = str(val)
    # 0 where int() reads any number of digits (and before Python 3.10.7)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        # Fraction writes 10**exponent out in full: refuse an exponent above
        # the digit limit of int()
        exponent = abs(int(text.lower().partition("e")[2] or 0))
        x = Fraction(text) if not 0 < limit < exponent else None
    except (ValueError, ZeroDivisionError):
        x = None
    if x is None or x < 0:
        raise WorkspaceError(_refusal(key, val, "a non-negative decimal"))
    return x


def _boolean(key, val):
    if not isinstance(val, bool):
        raise WorkspaceError(_refusal(key, val, "true or false"))
    return val


# each run setting is a key of "params" and a flag of the commands reading
# it: its rule checks and reads a value from either, and the rest are the
# flag's argparse options
_SETTINGS = {
    "tolerance": (_decimal, {"help": "residual tolerance for dilatation "
                                     "agreement, as a decimal string"}),
    "weight_cap": (_integer(0), {"help": "weight cap of the classifier's "
                                         "invariant-multicurve seeds"}),
    "k_max": (_integer(1), {"help": "largest twist exponent in the sweep"}),
    "independent": (_boolean, {"action": "store_true", "help": "sweep "
                               "exponents independently per representative "
                               "instead of on the diagonal"}),
}


# -- workspace loading --------------------------------------------------------

class Workspace:
    """The parsed document: one surface, named curves and maps, an optional
    system, and parameter defaults that flags may override."""

    def __init__(self, tri, curves, maps, system, params):
        self.tri = tri
        self.curves = curves
        self.maps = maps
        self.system = system
        self.params = params

    def curve(self, name):
        if name not in self.curves:
            raise WorkspaceError("unknown curve name %s" % _quoted(name))
        return self.curves[name]

    def map(self, name):
        if name not in self.maps:
            raise WorkspaceError("unknown map name %s" % _quoted(name))
        return self.maps[name]

    def curve_system(self):
        if self.system is None:
            raise WorkspaceError('workspace declares no "system" block')
        comps = {n: self.curve(n) for n in self.system["components"]}
        return CurveSystem(self.tri, comps), self.map(self.system["map"])


# stands in for an integer of more digits than int() reads
_OVERLONG = object()


def _overlong_at(doc, where):
    """The path of the first _OVERLONG in `doc`, or None."""
    if doc is _OVERLONG:
        return where
    if isinstance(doc, (dict, list)):
        for k, v in doc.items() if isinstance(doc, dict) else enumerate(doc):
            found = _overlong_at(v, "%s[%s]" % (where, json.dumps(k)))
            if found:
                return found
    return None


def load_workspace(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise WorkspaceError("cannot read workspace: %s" % e)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise WorkspaceError("workspace is not valid JSON: %s" % e)
    except ValueError:
        # an integer past int()'s digit limit: parse again to name its place
        marked = json.loads(text, parse_int=lambda s: (
            _OVERLONG if _strict_int(s) is None else int(s)))
        raise WorkspaceError("the integer at %s has too many digits"
                             % _overlong_at(marked, "workspace"))
    if not isinstance(doc, dict):
        raise WorkspaceError("workspace must be a JSON object")

    surf = doc.get("surface")
    if not isinstance(surf, dict):
        raise WorkspaceError('workspace needs a "surface" object')
    genus = _strict_int(surf.get("genus"))
    punctures = _strict_int(surf.get("punctures", 0))
    if genus is None or punctures is None:
        raise WorkspaceError('surface needs integer "genus" and "punctures"')
    try:
        tri = build_surface(genus, punctures)
    except (TopologyError, ValueError) as e:
        raise WorkspaceError("unsupported surface: %s" % e)

    for field in ("curves", "maps", "params"):
        if not isinstance(doc.get(field, {}), dict):
            raise WorkspaceError('"%s" must be an object' % field)
    for key, val in doc.get("params", {}).items():
        if key not in _SETTINGS:
            raise WorkspaceError("unknown params key %s; the keys are %s"
                                 % (_quoted(key), ", ".join(_SETTINGS)))
        _SETTINGS[key][0](key, val)
    curves = {}
    for name, cdoc in doc.get("curves", {}).items():
        if not isinstance(cdoc, dict) or "weights" not in cdoc:
            raise WorkspaceError('curve %s needs a "weights" list'
                                 % _quoted(name))
        try:
            curves[name] = coords_from_jsonable(tri, cdoc)
            # the realizability laws of validate, without its trace: the
            # check costs one pass over the triangles, whatever the weight
            _Strands(tri, curves[name].weights)
        except (InvalidCurveError, ValueError, TypeError) as e:
            raise WorkspaceError("curve %s: %s" % (_quoted(name), e))

    maps = {}
    for name, mdoc in doc.get("maps", {}).items():
        if not isinstance(mdoc, dict):
            raise WorkspaceError("map %s must be an object" % _quoted(name))
        try:
            if "word" in mdoc:
                maps[name] = parse_twist_word(mdoc["word"], curves)
            elif "moves" in mdoc:
                maps[name] = encoding_from_jsonable(tri, mdoc)
            else:
                raise WorkspaceError(
                    'map %s needs "word" or "moves"' % _quoted(name))
        except (EncodingError, ShorteningError, InvalidCurveError,
                TopologyError) as e:
            raise WorkspaceError("map %s: %s" % (_quoted(name), e))

    system = doc.get("system")
    if system is not None:
        if (not isinstance(system, dict)
                or not isinstance(system.get("components"), list)
                or not all(isinstance(n, str) for n in system["components"])
                or not isinstance(system.get("map"), str)):
            raise WorkspaceError(
                'system needs "components" (a list of curve names) and '
                '"map" (a map name)')
        for k, n in enumerate(system["components"]):
            if n not in curves:
                raise WorkspaceError("system component %s is not a curve"
                                     % _quoted(n))
            if n in system["components"][:k]:
                raise WorkspaceError("system component %s is repeated"
                                     % _quoted(n))
        if system["map"] not in maps:
            raise WorkspaceError("system map %s is not a map"
                                 % _quoted(system["map"]))

    return Workspace(tri, curves, maps, system, doc.get("params", {}))


# -- parameter resolution -----------------------------------------------------

def _settings(args, ws, **fields):
    """{field: value} for each `field=key` whose setting is set, the flag
    winning over workspace params, the value read by the key's rule."""
    kw = {}
    for field, key in fields.items():
        val = getattr(args, key, None)
        if val is None:
            val = ws.params.get(key)
        if val is not None:
            kw[field] = _SETTINGS[key][0](key, val)
    return kw


def classify_params(args, ws):
    return ClassifyParams(**_settings(
        args, ws, weight_cap="weight_cap", residual_tol="tolerance"))


def search_schedule(args, ws):
    return SearchSchedule(classify_params=classify_params(args, ws),
                          **_settings(args, ws, k_max="k_max",
                                      independent="independent"))


# -- subcommand bodies --------------------------------------------------------

def cmd_surface_info(args, ws):
    tri = ws.tri
    return {
        "genus": tri.genus,
        "punctures": tri.num_punctures,
        "euler_characteristic": tri.euler_characteristic,
        "num_triangles": tri.num_triangles,
        "num_edges": tri.num_edges,
        "num_vertices": tri.num_vertices,
        "edge_labels": list(tri.edge_labels),
        "triangulation": json.loads(triangulation_to_json(tri)),
        "vertex_links": [[str(w) for w in link]
                         for link in tri.vertex_links()],
    }, 0


def cmd_curve_validate(args, ws):
    coords = ws.curve(args.curve)
    comps = validate(coords)
    return {
        "curve": args.curve,
        "valid": True,
        "component_count": sum(m for _, m in comps),
        "components": [{"weights": [str(x) for x in vec],
                        "multiplicity": mult} for vec, mult in comps],
        "is_single": is_single_curve(coords),
    }, 0


def cmd_curve_cut(args, ws):
    coords = ws.curve(args.curve)
    cut = cut_along(coords)
    pieces = [{
        "euler_characteristic": p.euler_characteristic,
        "boundary_circles": p.boundary_circles,
        "punctures": p.punctures,
        "contains_vertex": p.contains_vertex,
        "is_pants": p.is_pants,
    } for p in cut.pieces]
    return {
        "curve": args.curve,
        "pieces": pieces,
        "piece_count": len(pieces),
        "euler_sum": sum(p.euler_characteristic for p in cut.pieces),
        "has_vertex_free_piece": any(not p.contains_puncture_or_vertex
                                     for p in cut.pieces),
    }, 0


def cmd_curve_essential(args, ws):
    coords = ws.curve(args.curve)
    single = is_single_curve(coords)
    return {
        "curve": args.curve,
        "is_single": single,
        "essential": is_essential(coords) if single else False,
    }, 0


def cmd_map_act(args, ws):
    enc = ws.map(args.map)
    coords = ws.curve(args.curve)
    image = enc.act(coords)
    return {
        "map": args.map,
        "curve": args.curve,
        "image": coords_to_jsonable(image),
        "fixed": image.weights == coords.weights,
    }, 0


def cmd_map_compose(args, ws):
    encs = [ws.map(n) for n in args.map]
    enc = encs[0]
    for other in encs[1:]:
        enc = enc * other
    return {
        "maps": list(args.map),
        "encoding": encoding_to_jsonable(enc),
        "num_moves": len(enc),
    }, 0


def cmd_map_classify(args, ws):
    enc = ws.map(args.map)
    params = classify_params(args, ws)
    report = classify(enc, params)
    return {
        "map": args.map,
        "params": params.jsonable(),
        "report": report.to_jsonable(),
    }, 0


def _gamma(ws):
    """The orbit graph of the workspace system under its map, with the
    system checked for independence once."""
    sys_, f = ws.curve_system()
    return build_gamma(sys_.with_images(f))


def _orbit_report(ws, orbit):
    return {
        "system": dict(ws.system),
        "orbit": list(orbit),
        "period": len(orbit),
    }, 2


def cmd_gamma_build(args, ws):
    return {
        "system": dict(ws.system),
        "independence": {"ok": True, "problems": []},
        "graph": _gamma(ws).to_jsonable(),
    }, 0


def cmd_gamma_orbit(args, ws):
    orbit = find_orbit(_gamma(ws))
    if orbit is None:
        return {"system": dict(ws.system), "orbit": None}, 0
    return _orbit_report(ws, orbit)


def cmd_gamma_chains(args, ws):
    graph = _gamma(ws)
    orbit = find_orbit(graph)
    if orbit is not None:
        return _orbit_report(ws, orbit)
    chains = chain_decomposition(graph)
    return {
        "system": dict(ws.system),
        "chains": [{"vertices": list(ch.vertices),
                    "representative": ch.representative,
                    "is_isolated": ch.is_isolated} for ch in chains],
    }, 0


def cmd_construct_maximalize(args, ws):
    sys_, f = ws.curve_system()
    orbit = find_orbit(build_gamma(sys_.with_images(f)))
    if orbit is not None:
        return {
            "status": "refused",
            "orbit": list(orbit),
            "period": len(orbit),
        }, 2
    full, fp = _complete(sys_, f)
    added = [n for n in full.names if n not in sys_.components]
    return {
        "status": "completed",
        "system": {n: coords_to_jsonable(c)
                   for n, c in full.components.items()},
        "added": added,
        "images": {n: coords_to_jsonable(full.f_images[n])
                   for n in full.names},
        "map": encoding_to_jsonable(fp),
        "is_maximal": all(p.is_pants  # `full` was built independent
                          for p in cut_along(full.joint_coords()).pieces),
    }, 0


def cmd_construct_search(args, ws):
    sys_, f = ws.curve_system()
    schedule = search_schedule(args, ws)
    res = search_twist_family(sys_, f, schedule)
    code = {"accepted": 0, "refused": 2, "exhausted": 3}[res.status]
    return _result_jsonable(res, schedule), code


# -- driver ---------------------------------------------------------------------

def _add_common(p, *settings):
    """The workspace argument, --seed, --timing and one flag per setting."""
    p.add_argument("workspace", help="path to the workspace JSON document")
    p.add_argument("--seed", default=None,
                   help="seed recorded in the report (all algorithms are "
                        "deterministic; the seed pins the report bytes)")
    p.add_argument("--timing", action="store_true",
                   help="include wall clock seconds in the report (breaks "
                        "byte-for-byte reproducibility)")
    for key in settings:
        p.add_argument("--" + key.replace("_", "-"), dest=key, default=None,
                       **_SETTINGS[key][1])


class _Parser(argparse.ArgumentParser):
    """Argument errors are input errors: one line and exit 1, not
    argparse's usage and default 2, which this tool reserves for refused
    constructions."""

    def error(self, message):
        print("error: %s" % message, file=sys.stderr)
        raise SystemExit(1)


def build_parser():
    top = _Parser(
        prog="curvetwist",
        description="exact curve systems, twist families, and "
                    "pseudo-Anosov certification on standard surfaces")
    groups = top.add_subparsers(dest="group", required=True)

    surface = groups.add_parser("surface").add_subparsers(
        dest="action", required=True)
    _add_common(surface.add_parser("info",
                                   help="describe the standard surface"))

    curve = groups.add_parser("curve").add_subparsers(
        dest="action", required=True)
    for name, hlp in (("validate", "check and decompose a coordinate vector"),
                      ("cut", "cut the surface along a multicurve"),
                      ("essential", "test a single curve for essentiality")):
        p = curve.add_parser(name, help=hlp)
        _add_common(p)
        p.add_argument("curve", help="curve name from the workspace")

    map_ = groups.add_parser("map").add_subparsers(
        dest="action", required=True)
    p = map_.add_parser("act", help="apply a map to a curve")
    _add_common(p)
    p.add_argument("map")
    p.add_argument("curve")
    p = map_.add_parser("compose",
                        help="compose maps (leftmost applied last)")
    _add_common(p)
    p.add_argument("map", nargs="+")
    p = map_.add_parser("classify",
                        help="periodic / reducible / pseudo-Anosov evidence")
    _add_common(p, "tolerance", "weight_cap")
    p.add_argument("map")

    gamma = groups.add_parser("gamma").add_subparsers(
        dest="action", required=True)
    for name, hlp in (("build", "build the curve graph of the system"),
                      ("orbit", "look for an orbit (exit 2 when present)"),
                      ("chains", "chain decomposition of an orbit-free "
                                 "graph")):
        _add_common(gamma.add_parser(name, help=hlp))

    construct = groups.add_parser("construct").add_subparsers(
        dest="action", required=True)
    _add_common(construct.add_parser(
        "maximalize", help="complete the system preserving the action"))
    _add_common(construct.add_parser(
        "search", help="sweep twist exponents for pseudo-Anosov evidence"),
        *_SETTINGS)
    return top


_DISPATCH = {
    ("surface", "info"): cmd_surface_info,
    ("curve", "validate"): cmd_curve_validate,
    ("curve", "cut"): cmd_curve_cut,
    ("curve", "essential"): cmd_curve_essential,
    ("map", "act"): cmd_map_act,
    ("map", "compose"): cmd_map_compose,
    ("map", "classify"): cmd_map_classify,
    ("gamma", "build"): cmd_gamma_build,
    ("gamma", "orbit"): cmd_gamma_orbit,
    ("gamma", "chains"): cmd_gamma_chains,
    ("construct", "maximalize"): cmd_construct_maximalize,
    ("construct", "search"): cmd_construct_search,
}


# built by the first call of main, not at import: it holds no input-derived
# state, and parse_args returns a fresh namespace on every call
_PARSER = None


def main(argv=None):
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    started = time.monotonic()
    try:
        seed = 0 if args.seed is None else _strict_int(args.seed)
        if seed is None:
            raise WorkspaceError(_refusal("seed", args.seed, "an integer"))
        ws = load_workspace(args.workspace)
        report, code = _DISPATCH[(args.group, args.action)](args, ws)
    except _INPUT_ERRORS as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    report["command"] = "%s %s" % (args.group, args.action)
    report["seed"] = seed
    if args.timing:
        report["timing_seconds"] = round(time.monotonic() - started, 3)
    try:
        json.dump(report, sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away: point stdout at the null device so that the
        # interpreter's final flush of what is left cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
