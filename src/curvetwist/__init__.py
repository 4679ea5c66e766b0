"""
curvetwist: exact curve systems, twist families, and pseudo-Anosov
certification on standard triangulated surfaces.

Everything is integer arithmetic on normal coordinates: curves are weight
vectors, maps are flip sequences, and all decisions (disjointness, orbits,
periodicity, invariant multicurves) are exact.  Dilatations are reported as
rational estimates with certified residuals.
"""

from .surface import (TopologyError, Triangulation, Relabeling, flip,
                      isomorphisms, automorphisms, build_surface,
                      triangulation_to_json, triangulation_from_json)
from .curves import (InvalidCurveError, MulticurveCoords, validate,
                     is_single_curve, is_essential, is_parallel,
                     transform_under_flip, CutPiece, CutResult, cut_along,
                     enumerate_single_curves, standard_curves,
                     coords_to_jsonable, coords_from_jsonable)
from .mapping import (EncodingError, ShorteningError, Flip, Relabel,
                      Encoding, replay, intersects, spanning_probes, shorten,
                      twist, parse_twist_word, encoding_to_jsonable,
                      encoding_from_jsonable)
from .orbits import (SystemError_, IndependenceReport, CurveSystem,
                     check_independent, require_independent, check_maximal,
                     OrbitGraph, build_gamma, find_orbit, ChainComponent,
                     chain_decomposition)
from .classify import (decimal_string, Periodic, ReducibleEvidence,
                       PseudoAnosovEvidence, Inconclusive,
                       ClassificationReport, ClassifyParams, periodic_check,
                       invariant_multicurve_search, dilatation_estimate,
                       classify)
from .construct import (maximalize, SearchSchedule, Refused, Accepted,
                        Exhausted, search_twist_family)

__version__ = "0.1.0"

__all__ = [
    "TopologyError", "Triangulation", "Relabeling", "flip", "isomorphisms",
    "automorphisms", "build_surface", "triangulation_to_json",
    "triangulation_from_json",
    "InvalidCurveError", "MulticurveCoords", "validate", "is_single_curve",
    "is_essential", "is_parallel", "transform_under_flip",
    "CutPiece", "CutResult", "cut_along",
    "enumerate_single_curves", "standard_curves", "coords_to_jsonable",
    "coords_from_jsonable",
    "EncodingError", "ShorteningError", "Flip", "Relabel", "Encoding",
    "replay", "intersects", "spanning_probes", "shorten", "twist",
    "parse_twist_word", "encoding_to_jsonable", "encoding_from_jsonable",
    "SystemError_", "IndependenceReport", "CurveSystem",
    "check_independent", "require_independent", "check_maximal",
    "OrbitGraph", "build_gamma", "find_orbit", "ChainComponent",
    "chain_decomposition",
    "decimal_string", "Periodic", "ReducibleEvidence",
    "PseudoAnosovEvidence", "Inconclusive", "ClassificationReport",
    "ClassifyParams", "periodic_check", "invariant_multicurve_search",
    "dilatation_estimate", "classify",
    "maximalize", "SearchSchedule", "Refused", "Accepted", "Exhausted",
    "search_twist_family",
]
