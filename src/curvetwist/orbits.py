r"""
Curve systems, their orbit graph under a mapping class, and its structure.

A curve system is a named family of disjoint, essential, pairwise
non-parallel curves together with the coordinates of their images under a
mapping class f.  The orbit graph draws an edge c_i -> c_j exactly when
f(c_i) has the same normal coordinates as c_j; since coordinates are unique
per isotopy class and the curves are non-parallel, every vertex has at most
one outgoing and one incoming edge, so each component is a single vertex, a
chain, or a directed cycle.  A directed cycle is an f-orbit: a subfamily the
map permutes up to isotopy.  The presence of an orbit is the exact
obstruction this package decides; when none exists the graph decomposes into
chains, whose source vertices are the canonical twist sites downstream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .curves import (MulticurveCoords, InvalidCurveError, validate,
                     is_parallel, _traces_to, _has_annulus, cut_along,
                     _context)


class SystemError_(ValueError):
    """Raised when an operation needs an independent system and lacks one."""


@dataclass(frozen=True)
class IndependenceReport:
    ok: bool
    problems: tuple

    def __bool__(self):
        return self.ok


class CurveSystem:
    """Named disjoint curves on one host, with optional image coordinates.

    `components` maps names to MulticurveCoords in a fixed insertion order;
    `f_images`, when present, maps the same names to image coordinates on
    the same host.  Validation is deliberately deferred to
    check_independent so that defective systems can be diagnosed rather
    than rejected opaquely.
    """

    def __init__(self, host, components, f_images=None):
        self.host = host
        self.components = dict(components)
        for name, c in self.components.items():
            if c.host != host:
                raise InvalidCurveError(
                    "component %r lives on a different host" % name)
        self.f_images = dict(f_images) if f_images is not None else None
        if self.f_images is not None:
            if set(self.f_images) != set(self.components):
                raise InvalidCurveError("image names do not match components")
            for name, c in self.f_images.items():
                if c.host != host:
                    raise InvalidCurveError(
                        "image %r lives on a different host" % name)

    @classmethod
    def from_encoding(cls, host, components, f):
        comps = dict(components)
        images = {name: f.act(c) for name, c in comps.items()}
        return cls(host, comps, images)

    @property
    def names(self):
        return tuple(self.components)

    def __len__(self):
        return len(self.components)

    def joint_coords(self):
        total = [0] * self.host.num_edges
        for c in self.components.values():
            total = [x + y for x, y in zip(total, c.weights)]
        return MulticurveCoords(self.host, total)

    def with_images(self, f):
        return CurveSystem.from_encoding(self.host, self.components, f)


def check_independent(sys):
    """Essentiality, joint disjointness, non-parallelism, and the size
    bound, with diagnostics naming every offender.

    On an ideal model parallel curves have equal weights.  A closed model
    has one vertex, and its normal curves live in the surface minus it, so
    two disjoint curves of different weights can still be parallel in the
    surface, on either side of the vertex: exactly when their cut has an
    annulus piece, which then holds the vertex.  One cut of the system
    looks for such a piece, and only when it has one is each pair tested
    with is_parallel."""
    problems = []
    singles = {}
    links = _context(sys.host).links
    for name, c in sys.components.items():
        try:
            comps = validate(c)
        except InvalidCurveError as err:
            problems.append("%s: invalid coordinates (%s)" % (name, err))
            continue
        if len(comps) != 1 or comps[0][1] != 1:
            problems.append("%s: not a single curve" % name)
            continue
        if comps[0][0] in links:
            problems.append("%s: inessential (vertex or puncture link)" % name)
            continue
        singles[name] = c
    names = list(singles)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            if singles[names[i]].weights == singles[names[j]].weights:
                problems.append("%s and %s are parallel"
                                % (names[i], names[j]))
    if not problems and len(singles) > 1:
        joint = sys.joint_coords()
        if _traces_to(sys.host, joint.weights,
                      [c.weights for c in singles.values()]) is None:
            problems.append("components are not jointly disjoint")
        elif not sys.host.ideal and _has_annulus(joint):
            problems.extend(
                "%s and %s are parallel across the vertex" % (a, b)
                for a, b in itertools.combinations(names, 2)
                if is_parallel(singles[a], singles[b]))
    bound = 3 * sys.host.genus + sys.host.num_punctures - 3
    if len(sys.components) > bound:
        problems.append("%d components exceed the bound %d"
                        % (len(sys.components), bound))
    return IndependenceReport(not problems, tuple(problems))


def require_independent(sys):
    rep = check_independent(sys)
    if not rep.ok:
        raise SystemError_("; ".join(rep.problems))
    return rep


def check_maximal(sys):
    """True when every complementary piece of the system is a pair of
    pants."""
    require_independent(sys)
    pieces = cut_along(sys.joint_coords()).pieces
    return all(p.is_pants for p in pieces)


class OrbitGraph:
    """Directed graph on component names with in/out-degree at most one."""

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        vs = set(self.vertices)
        self.out_map = {}
        self.in_map = {}
        for src, dst in self.edges:
            if src not in vs or dst not in vs:
                raise ValueError("edge (%r, %r) leaves the vertex set"
                                 % (src, dst))
            if src in self.out_map:
                raise ValueError("vertex %r has out-degree above one" % src)
            if dst in self.in_map:
                raise ValueError("vertex %r has in-degree above one" % dst)
            self.out_map[src] = dst
            self.in_map[dst] = src

    def to_jsonable(self):
        return {
            "vertices": list(self.vertices),
            "edges": [[s, d] for s, d in self.edges],
            "adjacency": {v: ([self.out_map[v]] if v in self.out_map else [])
                          for v in self.vertices},
        }

    def __repr__(self):
        return "OrbitGraph(%d vertices, %d edges)" % (
            len(self.vertices), len(self.edges))


def build_gamma(sys):
    """The orbit graph: an edge c_i -> c_j exactly when the stored image of
    c_i equals c_j coordinatewise."""
    if sys.f_images is None:
        raise SystemError_("system has no image coordinates")
    require_independent(sys)
    return _orbit_graph(sys)


def _orbit_graph(sys):
    """build_gamma for a system with images already known to be
    independent."""
    by_coords = {c.weights: name for name, c in sys.components.items()}
    edges = []
    for name in sys.components:
        img = sys.f_images[name]
        hit = by_coords.get(img.weights)
        if hit is not None:
            edges.append((name, hit))
    return OrbitGraph(sys.names, edges)


def find_orbit(graph):
    """The vertex set of a directed cycle, or None.

    With in/out-degrees at most one, a subfamily mapped to itself exists
    exactly when the graph has a directed cycle (a self-loop counts).  Among
    several cycles the one with the lexicographically least sorted vertex
    tuple is returned, listed in cycle order from its least vertex.
    """
    best = None
    seen = set()
    for start in graph.vertices:
        if start in seen:
            continue
        trail = []
        pos = {}
        v = start
        while v is not None and v not in pos:
            pos[v] = len(trail)
            trail.append(v)
            v = graph.out_map.get(v)
        seen.update(trail)
        if v is not None and v in pos:
            cycle = trail[pos[v]:]
            key = tuple(sorted(cycle))
            if best is None or key < best[0]:
                least = cycle.index(min(cycle))
                best = (key, tuple(cycle[least:] + cycle[:least]))
    return None if best is None else best[1]


@dataclass(frozen=True)
class ChainComponent:
    vertices: tuple
    representative: str

    @property
    def is_isolated(self):
        return len(self.vertices) == 1


def chain_decomposition(graph):
    """Split an orbit-free graph into chains and isolated vertices.

    Each component is listed source to sink with the source (in-degree zero)
    as its representative; components are sorted by representative name.
    Raises if the graph still contains a cycle.
    """
    if find_orbit(graph) is not None:
        raise SystemError_("graph contains an orbit; no chain decomposition")
    sources = [v for v in graph.vertices if v not in graph.in_map]
    out = []
    covered = set()
    for src in sources:
        chain = [src]
        v = graph.out_map.get(src)
        while v is not None:
            chain.append(v)
            v = graph.out_map.get(v)
        covered.update(chain)
        out.append(ChainComponent(tuple(chain), src))
    if covered != set(graph.vertices):
        raise ValueError("vertices %r not reachable from any source"
                         % sorted(set(graph.vertices) - covered))
    out.sort(key=lambda ch: ch.representative)
    return out
