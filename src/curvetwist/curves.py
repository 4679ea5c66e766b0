r"""
Integer normal coordinates for multicurves on a triangulated surface.

A multicurve assigns a non-negative integer weight to every edge: the number
of transverse intersections of its normal representative with that edge.  A
weight vector is realizable iff in every triangle the three side weights
(a, b, c) have even sum and satisfy the triangle inequalities; the curve then
decomposes each triangle into corner arcs, with

    n_j = (w_j + w_{j+1} - w_{j+2}) / 2

arcs cutting off corner j (the corner between sides j and j+1).  Normal
representatives are unique per isotopy class, so exact vector equality is
isotopy ("parallel") testing, sums of disjoint curves add coordinatewise, and
tracing the strand structure below recovers the components of any vector.

Arcs are indexed (t, j, k) with k = 0 the innermost arc at corner j of
triangle t, and the tracer numbers them by integers in that order.  On side
i (which runs from corner i-1 to corner i) the crossing points are numbered
0..w-1 from the start; the first n_{i-1} belong to corner i-1, innermost
arc first, and the last n_i to corner i, outermost arc first.  Glued sides
traverse the common edge in opposite directions, so point q on one side is
point w-1-q on the other.  All weights are arbitrary-precision integers.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from operator import eq

from .surface import Triangulation, TopologyError, _flip, _find, _union


class InvalidCurveError(ValueError):
    """Raised when a weight vector violates the normal-coordinate laws."""


class MulticurveCoords:
    """A weight vector on the edges of a host triangulation.

    Weights are stored as a tuple indexed by edge number: weights[e] is the
    weight of the edge labelled e.  Values are immutable; `labels`, if
    given, names the traced components in decomposition order.
    """

    __slots__ = ("host", "weights", "labels")

    def __init__(self, host, weights, labels=None):
        if not isinstance(host, Triangulation):
            raise InvalidCurveError("host must be a Triangulation")
        w = tuple(int(x) for x in weights)
        if len(w) != host.num_edges:
            raise InvalidCurveError(
                "expected %d weights, got %d" % (host.num_edges, len(w)))
        if any(x < 0 for x in w):
            raise InvalidCurveError("negative weight")
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "labels", tuple(labels) if labels else None)

    def __setattr__(self, *a):
        raise AttributeError("MulticurveCoords is immutable")

    def weight_of(self, label):
        return self.weights[label]

    @property
    def total_weight(self):
        return sum(self.weights)

    def __eq__(self, other):
        return (isinstance(other, MulticurveCoords)
                and self.host == other.host
                and self.weights == other.weights)

    def __hash__(self):
        return hash((self.host, self.weights))

    def __repr__(self):
        return "MulticurveCoords(%s)" % (self.weights,)


def _join_arcs(tri, first, counts, parent):
    """Join the two arcs through each point of each edge in the union-find
    `parent`, the larger root under the smaller, so each tree is rooted at
    the least arc of its component; arcs are numbered as in _Strands."""
    near, far = [], []
    for s, p in enumerate(tri._glue):
        if s > p:
            continue
        a, b = s - s % 3 + (s - 1) % 3, p - p % 3 + (p - 1) % 3
        # point q of side s, and the same point w-1-q of side p: the
        # counts of the corners at either end of a side add up to its
        # weight, so each of the w points is met by one arc from each side
        near += range(first[a], first[a] + counts[a])
        near += range(first[s] + counts[s] - 1, first[s] - 1, -1)
        far += range(first[p], first[p] + counts[p])
        far += range(first[b] + counts[b] - 1, first[b] - 1, -1)
    for x, y in zip(near, far):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x < y:
            parent[y] = x
        elif y < x:
            parent[x] = y


class _Strands:
    """The arcs of a realizable weight vector, numbered, and how they meet.

    Corner j of triangle t is numbered 3t + j, like slot (t, j), and the
    arcs corner by corner in (t, j, k) order: arc (t, j, k) is
    first[3t + j] + k, and counts[3t + j] arcs cut off that corner.
    """

    def __init__(self, tri, weights):
        self.tri = tri
        self.weights = tuple(weights)
        side = [self.weights[lab]
                for lab in chain.from_iterable(tri.triangles)]
        self.counts = counts = []
        for t in range(tri.num_triangles):
            w = tuple(side[3 * t:3 * t + 3])
            half, odd = divmod(w[0] + w[1] + w[2], 2)
            if odd:
                raise InvalidCurveError(
                    "triangle %d has odd weight sum %r" % (t, w))
            # corner j is cut off by (w_j + w_{j+1} - w_{j+2}) / 2 arcs
            for j in range(3):
                if half < w[j - 1]:
                    raise InvalidCurveError(
                        "triangle %d violates the triangle inequality at "
                        "corner %d: %r" % (t, j, w))
                counts.append(half - w[j - 1])
        self.first = list(accumulate(counts, initial=0))

    def trace(self):
        """Group arcs into curve components.

        Returns (components, arc_component) where components is a tuple of
        weight vectors in sorted order and arc_component lists, per arc
        number, its index in that tuple.

        The arcs are joined by _join_arcs, and one forward pass then leaves
        every arc pointing at its root, the least arc of its component.
        """
        tri, first, counts = self.tri, self.first, self.counts
        parent = list(range(first[-1]))
        _join_arcs(tri, first, counts, parent)
        for x in range(len(parent)):
            parent[x] = parent[parent[x]]
        # an arc at corner j crosses sides j and j+1, so each component
        # meets each point of its edges twice
        corner = list(chain.from_iterable(map(repeat, range(len(counts)),
                                              counts)))
        vecs = {}
        for (root, c), m in Counter(zip(parent, corner)).items():
            vec = vecs.get(root)
            if vec is None:
                vec = vecs[root] = [0] * tri.num_edges
            sides = tri.triangles[c // 3]
            vec[sides[c % 3]] += m
            vec[sides[(c + 1) % 3]] += m
        vectors = []
        for root, vec in vecs.items():
            if any(x % 2 for x in vec):
                raise InvalidCurveError("inconsistent strand trace")
            vectors.append((tuple([x // 2 for x in vec]), root))
        vectors.sort()
        index_of_root = {root: k for k, (_, root) in enumerate(vectors)}
        return (tuple([v for v, _ in vectors]),
                list(map(index_of_root.__getitem__, parent)))


def validate(coords):
    """Check realizability and trace the components.

    Returns a tuple of (vector, multiplicity) pairs, lexicographically
    sorted; parallel components share a vector and add to multiplicity.
    Raises InvalidCurveError for unrealizable vectors.
    """
    strands = _Strands(coords.host, coords.weights)
    vectors, _ = strands.trace()
    out = []
    for v in vectors:
        if out and out[-1][0] == v:
            out[-1] = (v, out[-1][1] + 1)
        else:
            out.append((v, 1))
    return tuple(out)


def is_single_curve(coords):
    comps = validate(coords)
    return len(comps) == 1 and comps[0][1] == 1


def _flipped_weight(coords, label, quad):
    """The weight of edge `label` after flipping it, given its quad."""
    w = coords.weights
    _, _, a, b, c, d = quad
    return max(w[a] + w[c], w[b] + w[d]) - w[label]


def transform_under_flip(coords, label):
    r"""Transport normal coordinates through a flip of one edge.

    With quad sides a, b, c, d (a,c and b,d opposite) and old diagonal e, the
    new diagonal weight is max(a+c, b+d) - e; all other edges keep their
    weights.  Repeated side labels simply read the same weight twice.
    Returns coordinates on the flipped host.
    """
    quad = coords.host.quad(label)
    if quad is None:
        raise InvalidCurveError("edge %r is not flippable" % (label,))
    return _transported(coords, label, quad)


def _transported(coords, label, quad):
    """transform_under_flip(coords, label), given the edge's quad."""
    new_w = list(coords.weights)
    # a flip keeps every edge label, so the weights stay aligned
    new_w[label] = _flipped_weight(coords, label, quad)
    return MulticurveCoords(_flip(coords.host, label, quad), new_w)


def is_parallel(a, b):
    """Isotopy test for single curves: equal vectors, or on a closed model
    also two disjoint curves parallel across its vertex, whose cut then has
    an annulus piece holding the vertex."""
    if a.host != b.host:
        raise InvalidCurveError("curves live on different hosts")
    if a.weights == b.weights or a.host.ideal:
        return a.weights == b.weights
    union = MulticurveCoords(a.host, map(sum, zip(a.weights, b.weights)))
    return not _crossing(a.host, a.weights, b.weights) \
        and _has_annulus(union)


def is_essential(coords):
    """True unless the (single) curve is a vertex or puncture link.

    On one-vertex and ideal triangulations the links are the only
    inessential normal curves, so essentiality is exclusion against the
    precomputed link coordinates of the host.
    """
    comps = validate(coords)
    if len(comps) != 1 or comps[0][1] != 1:
        raise InvalidCurveError("essentiality test expects a single curve")
    return comps[0][0] not in _context(coords.host).links


def _traces_to(tri, weights, expected):
    """(first, components, arc_component) of `weights` when it is realizable
    with exactly the component vectors in `expected` (a multiset), else
    None; `first` numbers its arcs (see _Strands) and the rest is its
    strand trace."""
    try:
        strands = _Strands(tri, weights)
        comps, arc_component = strands.trace()
    except InvalidCurveError:
        return None
    if list(comps) != sorted(expected):
        return None
    return strands.first, comps, arc_component


def _crossing(tri, v, w):
    """True when the known single curves v and w (weight vectors) cross:
    their sum traces to both iff they are disjoint.  One trace, no checks."""
    return _traces_to(tri, [x + y for x, y in zip(v, w)], (v, w)) is None


# -- cutting along a multicurve ------------------------------------------------

@dataclass(frozen=True)
class CutPiece:
    """One complementary region of a multicurve.

    euler_characteristic counts punctures as removed points (compactly
    supported chi), so the sum over pieces equals chi of the host surface.
    boundary_circles counts the curve-side boundary components.
    """
    euler_characteristic: int
    boundary_circles: int
    punctures: int
    contains_vertex: bool

    @property
    def contains_puncture_or_vertex(self):
        return self.contains_vertex or self.punctures > 0

    @property
    def is_pants(self):
        return (self.euler_characteristic == -1
                and self.boundary_circles + self.punctures == 3)


class CutResult:
    """The decomposition of the host along a multicurve.

    Exposes the pieces plus enough cell bookkeeping to locate a disjoint
    curve inside one of the pieces.  The cells of the cut are numbered like
    the arcs (see _Strands): cell first[c] + k lies between arcs k-1 and k
    of corner c (k = 0 holds the corner), and cell first[-1] + t is the
    centre of triangle t.  Pieces are listed in the order of their roots.
    """

    def __init__(self, coords):
        tri = coords.host
        self._tri = tri
        self._coords = coords
        strands = _Strands(tri, coords.weights)
        comps, arc_component = strands.trace()
        self._components = comps
        self._placed = {}       # see place
        self._first = first = strands.first
        counts = strands.counts
        z = first[-1]

        # segment q of side s (q = 0..w) spans its points q-1..q: the cells
        # at the corner where s starts, the centre, then those at its end;
        # the partner side p reads the same segments from its far end
        near, far = [], []
        for s, p in enumerate(tri._glue):
            if s > p:
                continue
            a, b = s - s % 3 + (s - 1) % 3, p - p % 3 + (p - 1) % 3
            near += range(first[a], first[a] + counts[a])
            near.append(z + s // 3)
            near += range(first[s] + counts[s] - 1, first[s] - 1, -1)
            far += range(first[p], first[p] + counts[p])
            far.append(z + p // 3)
            far += range(first[b] + counts[b] - 1, first[b] - 1, -1)
        # the pieces are listed by root, so the roots must not depend on
        # anything but these unions, in this order, near root under far
        parent = list(range(z + tri.num_triangles))
        for x, y in zip(near, far):
            _union(parent, x, y)
        roots = [_find(parent, x) for x in range(len(parent))]
        ids = {r: k for k, r in enumerate(sorted(set(roots)))}
        self._region = region = list(map(ids.__getitem__, roots))
        nregions = len(ids)

        cells_in = Counter(region)
        segs_in = Counter(map(region.__getitem__, near))
        verts_in = [0] * nregions
        punct_in = [0] * nregions
        # the end segments of each side join the corners across it, so
        # all the corners of a vertex lie in one piece
        vertex_region = {v: region[self._cell(c, 0)]
                         for c, v in enumerate(tri._corner_vertex)}
        for r in vertex_region.values():
            if tri.ideal:
                punct_in[r] += 1
            else:
                verts_in[r] += 1

        circles = [0] * nregions
        # the least arc of each component, from either side of which a
        # cell of each adjacent piece is read: arc a has cell a on its
        # corner side
        least = dict(zip(reversed(arc_component),
                         range(len(arc_component) - 1, -1, -1)))
        for a in least.values():
            c = bisect_right(first, a) - 1
            circles[region[a]] += 1
            circles[region[self._cell(c, a - first[c] + 1)]] += 1

        # punctures are ideal vertices and never enter the cell count, which
        # is exactly the compactly supported convention
        self._pieces = tuple(
            CutPiece(cells_in[r] - segs_in[r] + verts_in[r], circles[r],
                     punct_in[r], verts_in[r] > 0) for r in range(nregions))

    def _cell(self, c, k):
        """The cell between arcs k-1 and k of corner c, k <= its arcs."""
        first = self._first
        if first[c] + k < first[c + 1]:
            return first[c] + k
        return first[-1] + c // 3

    @property
    def pieces(self):
        return self._pieces

    def _piece_of(self, d_vec, first, comps, arc_component):
        """The cut piece holding the component d_vec, parallel to no system
        component, of a traced union: the first d-arc, k-th at its corner c,
        has only system arcs below it there, so it lies in the cut cell
        between the system's arcs k-1 and k at c."""
        a = arc_component.index(comps.index(d_vec))
        c = bisect_right(first, a) - 1
        return self._region[self._cell(c, a - first[c])]

    def place(self, vec):
        """The piece holding the essential single curve `vec`, or None when
        it meets the system or is parallel to a system component.  The
        first ask traces vec together with the system; the answer is kept
        for the lifetime of the cut, so each vector is traced at most once
        per cut."""
        placed = self._placed
        if vec not in placed:
            placed[vec] = None
            if vec not in self._components:
                trace = _traces_to(self._tri, [
                    x + y for x, y in zip(self._coords.weights, vec)
                ], self._components + (vec,))
                if trace is not None:
                    placed[vec] = self._piece_of(vec, *trace)
        return placed[vec]


def cut_along(coords):
    """Cut the host along the multicurve; returns a CutResult."""
    return CutResult(coords)


def _has_annulus(coords):
    """True when the cut along `coords` has an annulus piece: chi 0 and two
    boundary circles, with or without the vertex."""
    return any(p.euler_characteristic == 0 and p.boundary_circles == 2
               for p in cut_along(coords).pieces)


# -- the per-surface context ---------------------------------------------------

class _SurfaceContext:
    """What the package derives from one triangulation, each fact at most
    once: the vertex links, the essential single curves enumerated so far,
    the spanning probes, and per curve weight vector its shortening and its
    twist parts (mapping._shortening and mapping._twist_parts)."""

    def __init__(self, tri):
        self.links = frozenset(tri.vertex_links())
        self.cap = 0            # singles: every curve of weight <= cap,
        self.singles = ()       # sorted by (total weight, vector)
        self.probes = None
        self.shortenings = {}
        self.twists = {}


# one context per triangulation value, kept for the life of the process
_CONTEXTS = {}


def _context(tri):
    if tri not in _CONTEXTS:
        _CONTEXTS[tri] = _SurfaceContext(tri)
    return _CONTEXTS[tri]


# -- enumeration ---------------------------------------------------------------

def _enumerate_vectors(tri, lo, hi):
    """All realizable weight vectors with lo < total weight <= hi."""
    m = tri.num_edges
    # assignment order completing triangles as early as possible
    order = []
    remaining = set(range(m))
    while remaining:
        def openness(e):
            return min(sum(1 for x in te if x in remaining)
                       for te in tri.triangles if e in te)
        nxt = min(remaining, key=lambda e: (openness(e), e))
        order.append(nxt)
        remaining.discard(nxt)
    pos_of = {e: k for k, e in enumerate(order)}
    # per position, the other two sides of each triangle its edge
    # completes, or the whole triangle when the edge is on two of its sides
    pairs, repeats = [[] for _ in range(m)], [[] for _ in range(m)]
    for te in tri.triangles:
        k = max(map(pos_of.__getitem__, te))
        if te.count(order[k]) == 1:
            pairs[k].append([x for x in te if x != order[k]])
        else:
            repeats[k].append(te)

    out = []
    vec = [0] * m

    def fits(te):
        w = [vec[x] for x in te]
        return sum(w) % 2 == 0 and 2 * max(w) <= sum(w)

    def dfs(k, budget):
        # a triangle whose other sides are set to a and b takes |a - b| ..
        # a + b, of the parity of a + b, on this edge; the triangles one
        # edge completes intersect their ranges
        low, high, step = 0, budget, 1
        for x, y in pairs[k]:
            a, b = vec[x], vec[y]
            if step == 2 and (low - a - b) % 2:
                return
            low, high, step = max(low, abs(a - b)), min(high, a + b), 2
        e, checks = order[k], repeats[k]
        for val in range(low, high + 1, step):
            vec[e] = val
            if checks and not all(map(fits, checks)):
                continue
            if k + 1 < m:
                dfs(k + 1, budget - val)
            elif budget - val < hi - lo:
                out.append(tuple(vec))
        vec[e] = 0

    dfs(0, hi)
    return out


def _one_curve(tri, vec):
    """True when the realizable weight vector `vec` is one curve of
    multiplicity one, i.e. its arcs join into a single tree (one root).
    Nothing is checked: the vector must be realizable."""
    counts = []
    for x, y, z in tri.triangles:
        half = (vec[x] + vec[y] + vec[z]) // 2
        # the arcs at corners 0, 1, 2, as _Strands counts them
        counts += (half - vec[z], half - vec[x], half - vec[y])
    first = list(accumulate(counts, initial=0))
    parent = list(range(first[-1]))
    _join_arcs(tri, first, counts, parent)
    return sum(map(eq, parent, range(len(parent)))) == 1


def enumerate_single_curves(tri, max_total):
    """All essential single curves (one component, multiplicity 1, no
    vertex link) up to a weight cap, sorted by (total weight, vector).
    The search yields only realizable vectors, so each is kept by counting
    its arcs' components (_one_curve), with no strand trace.  A cap above
    all earlier caps on the triangulation searches only the heavier
    vectors; any other cap reads a prefix of the stored list."""
    ctx = _context(tri)
    if max_total > ctx.cap:
        new = [vec for vec in _enumerate_vectors(tri, ctx.cap, max_total)
               if _one_curve(tri, vec) and vec not in ctx.links]
        new.sort(key=lambda v: (sum(v), v))
        ctx.singles += tuple(new)
        ctx.cap = max_total
    return ctx.singles[:bisect_right(ctx.singles, max_total, key=sum)]


def standard_curves(tri, max_total=4):
    """Deterministic named curves on a standard model: the essential single
    curves of weight <= max_total, named c0, c1, ... in (weight, lex) order.
    On the once-punctured torus, a and b alias c0 and c1 (they intersect
    once)."""
    names = {}
    for k, vec in enumerate(enumerate_single_curves(tri, max_total)):
        names["c%d" % k] = MulticurveCoords(tri, vec)
    if tri.genus == 1 and tri.num_punctures == 1 and len(names) >= 2:
        names["a"] = names["c0"]
        names["b"] = names["c1"]
    return names


# -- serialization --------------------------------------------------------------

def coords_to_jsonable(coords):
    data = {"weights": [str(x) for x in coords.weights]}
    if coords.labels:
        data["components"] = list(coords.labels)
    return data


def _strict_int(x):
    """x as an int when it is a JSON integer (not a boolean) or a string of
    decimal digits with an optional minus sign, else None, as for a string
    of more digits than int() reads (sys.get_int_max_str_digits)."""
    if type(x) is int:
        return x
    if isinstance(x, str) and re.fullmatch("-?[0-9]+", x):
        try:
            return int(x)
        except ValueError:
            return None
    return None


def _quoted(val):
    """`val` as a refusal line names it: the first 40 characters of its
    repr, so a long name or value is never echoed in full."""
    return "%.40r" % (val,)


def _refusal(field, val, wanted):
    """One short line refusing `val` as `field`, which must be `wanted`: a
    digit string too long for int() is named by its digit count, and any
    other value by _quoted."""
    if isinstance(val, str) and re.fullmatch("-?[0-9]+", val) \
            and _strict_int(val) is None:
        return "%s is too long: %d digits" % (field, len(val.lstrip("-")))
    return "%s must be %s, not %s" % (field, wanted, _quoted(val))


def coords_from_jsonable(tri, data):
    weights = data["weights"]
    if not isinstance(weights, list):
        raise InvalidCurveError('"weights" must be a list')
    ints = [_strict_int(x) for x in weights]
    if None in ints:
        i = ints.index(None)
        raise InvalidCurveError(_refusal("weight %d" % i, weights[i],
                                         "an integer"))
    names = data.get("components")
    if names is not None and not (isinstance(names, list) and all(
            isinstance(x, str) for x in names)):
        raise InvalidCurveError('"components" must be a list of names')
    return MulticurveCoords(tri, ints, names)
