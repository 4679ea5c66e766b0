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
triangle t.  On side i (which runs from corner i-1 to corner i) the crossing
points are numbered 0..w-1 from the start; the first n_{i-1} belong to
corner i-1 and the last n_i to corner i.  Glued sides traverse the common
edge in opposite directions, so point q on one side is point w-1-q on the
other.  All weights are arbitrary-precision integers.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass

from .surface import Triangulation, TopologyError, _flip, _find, _union


class InvalidCurveError(ValueError):
    """Raised when a weight vector violates the normal-coordinate laws."""


class MulticurveCoords:
    """A weight vector on the edges of a host triangulation.

    Weights are stored as a tuple aligned with host.edge_labels (sorted
    labels).  Values are immutable; `labels`, if given, names the traced
    components in decomposition order.
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
        return self.weights[self.host.edge_index[label]]

    @property
    def total_weight(self):
        return sum(self.weights)

    def is_empty(self):
        return all(x == 0 for x in self.weights)

    def __eq__(self, other):
        return (isinstance(other, MulticurveCoords)
                and self.host == other.host
                and self.weights == other.weights)

    def __hash__(self):
        return hash((self.host, self.weights))

    def __repr__(self):
        return "MulticurveCoords(%s)" % (self.weights,)


def _corner_counts(tri, weights):
    """Per-triangle corner arc counts, or an error message string."""
    counts = {}
    for t in range(tri.num_triangles):
        w = [weights[tri.edge_index[lab]] for lab in tri.triangles[t]]
        if (w[0] + w[1] + w[2]) % 2 != 0:
            return None, "triangle %d has odd weight sum %r" % (t, tuple(w))
        for j in range(3):
            n = (w[j] + w[(j + 1) % 3] - w[(j + 2) % 3]) // 2
            if n < 0:
                return None, ("triangle %d violates the triangle inequality "
                              "at corner %d: %r" % (t, j, tuple(w)))
            counts[(t, j)] = n
    return counts, None


def _require_closed_host(tri):
    for t in range(tri.num_triangles):
        for i in range(3):
            if tri.glued((t, i)) is None:
                raise InvalidCurveError(
                    "host has boundary slots; normal curves need a fully "
                    "glued triangulation")


class _Strands:
    """Point/arc incidence structure of a realizable weight vector."""

    def __init__(self, tri, weights):
        _require_closed_host(tri)
        counts, err = _corner_counts(tri, weights)
        if err:
            raise InvalidCurveError(err)
        self.tri = tri
        self.weights = tuple(weights)
        self.counts = counts
        self.min_slot = {}
        for s, p in ((a, b) for a, b in tri.gluing_pairs()):
            self.min_slot[s] = s
            self.min_slot[p] = s

    def slot_weight(self, slot):
        return self.weights[self.tri.edge_index[self.tri.edge_at(slot)]]

    def point(self, slot, q):
        """Canonical id of crossing point q on this side."""
        base = self.min_slot[slot]
        if base == slot:
            return (base, q)
        return (base, self.slot_weight(slot) - 1 - q)

    def arcs(self):
        out = []
        for (t, j), n in self.counts.items():
            for k in range(n):
                out.append((t, j, k))
        return out

    def arc_points(self, arc):
        """The two crossing points of an arc at corner j: one on side j
        (position w_j - 1 - k, near the corner) and one on side j+1
        (position k)."""
        t, j, k = arc
        s1 = (t, j)
        s2 = (t, (j + 1) % 3)
        return (self.point(s1, self.slot_weight(s1) - 1 - k),
                self.point(s2, k))

    def trace(self):
        """Group arcs into curve components.

        Returns (components, arc_component) where components is a tuple of
        weight vectors in sorted order and arc_component maps each arc to its
        index in that tuple.
        """
        arcs = self.arcs()
        parent = {a: a for a in arcs}
        by_point = {}
        for a in arcs:
            for pt in self.arc_points(a):
                by_point.setdefault(pt, []).append(a)
        for pt, pair in by_point.items():
            if len(pair) != 2:
                raise InvalidCurveError(
                    "point %r met by %d arcs" % (pt, len(pair)))
            _union(parent, pair[0], pair[1])
        groups = {}
        for a in arcs:
            groups.setdefault(_find(parent, a), []).append(a)
        vectors = []
        for root, members in groups.items():
            vec = [0] * self.tri.num_edges
            for a in members:
                for pt in self.arc_points(a):
                    base, _ = pt
                    vec[self.tri.edge_index[self.tri.edge_at(base)]] += 1
            # every point was counted twice (once per incident arc)
            if any(x % 2 for x in vec):
                raise InvalidCurveError("inconsistent strand trace")
            vectors.append((tuple(x // 2 for x in vec), root))
        vectors.sort()
        index_of_root = {root: i for i, (_, root) in enumerate(vectors)}
        arc_component = {a: index_of_root[_find(parent, a)] for a in arcs}
        return tuple(v for v, _ in vectors), arc_component


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


def component_count(coords):
    return sum(m for _, m in validate(coords))


def is_single_curve(coords):
    comps = validate(coords)
    return len(comps) == 1 and comps[0][1] == 1


def _flipped_weight(coords, label, quad):
    """The weight of edge `label` after flipping it, given its quad."""
    w, idx = coords.weights, coords.host.edge_index
    wa, wb, wc, wd = [w[idx[lab]] for lab in quad[4:]]
    return max(wa + wc, wb + wd) - w[idx[label]]


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
    # edge labels (and hence the sorted label order) are preserved by a flip
    new_w[coords.host.edge_index[label]] = _flipped_weight(coords, label, quad)
    return MulticurveCoords(_flip(coords.host, label, quad), new_w)


def apply_relabeling(coords, relab):
    """Push coordinates through a combinatorial isomorphism."""
    if relab.source != coords.host:
        raise InvalidCurveError("relabeling source differs from host")
    tgt = relab.target
    new_w = [0] * tgt.num_edges
    for lab, img in relab.edge_map.items():
        new_w[tgt.edge_index[img]] = coords.weights[coords.host.edge_index[lab]]
    return MulticurveCoords(tgt, new_w)


def is_parallel(a, b):
    """Isotopy test for single curves: normal coordinates are unique per
    class, so this is exact vector equality."""
    if a.host != b.host:
        raise InvalidCurveError("curves live on different hosts")
    return a.weights == b.weights


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


def disjoint_union_matches(tri, parts):
    """Exact joint-normality test for a family of multicurves.

    The family admits a disjoint realization iff the coordinatewise sum is
    realizable and traces to exactly the union of the parts' component
    multisets (sums of disjoint normal curves add; a crossing pair can never
    reproduce both summands among the traced components).
    """
    total = [0] * tri.num_edges
    expected = []
    for p in parts:
        if p.host != tri:
            raise InvalidCurveError("mixed hosts in union test")
        total = [x + y for x, y in zip(total, p.weights)]
        for vec, mult in validate(p):
            expected.extend([vec] * mult)
    return _traces_to(tri, total, expected) is not None


def _traces_to(tri, weights, expected):
    """The strand trace (components, arc_component) of `weights` when it is
    realizable with exactly the component vectors in `expected` (a
    multiset), else None."""
    try:
        trace = _Strands(tri, weights).trace()
    except InvalidCurveError:
        return None
    return trace if list(trace[0]) == sorted(expected) else None


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
    curve inside one of the pieces.
    """

    def __init__(self, coords):
        tri = coords.host
        self._tri = tri
        self._coords = coords
        strands = _Strands(tri, coords.weights)
        counts = strands.counts
        self._counts = counts

        # cells: ('c', t, j, k) between arcs k-1 and k at corner j (k=0 holds
        # the corner itself); ('z', t) is the central cell of triangle t.
        parent = {}
        for t in range(tri.num_triangles):
            parent[("z", t)] = ("z", t)
            for j in range(3):
                for k in range(counts[(t, j)]):
                    parent[("c", t, j, k)] = ("c", t, j, k)

        def segment_cell(slot, q):
            # segment q of a side spans points q-1..q; q ranges 0..w
            t, i = slot
            w = strands.slot_weight(slot)
            n_start = counts[(t, (i - 1) % 3)]
            n_end = counts[(t, i)]
            if q < n_start:
                return ("c", t, (i - 1) % 3, q)
            if w - q < n_end:
                return ("c", t, i, w - q)
            return ("z", t)

        seg_pairs = []
        for s, p in tri.gluing_pairs():
            w = strands.slot_weight(s)
            for q in range(w + 1):
                c1 = segment_cell(s, q)
                c2 = segment_cell(p, w - q)
                _union(parent, c1, c2)
                seg_pairs.append((c1, q, s))

        def corner_cell(t, j):
            if counts[(t, j)] > 0:
                return ("c", t, j, 0)
            return ("z", t)

        root = {cell: _find(parent, cell) for cell in parent}
        region_ids = {r: i for i, r in enumerate(sorted(set(root.values())))}
        self._cell_region = {cell: region_ids[root[cell]] for cell in parent}
        nregions = len(region_ids)

        cells_in = [0] * nregions
        for cell in parent:
            cells_in[self._cell_region[cell]] += 1
        segs_in = [0] * nregions
        for c1, _, _ in seg_pairs:
            segs_in[self._cell_region[c1]] += 1

        verts_in = [0] * nregions
        punct_in = [0] * nregions
        for orbit in tri.vertex_orbits:
            t, j = orbit[0]
            r = self._cell_region[corner_cell(t, j)]
            if tri.ideal:
                punct_in[r] += 1
            else:
                verts_in[r] += 1

        comps, arc_component = strands.trace()
        self._components = comps
        self._placed = {}       # see curves_in_piece
        circles = [0] * nregions
        seen = set()
        for arc, comp in arc_component.items():
            if comp in seen:
                continue
            seen.add(comp)
            t, j, k = arc
            inner = ("c", t, j, k)
            outer = ("c", t, j, k + 1) if k + 1 < counts[(t, j)] else ("z", t)
            circles[self._cell_region[inner]] += 1
            circles[self._cell_region[outer]] += 1

        pieces = []
        for r in range(nregions):
            # punctures are ideal vertices and never enter the cell count,
            # which is exactly the compactly supported convention
            chi = cells_in[r] - segs_in[r] + verts_in[r]
            pieces.append(CutPiece(chi, circles[r], punct_in[r],
                                   verts_in[r] > 0))
        self._pieces = tuple(pieces)

    @property
    def pieces(self):
        return self._pieces

    def piece_of_cell(self, cell):
        return self._cell_region[cell]

    def piece_containing(self, d_coords):
        """The piece index holding a single curve disjoint from the cut
        system.

        Traces the union system+d once, against the system components the
        cut traced (see disjoint_union_matches).  Raises InvalidCurveError,
        in this order, when d is not disjoint from the system, is not a
        single curve, or is parallel to a system component.
        """
        if d_coords.host != self._tri:
            raise InvalidCurveError("mixed hosts in union test")
        d_comps = [vec for vec, mult in validate(d_coords)
                   for _ in range(mult)]
        trace = _traces_to(self._tri, [
            x + y for x, y in zip(self._coords.weights, d_coords.weights)
        ], self._components + tuple(d_comps))
        if trace is None:
            raise InvalidCurveError("curve is not disjoint from the system")
        if len(d_comps) != 1:
            raise InvalidCurveError("piece location expects a single curve")
        if d_comps[0] in self._components:
            raise InvalidCurveError("curve is parallel to a system component")
        return self._piece_of(d_comps[0], *trace)

    def _piece_of(self, d_vec, comps, arc_component):
        """The cut piece holding the component d_vec of a traced union: the
        position of a d-arc among the system's arcs at its corner picks out
        the cut cell containing it."""
        target = comps.index(d_vec)
        for arc, comp in arc_component.items():
            if comp != target:
                continue
            t, j, k = arc
            below = 0
            for kk in range(k):
                if comps[arc_component[(t, j, kk)]] != d_vec:
                    below += 1
            n_sys = self._counts[(t, j)]
            cell = ("c", t, j, below) if below < n_sys else ("z", t)
            return self._cell_region[cell]

    def curves_in_piece(self, piece, max_total):
        """The essential single curves of weight <= max_total lying in piece
        `piece` and parallel to no system component, in enumeration order.
        Each candidate is traced once, together with the system, and its
        piece (None if none) is kept for the lifetime of the cut."""
        out = []
        for vec in enumerate_single_curves(self._tri, max_total):
            if vec not in self._placed:
                self._placed[vec] = None
                if vec not in self._components:
                    trace = _traces_to(self._tri, [
                        x + y for x, y in zip(self._coords.weights, vec)
                    ], self._components + (vec,))
                    if trace is not None:
                        self._placed[vec] = self._piece_of(vec, *trace)
            if self._placed[vec] == piece:
                out.append(MulticurveCoords(self._tri, vec))
        return out


def cut_along(coords):
    """Cut the host along the multicurve; returns a CutResult."""
    return CutResult(coords)


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
    tri_edges = [[tri.edge_index[lab] for lab in t] for t in tri.triangles]
    while remaining:
        def openness(e):
            return min(sum(1 for x in te if x in remaining)
                       for te in tri_edges if e in te)
        nxt = min(remaining, key=lambda e: (openness(e), e))
        order.append(nxt)
        remaining.discard(nxt)
    pos_of = {e: k for k, e in enumerate(order)}
    completes = [[] for _ in range(m)]
    for te in tri_edges:
        last = max(te, key=lambda e: pos_of[e])
        completes[pos_of[last]].append(te)

    out = []
    vec = [0] * m

    def dfs(k, budget):
        if k == m:
            if budget < hi - lo:
                out.append(tuple(vec))
            return
        e = order[k]
        for val in range(budget + 1):
            vec[e] = val
            ok = True
            for te in completes[k]:
                a, b, c = (vec[x] for x in te)
                if (a + b + c) % 2 or a > b + c or b > a + c or c > a + b:
                    ok = False
                    break
            if ok:
                dfs(k + 1, budget - val)
        vec[e] = 0

    dfs(0, hi)
    return out


def enumerate_single_curves(tri, max_total):
    """All essential single curves (one component, multiplicity 1, no
    vertex link) up to a weight cap, sorted by (total weight, vector).
    A cap above all earlier caps on the triangulation traces only the
    heavier vectors; any other cap reads a prefix of the stored list."""
    ctx = _context(tri)
    if max_total > ctx.cap:
        new = []
        for vec in _enumerate_vectors(tri, ctx.cap, max_total):
            comps = validate(MulticurveCoords(tri, vec))
            # a single curve's one component is the vector itself
            if len(comps) == 1 and comps[0][1] == 1 and vec not in ctx.links:
                new.append(vec)
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
    decimal digits with an optional minus sign, else None."""
    if type(x) is int:
        return x
    if isinstance(x, str) and re.fullmatch("-?[0-9]+", x):
        return int(x)
    return None


def coords_from_jsonable(tri, data):
    weights = data["weights"]
    if not isinstance(weights, list):
        raise InvalidCurveError('"weights" must be a list')
    ints = [_strict_int(x) for x in weights]
    if None in ints:
        i = ints.index(None)
        raise InvalidCurveError("weight %d: %r is not an integer"
                                % (i, weights[i]))
    return MulticurveCoords(tri, ints, data.get("components"))
