r"""
Triangulated oriented surfaces as labelled triangles.

A triangulation is a list of triangles, each a triple of edge labels.  The
slot (t, i) is side i of triangle t, with sides listed in counterclockwise
order, so the cyclic order of the triple is the orientation.  Every label
0..E-1 sits on exactly two slots, and those two slots are glued to one
another to form the edge: the gluing is not stored but derived from the
labels, since a second stored copy would only have to be built by every
builder and checked against the labels by every reader.  Every side is
glued, so the complex has no boundary.  Because gluing two ccw sides
automatically identifies them with opposite boundary orientations, every
complex this class can represent is an oriented surface - orientability is
structural, not checked.  Inside the package slot (t, i) is numbered
3t + i; (t, i) pairs appear only in the public accessors and the JSON.

The edges of a triangulation with T triangles are numbered 0..E-1,
E = 3T/2: the label of an edge is its position in every weight vector of a
normal curve, and a flip keeps every label.  The standard models built
here are:

* closed genus g >= 2: a one-vertex triangulation of the 4g-gon with the
  classical side word, triangulated pi-symmetrically (one long diagonal and
  two fans), so the half-rotation of the polygon survives as a combinatorial
  involution of the model;
* genus g >= 1 with punctures: the same complex with the vertex ideal, plus
  stellar subdivisions for extra punctures;
* genus 0 with h >= 3 punctures: the two-triangle sphere model plus
  subdivisions.

For ideal models the vertices are punctures and do not count toward the
Euler characteristic, so chi = T - E; for closed models chi = T - E + V.
Everything is immutable: flips and relabelings return new objects.

`Triangulation.quad` is the one owner of the flip quadrilateral convention,
which every other module reads; `isomorphisms`, the one isomorphism
search, serves `automorphisms` (the twist block writes its own closing map).
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import chain


class TopologyError(ValueError):
    """Raised for invalid gluing data or an inapplicable move."""


def _find(parent, x):
    """The root of x in the union-find forest `parent`, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent, x, y):
    rx, ry = _find(parent, x), _find(parent, y)
    if rx != ry:
        parent[rx] = ry


class Triangulation:
    """An oriented surface glued from labelled triangles.

    triangles: sequence of (e, e, e) edge labels, sides in ccw order; the
               labels are 0..E-1, each on exactly two slots, which are glued
               to one another.
    ideal: True when every vertex is a puncture (an ideal triangulation).

    The labels are the one stored form.  The gluing they imply is derived
    once, on first use, as one tuple `_glue` of 3T integers: slot (t, i) is
    numbered 3t + i, and `_glue[s]` is the other slot carrying s's label.
    """

    def __init__(self, triangles, ideal=False):
        self._triangles = tuple(tuple(t) for t in triangles)
        self._ideal = bool(ideal)
        self._check()

    @classmethod
    def _unchecked(cls, triangles, like):
        """A triangulation the package derived from a valid one (`like`)
        without changing its edge labels: skips _check."""
        tri = cls.__new__(cls)
        tri._triangles = triangles
        tri._ideal = like._ideal
        return tri

    # -- construction-time validation ------------------------------------

    def _check(self):
        """Refuse labels other than 0..E-1 on two slots each, a complex
        they glue into more than one piece, and chi >= 0."""
        n = len(self._triangles)
        if n == 0:
            raise TopologyError("empty triangulation")
        for t in self._triangles:
            if len(t) != 3:
                raise TopologyError("triangle without exactly 3 sides: %r" % (t,))
        side = self._sides
        if not (all(type(e) is int for e in side)
                and sorted(side) == [s // 2 for s in range(len(side))]):
            raise TopologyError("edge labels must be 0..%d, each on exactly "
                                "two slots" % (len(side) // 2 - 1))
        if not self._connected():
            raise TopologyError("triangulation is not connected")
        if self.euler_characteristic >= 0:
            raise TopologyError(
                "chi = %d >= 0; only hyperbolic-type surfaces are supported"
                % self.euler_characteristic)

    @cached_property
    def _sides(self):
        """The labels of all 3T slots in slot order."""
        return tuple(chain.from_iterable(self._triangles))

    @cached_property
    def _glue(self):
        """Per slot, the other slot carrying its label."""
        glue = list(range(len(self._sides)))
        first = {}
        for s, lab in enumerate(self._sides):
            p = first.setdefault(lab, s)
            glue[s], glue[p] = p, s
        return tuple(glue)

    def _connected(self):
        seen = {0}
        todo = [0]
        while todo:
            t = todo.pop()
            for p in self._glue[3 * t:3 * t + 3]:
                if p // 3 not in seen:
                    seen.add(p // 3)
                    todo.append(p // 3)
        return len(seen) == len(self._triangles)

    # -- basic accessors ---------------------------------------------------

    @property
    def triangles(self):
        return self._triangles

    @property
    def ideal(self):
        return self._ideal

    @property
    def num_triangles(self):
        return len(self._triangles)

    def glued(self, slot):
        """The partner slot; TopologyError for a pair that names no slot of
        the complex."""
        t, i = slot
        if not (0 <= t < len(self._triangles) and 0 <= i < 3):
            raise TopologyError("no slot %r" % (slot,))
        return divmod(self._glue[3 * t + i], 3)

    def gluing_pairs(self):
        """Sorted list of slot pairs, one per edge."""
        return [(divmod(s, 3), divmod(p, 3))
                for s, p in enumerate(self._glue) if s < p]

    @property
    def edge_labels(self):
        return range(self.num_edges)

    @property
    def num_edges(self):
        return 3 * len(self._triangles) // 2

    def quad(self, label):
        """(s1, s2, a, b, c, d): the edge's slots s1 < s2, numbered 3t + i,
        then the labels of its flip quadrilateral, read ccw from the edge in
        the triangle of s1 (a, b) and of s2 (c, d), as drawn in `flip`.
        None when the edge has both sides on one triangle."""
        sides = self._sides
        try:
            s1 = sides.index(label)
            s2 = sides.index(label, s1 + 1)
        except ValueError:
            raise TopologyError("no edge labelled %r" % (label,)) from None
        if s1 // 3 == s2 // 3:
            return None
        (t1, i1), (t2, i2) = divmod(s1, 3), divmod(s2, 3)
        x, y = self._triangles[t1], self._triangles[t2]
        return (s1, s2, x[(i1 + 1) % 3], x[(i1 + 2) % 3],
                y[(i2 + 1) % 3], y[(i2 + 2) % 3])

    def is_flippable(self, label):
        return self.quad(label) is not None

    # -- vertices ----------------------------------------------------------

    @cached_property
    def _corner_vertex(self):
        """Per corner 3t + j, the number of the vertex it sits at, the
        vertices numbered in the order of their least corners.

        Corner 3t + j lies between sides j and j+1 of triangle t (side i
        runs from corner i-1 to corner i, so corner s ends slot s).  Slot s
        and its partner run in opposite directions, so the corner where s
        starts is the corner where its partner ends; one union per slot
        identifies every corner of a vertex.
        """
        glue = self._glue
        parent = list(range(len(glue)))
        for s, p in enumerate(glue):
            _union(parent, s - s % 3 + (s - 1) % 3, p)
        ids = {}
        return tuple([ids.setdefault(_find(parent, c), len(ids))
                      for c in range(len(glue))])

    @property
    def num_vertices(self):
        return max(self._corner_vertex) + 1

    @cached_property
    def euler_characteristic(self):
        v = 0 if self._ideal else self.num_vertices
        return self.num_triangles - self.num_edges + v

    @property
    def num_punctures(self):
        return self.num_vertices if self._ideal else 0

    @property
    def genus(self):
        # chi = 2 - 2g - h for the underlying finite-type surface
        return (2 - self.euler_characteristic - self.num_punctures) // 2

    def vertex_links(self):
        """Normal coordinates of the link of each vertex.

        The link of v crosses each edge once per endpoint of the edge at v,
        and consists of one corner arc per corner at v, so it is a normal
        curve.  These are exactly the inessential normal curves on the
        standard models.
        """
        links = [[0] * self.num_edges for _ in range(self.num_vertices)]
        # the two ends of an edge are the corners where its two slots end
        for v, lab in zip(self._corner_vertex, self._sides):
            links[v][lab] += 1
        return tuple(map(tuple, links))

    # -- equality / hashing -------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, Triangulation)
                and self._ideal == other._ideal
                and self._triangles == other._triangles)

    @cached_property
    def _hash(self):
        return hash((self._ideal, self._triangles))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        kind = "ideal" if self._ideal else "closed"
        return "Triangulation(%s, g=%d, h=%d, T=%d, E=%d)" % (
            kind, self.genus, self.num_punctures,
            self.num_triangles, self.num_edges)

    # -- canonical form and isomorphism --------------------------------------

    def canonical_form(self, weights=None):
        """Lexicographically least BFS form over all rooted corners.

        A root (t, r) numbers the triangles in breadth-first discovery
        order from triangle t read from side r; a triangle discovered
        through a slot gets the rotation that puts that slot at position 0.
        Its form lists, for each canonical slot in turn, the canonical
        address (triangle, position) of the partner slot (every slot is
        glued), so equal forms mean isomorphic complexes.  All 3T
        roots advance together, one address at a time, and a root is
        dropped as soon as its address is larger than the least one read
        at that position; the survivors are the roots of the least form.

        With `weights` (indexed by edge label) each address also
        carries the weight of its slot, so the form separates different
        normal-coordinate decorations of the same complex.
        """
        table = None
        if weights is not None:
            table = [[weights[lab] for lab in t] for t in self._triangles]
        return (self._ideal, self._min_form_maps(table)[0])

    def _min_form_maps(self, side_weights=None):
        """(least form, [slot map of each root reaching it]), the roots in
        (t, r) order.  A slot map sends each slot to its canonical address.
        `side_weights[t][i]`, if given, decorates slot (t, i).

        Each live root is (order, at): the triangles in discovery order,
        and per triangle 3 * canonical number + rotation once reached, -1
        before.  A root whose address is larger than the least one at its
        position is dropped, so the rest of its form is never built."""
        n, glue = len(self._triangles), self._glue
        live = []
        for t in range(n):
            for r in range(3):
                at = [-1] * n
                at[t] = r
                live.append(([t], at))
        form = []
        for x in range(3 * n):
            k, pos = divmod(x, 3)
            least, keep = None, []
            for root in live:
                order, at = root
                # the complex is connected, so order reaches every triangle
                t = order[k]
                i = (at[t] + pos) % 3
                pt, pi = divmod(glue[3 * t + i], 3)
                c = at[pt]
                if c < 0:
                    c = at[pt] = 3 * len(order) + pi
                    order.append(pt)
                tok = (c // 3, (pi - c) % 3)
                if side_weights is not None:
                    tok += (side_weights[t][i],)
                if least is None or tok < least:
                    least, keep = tok, [root]
                elif tok == least:
                    keep.append(root)
            form.append(least)
            live = keep
        maps = []
        for order, at in live:
            m = {}
            for t in order:
                j, r = divmod(at[t], 3)
                for pos in range(3):
                    m[(t, (r + pos) % 3)] = (j, pos)
            maps.append(m)
        return tuple(form), maps


class Relabeling:
    """An orientation-preserving isomorphism between two triangulations.

    Stored as a slot bijection, `_to[s]` the image of slot s, both numbered
    3t + i; `slot_map` is the same bijection on (t, i) pairs.  The induced
    edge bijection is derived and checked for consistency.
    """

    def __init__(self, source, target, slot_map):
        self.source = source
        self.target = target
        if (source.num_triangles != target.num_triangles
                or source.ideal != target.ideal):
            raise TopologyError("relabeling between incompatible complexes")
        # checked before any slot is read, so a slot outside the complex,
        # such as (-1, 0), is rejected instead of looked up
        slot_map = dict(slot_map)
        slots = [(t, i) for t in range(source.num_triangles) for i in range(3)]
        if set(slot_map) != set(slots) or set(slot_map.values()) != set(slots):
            raise TopologyError("slot map is not a bijection on slots")
        self._to = to = tuple(3 * u + j for u, j in map(slot_map.get, slots))
        self.edge_map = {}
        dst = target._sides
        for a, x in zip(source._sides, to):
            if self.edge_map.setdefault(a, dst[x]) != dst[x]:
                raise TopologyError("slot map induces no edge bijection")
        if len(set(self.edge_map.values())) != len(self.edge_map):
            raise TopologyError("edge map is not injective")
        for s in range(0, len(to), 3):
            # ccw order must be preserved: positions shift by a rotation
            if not to[s] // 3 == to[s + 1] // 3 == to[s + 2] // 3:
                raise TopologyError("triangle split by slot map")
            if (to[s + 1] - to[s]) % 3 != 1 or (to[s + 2] - to[s]) % 3 != 2:
                raise TopologyError("slot map reverses orientation")
        # it commutes with the gluing: a consistent, injective edge map sends
        # the two slots of a label to the two slots of its image

    @property
    def slot_map(self):
        return {divmod(s, 3): divmod(x, 3) for s, x in enumerate(self._to)}

    def __eq__(self, other):
        return (isinstance(other, Relabeling)
                and self.source == other.source
                and self.target == other.target
                and self._to == other._to)

    def __hash__(self):
        return hash((self.source, self.target, self._to))

    def is_edge_identity(self):
        return all(a == b for a, b in self.edge_map.items())


def isomorphisms(src, dst):
    """Every orientation-preserving isomorphism src -> dst, lazily.

    Deterministic: the roots of src achieving the least BFS canonical form
    are taken in order, each composed with the inverse of the first such
    root of dst.  A connected complex has one isomorphism per image of a
    root, so this lists each exactly once.
    """
    if src.ideal != dst.ideal:
        return
    f1, m1 = src._min_form_maps()
    f2, m2 = dst._min_form_maps()
    if f1 != f2:
        return
    b_inv = {v: k for k, v in m2[0].items()}
    for a in m1:
        yield Relabeling(src, dst, {s: b_inv[a[s]] for s in a})


def automorphisms(tri):
    """All combinatorial automorphisms (orientation-preserving)."""
    return list(isomorphisms(tri, tri))


# -- the elementary move ----------------------------------------------------

def flip(tri, label):
    r"""Flip an interior edge: exchange the diagonal of its quadrilateral.

    The edge must have its two sides in distinct triangles (an edge inside a
    once-glued cone has no quadrilateral and is rejected).  With the quad
    drawn as below, the flipped edge keeps its label:

        +--------a--------+          +--------a--------+
        |               / |          | \               |
        |             /   |          |   \             |
        b          eps    d   -->    b    eps          d
        |         /       |          |       \         |
        |       /         |          |         \       |
        +--------c--------+          +--------c--------+

    Faces (eps,a,b), (eps,c,d) become (eps,b,c), (eps,d,a).  Returns the new
    triangulation, built without re-validation; the input is unchanged.
    """
    quad = tri.quad(label)
    if quad is None:
        raise TopologyError("edge %r has no quadrilateral to flip" % (label,))
    return _flip(tri, label, quad)


def _flip(tri, label, quad):
    """flip(tri, label), given tri.quad(label) (not None)."""
    s1, s2, ea, eb, ec, ed = quad
    (t1, i1), (t2, i2) = divmod(s1, 3), divmod(s2, 3)

    # the two new faces keep the diagonal at sides i1 and i2
    x = tuple((label, eb, ec)[(j - i1) % 3] for j in range(3))
    y = tuple((label, ed, ea)[(j - i2) % 3] for j in range(3))
    triangles, sides = list(tri.triangles), list(tri._sides)
    triangles[t1], triangles[t2] = x, y
    sides[3 * t1:3 * t1 + 3], sides[3 * t2:3 * t2 + 3] = x, y
    # flipping a flippable edge of a valid triangulation gives a valid one
    # with the same labels, so the result needs no re-check
    out = Triangulation._unchecked(tuple(triangles), tri)
    # handed over, so the quads of a flipped host cost no pass over it
    out._sides = tuple(sides)
    return out


# -- standard models ---------------------------------------------------------

def _polygon_model(g, ideal):
    """One-vertex triangulation of the 4g-gon with the classical side word,
    cut pi-symmetrically: the long diagonal 0--2g plus a fan in each half.
    The half-rotation of the polygon is then a combinatorial involution.
    """
    # edge labels: polygon side classes 0..2g-1, long diagonal 2g, then fans
    def side_class(i):
        j, r = divmod(i, 4)
        if r in (0, 2):
            return 2 * j
        return 2 * j + 1

    # fan[k]: the edge from the apex of k's half (corner 0 for k <= 2g,
    # corner 2g after) to corner k: a polygon side or the long diagonal at
    # the ends of each half, a fan diagonal in between
    fan = {1: side_class(0), 2 * g: 2 * g,
           2 * g + 1: side_class(2 * g), 4 * g: 2 * g}
    fan.update((k, 2 * g + k - 1) for k in range(2, 2 * g))
    fan.update((k, 2 * g + k - 3) for k in range(2 * g + 2, 4 * g))
    # half 1: triangles (0, k, k+1); half 2: triangles (2g, k, k+1)
    triangles = [(fan[k], side_class(k), fan[k + 1])
                 for k in chain(range(1, 2 * g), range(2 * g + 1, 4 * g))]
    return Triangulation(triangles, ideal)


def _sphere_model():
    """Two ideal triangles glued to the thrice-punctured sphere."""
    return Triangulation([(0, 1, 2), (0, 2, 1)], ideal=True)


def _subdivide(tri, t=0):
    """Stellar subdivision of triangle t: a new ideal vertex inside it."""
    if not tri.ideal:
        raise TopologyError("subdivision is used for punctured models only")
    n0, n1, n2 = range(tri.num_edges, tri.num_edges + 3)
    a, b, c = tri.triangles[t]
    new = list(tri.triangles)
    new[t] = (a, n0, n2)
    new += [(b, n1, n0), (c, n2, n1)]
    return Triangulation(new, ideal=True)


def build_surface(genus, punctures):
    """The standard model of the surface of this genus and puncture count.

    Rejects chi >= 0.  Closed models have a single (real) vertex; punctured
    models are ideal with one vertex per puncture.
    """
    g, h = int(genus), int(punctures)
    if g < 0 or h < 0:
        raise TopologyError("genus and puncture count must be non-negative")
    chi = 2 - 2 * g - h
    if chi >= 0:
        raise TopologyError(
            "surface (g=%d, h=%d) has chi = %d >= 0; no model" % (g, h, chi))
    if g == 0:
        tri = _sphere_model()
        for _ in range(h - 3):
            tri = _subdivide(tri)
    elif h == 0:
        tri = _polygon_model(g, ideal=False)
        if tri.num_vertices != 1:
            raise TopologyError("closed model failed to close to one vertex")
    else:
        tri = _polygon_model(g, ideal=True)
        if tri.num_vertices != 1:
            raise TopologyError("punctured base model must have one vertex")
        for _ in range(h - 1):
            tri = _subdivide(tri)
    if tri.euler_characteristic != chi:
        raise TopologyError("model chi mismatch: %d != %d"
                            % (tri.euler_characteristic, chi))
    if tri.genus != g or tri.num_punctures != h:
        raise TopologyError("model signature mismatch")
    return tri


# -- serialization ------------------------------------------------------------

def triangulation_to_json(tri):
    data = {
        "ideal": tri.ideal,
        "triangles": [list(t) for t in tri.triangles],
        "gluing": [[list(a), list(b)] for a, b in tri.gluing_pairs()],
        "labels": list(tri.edge_labels),
    }
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _is_ints(x, length=None):
    return (isinstance(x, list) and all(type(v) is int for v in x)
            and length in (None, len(x)))


def _is_slot_pair(x):
    """True for [[t, i], [t', i']], the JSON form of two glued slots."""
    return isinstance(x, list) and len(x) == 2 and all(
        _is_ints(s, 2) for s in x)


def triangulation_from_json(text):
    """Rebuild and fully check a triangulation; a missing or ill-typed
    field raises TopologyError naming it.  The triangulation is built from
    its labels, and its "gluing" must list exactly the slot pairs those
    labels imply, or the first slot it gets wrong is named."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise TopologyError("a triangulation must be a JSON object")
    if not (isinstance(data.get("triangles"), list)
            and all(map(_is_ints, data["triangles"]))):
        raise TopologyError('"triangles" must be a list of edge label lists')
    if not (isinstance(data.get("gluing"), list)
            and all(map(_is_slot_pair, data["gluing"]))):
        raise TopologyError('"gluing" must be a list of slot pairs')
    if not isinstance(data.get("ideal", False), bool):
        raise TopologyError('"ideal" must be true or false')
    tri = Triangulation(data["triangles"], data.get("ideal", False))
    paired = set()
    for a, b in data["gluing"]:
        a, b = tuple(a), tuple(b)
        tri.glued(a), tri.glued(b)  # a pair naming no slot is refused
        if a == b:
            raise TopologyError("slot %r is glued to itself" % (a,))
        for s in (a, b):
            if s in paired:
                raise TopologyError("slot %r is in two gluing pairs" % (s,))
            paired.add(s)
        if tri.glued(a) != b:
            raise TopologyError("glued slots %r and %r carry different edge "
                                "labels" % (a, b))
    for t in range(tri.num_triangles):
        for i in range(3):
            if (t, i) not in paired:
                raise TopologyError("slot %r is unglued; every side must be "
                                    "glued" % ((t, i),))
    labels = data.get("labels", list(tri.edge_labels))
    if not _is_ints(labels) or sorted(labels) != list(tri.edge_labels):
        raise TopologyError("label block disagrees with triangle data")
    return tri
