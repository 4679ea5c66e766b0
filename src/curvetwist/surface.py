r"""
Triangulated oriented surfaces as gluings of labelled triangles.

A triangulation is a list of triangles, each a triple of *slots*.  The slot
(t, i) is side i of triangle t, with sides listed in counterclockwise order,
so the cyclic order of the triple is the orientation.  Two slots glued to one
another form an edge; the gluing is a fixed-point-free involution on all
slots, since every side is glued: a complex with an unglued slot is refused.
Because gluing two ccw sides automatically identifies them with opposite
boundary orientations, every complex this class can represent is an
oriented surface - orientability is structural, not checked.  Inside the
package slot (t, i) is numbered 3t + i, and the gluing is one tuple of 3T
integers; (t, i) pairs appear only in the public accessors and the JSON.

The edges of a triangulation with T triangles are numbered 0..E-1, E = 3T/2:
the label of an edge, shared by its two slots, is its position in every
weight vector of a normal curve, and a flip keeps every label.  The
standard models built here are:

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

`Triangulation.quad` is the one owner of the flip quadrilateral convention
and `isomorphisms` the one isomorphism search; every other module reads
flip geometry and finds relabelings through them.
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
               labels are 0..E-1, each on exactly two slots.
    gluing: mapping slot -> slot pairing the two sides of each edge; an
            involution without fixed points on all 3T slots, since every
            side is glued.
    ideal: True when every vertex is a puncture (an ideal triangulation).

    Inside, slot (t, i) is numbered 3t + i and the gluing is one tuple
    `_glue` of 3T integers: `_glue[s]` is the slot glued to slot s.
    """

    def __init__(self, triangles, gluing, ideal=False):
        self._triangles = tuple(tuple(t) for t in triangles)
        self._ideal = bool(ideal)
        self._check(dict(gluing))

    @classmethod
    def _unchecked(cls, triangles, glue, like):
        """A triangulation the package derived from a valid one (`like`)
        without changing its edge labels: skips _check."""
        tri = cls.__new__(cls)
        tri._triangles = triangles
        tri._glue = glue
        tri._ideal = like._ideal
        return tri

    # -- construction-time validation ------------------------------------

    def _check(self, gluing):
        """Validate the complex and store `gluing` as `_glue`."""
        n = len(self._triangles)
        if n == 0:
            raise TopologyError("empty triangulation")
        for t in self._triangles:
            if len(t) != 3:
                raise TopologyError("triangle without exactly 3 sides: %r" % (t,))
        slots = [(t, i) for t in range(n) for i in range(3)]
        if not set(gluing).union(gluing.values()) <= set(slots):
            raise TopologyError("gluing mentions unknown slot")
        for s in slots:
            if s not in gluing:
                raise TopologyError("slot %r is unglued; every side must be "
                                    "glued" % (s,))
        self._glue = glue = tuple(3 * t + i for t, i in map(gluing.get, slots))
        side = list(chain.from_iterable(self._triangles))
        for s, p in enumerate(glue):
            if s == p:
                raise TopologyError("slot glued to itself")
            if glue[p] != s:
                raise TopologyError("gluing is not an involution")
            if side[s] != side[p]:
                raise TopologyError(
                    "glued slots %r and %r carry different edge labels"
                    % (slots[s], slots[p]))
        # glued slots share a label, so a label on exactly two slots is on
        # one glued pair
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
        return len(self._glue) // 2

    def quad(self, label):
        """(s1, s2, a, b, c, d): the edge's slots s1 < s2, numbered 3t + i,
        then the labels of its flip quadrilateral, read ccw from the edge in
        the triangle of s1 (a, b) and of s2 (c, d), as drawn in `flip`.
        None when the edge has both sides on one triangle."""
        for s1, lab in enumerate(chain.from_iterable(self._triangles)):
            if lab == label:
                break
        else:
            raise TopologyError("no edge labelled %r" % (label,))
        s2 = self._glue[s1]
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
        for v, lab in zip(self._corner_vertex,
                          chain.from_iterable(self._triangles)):
            links[v][lab] += 1
        return tuple(map(tuple, links))

    # -- equality / hashing -------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, Triangulation)
                and self._ideal == other._ideal
                and self._triangles == other._triangles
                and self._glue == other._glue)

    @cached_property
    def _hash(self):
        return hash((self._ideal, self._triangles, self._glue))

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
        dst = list(chain.from_iterable(target.triangles))
        for a, x in zip(chain.from_iterable(source.triangles), to):
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
        if any(to[p] != target._glue[x] for x, p in zip(to, source._glue)):
            raise TopologyError("slot map does not commute with the gluing")

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
    new_triangles = list(tri.triangles)
    new_triangles[t1] = tuple((label, eb, ec)[(j - i1) % 3] for j in range(3))
    new_triangles[t2] = tuple((label, ed, ea)[(j - i2) % 3] for j in range(3))

    # each old side slot of the quad moves to the slot its ccw successor
    # a -> d -> c -> b -> a held, and takes its partner along
    sa, sb = s1 - i1 + (i1 + 1) % 3, s1 - i1 + (i1 + 2) % 3
    sc, sd = s2 - i2 + (i2 + 1) % 3, s2 - i2 + (i2 + 2) % 3
    move = {sa: sd, sb: sa, sc: sb, sd: sc}
    glue = list(tri._glue)
    for s, x in move.items():
        p = tri._glue[s]
        glue[x] = move.get(p, p)
        glue[glue[x]] = x
    # flipping a flippable edge of a valid triangulation gives a valid one
    # with the same labels, so the result needs no re-check
    return Triangulation._unchecked(tuple(new_triangles), tuple(glue), tri)


# -- standard models ---------------------------------------------------------

def _polygon_model(g, ideal):
    """One-vertex triangulation of the 4g-gon with the classical side word,
    cut pi-symmetrically: the long diagonal 0--2g plus a fan in each half.
    The half-rotation of the polygon is then a combinatorial involution.
    """
    n = 4 * g
    # edge labels: polygon side classes 0..2g-1, long diagonal 2g, then fans
    def side_class(i):
        j, r = divmod(i, 4)
        if r in (0, 2):
            return 2 * j
        return 2 * j + 1

    LONG = 2 * g
    fan1 = {i: LONG if i == 2 * g else (2 * g + 1 + (i - 2)) for i in range(2, 2 * g + 1)}
    fan1[1] = side_class(0)
    fan2 = {i: (4 * g - 1 + (i - (2 * g + 2))) for i in range(2 * g + 2, 4 * g)}
    fan2[2 * g + 1] = side_class(2 * g)
    fan2[4 * g] = LONG

    triangles = []
    side_slot = {}
    for k in range(1, 2 * g):           # half 1: triangles (0, k, k+1)
        tidx = len(triangles)
        triangles.append((fan1[k], side_class(k), fan1[k + 1]))
        side_slot[k] = (tidx, 1)
        if k == 1:
            side_slot[0] = (tidx, 0)
    for k in range(2 * g + 1, 4 * g):   # half 2: triangles (2g, k, k+1)
        tidx = len(triangles)
        triangles.append((fan2[k], side_class(k), fan2[k + 1]))
        side_slot[k] = (tidx, 1)
        if k == 2 * g + 1:
            side_slot[2 * g] = (tidx, 0)

    gluing = {}

    def glue(s, p):
        gluing[s] = p
        gluing[p] = s

    for k in range(2, 2 * g):
        glue((k - 2, 2), (k - 1, 0))          # fan1 diagonals
    for k in range(2 * g + 2, 4 * g):
        glue((k - 3, 2), (k - 2, 0))          # fan2 diagonals (offset indices)
    glue((2 * g - 2, 2), (len(triangles) - 1, 2))   # long diagonal
    for j in range(g):
        glue(side_slot[4 * j], side_slot[4 * j + 2])
        glue(side_slot[4 * j + 1], side_slot[4 * j + 3])
    return Triangulation(triangles, gluing, ideal)


def _sphere_model():
    """Two ideal triangles glued to the thrice-punctured sphere."""
    triangles = [(0, 1, 2), (0, 2, 1)]
    gluing = {}
    for i, j in (((0, 0), (1, 0)), ((0, 1), (1, 2)), ((0, 2), (1, 1))):
        gluing[i] = j
        gluing[j] = i
    return Triangulation(triangles, gluing, ideal=True)


def _subdivide(tri, t=0):
    """Stellar subdivision of triangle t: a new ideal vertex inside it."""
    if not tri.ideal:
        raise TopologyError("subdivision is used for punctured models only")
    base = tri.num_edges
    n0, n1, n2 = base, base + 1, base + 2
    new = [list(x) for x in tri.triangles]
    sides = tri.triangles[t]
    new[t] = [sides[0], n0, n2]
    f1 = len(new)
    new.append([sides[1], n1, n0])
    f2 = len(new)
    new.append([sides[2], n2, n1])
    faces = (t, f1, f2)
    move = {(t, 1): (f1, 0), (t, 2): (f2, 0)}
    gluing = {}
    for s, p in tri.gluing_pairs():
        gluing[move.get(s, s)] = move.get(p, p)
        gluing[move.get(p, p)] = move.get(s, s)
    for i in range(3):
        a = (faces[i], 1)
        b = (faces[(i + 1) % 3], 2)
        gluing[a] = b
        gluing[b] = a
    return Triangulation(new, gluing, ideal=True)


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
    field raises TopologyError naming it."""
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
    gluing = {}
    for a, b in data["gluing"]:
        gluing[tuple(a)] = tuple(b)
        gluing[tuple(b)] = tuple(a)
    tri = Triangulation(data["triangles"], gluing, data.get("ideal", False))
    labels = data.get("labels", list(tri.edge_labels))
    if not _is_ints(labels) or sorted(labels) != list(tri.edge_labels):
        raise TopologyError("label block disagrees with triangle data")
    return tri
