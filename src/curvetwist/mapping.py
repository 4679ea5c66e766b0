r"""
Mapping classes as exact flip sequences.

A mapping class is stored in one normal form: flips from a source
triangulation, then one closing relabeling back to the source.  Any closed
loop of moves (edge flips and relabelings) reduces to it, because a
relabeling pushed past a flip keeps its slot map and only renames the
flipped label.  The flips are held as a flip program on weight lists, one
index quintuple per flip, with the closing relabeling as one final gather
of edge weights; next to them an `Encoding` keeps the closing map on slots,
which the gather cannot see (the hyperelliptic involution of S(1,1) fixes
every edge), and per flip the two slots carrying the flipped label.

A move list from outside is replayed, checked and reduced once.
Composition, powers, inverses and twists join normal forms and never build
a triangulation.  An inverse reads the flips backwards, because each flip
w_e <- max(w_a + w_c, w_b + w_d) - w_e undoes itself: flipping an edge
twice returns to the complex before up to the slot swap of the two quad
triangles, which the inverse multiplies into its closing map.  `.moves`
lists the flips and the closing relabeling (left out when it is the
identity), `len()` counts them and the JSON writes them, so
len(e.inverse()) == len(e).  Every step is integer-exact, so group
operations and equality tests on curves never accumulate error.

Dehn twists are built by shortening the curve (greedy weight-decreasing
flips, preferring the heaviest edge, with breadth-first search across weight
plateaus unless the stall is a certified minimum) until it reaches one of
two catalogued short positions (Farb-Margalit, A Primer on Mapping Class
Groups), each block a program written from the position itself:

1. Total weight two.  The curve is the core of an annulus of two triangles
   glued along both crossed edges (see _annulus_frame).  Flipping the first
   crossed edge in the counterclockwise reading of the annulus triangles,
   then swapping the two crossed edges, returns to the starting
   triangulation with each annulus triangle turned by one slot: one
   primitive twist along the core (see _twist_block).  Every curve with a
   vertex or puncture on both sides reaches this entry.

2. A monotone-minimal position of weight above two, reached exactly by
   isolating curves, whose complement has a piece with no vertex or
   puncture; shortening stops on the certificate of _at_isolating_minimum
   or once the plateau has no way down.  The twist is the even chain relation
   (T_{c_1} ... T_{c_{2h}})^{4h+2} on a chain of non-isolating curves in
   that piece, found by exact intersection numbers (see _isolating_block).

The block, conjugated by the shortening path, whose program is read off
the flips the shortening took, is the twist about the original curve;
only the public `twist` checks that its curve is essential.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

import itertools
import json

from .surface import (TopologyError, Relabeling, flip, triangulation_to_json,
                      triangulation_from_json, _is_slot_pair)
from .curves import (MulticurveCoords, InvalidCurveError, validate,
                     is_essential, enumerate_single_curves, _flipped_weight,
                     _transported, _traces_to, _crossing, _context,
                     _strict_int, _refusal, _quoted, cut_along)
from .orbits import SystemError_


class EncodingError(ValueError):
    """Raised when a move list fails validation or closure."""


class ShorteningError(RuntimeError):
    """Raised when weight reduction exhausts its search space."""


@dataclass(frozen=True)
class Flip:
    label: object


@dataclass(frozen=True)
class Relabel:
    relabeling: Relabeling


def replay(source, moves):
    """Apply moves starting at source; returns the list of triangulations
    visited (length len(moves) + 1).  Raises EncodingError on an illegal
    move.  Each distinct (triangulation, label) flip is built once."""
    path = [source]
    cur = source
    flipped = {}
    for k, mv in enumerate(moves):
        if isinstance(mv, Flip):
            if not cur.is_flippable(mv.label):
                raise EncodingError("move %d flips unflippable edge %r"
                                    % (k, mv.label))
            key = (cur, mv.label)
            nxt = flipped.get(key)
            if nxt is None:
                nxt = flipped[key] = flip(cur, mv.label)
            cur = nxt
        elif isinstance(mv, Relabel):
            if mv.relabeling.source != cur:
                raise EncodingError("move %d relabels the wrong triangulation"
                                    % k)
            cur = mv.relabeling.target
        else:
            raise EncodingError("unknown move %r" % (mv,))
        path.append(cur)
    return path


# -- compiled flip programs ---------------------------------------------------
#
# A program acts on a weight list w indexed by the edge labels of the source
# and stores the normal form.  It is a 4-tuple (flips, anchors, gather, slots):
# each flip (e, a, b, c, d) sets w[e] = max(w[a] + w[c], w[b] + w[d]) - w[e],
# and the result is [w[i] for i in gather].  A slot (t, i) is numbered
# 3t + i; anchors holds, per flip, the two slots carrying the flipped edge
# (a flip keeps them), and slots[s] is the slot that the closing relabeling
# sends to slot s of the source.  Relabelings never move weights while the
# program runs; they are folded into the indices of later flips and into
# gather and slots.

def _compile(path, moves):
    """The program of `moves`, given the triangulations `path` it visits
    (as returned by replay).  Each distinct flip is looked up once."""
    pos = list(range(path[0].num_edges))    # label -> position in w holding it
    at = list(range(3 * path[0].num_triangles))  # slot -> slot sent to it
    flips, anchors = [], []
    quads = {}
    for k, mv in enumerate(moves):
        cur = path[k]
        if isinstance(mv, Flip):
            key = (cur, mv.label)
            if key not in quads:
                s1, s2, *sides = cur.quad(mv.label)
                quads[key] = ([mv.label] + sides, (s1, s2))
            labs, (x, y) = quads[key]
            flips.append(tuple([pos[i] for i in labs]))
            anchors.append((at[x], at[y]))
        else:
            rel = mv.relabeling
            new = pos[:]
            for lab, img in rel.edge_map.items():
                new[img] = pos[lab]
            pos = new
            new = at[:]
            for s, x in enumerate(rel._to):
                new[x] = at[s]
            at = new
    return tuple(flips), tuple(anchors), tuple(pos), tuple(at)


def _chain(programs):
    """The program running the (one or more) `programs` in turn."""
    (flips, anchors, pos, at), *rest = programs
    flips, anchors = list(flips), list(anchors)
    for more, more_anchors, gather, slots in rest:
        flips.extend([(pos[e], pos[a], pos[b], pos[c], pos[d])
                      for e, a, b, c, d in more])
        anchors.extend([(at[x], at[y]) for x, y in more_anchors])
        pos = itemgetter(*gather)(pos)
        at = itemgetter(*slots)(at)
    return tuple(flips), tuple(anchors), pos, at


def _run(flips, weights):
    """The weight list after the flips of a program, before its gather."""
    w = list(weights)
    for e, a, b, c, d in flips:
        x = w[a] + w[c]
        y = w[b] + w[d]
        w[e] = (x if x > y else y) - w[e]
    return w


def _inverse_perm(perm):
    inv = [0] * len(perm)
    for i, x in enumerate(perm):
        inv[x] = i
    return inv


def _invert(program):
    """Undo the closing relabeling, then each flip from the last: flipping
    its edge again reaches the complex before it up to the slot swap of its
    two quad triangles, which is multiplied into the closing map."""
    flips, anchors, gather, slots = program
    inv = _inverse_perm(gather)
    at = _inverse_perm(slots)
    back = []
    for x, y in reversed(anchors):
        back.append((at[x], at[y]))
        # swap the two quad triangles slot for slot from the flipped edge
        u, v = x - x % 3, y - y % 3
        for r in (0, 1, 2):
            p, q = u + (x + r) % 3, v + (y + r) % 3
            at[p], at[q] = at[q], at[p]
    return (tuple([(inv[e], inv[a], inv[b], inv[c], inv[d])
                   for e, a, b, c, d in reversed(flips)]),
            tuple(back), tuple(inv), tuple(at))


class Encoding:
    """A mapping class: flips, then one closing relabeling, with fast exact
    action.

    act() runs the compiled flip program, one integer formula per flip.
    """

    __slots__ = ("source", "_program", "_pick")

    def __init__(self, source, moves):
        moves = tuple(moves)
        path = replay(source, moves)
        if path[-1] != source:
            raise EncodingError("move list does not return to its source")
        self._set(source, _compile(path, moves))

    def _set(self, source, program):
        self.source = source
        self._program = program
        self._pick = itemgetter(*program[2])

    @classmethod
    def _closed(cls, source, program):
        """An encoding whose loop is closed by construction: no replay and
        no check."""
        enc = cls.__new__(cls)
        enc._set(source, program)
        return enc

    @classmethod
    def identity(cls, source):
        return cls._closed(source, _path(source, ()))

    def _closing(self):
        """The closing slot map {slot after the flips: slot of the source},
        or None when it is the identity."""
        flips, _, _, slots = self._program
        if len(self) == len(flips):
            return None
        return {divmod(x, 3): divmod(s, 3) for s, x in enumerate(slots)}

    @property
    def moves(self):
        """The flips, then the closing relabeling unless it is the
        identity."""
        flips = tuple([Flip(f[0]) for f in self._program[0]])
        closing = self._closing()
        if closing is None:
            return flips
        end = self.source
        for mv in flips:
            end = flip(end, mv.label)
        return flips + (Relabel(Relabeling(end, self.source, closing)),)

    def act_on_weights(self, weights):
        return self._pick(_run(self._program[0], weights))

    def act(self, coords):
        if coords.host != self.source:
            raise EncodingError("curve lives on a different triangulation")
        return MulticurveCoords(self.source, self.act_on_weights(coords.weights))

    def compose(self, other):
        """self after other (function composition)."""
        if other.source != self.source:
            raise EncodingError("cannot compose encodings on different sources")
        return Encoding._closed(self.source,
                                _chain([other._program, self._program]))

    def __mul__(self, other):
        return self.compose(other)

    def inverse(self):
        return Encoding._closed(self.source, _invert(self._program))

    def power(self, k):
        k = int(k)
        if k < 0:
            return self.inverse().power(-k)
        if k == 0:
            return Encoding.identity(self.source)
        return Encoding._closed(self.source, _chain([self._program] * k))

    def __len__(self):
        """The flips, plus one unless the closing relabeling is the
        identity on slots and on edge labels."""
        flips, _, gather, slots = self._program
        return len(flips) + (gather != tuple(range(len(gather)))
                             or slots != tuple(range(len(slots))))

    def __repr__(self):
        return "Encoding(%d moves)" % len(self)


# -- curve-level predicates ------------------------------------------------------

def intersects(c1, c2):
    """True when the two multicurves cannot be realized disjointly: their
    sum is realizable and traces to exactly the union of their components
    iff they are disjoint (sums of disjoint normal curves add; a crossing
    pair never reproduces both summands).  InvalidCurveError when either
    is not realizable."""
    if c1.host != c2.host:
        raise InvalidCurveError("curves live on different hosts")
    expected = [vec for c in (c1, c2) for vec, m in validate(c)
                for _ in range(m)]
    total = [x + y for x, y in zip(c1.weights, c2.weights)]
    return _traces_to(c1.host, total, expected) is None


def spanning_probes(tri):
    """The probe family of the classifier: all essential single curves up
    to a weight cap.  periodic_check reads a map's order from the probes'
    orbits, and classify takes its dilatation seeds from the first of them.

    That agreement on this family determines a mapping class is a
    documented assumption, not a theorem.  The cap is the smallest of 4, 6,
    8, 10, 12 whose probes intersect every essential curve of weight at
    most 12, so no curve a test corpus can produce slips past the family
    unseen.  One pass finds it: `need` is the largest weight of the
    lightest probe meeting each such curve (13 when a curve meets none),
    and the cap is the first value >= need, else 12.
    """
    ctx = _context(tri)
    if ctx.probes is None:
        curves = enumerate_single_curves(tri, 12)
        need = 0
        for w in curves:
            meeting = (sum(pr) for pr in curves if _crossing(tri, w, pr))
            need = max(need, next(meeting, 13))
        cap = next((c for c in (4, 6, 8, 10) if c >= need), 12)
        ctx.probes = tuple(MulticurveCoords(tri, v)
                           for v in enumerate_single_curves(tri, cap))
    return ctx.probes


# -- weight reduction ------------------------------------------------------------

def _greedy_step(coords):
    """(step, level) from one read of every quad: step is (label, quad) of
    the strictly weight-decreasing flip of the heaviest edge, or None on a
    plateau, with ties broken toward the lowest edge label; level lists
    (label, quad) of every weight-preserving flip in label order."""
    tri = coords.host
    best = None
    level = []
    for lab in tri.edge_labels:
        quad = tri.quad(lab)
        if quad is None:
            continue
        old = coords.weight_of(lab)
        new = _flipped_weight(coords, lab, quad)
        if new == old:
            level.append((lab, quad))
        elif new < old and (best is None or old > best[0]):
            best = (old, lab, quad)
    return None if best is None else best[1:], level


def _plateau_escape(coords, max_states=20000):
    """Breadth-first search through weight-preserving flips until a state
    with a strictly decreasing flip appears.  Returns the flips, each its
    (label, quad), from `coords` ending just after that decreasing flip,
    with the coordinates it reaches, or None when the whole plateau has no
    way down (the weight is monotone-minimal)."""
    from collections import deque
    seen = {coords.host.canonical_form(coords.weights)}
    queue = deque([(coords, [])])
    while queue:
        cur, path = queue.popleft()
        step, level = _greedy_step(cur)
        if step is not None:
            return path + [step], _transported(cur, *step)
        for lab, quad in level:
            nxt = _transported(cur, lab, quad)
            key = nxt.host.canonical_form(nxt.weights)
            if key in seen:
                continue
            seen.add(key)
            if len(seen) > max_states:
                raise ShorteningError("plateau search exceeded %d states"
                                      % max_states)
            queue.append((nxt, path + [(lab, quad)]))
    return None


def _at_isolating_minimum(coords):
    r"""True when every weight is even and w = 3H + 2, where w is the total
    weight and H counts the triangles whose corner-arc counts are odd.  The
    curve is then isolating and no flip sequence lowers its weight.

    Proof.  In a triangle with sides x, y, z the corner between x and y
    holds (w_x + w_y - w_z)/2 arcs; two corners' counts sum to a side's
    weight, so with even weights all three have one parity.  Colour each
    region of a triangle by the parity of the number of arcs between it and
    a corner.  The region by the segment of an edge with i crossings
    between it and one end gets i, or w_e - i from the other end, so the
    colours agree across edges: the odd regions form a subsurface Sigma
    with boundary c and no vertex or puncture.  Sigma is built from R
    rectangles (between two parallel arcs) and H hexagons (the centres of
    the odd triangles).  An even edge has w_e/2 odd segments, so Sigma holds
    k = w/2 of them, and counting their sides gives 2k = 2R + 3H.  With the
    w crossings, the k segments and the w arcs of c as cells,
    chi(Sigma) = R + H - k = -H/2, so H depends on c only.  If R = 0, the
    region across each side of a hexagon is a hexagon, so every triangle
    has one arc at each corner and c is the sum of all vertex links, of
    weight 3H.  That is a property of c, which w = 3H + 2 rules out; so
    R >= 1 and w = 2R + 3H >= 3H + 2 in every triangulation with these
    vertices, which are all that flips reach.  At w = 3H + 2 no flip
    sequence lowers w, and the plateau search would return None.  For a
    single curve Sigma is the vertex-free side of c, of genus h with
    chi = 1 - 2h, so w = 12h - 4.
    """
    w = coords.weights
    if any(x % 2 for x in w):
        return False
    odd = sum((w[x] + w[y] - w[z]) // 2 % 2
              for x, y, z in coords.host.triangles)
    return coords.total_weight == 3 * odd + 2


def _shorten(coords):
    """Flip until the weight cannot decrease any further.

    Returns (steps, short_coords), each step the (label, quad) of a flip on
    the host it flips, at the monotone-minimal position: greedy
    strictly-decreasing flips are taken first and level plateaus are crossed
    by breadth-first search.  Curves with a vertex or puncture on both sides
    end at total weight two.  Isolating curves end heavier, at the entry
    point of the chain-relation twist block: a stall that holds the
    certificate of _at_isolating_minimum stops at once, and any other stall
    searches its plateau until it finds a way down or exhausts it.
    """
    cur = coords
    steps = []
    while cur.total_weight > 2:
        step = _greedy_step(cur)[0]
        if step is not None:
            steps.append(step)
            cur = _transported(cur, *step)
            continue
        hop = None if _at_isolating_minimum(cur) else _plateau_escape(cur)
        if hop is None:
            break
        more, cur = hop
        steps.extend(more)
    return steps, cur


def shorten(coords):
    """(moves, short_coords): _shorten's flips as Flip moves, and its curve."""
    steps, short = _shorten(coords)
    return [Flip(lab) for lab, _ in steps], short


# -- the twist block --------------------------------------------------------------

def _annulus_frame(coords):
    """(r1, r2, p, q) of the two-triangle annulus around a weight-two curve:
    the crossed edges p and q in the counterclockwise order [r, p, q] that
    both annulus triangles share, and the third sides r1 and r2 of the two
    triangles, in triangle order.

    For a realizable, essential curve of weight two this cannot fail.  It
    crosses two edges p != q once each: a lone edge of weight two breaks
    the triangle inequality, or in a folded triangle gives twice a vertex
    link.  By parity every triangle it meets has weights (1, 1, 0) and
    holds both p and q, so p's two slots lie in two distinct triangles (a
    triangle holding p twice is folded, and its arc is a vertex link).  If
    the second triangle read [r, q, p], the end of p (q) in one triangle
    would be glued to the start of p (q) in the other: the p-q corners of
    the two triangles would close up around one vertex, and the curve
    would be that vertex's link.
    """
    w = coords.weights
    (r1, p, q), (r2, _, _) = [t[i:] + t[:i] for t in coords.host.triangles
                              for i in range(3) if w[t[i]] < w[t[(i + 1) % 3]]]
    return r1, r2, p, q


def _twist_block(tri, p, q):
    """The program of one primitive positive twist about the core of the
    annulus crossed by p and q (see _annulus_frame) on the short host: the
    flip of p, a gather swapping p and q, and closing slots that turn each
    annulus triangle by one slot and fix every other slot.

    Proof.  Both annulus triangles read [r, p, q] counterclockwise, and no
    other triangle holds p or q.  Flipping p leaves p at its slot and makes
    each triangle [r, q, p]; swapping p and q turns each triangle back
    into itself, turned by one slot.  Any other closing map with this edge
    map moves a triangle (in place, three distinct labels fix a rotation,
    and isomorphisms agreeing on one slot agree on all), so it sends slot 0
    out of triangle 0: this map is also the least one by slot map.
    """
    s1, s2, *sides = tri.quad(p)
    gather = list(range(tri.num_edges))
    gather[p], gather[q] = q, p
    slots = list(range(3 * tri.num_triangles))
    for t in (s1 - s1 % 3, s2 - s2 % 3):
        slots[t:t + 3] = t + 2, t, t + 1
    return ((p, *sides),), ((s1, s2),), tuple(gather), tuple(slots)


def _path(host, steps):
    """The program of the flips `steps`, each its (label, quad), from
    `host`: a shortening path holds no relabeling, so the anchors are the
    quads' slots, and gather and slots are the identity."""
    return (tuple([(lab, *quad[2:]) for lab, quad in steps]),
            tuple([quad[:2] for _, quad in steps]),
            tuple(range(host.num_edges)),
            tuple(range(3 * host.num_triangles)))


def _shortening(host, weights):
    """(short, program, frame), once per curve: the curve where shorten()
    stops, the flip program of the path there, and the annulus frame of
    the short curve, or None for an isolating curve, which stops above
    weight two."""
    known = _context(host).shortenings
    if weights not in known:
        steps, short = _shorten(MulticurveCoords(host, weights))
        frame = _annulus_frame(short) if short.total_weight == 2 else None
        known[weights] = (short, _path(host, steps), frame)
    return known[weights]


def _intersection(host, s, b):
    r"""i(s, b) for the essential single curve s and the essential curve b
    (weight vectors on `host`), or None when s is isolating.

    b's weights are pushed through s's shortening flips to the position
    where s has weight two: the core of the annulus A made of the triangles
    T1 = [r1, p, q] and T2 = [r2, p, q] (see _annulus_frame), glued along p
    and q.  With b_e the weights there,

        i(s, b) = b_r1 - 2 min(z1, x2, y1)
                = max(|b_p - b_q|, b_r1 + b_r2 - b_p - b_q),

    where z1 = (b_r1 + b_p - b_q)/2, y1 = (b_q + b_r1 - b_p)/2 and
    x2 = (b_p + b_q - b_r2)/2 count b's arcs at the corners (r1, p) and
    (q, r1) of T1 and (p, q) of T2; the second form is the first with the
    min written out, and is symmetric in r1 and r2.

    Proof.  Let V be the vertex on r1's side of A.  Around it, A holds the
    fan of corners (r1, p) of T1, (p, q) of T2 and (q, r1) of T1, joined
    across p and q.  b meets A in strands between r1 and r2: say N12 cross A
    and N11 turn back to r1, so b_r1 = 2 N11 + N12.
    (1) A strand turning back cuts a disc D off A, with a stretch of
    r1 + V.  D holds V, or else it is bounded by an arc of b and an arc of
    the edge r1, which a normal curve has none of.  So p and q, which run
    from V out of D, cross the strand, once each for the same reason: the
    strand runs through the fan, one corner arc after another.  Arcs
    around V nest, innermost at V, and across p (q) the k-th innermost arc
    of one corner of the fan goes on as the k-th innermost arc of the next
    corner when that corner has one.  So the k-th innermost arcs close up
    to a strand turning back exactly for k < min(z1, x2, y1), and
    N11 = min(z1, x2, y1).
    (2) Push every strand turning back off the core, inside its disc; a
    strand crossing A meets the core once.  Then b meets s in N12 points,
    and no bigon is left (Farb-Margalit, A Primer on Mapping Class Groups,
    Prop. 1.7).  The b-side of an innermost bigon leaves the core at both
    ends towards the same side, say r1's, along two crossing strands, so
    the bigon holds the part of A next to its s-side up to a stretch of
    r1 + V.  It cannot hold V, so it holds an arc of r1 with both ends on
    its b-side, which cuts off a disc bounded by arcs of b and r1 only:
    none, as in (1).  So i(s, b) = N12 = b_r1 - 2 min(z1, x2, y1).
    When r1 == r2 the two triangles are all of S(1,1) and have the same
    corner counts; arcs at all three corners of T1 would put arcs at all
    six corners around the puncture, whose innermost arcs close up to the
    puncture's link, which b does not have.  So the min is 0 and
    i(s, b) = b_r1 there.
    """
    _, (flips, _, _, _), frame = _shortening(host, s)
    if frame is None:
        return None
    r1, r2, p, q = frame
    w = _run(flips, b)
    return max(abs(w[p] - w[q]), w[r1] + w[r2] - w[p] - w[q])


def _piece_curves(host, cut, piece):
    """The weight vectors of the curves in piece `piece` of `cut`, in
    enumeration order, placed only as they are read.  A vector with
    i(s, vec) > 0 for an essential non-isolating component s of the cut
    (_intersection; None, for an isolating s, skips nothing; a link meets
    no curve) lies in no piece and is skipped untraced.

    A piece with chi >= 0 (an annulus between parallel curves, say) or a
    pair of pants without the vertex holds finitely many curves, no two
    crossing, so its stream would never end: it is refused at the first
    read.  Every other piece holds infinitely many (a pair of pants around
    the vertex is a four-holed sphere in the surface minus the vertex,
    where normal curves live)."""
    p = cut.pieces[piece]
    if p.euler_characteristic >= 0:
        raise SystemError_("piece %d has chi %d: no two of its curves cross"
                           % (piece, p.euler_characteristic))
    if p.is_pants and not p.contains_vertex:
        raise SystemError_("piece %d is a pair of pants: no two of its "
                           "curves cross" % piece)
    system = [s for s in cut._components if s not in _context(host).links]
    seen = 0
    for cap in itertools.count(4, 4):
        vecs = enumerate_single_curves(host, cap)
        for vec in vecs[seen:]:
            if not any(_intersection(host, s, vec) for s in system) \
                    and cut.place(vec) == piece:
                yield vec
        seen = len(vecs)


def _isolating_block(short_coords):
    r"""Twist block for an isolating curve c stuck above weight two.

    Cut along c; the vertex-free piece Sigma has genus h and one boundary.
    Search the non-isolating curves of Sigma, read from _piece_curves as
    the search reaches them, for a chain c_1, ..., c_{2h}: each curve meets
    the last once and the earlier ones not at all, by _intersection, over
    the curves of weight <= 8, then 12, 16, ... (each list a prefix of the
    next).  Return the encoding of (T_{c_1} ... T_{c_2h})^{4h+2} for the
    first chain found.

    Proof that the search ends.  Sigma holds the standard chain of 2h
    curves (Farb-Margalit, A Primer on Mapping Class Groups, Sec. 4.4).
    Each meets a neighbour once, so it is non-separating in S, hence not
    isolating.  The cut's one component is c, which is isolating, so
    _piece_curves skips nothing and lists every curve of Sigma; once the
    weight reaches the chain's heaviest curve, the search, which tries
    every sequence of the finitely many curves up to it, finds a chain.

    Proof that this is T_c.  Realize c and the chain in minimal position
    (geodesics, say); the chain lies in Sigma, and so does a regular
    neighbourhood N of its union.  N is 2h annuli plumbed in a row, so
    chi(N) = 1 - 2h = chi(Sigma), and with an even number of curves N has
    one boundary circle dN, so genus h.  Sigma \ N has chi = 0 and the
    boundary circles dN and c.  A disc piece bounded by dN would close N up
    into a closed component of Sigma, and one bounded by c would be all of
    Sigma; so every piece has chi <= 0, hence chi = 0, and Sigma \ N is one
    annulus from dN to c.  With i(c_j, c_{j+1}) = 1 the twists satisfy the
    braid relation (Farb-Margalit, A Primer on Mapping Class Groups, Prop.
    3.11), and the chain relation (Prop. 4.12) gives
    (T_{c_1} ... T_{c_2h})^{4h+2} = T_dN = T_c.  The one exact check left is
    that the block fixes c.
    """
    tri = short_coords.host
    cut = cut_along(short_coords)
    isolated = [i for i, p in enumerate(cut.pieces)
                if not p.contains_puncture_or_vertex]
    if len(isolated) != 1:
        raise EncodingError(
            "curve stalled above weight two without an isolating side")
    h = (1 - cut.pieces[isolated[0]].euler_characteristic) // 2
    # c is already short here: record that, so the stream never re-shortens c
    _context(tri).shortenings.setdefault(short_coords.weights, (
        short_coords, _path(tri, ()), None))
    stream = (v for v in _piece_curves(tri, cut, isolated[0])
              if _shortening(tri, v)[2] is not None)
    read = []   # the candidates read so far, in order

    def chain(cap, prefix):
        """The first chain of 2h candidates of weight <= cap extending
        `prefix`: each next curve meets the last once, the others not."""
        if len(prefix) == 2 * h:
            return prefix
        for k in itertools.count():
            if k == len(read):
                read.append(next(stream))
            c = read[k]
            if sum(c) > cap:
                return None
            follows = not prefix or _intersection(tri, prefix[-1], c) == 1
            if follows and c not in prefix and not any(
                    _intersection(tri, b, c) for b in prefix[:-1]):
                found = chain(cap, prefix + [c])
                if found:
                    return found

    found = next(filter(None, (chain(cap, [])
                               for cap in itertools.count(8, 4))))
    # T_{c_1} ... T_{c_2h} runs the twist about c_2h first
    product = [_twist(tri, c, 1)._program for c in found[::-1]]
    enc = Encoding._closed(tri, _chain(product * (4 * h + 2)))
    if enc.act(short_coords) != short_coords:
        raise EncodingError("the chain twist moves the curve")
    return enc


def _twist(host, weights, k):
    """twist(MulticurveCoords(host, weights), k), unchecked, for a curve
    the caller enumerated or checked: its parts are built once."""
    if k == 0:
        return Encoding.identity(host)
    known = _context(host).twists
    if weights not in known:
        short, path, frame = _shortening(host, weights)
        block = _isolating_block(short)._program if frame is None \
            else _twist_block(short.host, *frame[2:])
        known[weights] = (path, block, _invert(path))
    path, block, back = known[weights]
    return Encoding._closed(host, _chain(
        [path] + [block if k > 0 else _invert(block)] * abs(k) + [back]))


def twist(coords, k=1):
    """The k-th power of the Dehn twist about an essential single curve,
    as a closed encoding on the curve's host: the shortening path, |k|
    copies of the block (or of its inverse), and the path undone.  The
    curve is checked essential, k = 0 included, unless its host's context
    already holds its twist."""
    k = int(k)
    if coords.weights not in _context(coords.host).twists \
            and not is_essential(coords):
        raise InvalidCurveError("can only twist about an essential curve")
    return _twist(coords.host, coords.weights, k)


# -- twist words -------------------------------------------------------------------

def parse_twist_word(word, curves):
    """Build an encoding from a word like "T(a)^2 * T(b)^-1".

    `curves` maps names to MulticurveCoords.  Factors may be separated by
    whitespace or '*'; each is T(NAME) or bare NAME, optionally followed by
    ^INT.  Factors compose left to right as written, with the leftmost
    applied last, matching the usual composition order.  An empty word is
    the identity.  The factors' programs are joined by one _chain, so the
    cost is linear in the length of the word.
    """
    if not isinstance(word, str):
        raise EncodingError("twist word %s is not a string" % _quoted(word))
    tokens = [t for t in word.replace("*", " ").split() if t]
    if not curves:
        raise EncodingError("no named curves available for twist words")
    host = next(iter(curves.values())).host
    programs = []
    for tok in tokens:
        if "^" in tok:
            head, _, exp = tok.partition("^")
            k = _strict_int(exp)
            if k is None:
                raise EncodingError(_refusal("the exponent of factor %d"
                                             % len(programs), exp,
                                             "an integer"))
        else:
            head, k = tok, 1
        if head.startswith("T(") and head.endswith(")"):
            name = head[2:-1]
        else:
            name = head
        if name not in curves:
            raise EncodingError("unknown curve name %s" % _quoted(name))
        try:
            programs.append(twist(curves[name], k)._program)
        except InvalidCurveError as e:
            raise InvalidCurveError("curve %s: %s" % (_quoted(name), e))
    if not programs:
        return Encoding.identity(host)
    # the leftmost factor runs last
    return Encoding._closed(host, _chain(programs[::-1]))


# -- serialization ------------------------------------------------------------

def encoding_to_jsonable(enc):
    """Serialize an encoding as its move list: the flips by edge label, then
    the closing relabeling, if any, as its slot bijection and its target
    complex (the source), which is all the reader needs to rebuild it at
    the end of the replayed flips."""
    moves = [{"kind": "flip", "label": f[0]} for f in enc._program[0]]
    closing = enc._closing()
    if closing is not None:
        moves.append({
            "kind": "relabel",
            "slot_map": sorted([list(a), list(b)] for a, b in closing.items()),
            "target": json.loads(triangulation_to_json(enc.source))})
    return {"moves": moves}


def encoding_from_jsonable(tri, data):
    """Rebuild an encoding on `tri` from a serialized move list.

    Every move is checked along the replayed path; each distinct flip and
    each distinct relabeling (with its target complex) is built and fully
    validated once.  A malformed move raises EncodingError naming its
    index."""
    moves_doc = data.get("moves") if isinstance(data, dict) else None
    if not isinstance(moves_doc, list):
        raise EncodingError('"moves" must be a list of move objects')
    cur = tri
    moves = []
    path = [tri]
    built = {}
    for k, mv in enumerate(moves_doc):
        kind = mv.get("kind") if isinstance(mv, dict) else None
        if kind == "flip":
            label = mv.get("label")
            if type(label) is not int or not 0 <= label < cur.num_edges \
                    or not cur.is_flippable(label):
                raise EncodingError(_refusal('move %d: "label"' % k, label,
                                             "a flippable edge"))
            key = (cur, label)
            if key not in built:
                built[key] = (Flip(label), flip(cur, label))
        elif kind == "relabel":
            key = (cur, json.dumps([mv.get("slot_map"), mv.get("target")],
                                   sort_keys=True))
            if key not in built:
                try:
                    target = triangulation_from_json(
                        json.dumps(mv.get("target")))
                except TopologyError as e:
                    raise EncodingError('move %d: "target": %s' % (k, e))
                pairs = mv.get("slot_map")
                if not (isinstance(pairs, list)
                        and all(map(_is_slot_pair, pairs))):
                    raise EncodingError('move %d: "slot_map" must be a list '
                                        'of slot pairs' % k)
                try:
                    rel = Relabeling(cur, target, {tuple(a): tuple(b)
                                                   for a, b in pairs})
                except TopologyError as e:
                    raise EncodingError('move %d: "slot_map": %s' % (k, e))
                built[key] = (Relabel(rel), target)
        else:
            raise EncodingError('move %d is not an object of "kind" flip or '
                                'relabel' % k)
        move, cur = built[key]
        moves.append(move)
        path.append(cur)
    if cur != tri:
        raise EncodingError("move list does not return to its source")
    return Encoding._closed(tri, _compile(path, moves))
