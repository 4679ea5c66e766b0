"""
Independent reference implementations used by the tests.

These are deliberately written against the abstract definitions, not against
the package internals, so agreement is evidence rather than tautology.
"""

from collections import deque
from fractions import Fraction
from math import isqrt


# -- chain structure of a degree-at-most-one acyclic graph ---------------------

def brute_force_chains(vertices, edges):
    """All maximal directed paths, found by subset enumeration.

    A subset S is a chain exactly when no edge joins S to its complement
    and the induced edges form one path covering S.  Returns a set of
    (ordered vertex tuple, representative) pairs.
    """
    vertices = list(vertices)
    n = len(vertices)
    chains = set()
    for mask in range(1, 1 << n):
        sub = [vertices[i] for i in range(n) if mask >> i & 1]
        inside = set(sub)
        if any((u in inside) != (v in inside) for u, v in edges):
            continue
        induced = [(u, v) for u, v in edges if u in inside]
        if len(induced) != len(sub) - 1:
            continue
        # walk from the unique source; a failure to cover S means S was a
        # disjoint union of shorter paths, not a single chain
        succ = dict(induced)
        targets = {v for _, v in induced}
        sources = [v for v in sub if v not in targets]
        if len(sources) != 1:
            continue
        walk = [sources[0]]
        while walk[-1] in succ:
            walk.append(succ[walk[-1]])
        if len(walk) != len(sub):
            continue
        chains.add((tuple(walk), sources[0]))
    return chains


def random_orbit_free_graph(rng, max_vertices=8):
    """A uniform-ish union of directed paths: shuffle, cut into runs."""
    n = rng.randint(1, max_vertices)
    names = ["v%d" % i for i in range(n)]
    order = names[:]
    rng.shuffle(order)
    edges = []
    i = 0
    while i < n:
        run = rng.randint(1, n - i)
        for j in range(i, i + run - 1):
            edges.append((order[j], order[j + 1]))
        i += run
    rng.shuffle(edges)
    return names, edges


# -- exact dilatation of a two-twist word on the punctured torus ---------------

TWIST_MATRICES = {
    # right-handed twists in the frozen convention: the twist about a shears
    # along (1,0), the twist about b along (0,1) with the opposite sign
    "a": ((1, 1), (0, 1)),
    "b": ((1, 0), (-1, 1)),
}


def _mat_mul(m, k):
    return ((m[0][0] * k[0][0] + m[0][1] * k[1][0],
             m[0][0] * k[0][1] + m[0][1] * k[1][1]),
            (m[1][0] * k[0][0] + m[1][1] * k[1][0],
             m[1][0] * k[0][1] + m[1][1] * k[1][1]))


def _mat_pow(m, k):
    if k < 0:
        # inverse of a determinant-one matrix
        m = ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))
        k = -k
    out = ((1, 0), (0, 1))
    for _ in range(k):
        out = _mat_mul(out, m)
    return out


def word_trace(factors):
    """Exact trace of the homology matrix of a twist word given as
    (name, exponent) pairs, leftmost applied last."""
    m = ((1, 0), (0, 1))
    for name, k in factors:
        m = _mat_mul(m, _mat_pow(TWIST_MATRICES[name], k))
    return m[0][0] + m[1][1]


def spectral_radius(trace, digits=24):
    """(|t| + sqrt(t^2 - 4)) / 2 as a Fraction accurate to 10^-digits."""
    t = abs(trace)
    if t <= 2:
        raise ValueError("not a hyperbolic trace: %r" % trace)
    scale = 10 ** digits
    root = isqrt((t * t - 4) * scale * scale)
    return Fraction(t * scale + root, 2 * scale)


# -- encodings by full replay ----------------------------------------------------
#
# The package compiles an encoding once into a flip program and builds
# compositions, powers and inverses by joining programs.  The references
# below never touch a program: they replay the move list triangulation by
# triangulation and transport coordinates through each move.

def reference_encoding(source, moves):
    """The encoding of `moves` through the public constructor, which
    replays and checks the whole loop."""
    from curvetwist import Encoding
    return Encoding(source, list(moves))


def reference_act(source, moves, weights):
    """Image weights of `moves`, walking the replayed path with one
    coordinate transport per move: a flip by transform_under_flip, a
    relabeling by carrying each edge's weight to its image label."""
    from curvetwist import Flip, MulticurveCoords, transform_under_flip
    coords = MulticurveCoords(source, weights)
    for mv in moves:
        if isinstance(mv, Flip):
            coords = transform_under_flip(coords, mv.label)
            continue
        rel = mv.relabeling
        if rel.source != coords.host:
            raise AssertionError("relabeling source differs from host")
        image = [0] * rel.target.num_edges
        for lab, img in rel.edge_map.items():
            image[img] = coords.weights[lab]
        coords = MulticurveCoords(rel.target, image)
    if coords.host != source:
        raise AssertionError("move list does not close up")
    return coords.weights


def agree_on(f, g, probes):
    """Exact agreement of two encodings on every probe curve."""
    return all(f.act(c) == g.act(c) for c in probes)


def inverse_relabeling(rel):
    """rel^-1, from the inverted slot bijection."""
    from curvetwist import Relabeling
    return Relabeling(rel.target, rel.source,
                      {v: k for k, v in rel.slot_map.items()})


def compose_relabelings(f, g):
    """f after g (g.source -> f.target), slot by slot."""
    from curvetwist import Relabeling
    return Relabeling(g.source, f.target,
                      {s: f.slot_map[v] for s, v in g.slot_map.items()})


def flip_square_relabeling(tri, label):
    """The relabeling rho with flip(flip(T, e)) = rho applied to T.

    rho swaps the two quad triangles slot for slot and is the identity on
    edge labels; it is its own inverse.  It undoes a flip move."""
    from curvetwist import Relabeling, TopologyError, flip
    (t1, i1), (t2, i2) = sorted(
        (t, i) for t in range(tri.num_triangles) for i in range(3)
        if tri.triangles[t][i] == label)
    slot_map = {(t, i): (t, i) for t in range(tri.num_triangles)
                for i in range(3)}
    for j in range(3):
        slot_map[(t1, (i1 + j) % 3)] = (t2, (i2 + j) % 3)
        slot_map[(t2, (i2 + j) % 3)] = (t1, (i1 + j) % 3)
    rho = Relabeling(flip(flip(tri, label), label), tri, slot_map)
    if not rho.is_edge_identity():
        raise TopologyError("flip square relabeling moved an edge label")
    return rho


def reference_inverse_moves(source, moves):
    """Undo `moves` from the end: a flip by the same flip followed by the
    slot swap of its two quad triangles back to the pre-flip complex, a
    relabeling by its inverse.  One step at a time, nothing shared."""
    from curvetwist import Flip, Relabel, flip
    path = [source]
    for mv in moves:
        path.append(flip(path[-1], mv.label) if isinstance(mv, Flip)
                    else mv.relabeling.target)
    out = []
    for k in range(len(moves) - 1, -1, -1):
        mv = moves[k]
        if isinstance(mv, Flip):
            out.append(mv)
            out.append(Relabel(flip_square_relabeling(path[k], mv.label)))
        else:
            out.append(Relabel(inverse_relabeling(mv.relabeling)))
    return out


def reference_normal_form(source, moves):
    """The move list rewritten as flips, then one closing relabeling (left
    out when it is the identity): replay the flips on a second complex and
    carry a slot map from it to the complex the moves reach, composing in
    each relabeling and renaming each flipped label through the map."""
    from curvetwist import Flip, Relabel, Relabeling, flip
    here = there = source
    slots = {(t, i): (t, i) for t in range(source.num_triangles)
             for i in range(3)}
    flips = []
    for mv in moves:
        if isinstance(mv, Flip):
            t, i = next(s for s, (u, j) in slots.items()
                        if there.triangles[u][j] == mv.label)
            label = here.triangles[t][i]
            flips.append(Flip(label))
            here, there = flip(here, label), flip(there, mv.label)
        else:
            slots = {s: mv.relabeling.slot_map[img]
                     for s, img in slots.items()}
            there = mv.relabeling.target
    if there != source:
        raise AssertionError("move list does not close up")
    if here == source and all(s == img for s, img in slots.items()):
        return tuple(flips)
    return tuple(flips) + (Relabel(Relabeling(here, source, slots)),)


def reference_to_jsonable(moves):
    """The serialized move list, one relabeling at a time."""
    import json
    from curvetwist import Flip, triangulation_to_json
    out = []
    for mv in moves:
        if isinstance(mv, Flip):
            out.append({"kind": "flip", "label": mv.label})
        else:
            rel = mv.relabeling
            out.append({
                "kind": "relabel",
                "slot_map": sorted([list(a), list(b)]
                                   for a, b in rel.slot_map.items()),
                "target": json.loads(triangulation_to_json(rel.target)),
            })
    return {"moves": out}


def _reference_down_flip(coords):
    """The strictly weight-decreasing flip of the heaviest edge (lowest
    label on ties), found by trying every flip, or None."""
    from curvetwist import transform_under_flip
    down = [(-coords.weight_of(lab), lab)
            for lab in coords.host.edge_labels
            if coords.host.is_flippable(lab)
            and transform_under_flip(coords, lab).weight_of(lab)
            < coords.weight_of(lab)]
    return min(down)[1] if down else None


def reference_greedy_shorten(coords):
    """Greedy shortening by trying every flip: take the strictly
    weight-decreasing flip of the heaviest edge (lowest label on ties)
    until the weight is two or no flip decreases it.  Returns the flips
    and the coordinates reached."""
    from curvetwist import Flip, transform_under_flip
    moves = []
    while coords.total_weight > 2:
        lab = _reference_down_flip(coords)
        if lab is None:
            break
        moves.append(Flip(lab))
        coords = transform_under_flip(coords, lab)
    return moves, coords


def _reference_plateau_escape(coords, max_states):
    """Breadth-first search through weight-preserving flips (label order,
    states keyed by their weighted canonical form) until a state has a
    strictly decreasing flip: the flips there, ending with that one, and
    the coordinates reached; None once the whole plateau is exhausted."""
    from curvetwist import Flip, ShorteningError, transform_under_flip
    seen = {coords.host.canonical_form(coords.weights)}
    queue = deque([(coords, [])])
    while queue:
        cur, path = queue.popleft()
        lab = _reference_down_flip(cur)
        if lab is not None:
            return path + [Flip(lab)], transform_under_flip(cur, lab)
        for lab in cur.host.edge_labels:
            if not cur.host.is_flippable(lab):
                continue
            nxt = transform_under_flip(cur, lab)
            if nxt.weight_of(lab) != cur.weight_of(lab):
                continue
            key = nxt.host.canonical_form(nxt.weights)
            if key in seen:
                continue
            seen.add(key)
            if len(seen) > max_states:
                raise ShorteningError("plateau search exceeded %d states"
                                      % max_states)
            queue.append((nxt, path + [Flip(lab)]))
    return None


def reference_shorten(coords, max_states=20000):
    """Greedy flips, and at every stall an exhaustive plateau search: the
    shortening stops only where a whole weight plateau has no way down, so
    an isolating curve's stall is proven minimal by search, state by
    state.  Returns the flips and the coordinates reached."""
    moves = []
    while coords.total_weight > 2:
        greedy, coords = reference_greedy_shorten(coords)
        moves.extend(greedy)
        if coords.total_weight <= 2:
            break
        hop = _reference_plateau_escape(coords, max_states)
        if hop is None:
            break
        steps, coords = hop
        moves.extend(steps)
    return moves, coords


# -- flip geometry and isomorphism search, spelled out -------------------------
#
# The package reads every flip quadrilateral through Triangulation.quad and
# finds every isomorphism through surface.isomorphisms.  The references
# below are the formulas those two replaced: slot arithmetic on a scan of
# the triangles, slot propagation from one root, the least BFS form found
# by building every rooted form in full, and the canonical-form witness and
# automorphism list composed directly from its least-form roots (which fix
# the order the package promises).  A triangulation derives its gluing from
# its labels; reference_flip_gluing is the slot bookkeeping a flip did when
# the gluing was stored.

def reference_quad(tri, label):
    """(s1, s2, a, b, c, d) by scanning for the edge's slots, numbered
    s = 3t + i, or None when the edge lies twice on one triangle."""
    slots = sorted((t, i) for t in range(tri.num_triangles) for i in range(3)
                   if tri.triangles[t][i] == label)
    (t1, i1), (t2, i2) = slots
    if t1 == t2:
        return None
    return (3 * t1 + i1, 3 * t2 + i2,
            tri.triangles[t1][(i1 + 1) % 3], tri.triangles[t1][(i1 + 2) % 3],
            tri.triangles[t2][(i2 + 1) % 3], tri.triangles[t2][(i2 + 2) % 3])


def reference_flip_gluing(tri, glue, label):
    """The gluing after flipping `label`, carried from `glue` (per slot
    3t + i, its partner) by moving the quad's side slots: each old side
    slot moves to the slot its ccw successor a -> d -> c -> b -> a held, and
    takes its partner along."""
    s1, s2 = reference_quad(tri, label)[:2]
    i1, i2 = s1 % 3, s2 % 3
    sa, sb = s1 - i1 + (i1 + 1) % 3, s1 - i1 + (i1 + 2) % 3
    sc, sd = s2 - i2 + (i2 + 1) % 3, s2 - i2 + (i2 + 2) % 3
    move = {sa: sd, sb: sa, sc: sb, sd: sc}
    new = list(glue)
    for s, x in move.items():
        p = glue[s]
        new[x] = move.get(p, p)
        new[new[x]] = x
    return tuple(new)


def reference_relabelings(src, dst, edge_map=None):
    """All isomorphisms src -> dst (inducing exactly `edge_map`, if given),
    found by propagating each assignment of slot (0, 0) around the
    complex."""
    from curvetwist import Relabeling
    sols = []
    total = 3 * src.num_triangles
    for t in range(dst.num_triangles):
        for r in range(3):
            m = {}
            ok = True
            stack = [((0, 0), (t, r))]
            while stack and ok:
                a, b = stack.pop()
                if a in m:
                    ok = m[a] == b
                    continue
                (ta, ia), (tb, ib) = a, b
                for d in range(3):
                    ja, jb = (ia + d) % 3, (ib + d) % 3
                    sa, sb = (ta, ja), (tb, jb)
                    m[sa] = sb
                    if edge_map is not None and edge_map.get(
                            src.triangles[ta][ja]) != dst.triangles[tb][jb]:
                        ok = False
                        break
                    stack.append((src.glued(sa), dst.glued(sb)))
            if ok and len(m) == total and len(set(m.values())) == total:
                sols.append(Relabeling(src, dst, m))
    return sols


def _reference_bfs_form(tri, start, rot, slot_weight=None):
    """The BFS form grown from one rooted corner, built in full: triangles
    numbered in discovery order, a triangle discovered through a slot
    rotated to put that slot at position 0, and per canonical slot the
    canonical address of its partner, plus its weight when `slot_weight`
    is given.  Returns (form, slot map to addresses)."""
    order = [start]
    rots = {start: rot}
    newid = {start: 0}
    k = 0
    tokens = []
    while k < len(order):
        t = order[k]
        r = rots[t]
        for pos in range(3):
            s = (t, (r + pos) % 3)
            pt, pi = tri.glued(s)
            if pt not in newid:
                newid[pt] = len(order)
                rots[pt] = pi
                order.append(pt)
            tok = (newid[pt], (pi - rots[pt]) % 3)
            if slot_weight is not None:
                tok = tok + (slot_weight(s),)
            tokens.append(tok)
        k += 1
    slot_map = {}
    for t, r in rots.items():
        for pos in range(3):
            slot_map[(t, (r + pos) % 3)] = (newid[t], pos)
    return tuple(tokens), slot_map


def reference_min_form_maps(tri, weights=None):
    """The least BFS form over all 3T rooted corners, each form built in
    full, and the slot maps of the roots reaching it in (t, r) order;
    `weights` (per edge label), if given, decorates each slot."""
    sw = None
    if weights is not None:
        sw = lambda s: weights[tri.triangles[s[0]][s[1]]]
    best = None
    maps = []
    for t in range(tri.num_triangles):
        for r in range(3):
            form, m = _reference_bfs_form(tri, t, r, sw)
            if best is None or form < best:
                best = form
                maps = [m]
            elif form == best:
                maps.append(m)
    return best, maps


def reference_isomorphism(tri1, tri2):
    """The witness composed from the first least-form root on each side."""
    from curvetwist import Relabeling
    if tri1.ideal != tri2.ideal:
        return None
    f1, m1 = reference_min_form_maps(tri1)
    f2, m2 = reference_min_form_maps(tri2)
    if f1 != f2:
        return None
    b_inv = {v: k for k, v in m2[0].items()}
    return Relabeling(tri1, tri2, {s: b_inv[m1[0][s]] for s in m1[0]})


def reference_automorphisms(tri):
    """Each least-form root composed with the inverse of the first, with
    repeats dropped, in root order."""
    from curvetwist import Relabeling
    _, maps = reference_min_form_maps(tri)
    base_inv = {v: k for k, v in maps[0].items()}
    out = []
    seen = set()
    for m in maps:
        slot_map = {s: base_inv[m[s]] for s in m}
        key = tuple(sorted(slot_map.items()))
        if key not in seen:
            seen.add(key)
            out.append(Relabeling(tri, tri, slot_map))
    return out


# -- vertices, corner by corner ------------------------------------------------
#
# The package numbers corners like slots and keeps one vertex number per
# corner (Triangulation._corner_vertex).  The references below are the
# tuple-keyed versions that replaced: corners (t, j), both identifications
# across each side spelled out, and a dict union-find.

def reference_vertex_orbits(tri):
    """Corners (t, j) grouped by vertex, each orbit sorted, the orbits in
    order.  Corner (t, j) lies between sides j and j+1 of triangle t (side
    i runs from corner i-1 to corner i); crossing a side identifies the
    corner at its start with the corner at the far side's end, and the
    corner at its end with the corner at the far side's start."""
    parent = {(t, j): (t, j) for t in range(tri.num_triangles)
              for j in range(3)}

    def find(c):
        while parent[c] != c:
            c = parent[c]
        return c

    for t, j in list(parent):
        pt, pi = tri.glued((t, (j + 1) % 3))
        parent[find((t, j))] = find((pt, pi))
        pt, pi = tri.glued((t, j))
        parent[find((pt, (pi - 1) % 3))] = find((t, j))
    groups = {}
    for c in parent:
        groups.setdefault(find(c), []).append(c)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values()))


def reference_vertex_links(tri):
    """Per vertex of reference_vertex_orbits, the number of ends of each
    edge (in edge label order) at it."""
    orbits = reference_vertex_orbits(tri)
    vertex_of = {c: k for k, orbit in enumerate(orbits) for c in orbit}
    ends = {lab: [] for lab in tri.edge_labels}
    for (t, i), _ in tri.gluing_pairs():
        ends[tri.triangles[t][i]] += [vertex_of[(t, (i - 1) % 3)],
                                      vertex_of[(t, i)]]
    return tuple(tuple(ends[lab].count(k) for lab in tri.edge_labels)
                 for k in range(len(orbits)))


# -- strand tracing, arc by arc ----------------------------------------------
#
# The package numbers arcs and crossing points by integers and traces them
# in one list-based union-find (curves._Strands).  The reference below is
# the tracer that replaced: tuple-keyed arcs (t, j, k) and points
# (slot, q), a dict of the arcs through each point, and a union-find over
# the arcs.

def reference_trace(tri, weights):
    """(components, arc_component) of a weight vector: the sorted component
    vectors and, per arc (t, j, k), the index of its component.  Raises
    InvalidCurveError with the package's messages."""
    from curvetwist import InvalidCurveError

    def slot_weight(slot):
        return weights[tri.triangles[slot[0]][slot[1]]]

    counts = {}
    for t in range(tri.num_triangles):
        w = [slot_weight((t, i)) for i in range(3)]
        if sum(w) % 2 != 0:
            raise InvalidCurveError(
                "triangle %d has odd weight sum %r" % (t, tuple(w)))
        for j in range(3):
            n = (w[j] + w[(j + 1) % 3] - w[(j + 2) % 3]) // 2
            if n < 0:
                raise InvalidCurveError(
                    "triangle %d violates the triangle inequality at corner "
                    "%d: %r" % (t, j, tuple(w)))
            counts[(t, j)] = n
    min_slot = {}
    for s, p in tri.gluing_pairs():
        min_slot[s] = min_slot[p] = s

    def point(slot, q):
        # glued sides run in opposite directions: q on one is w-1-q on the
        # other
        base = min_slot[slot]
        return (base, q) if base == slot else (base, slot_weight(slot) - 1 - q)

    def arc_points(arc):
        # an arc at corner j meets side j near the corner and side j+1 at
        # position k
        t, j, k = arc
        s1, s2 = (t, j), (t, (j + 1) % 3)
        return point(s1, slot_weight(s1) - 1 - k), point(s2, k)

    arcs = [(t, j, k) for (t, j), n in counts.items() for k in range(n)]
    parent = {a: a for a in arcs}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    by_point = {}
    for a in arcs:
        for pt in arc_points(a):
            by_point.setdefault(pt, []).append(a)
    for pt, pair in by_point.items():
        if len(pair) != 2:
            raise InvalidCurveError("point %r met by %d arcs"
                                    % (pt, len(pair)))
        ra, rb = find(pair[0]), find(pair[1])
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for a in arcs:
        groups.setdefault(find(a), []).append(a)
    vectors = []
    for root, members in groups.items():
        vec = [0] * tri.num_edges
        for a in members:
            for base, _ in arc_points(a):
                vec[tri.triangles[base[0]][base[1]]] += 1
        if any(x % 2 for x in vec):
            raise InvalidCurveError("inconsistent strand trace")
        vectors.append((tuple(x // 2 for x in vec), root))
    vectors.sort()
    index_of_root = {root: i for i, (_, root) in enumerate(vectors)}
    return (tuple(v for v, _ in vectors),
            {a: index_of_root[find(a)] for a in arcs})


# -- cutting along a multicurve --------------------------------------------------
#
# CutResult numbers the cells of a cut like the arcs.  The reference below is
# the cut that replaced: tuple-keyed cells ('c', t, j, k), between arcs k-1
# and k at corner j of triangle t (k = 0 holds the corner), and ('z', t), the
# centre of triangle t, joined across every segment of every glued edge in a
# dict union-find.  Pieces are listed by their union-find root, least first;
# the package must list them in the same order.

def _cut_counts(tri, weights):
    """The arcs cutting off each corner (t, j)."""
    counts = {}
    for t in range(tri.num_triangles):
        w = [weights[tri.triangles[t][i]] for i in range(3)]
        for j in range(3):
            counts[(t, j)] = (w[j] + w[(j + 1) % 3] - w[(j + 2) % 3]) // 2
    return counts


def reference_cut(coords):
    """(pieces, cell_piece): the CutPieces of the cut along `coords` in
    order, and the index of the piece holding each cell."""
    from curvetwist import CutPiece
    tri, weights = coords.host, coords.weights
    arc_component = reference_trace(tri, weights)[1]
    counts = _cut_counts(tri, weights)
    parent = {}
    for t in range(tri.num_triangles):
        parent[("z", t)] = ("z", t)
        for j in range(3):
            for k in range(counts[(t, j)]):
                parent[("c", t, j, k)] = ("c", t, j, k)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def segment_cell(slot, q):
        # segment q of a side spans points q-1..q; q ranges 0..w
        t, i = slot
        w = weights[tri.triangles[t][i]]
        if q < counts[(t, (i - 1) % 3)]:
            return ("c", t, (i - 1) % 3, q)
        if w - q < counts[(t, i)]:
            return ("c", t, i, w - q)
        return ("z", t)

    segments = []
    for s, p in tri.gluing_pairs():
        w = weights[tri.triangles[s[0]][s[1]]]
        for q in range(w + 1):
            c1, c2 = segment_cell(s, q), segment_cell(p, w - q)
            r1, r2 = find(c1), find(c2)
            if r1 != r2:
                parent[r1] = r2
            segments.append(c1)
    roots = sorted({find(cell) for cell in parent})
    cell_piece = {cell: roots.index(find(cell)) for cell in parent}

    def corner_cell(t, j):
        return ("c", t, j, 0) if counts[(t, j)] else ("z", t)

    n = len(roots)
    cells_in, segs_in = [0] * n, [0] * n
    verts_in, punct_in, circles = [0] * n, [0] * n, [0] * n
    for cell in parent:
        cells_in[cell_piece[cell]] += 1
    for cell in segments:
        segs_in[cell_piece[cell]] += 1
    for orbit in reference_vertex_orbits(tri):
        r = cell_piece[corner_cell(*orbit[0])]
        if tri.ideal:
            punct_in[r] += 1
        else:
            verts_in[r] += 1
    # each component is a boundary circle of the pieces on its two sides,
    # read at its least arc
    seen = set()
    for (t, j, k), comp in sorted(arc_component.items()):
        if comp in seen:
            continue
        seen.add(comp)
        outer = ("c", t, j, k + 1) if k + 1 < counts[(t, j)] else ("z", t)
        circles[cell_piece[("c", t, j, k)]] += 1
        circles[cell_piece[outer]] += 1
    pieces = tuple(CutPiece(cells_in[r] - segs_in[r] + verts_in[r],
                            circles[r], punct_in[r], verts_in[r] > 0)
                   for r in range(n))
    return pieces, cell_piece


def reference_cell_of(coords, d):
    """The cell of the reference cut along the system `coords` that holds
    the curve `d` (CutResult.place): trace the union of the two,
    and read the cell below the least arc of d's component, which has only
    system arcs below it at its corner.  Raises InvalidCurveError with the
    package's messages."""
    from curvetwist import InvalidCurveError, validate
    tri = coords.host
    system = tuple(vec for vec, mult in validate(coords) for _ in range(mult))
    d_comps = [vec for vec, mult in validate(d) for _ in range(mult)]
    total = [x + y for x, y in zip(coords.weights, d.weights)]
    try:
        comps, arc_component = reference_trace(tri, total)
    except InvalidCurveError:
        comps = None
    if comps is None or list(comps) != sorted(system + tuple(d_comps)):
        raise InvalidCurveError("curve is not disjoint from the system")
    if len(d_comps) != 1:
        raise InvalidCurveError("piece location expects a single curve")
    if d_comps[0] in system:
        raise InvalidCurveError("curve is parallel to a system component")
    t, j, k = min(arc for arc, comp in arc_component.items()
                  if comps[comp] == d_comps[0])
    if k < _cut_counts(tri, coords.weights)[(t, j)]:
        return ("c", t, j, k)
    return ("z", t)


# -- curve-system questions, each answered from validate alone -----------------
#
# The package answers "is this family a disjoint multicurve?" and "which
# pieces of a cut hold which curves?" through orbits.check_independent and
# the lazy stream mapping._piece_curves, tracing each curve once per
# question.  The
# references below are the filters those replaced: every part validated
# again, essentiality and disjointness asked separately.

def reference_disjoint(tri, parts):
    """Joint normality of a family: the coordinatewise sum is realizable and
    its traced components are exactly the union of the parts' components."""
    from curvetwist import InvalidCurveError, MulticurveCoords, validate
    total = [0] * tri.num_edges
    expected = []
    for p in parts:
        total = [x + y for x, y in zip(total, p.weights)]
        for vec, mult in validate(p):
            expected.extend([vec] * mult)
    try:
        comps = validate(MulticurveCoords(tri, total))
    except InvalidCurveError:
        return False
    got = []
    for vec, mult in comps:
        got.extend([vec] * mult)
    return sorted(got) == sorted(expected)


def reference_curves_in_piece(joint, piece, cap):
    """The completion's candidate filter: enumerated essential curves that
    are parallel to no component of `joint`, disjoint from it, and placed
    in `piece` by the reference cut, in enumeration order."""
    from curvetwist import (MulticurveCoords, enumerate_single_curves,
                            validate)
    tri = joint.host
    cell_piece = reference_cut(joint)[1]
    existing = {vec for vec, _ in validate(joint)}
    out = []
    for vec in enumerate_single_curves(tri, cap):
        if vec in existing:
            continue
        c = MulticurveCoords(tri, vec)
        if not reference_disjoint(tri, [joint, c]):
            continue
        if cell_piece[reference_cell_of(joint, c)] != piece:
            continue
        out.append(c)
    return out


def reference_check_independent(sys):
    """(ok, problems) of the independence check: validate each component,
    then test essentiality, parallelism, joint disjointness, on a closed
    model an annulus piece in the reference cut of each pair, and the size
    bound one after another."""
    from curvetwist import (InvalidCurveError, MulticurveCoords, is_essential,
                            validate)
    problems = []
    singles = {}
    for name, c in sys.components.items():
        try:
            comps = validate(c)
        except InvalidCurveError as err:
            problems.append("%s: invalid coordinates (%s)" % (name, err))
            continue
        if len(comps) != 1 or comps[0][1] != 1:
            problems.append("%s: not a single curve" % name)
            continue
        if not is_essential(c):
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
        if not reference_disjoint(sys.host, list(singles.values())):
            problems.append("components are not jointly disjoint")
        elif not sys.host.ideal:
            for i in range(len(names)):
                for j in range(i + 1, len(names)):
                    pair = MulticurveCoords(sys.host, [
                        x + y for x, y in zip(singles[names[i]].weights,
                                              singles[names[j]].weights)])
                    if any(p.euler_characteristic == 0
                           and p.boundary_circles == 2
                           for p in reference_cut(pair)[0]):
                        problems.append("%s and %s are parallel across the "
                                        "vertex" % (names[i], names[j]))
    bound = 3 * sys.host.genus + sys.host.num_punctures - 3
    if len(sys.components) > bound:
        problems.append("%d components exceed the bound %d"
                        % (len(sys.components), bound))
    return not problems, tuple(problems)


def reference_periodic_check(e, order_bound=None):
    """Least p <= order_bound with e^p equal to the identity on the
    spanning probes, moving every probe once per power until all return
    together (the check the probe-by-probe lcm replaced).  The bound
    defaults to the Nielsen-realization cap on the order of a periodic
    class: 4g + 2 for genus g >= 2, max(6, n) for genus 1, n for genus 0."""
    from curvetwist import spanning_probes
    tri = e.source
    if order_bound is None:
        g, n = tri.genus, tri.num_punctures
        order_bound = 4 * g + 2 if g >= 2 else max(6, n) if g == 1 else n
    probes = spanning_probes(tri)
    start = [p.weights for p in probes]
    cur = list(start)
    for p in range(1, order_bound + 1):
        cur = [e.act_on_weights(w) for w in cur]
        if cur == start:
            return p
    return None


def reference_invariant_multicurve_search(e, depth=8, weight_cap=8,
                                          extra_seeds=()):
    """The first seed with a finite orbit whose curves are valid single
    essential curves, jointly disjoint; (orbit union, period, orbit) or
    None."""
    from curvetwist import (InvalidCurveError, MulticurveCoords,
                            enumerate_single_curves, is_essential, validate)
    tri = e.source
    seeds = []
    for vec in [c.weights for c in extra_seeds] + list(
            enumerate_single_curves(tri, weight_cap)):
        if vec not in seeds:
            seeds.append(vec)
    for seed in seeds:
        orbit = [seed]
        w = seed
        period = None
        for p in range(1, depth + 1):
            w = e.act_on_weights(w)
            if w == seed:
                period = p
                break
            orbit.append(w)
        if period is None:
            continue
        coords = [MulticurveCoords(tri, v) for v in orbit]
        ok = True
        for c in coords:
            try:
                parts = validate(c)
            except InvalidCurveError:
                ok = False
                break
            if len(parts) != 1 or parts[0][1] != 1 or not is_essential(c):
                ok = False
                break
        if ok and len(coords) > 1:
            ok = reference_disjoint(tri, coords)
        if not ok:
            continue
        total = [sum(ws) for ws in zip(*orbit)]
        return MulticurveCoords(tri, total), period, tuple(orbit)
    return None


# -- enumeration and probe families without a surface context -----------------
#
# The package keeps each triangulation's enumerated curves and probe family
# in one context, extending the curve list as caps grow and picking the
# probe cap in one pass.  The references below are the code that replaced:
# a fresh depth-first search per cap, and the probe cap tried cap by cap.

def reference_single_curves(tri, cap):
    """The essential single curves of weight <= cap, sorted by (weight,
    vector): every realizable vector from a fresh depth-first search over
    the edges (ordered to complete triangles early), kept when it traces to
    one component of multiplicity one that is no vertex link."""
    from curvetwist import MulticurveCoords, validate
    m = tri.num_edges
    tri_edges = [list(t) for t in tri.triangles]
    order = []
    remaining = set(range(m))
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
        completes[max(pos_of[e] for e in te)].append(te)
    vectors = []
    vec = [0] * m

    def dfs(k, budget):
        if k == m:
            vectors.append(tuple(vec))
            return
        for val in range(budget + 1):
            vec[order[k]] = val
            if all((a + b + c) % 2 == 0 and a <= b + c and b <= a + c
                   and c <= a + b
                   for a, b, c in ([vec[x] for x in te]
                                   for te in completes[k])):
                dfs(k + 1, budget - val)
        vec[order[k]] = 0

    dfs(0, cap)
    links = set(tri.vertex_links())
    out = []
    for v in vectors:
        if any(v) and v not in links \
                and validate(MulticurveCoords(tri, v)) == ((v, 1),):
            out.append(v)
    return sorted(out, key=lambda v: (sum(v), v))


def reference_spanning_probes(tri):
    """The essential single curves up to the first cap in 4, 6, 8, 10, 12
    at which every essential curve of weight <= 12 crosses some of them (12
    when no cap does), trying the caps one after another."""
    from curvetwist import MulticurveCoords
    witnesses = [MulticurveCoords(tri, v)
                 for v in reference_single_curves(tri, 12)]
    for cap in (4, 6, 8, 10, 12):
        probes = [w for w in witnesses if w.total_weight <= cap]
        if all(any(not reference_disjoint(tri, [w, pr]) for pr in probes)
               for w in witnesses):
            break
    return tuple(MulticurveCoords(tri, v)
                 for v in reference_single_curves(tri, cap))


# -- the completion's pair search ---------------------------------------------
#
# maximalize completes a piece with its lightest candidate and the lightest
# candidate crossing it, placing candidates one at a time until both are
# there.  reference_completion_pair is the search that replaced: the first
# crossing pair in candidate order under a weight cap, then the cap plus 4,
# then plus 8.  reference_lightest_pair finds the same pair as maximalize,
# but lists every candidate of the piece at each cap.  Both list the
# candidates of the piece of the cut along `joint` with
# reference_curves_in_piece.

def reference_completion_pair(joint, piece, weight_cap=12):
    """The first pair (c_i, c_j), i < j, of crossing candidates of the piece
    in reference_curves_in_piece order, at caps weight_cap, weight_cap + 4
    and weight_cap + 8 in turn, or None when no cap holds one."""
    from curvetwist import intersects
    for cap in (weight_cap, weight_cap + 4, weight_cap + 8):
        cands = reference_curves_in_piece(joint, piece, cap)
        for i in range(len(cands)):
            for j in range(i + 1, len(cands)):
                if intersects(cands[i], cands[j]):
                    return cands[i], cands[j]
    return None


def reference_lightest_pair(joint, piece):
    """(c', c''): the first candidate of the piece in
    reference_curves_in_piece order and the first candidate after it that
    crosses it, listing every candidate of the piece at caps 4, 8, 12, ...
    in turn until both are there."""
    from curvetwist import intersects
    seen, cap = 1, 4
    while True:
        cands = reference_curves_in_piece(joint, piece, cap)
        for c in cands[seen:]:
            if intersects(cands[0], c):
                return cands[0], c
        seen, cap = max(seen, len(cands)), cap + 4


# -- intersection numbers -----------------------------------------------------
#
# mapping._intersection reads i(s, b) off the weights of b at the position
# where s has weight two.  The reference reads it off the growth of twists:
# the weight of T_s^n(b) on each edge e grows by i(s, b) * s_e per twist
# once n is large (Farb-Margalit, Prop. 3.4, whose proof applies to the
# edges as arcs).

def reference_intersection(s, b, n=5):
    """i(s, b) as (T_s^(n+1)(b) - T_s^n(b)) / s, with n doubled until two
    successive differences agree and are a multiple of s; checked against
    the one-trace crossing test (0 exactly for disjoint curves)."""
    from curvetwist import twist
    from curvetwist.curves import _crossing
    while True:
        w = [twist(s, k).act(b).weights for k in (n, n + 1, n + 2)]
        step = [y - x for x, y in zip(w[0], w[1])]
        ratios = {d // x for d, x in zip(step, s.weights) if x}
        if step == [y - x for x, y in zip(w[1], w[2])] and len(ratios) == 1:
            (i,) = ratios
            if step == [i * x for x in s.weights]:
                break
        n *= 2
    assert (i > 0) == _crossing(s.host, s.weights, b.weights)
    return i


# -- the chain of an isolating twist -------------------------------------------
#
# mapping._isolating_block reads the curves of the vertex-free piece lazily
# and searches them for a chain as it goes.  The reference is the eager
# search it replaced: list every candidate up to a cap, search, and raise
# the cap by 4 until a chain is found.

def reference_isolating_chain(c):
    """The chain c_1, ..., c_2h of the isolating curve c: the first one,
    in reference_curves_in_piece order at caps 8, 12, 16, ... in turn,
    among the non-isolating curves of c's vertex-free piece (genus h),
    whose next curve meets the last once and the earlier ones not at all
    by reference_intersection."""
    from itertools import count
    pieces = reference_cut(c)[0]
    (piece,) = [i for i, p in enumerate(pieces)
                if not p.contains_puncture_or_vertex]
    h = (1 - pieces[piece].euler_characteristic) // 2
    meets = {}

    def i(a, b):
        if (a, b) not in meets:
            meets[a, b] = reference_intersection(a, b)
        return meets[a, b]

    def chain(cands, prefix):
        if len(prefix) == 2 * h:
            return prefix
        for d in cands:
            if d not in prefix and (not prefix or i(prefix[-1], d) == 1) \
                    and not any(i(b, d) for b in prefix[:-1]):
                found = chain(cands, prefix + [d])
                if found:
                    return found
        return None

    for cap in count(8, 4):
        cands = [d for d in reference_curves_in_piece(c, piece, cap)
                 if all(p.contains_puncture_or_vertex
                        for p in reference_cut(d)[0])]
        found = chain(cands, [])
        if found:
            return found
