"""References for the rainbow-ordering decider and the pattern host in
``hyperdense.rainbow``.

``find_rainbow_ordering`` is the backtracking search the library used
before it fixed face colours at placement and memoised failed prefixes:
it checks an edge's colour demands only once all of the edge's vertices
are placed.  Like the library, it tries vertices in ascending index, so
both must return the same lexicographically least witness.
``memo_ordering`` is the search the library used before it added the rank
bound: it fixes face colours at placement and memoises failed prefixes,
but rejects a prefix for a face colour that is too low only once k-1
vertices of the face's edge are placed.  It returns the same witness
after more calls of its inner search.
``build_pattern_host`` is the construction the library used before it
intersected colour bitmasks: it tests every k-set of [n].
``serialize_pair_colouring`` writes the pair-colouring file format that
``parse_pair_colouring`` reads.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from hyperdense.hypergraphs import Face, Hypergraph
from hyperdense.rainbow import PairColouring, ShadowColouring, _face_dropping, forced_colouring


def find_rainbow_ordering(pattern: Hypergraph) -> Optional[ShadowColouring]:
    """Search all vertex orderings for a conflict-free forced colouring.

    Incremental backtracking over ordering prefixes: an edge's colour
    demands are known as soon as its last vertex is placed, so conflicts
    prune whole prefix subtrees.  Vertices are tried in ascending index,
    which makes the returned ordering the lexicographically least witness.
    """
    if pattern.k < 3:
        raise ValueError("requires uniformity k >= 3")
    n = pattern.n
    if n == 0:
        return ShadowColouring((), {})
    edges = pattern.edges
    edge_ids_of = [[] for _ in range(n)]
    for i, e in enumerate(edges):
        for v in e:
            edge_ids_of[v].append(i)
    remaining = [pattern.k] * len(edges)
    pos: list[Optional[int]] = [None] * n
    seq: list[int] = []
    colours: dict[Face, int] = {}

    def dfs() -> bool:
        if len(seq) == n:
            return True
        for v in range(n):
            if pos[v] is not None:
                continue
            pos[v] = len(seq)
            seq.append(v)
            for ei in edge_ids_of[v]:
                remaining[ei] -= 1
            new_faces: list[Face] = []
            ok = True
            for ei in edge_ids_of[v]:
                if remaining[ei] != 0 or not ok:
                    continue
                e = edges[ei]
                vs = sorted(e, key=lambda x: pos[x])
                for ell, u in enumerate(vs, start=1):
                    face = _face_dropping(e, u)
                    got = colours.get(face)
                    if got is None:
                        colours[face] = ell
                        new_faces.append(face)
                    elif got != ell:
                        ok = False
                        break
            if ok and dfs():
                return True
            for face in new_faces:
                del colours[face]
            for ei in edge_ids_of[v]:
                remaining[ei] += 1
            seq.pop()
            pos[v] = None
        return False

    if not dfs():
        return None
    return ShadowColouring(tuple(seq), dict(colours))


def memo_ordering(pattern: Hypergraph) -> Optional[ShadowColouring]:
    """Search the vertex orderings for a conflict-free forced colouring.

    Backtracking over ordering prefixes that fixes each face colour as soon
    as the prefix decides it:

    - placing v gives the face e - v of each edge e containing v the colour
      "number of e's vertices placed so far", because face ell belongs to
      the edge's ell-th vertex by position;
    - once k-1 vertices of e are placed, the unplaced one must come last,
      so the face that drops it gets colour k at that point.

    A face f is live while some edge f + x still has x unplaced; no other
    face can receive a colour again.  A failed prefix is remembered under
    its placed set and the colours of its live faces, and a later prefix
    reaching the same state is skipped, since it has the same completions.
    Vertices are tried in ascending index, which makes the returned
    ordering the lexicographically least witness.  The search is still
    exponential in the worst case.
    """
    if pattern.k < 3:
        raise ValueError("requires uniformity k >= 3")
    n, k = pattern.n, pattern.k
    # The colours of the live faces are packed into one int, `width` bits per
    # face; 0 means uncoloured.  A face's bits are cleared when it dies, so
    # (placed set, packed colours) is the memo key.
    width = k.bit_length()
    field = (1 << width) - 1
    shift_of: dict[Face, int] = {}
    waits_for: dict[int, int] = {}  # face shift -> the x with face + x an edge
    edge_drops: list[dict[int, int]] = []  # vertex bit -> shift of the face dropping it
    for e in pattern.edges:
        drops = {1 << x: shift_of.setdefault(_face_dropping(e, x), width * len(shift_of)) for x in e}
        for bit, s in drops.items():
            waits_for[s] = waits_for.get(s, 0) | bit
        edge_drops.append(drops)
    # For each vertex v and edge e containing v: e's vertex mask, the shift
    # of the face dropping v, e's drops, and the vertices that face waits
    # for (it dies once all of them are placed).
    incident: list[list[tuple[int, int, dict[int, int], int]]] = [[] for _ in range(n)]
    for drops in edge_drops:
        for bit, s in drops.items():
            incident[bit.bit_length() - 1].append((sum(drops), s, drops, waits_for[s]))
    full = (1 << n) - 1
    failed: set[tuple[int, int]] = set()
    order: list[int] = []

    def search(placed: int, code: int) -> bool:
        if placed == full:
            return True
        for v in range(n):
            if placed >> v & 1:
                continue
            now = placed | 1 << v
            new = code
            for emask, s, drops, waits in incident[v]:
                c = (emask & now).bit_count()
                if c < k:  # at c == k the face got colour k one step earlier
                    got = new >> s & field
                    if got and got != c:
                        break
                    new |= c << s
                if c == k - 1:
                    t = drops[emask & ~now]
                    got = new >> t & field
                    if got and got != k:
                        break
                    new |= k << t
                if not waits & ~now:
                    new &= ~(field << s)
            else:
                key = (now, new)
                if key in failed:
                    continue
                order.append(v)
                if search(now, new):
                    return True
                order.pop()
                failed.add(key)
        return False

    if not search(0, 0):
        return None
    witness = forced_colouring(pattern, order)
    if not isinstance(witness, ShadowColouring):
        raise RuntimeError(f"ordering {order} found by the search has a conflict")
    return witness


def build_pattern_host(phi: PairColouring) -> Hypergraph:
    """The k-sets u_1 < ... < u_k whose face omitting u_ell has colour ell
    for every ell."""
    edges = []
    for e in combinations(range(phi.n), phi.k):
        if all(phi.colours[_face_dropping(e, e[ell - 1])] == ell for ell in range(1, phi.k + 1)):
            edges.append(e)
    return Hypergraph(phi.k, phi.n, tuple(edges))


def serialize_pair_colouring(phi: PairColouring) -> str:
    lines = [f"{phi.k} {phi.n}"]
    for face in sorted(phi.colours):
        lines.append(" ".join(map(str, face)) + f" {phi.colours[face]}")
    return "\n".join(lines) + "\n"
