"""References for the rainbow-ordering decider and the pattern host in
``hyperdense.rainbow``.

``find_rainbow_ordering`` is the backtracking search the library used
before it fixed face colours at placement and memoised failed prefixes:
it checks an edge's colour demands only once all of the edge's vertices
are placed.  Like the library, it tries vertices in ascending index, so
both must return the same lexicographically least witness.
``build_pattern_host`` is the construction the library used before it
intersected colour bitmasks: it tests every k-set of [n].
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from hyperdense.hypergraphs import Face, Hypergraph
from hyperdense.rainbow import PairColouring, ShadowColouring, _face_dropping


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


def build_pattern_host(phi: PairColouring) -> Hypergraph:
    """The k-sets u_1 < ... < u_k whose face omitting u_ell has colour ell
    for every ell."""
    edges = []
    for e in combinations(range(phi.n), phi.k):
        if all(phi.colours[_face_dropping(e, e[ell - 1])] == ell for ell in range(1, phi.k + 1)):
            edges.append(e)
    return Hypergraph(phi.k, phi.n, tuple(edges))
