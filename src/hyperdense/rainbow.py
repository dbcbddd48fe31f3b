"""Ordered rainbow colourings of the shadow, and the pair-pattern host.

A colouring certificate consists of a vertex ordering together with a
k-colouring of the shadow faces such that for every edge, read in ordering
position, the face obtained by deleting the edge's ell-th vertex carries
colour ell.  Deleting the earliest vertex leaves the latest face; for k = 3
the conventional names are therefore

    1 = green  (the two position-latest vertices of an edge),
    2 = blue   (earliest and latest),
    3 = red    (the two position-earliest vertices).

The dual construction goes the other way: given a total colouring of the
(k-1)-subsets of [n], the pattern host has exactly those k-sets as edges
whose faces carry this position pattern under the natural order of [n].
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import NamedTuple, Optional, Sequence, Union

from .hypergraphs import Face, Hypergraph, check_pattern_size, shadow
from .seeding import derive_rng

COLOUR_NAMES = {1: "green", 2: "blue", 3: "red"}

# A colouring of [n] has C(n, k-1) colours and its pattern host is chosen
# among C(n, k) k-sets.  At these limits one `generate hphi` takes up to
# about 10 s and 500 MB (n = 4472 at k = 2, n = 392 at k = 3, n = 43 at k = 6).
PAIR_COLOURING_LIMIT = 10**6
PATTERN_HOST_LIMIT = 10**7


class ShadowColouring(NamedTuple):
    """A vertex ordering plus a total colouring of the shadow.

    ``order[p]`` is the vertex at position p (0-based); ``colours`` maps
    each shadow face to a colour in 1..k and is defined nowhere else.
    """

    order: tuple[int, ...]
    colours: dict[Face, int]


class Conflict(NamedTuple):
    """Two edges demand different colours for the same shadow face."""

    face: Face
    colour_a: int
    colour_b: int


class PairColouring:
    """Total colouring of all (k-1)-subsets of [0, n) with colours 1..k."""

    def __init__(self, k: int, n: int, colours: dict[Face, int]):
        if k < 2:
            raise ValueError(f"need uniformity k >= 2, got k={k}")
        want = comb(n, k - 1)
        if len(colours) != want:
            raise ValueError(f"colouring is not total: {len(colours)} of {want} subsets")
        for face, c in colours.items():
            if len(face) != k - 1 or any(a >= b for a, b in zip(face, face[1:])):
                raise ValueError(f"bad subset key {face}: need {k - 1} increasing vertices")
            if any(v < 0 or v >= n for v in face):
                raise ValueError(f"subset {face} out of range")
            if c < 1 or c > k:
                raise ValueError(f"colour {c} outside 1..{k}")
        self.k, self.n, self.colours = k, n, colours

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(k={self.k!r}, n={self.n!r}, colours={self.colours!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.k, self.n, self.colours) == (other.k, other.n, other.colours)


def _face_dropping(edge: tuple[int, ...], v: int) -> Face:
    return tuple(x for x in edge if x != v)


def forced_colouring(pattern: Hypergraph, order: Sequence[int]) -> Union[ShadowColouring, Conflict]:
    """The unique colouring forced by a fixed ordering, or the first Conflict.

    Edges are processed in canonical order, so which conflict is reported
    is deterministic.  Every shadow face lies in some edge, hence receives
    a forced colour; there is nothing left to extend.
    """
    if sorted(order) != list(range(pattern.n)):
        raise ValueError("order must be a permutation of the vertex set")
    pos = {v: i for i, v in enumerate(order)}
    colours: dict[Face, int] = {}
    for e in pattern.edges:
        vs = sorted(e, key=lambda v: pos[v])
        for ell, u in enumerate(vs, start=1):
            face = _face_dropping(e, u)
            got = colours.get(face)
            if got is None:
                colours[face] = ell
            elif got != ell:
                return Conflict(face, got, ell)
    return ShadowColouring(tuple(order), colours)


def find_rainbow_ordering(pattern: Hypergraph) -> Optional[ShadowColouring]:
    """Search the vertex orderings for a conflict-free forced colouring.

    Backtracking over ordering prefixes that fixes each face colour as soon
    as the prefix decides it, and rejects a prefix as soon as one of its
    face colours is too low to be reached:

    - placing v gives the face e - v of each edge e containing v the colour
      "number of e's vertices placed so far", because face ell belongs to
      the edge's ell-th vertex by position;
    - once c vertices of e are placed, each unplaced x of e comes after all
      of them, so the face e - x must end up with a colour above c.  If it
      already has colour c or less, the prefix has no completion.  At
      c = k-1 this says the face dropping the last vertex must have colour
      k or none yet.

    A face f is live while some edge f + x still has x unplaced; no other
    face can receive a colour again.  A failed prefix is remembered under
    its placed set and the colours of its live faces, and a later prefix
    reaching the same state is skipped, since it has the same completions.
    The rank bound keeps those keys valid: it reads only the placed set and
    faces that wait for an unplaced vertex, which are live.  It drops only
    prefixes that have no completion, and vertices are tried in ascending
    index, so the returned ordering is still the lexicographically least
    witness.  The search is still exponential in the worst case.
    """
    if pattern.k < 3:
        raise ValueError("requires uniformity k >= 3")
    check_pattern_size(pattern)
    n, k = pattern.n, pattern.k
    # The colours of the live faces are packed into one int, `width` bits per
    # face; 0 means uncoloured.  A face's bits are cleared when it dies, so
    # (placed set, packed colours) is the memo key.
    width = k.bit_length()
    field = (1 << width) - 1
    shift_of: dict[Face, int] = {}
    waits_for: dict[int, int] = {}  # face shift -> the x with face + x an edge
    edge_drops: list[list[tuple[int, int]]] = []  # (vertex bit, shift of the face dropping it)
    for e in pattern.edges:
        drops = [(1 << x, shift_of.setdefault(e[:i] + e[i + 1:], width * len(shift_of)))
                 for i, x in enumerate(e)]
        for bit, s in drops:
            waits_for[s] = waits_for.get(s, 0) | bit
        edge_drops.append(drops)
    # For each vertex v and edge e containing v: e's vertex mask, the shift
    # of the face dropping v, e's drops, and the vertices that face waits
    # for (it dies once all of them are placed).
    incident: list[list[tuple[int, int, list[tuple[int, int]], int]]] = [[] for _ in range(n)]
    for drops in edge_drops:
        emask = sum(bit for bit, _ in drops)
        for bit, s in drops:
            incident[bit.bit_length() - 1].append((emask, s, drops, waits_for[s]))
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
                got = new >> s & field
                if got and got != c:
                    break
                new |= c << s
                if not waits & ~now:
                    new &= ~(field << s)
                if c < k:  # the rank bound on the faces dropping e's unplaced vertices
                    for bit, t in drops:
                        if not bit & now and 0 < new >> t & field <= c:
                            break
                    else:
                        continue
                    break
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


def verify_rainbow_colouring(pattern: Hypergraph, witness: ShadowColouring) -> bool:
    """Pure re-check, independent of the search path."""
    if sorted(witness.order) != list(range(pattern.n)):
        return False
    if set(witness.colours) != set(shadow(pattern)):
        return False
    if any(c < 1 or c > pattern.k for c in witness.colours.values()):
        return False
    pos = {v: i for i, v in enumerate(witness.order)}
    for e in pattern.edges:
        vs = sorted(e, key=lambda v: pos[v])
        for ell, u in enumerate(vs, start=1):
            if witness.colours[_face_dropping(e, u)] != ell:
                return False
    return True


def build_pattern_host(phi: PairColouring) -> Hypergraph:
    """Host whose edges are the k-sets matching the position pattern.

    A k-set with sorted vertices u_1 < ... < u_k is an edge iff the face
    omitting u_ell has colour ell for every ell.  For k = 3 this reads:
    earliest pair red, outer pair blue, latest pair green.

    Built from colour bitmasks: later[(s, c)] holds each x above max(s)
    such that the face s + x has colour c.  An edge is a face p of colour k
    (its first k-1 vertices) plus a last vertex x > p[-1] with x in
    later[(p minus its ell-th vertex, ell)] for each ell < k, so the edges
    come out in sorted order, face by face and x ascending.
    """
    k = phi.k
    later: dict[tuple[Face, int], int] = {}
    for face, c in phi.colours.items():
        key = (face[:-1], c)
        later[key] = later.get(key, 0) | 1 << face[-1]
    edges = []
    for p in combinations(range(phi.n), k - 1):
        if phi.colours[p] != k:
            continue
        xs = -2 << p[-1]  # every vertex above p[-1]
        for ell in range(k - 1):
            xs &= later.get((p[:ell] + p[ell + 1:], ell + 1), 0)
            if not xs:
                break
        while xs:  # the set bits, ascending
            low = xs & -xs
            edges.append(p + (low.bit_length() - 1,))
            xs ^= low
    return Hypergraph(k, phi.n, tuple(edges))


def _binomial_above(n: int, r: int, limit: int) -> bool:
    """Whether C(n, r) > limit.  C(n, i) >= 2**i for i <= n/2, so the
    running product passes the limit within about log2(limit) steps,
    where math.comb would take seconds on a large n and r."""
    c = 1
    for i in range(min(r, n - r)):
        c = c * (n - i) // (i + 1)  # C(n, i + 1)
        if c > limit:
            return True
    return False


def _check_colouring_size(n: int, k: int) -> None:
    """Reject, before anything is built, a colouring with more vertices or
    colours, or a pattern host with more candidate edges, than the limits
    allow.  The vertex bound matters only at k - 1 = n: one face of n."""
    if (n > PAIR_COLOURING_LIMIT or _binomial_above(n, k - 1, PAIR_COLOURING_LIMIT)
            or _binomial_above(n, k, PATTERN_HOST_LIMIT)):
        raise ValueError(f"pattern hosts are limited to n <= {PAIR_COLOURING_LIMIT}, C(n, k-1) <= "
                         f"{PAIR_COLOURING_LIMIT} colours and C(n, k) <= {PATTERN_HOST_LIMIT} candidate edges, "
                         f"got n={n}, k={k}")


def random_pair_colouring(n: int, k: int, seed: int) -> PairColouring:
    """Uniform independent colours on all (k-1)-subsets; fixed by the seed."""
    if k < 2:
        raise ValueError(f"need uniformity k >= 2, got k={k}")
    if n < k - 1:
        raise ValueError(f"need n >= k-1, got n={n}, k={k}")
    _check_colouring_size(n, k)
    rng = derive_rng(seed, f"pair-colouring/{k}/{n}")
    colours = {face: rng.randint(1, k) for face in combinations(range(n), k - 1)}
    return PairColouring(k, n, colours)


def witness_to_dict(witness: ShadowColouring, k: int) -> dict:
    return {
        "ordering": list(witness.order),
        "colours": [
            {"tuple": list(face), "colour": COLOUR_NAMES[c] if k == 3 else c}
            for face, c in sorted(witness.colours.items())
        ],
    }


def parse_pair_colouring(text: str) -> PairColouring:
    """Parse the pair-colouring format: header ``k n``, then one line per
    (k-1)-subset followed by its colour index.  The subset's vertices may
    appear in any order; a malformed line is named in the error."""
    k = n = None
    colours: dict[Face, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if k is None:
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: header must be 'k n'")
            try:
                k, n = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"line {lineno}: header fields must be integers")
            if k < 2 or n < 0:
                raise ValueError(f"line {lineno}: header out of range")
            try:
                _check_colouring_size(n, k)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            continue
        if len(parts) != k:
            raise ValueError(f"line {lineno}: expected {k - 1} vertices and a colour")
        try:
            *vs, colour = (int(p) for p in parts)
        except ValueError:
            raise ValueError(f"line {lineno}: vertices and colour must be integers")
        for v in vs:
            if v < 0 or v >= n:
                raise ValueError(f"line {lineno}: vertex index {v} out of range [0, {n})")
        if len(set(vs)) != len(vs):
            raise ValueError(f"line {lineno}: repeated vertex within a subset")
        if not 1 <= colour <= k:
            raise ValueError(f"line {lineno}: colour {colour} outside 1..{k}")
        face = tuple(sorted(vs))
        if face in colours:
            raise ValueError(f"line {lineno}: duplicate subset")
        colours[face] = colour
    if k is None:
        raise ValueError("missing header line")
    return PairColouring(k, n, colours)

