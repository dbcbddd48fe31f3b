"""Canonical k-uniform hypergraphs and exact pattern search.

Vertices are the integers 0..n-1.  Edges are k-element subsets stored as
sorted tuples, and the edge list itself is sorted lexicographically, so
equal hypergraphs compare equal and every search iterates in a fixed,
reproducible order.

Uniformity k = 2 (plain graphs) is accepted for plumbing; everything of
substance in the other modules requires k >= 3.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, combinations, islice, permutations
from math import comb
from operator import itemgetter, lt
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np

Edge = tuple[int, ...]
Face = tuple[int, ...]  # (k-1)-subsets covered by an edge

# count_homomorphisms contracts the host's adjacency tensor from T_3's
# 27**3 cells on; on smaller hosts a Python walk beats loading numpy.  The
# einsum steps of one count may walk CONTRACTION_MAX_WORK index tuples in
# all, at 2-3 ns each (2-vCPU Xeon): enough for P5 into T_4, 1.6e6 tuples
# in 6 ms where the search takes 340 ms.  Past it the search can be the
# faster one on a sparse host: K4^(3) into 81 random vertices walks 4.4e7
# tuples in 100 ms, and the search takes 11 ms.
CONTRACTION_MIN_CELLS = 27**3
CONTRACTION_MAX_WORK = 1 << 21
# The search keeps a bitmask of neighbours per host vertex, about n**2 / 8
# bytes in all, so it takes hosts of at most this many vertices.
HOST_VERTEX_LIMIT = 10**4
# The pattern searches (this module's, the rainbow and digit-string
# deciders, and the hom counts into T_n) recurse once per pattern vertex,
# about n + 10 frames deep, so under Python's default recursion limit of
# 1000 they take patterns of at most this many vertices: a 512-vertex tight
# path passes each of them, and a 1,024-vertex one raises RecursionError.
PATTERN_VERTEX_LIMIT = 512


class HypergraphParseError(ValueError):
    """Malformed HYG input; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class Hypergraph:
    """Immutable k-uniform hypergraph in canonical storage.

    The constructor validates canonical form strictly; use ``from_edges``
    to build from unsorted or duplicated input.  Hypergraphs compare and
    hash by (k, n, edges), which cannot be assigned.
    """

    def __init__(self, k: int, n: int, edges: tuple[Edge, ...]):
        # set past the __setattr__ that refuses assignment
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        if k < 2:
            raise ValueError(f"uniformity must be >= 2, got {k}")
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        if not self._is_canonical():
            self._reject()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(k={self.k!r}, n={self.n!r}, edges={self.edges!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.k, self.n, self.edges) == (other.k, other.n, other.edges)

    def __hash__(self) -> int:
        return hash((self.k, self.n, self.edges))

    def _is_canonical(self) -> bool:
        """The four conditions of canonical form, one pass each, all in C:
        every edge has k vertices; each column is below the next, so every
        edge increases; the first column is at least 0 and the last below
        n, so every vertex is in range; and the edge list strictly
        increases."""
        edges = self.edges
        if not edges:
            return True
        if set(map(len, edges)) != {self.k}:
            return False

        def column(i: int) -> Iterator[int]:
            return map(itemgetter(i), edges)

        return (all(all(map(lt, column(i), column(i + 1))) for i in range(self.k - 1))
                and min(column(0)) >= 0 and max(column(self.k - 1)) < self.n
                and all(map(lt, edges, islice(edges, 1, None))))

    def _reject(self) -> None:
        """Raise the error of the first edge that breaks canonical form."""
        prev = None
        for e in self.edges:
            if len(e) != self.k:
                raise ValueError(f"edge {e} does not have {self.k} vertices")
            if any(v < 0 or v >= self.n for v in e):
                raise ValueError(f"edge {e} has a vertex outside [0, {self.n})")
            if any(e[i] >= e[i + 1] for i in range(len(e) - 1)):
                raise ValueError(f"edge {e} is not strictly increasing")
            if prev is not None and e <= prev:
                raise ValueError("edge list is not in canonical sorted order")
            prev = e

    @classmethod
    def from_edges(cls, k: int, n: int, edges: Iterable[Sequence[int]]) -> "Hypergraph":
        canon = sorted({tuple(sorted(e)) for e in edges})
        return cls(k, n, tuple(canon))

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def _edges_by_vertex(self) -> tuple[tuple[Edge, ...], ...]:
        buckets: list[list[Edge]] = [[] for _ in range(self.n)]
        for e in self.edges:
            for v in e:
                buckets[v].append(e)
        return tuple(tuple(b) for b in buckets)

    def degree(self, v: int) -> int:
        return len(self._edges_by_vertex[v])

    @property
    def edge_count(self) -> int:
        return len(self.edges)


class VertexMap(NamedTuple):
    """Edge-preserving map from pattern vertices to host vertices."""

    mapping: dict[int, int]
    injective: bool


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse HYG text: header ``k n m``, then m edge lines of k indices.

    Lines starting with ``#`` and blank lines are skipped.  Vertices within
    an edge line may appear in any order and are canonicalized; repeated
    vertices and duplicate edges are errors.
    """
    k = n = m = None
    edges: list[Edge] = []
    seen: set[Edge] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if k is None:
            if len(parts) != 3:
                raise HypergraphParseError("header must be 'k n m'", lineno)
            try:
                k, n, m = (int(p) for p in parts)
            except ValueError:
                raise HypergraphParseError("header fields must be integers", lineno)
            if k < 2 or n < 0 or m < 0:
                raise HypergraphParseError("header out of range (need k>=2, n>=0, m>=0)", lineno)
            continue
        if len(edges) == m:
            raise HypergraphParseError(f"more than {m} edge lines", lineno)
        if len(parts) != k:
            raise HypergraphParseError(f"expected {k} vertex indices", lineno)
        try:
            vs = [int(p) for p in parts]
        except ValueError:
            raise HypergraphParseError("vertex indices must be integers", lineno)
        for v in vs:
            if v < 0 or v >= n:
                raise HypergraphParseError(f"vertex index {v} out of range [0, {n})", lineno)
        if len(set(vs)) != k:
            raise HypergraphParseError("repeated vertex within an edge", lineno)
        e = tuple(sorted(vs))
        if e in seen:
            raise HypergraphParseError(f"duplicate edge {' '.join(map(str, e))}", lineno)
        seen.add(e)
        edges.append(e)
    if k is None:
        raise HypergraphParseError("missing header line")
    if len(edges) != m:
        raise HypergraphParseError(f"expected {m} edges, found {len(edges)}")
    return Hypergraph.from_edges(k, n, edges)


def serialize_hypergraph(h: Hypergraph) -> str:
    lines = [f"{h.k} {h.n} {len(h.edges)}"]
    lines.extend(" ".join(map(str, e)) for e in h.edges)
    return "\n".join(lines) + "\n"


def shadow(h: Hypergraph) -> frozenset[Face]:
    """All (k-1)-subsets covered by at least one edge."""
    faces: set[Face] = set()
    for e in h.edges:
        for i in range(h.k):
            faces.add(e[:i] + e[i + 1:])
    return frozenset(faces)


def induced_edge_count(h: Hypergraph, vertices: Iterable[int]) -> int:
    """Number of edges entirely inside the given vertex set."""
    vs = set(vertices)
    if any(v < 0 or v >= h.n for v in vs):
        raise ValueError("vertex outside [0, n)")
    return sum(1 for e in h.edges if vs.issuperset(e))


def complete_hypergraph(k: int, n: int) -> Hypergraph:
    return Hypergraph(k, n, tuple(combinations(range(n), k)))


def relabel(h: Hypergraph, perm: Sequence[int]) -> Hypergraph:
    """Apply a vertex permutation (perm[v] = new label of v)."""
    return Hypergraph.from_edges(h.k, h.n, (tuple(perm[v] for v in e) for e in h.edges))


def check_pattern_size(pattern: Hypergraph) -> None:
    """Reject, before a search builds anything, a pattern with more than
    PATTERN_VERTEX_LIMIT vertices."""
    if pattern.n > PATTERN_VERTEX_LIMIT:
        raise ValueError(f"pattern searches are limited to patterns of n <= {PATTERN_VERTEX_LIMIT} "
                         f"vertices, got n={pattern.n}")


def _check_map_sizes(pattern: Hypergraph, host: Hypergraph) -> None:
    if pattern.k != host.k:
        raise ValueError(f"uniformity mismatch: {pattern.k} vs {host.k}")
    if host.n > HOST_VERTEX_LIMIT:
        raise ValueError(f"pattern-map searches are limited to hosts of n <= {HOST_VERTEX_LIMIT} "
                         f"vertices, got n={host.n}")
    check_pattern_size(pattern)


def _set_bits(mask: int) -> list[int]:
    """The set bits of a nonnegative mask, ascending."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


def _completion_index(host: Hypergraph) -> dict[Face, tuple[int, ...]]:
    """Map each host face to the sorted vertices completing it to an edge."""
    idx: dict[Face, list[int]] = {}
    for e in host.edges:
        for i in range(host.k):
            idx.setdefault(e[:i] + e[i + 1:], []).append(e[i])
    return {f: tuple(sorted(c)) for f, c in idx.items()}


def _neighbour_masks(completions: dict[Face, tuple[int, ...]], n: int) -> list[int]:
    """Bitmask of the host vertices sharing an edge with each vertex, read
    off the faces alone: for k >= 3 each pair of an edge lies in a face."""
    bit = [1 << v for v in range(n)]
    nbr = [0] * n
    for face in completions:
        bits = 0
        for v in face:
            bits |= bit[v]
        for v in face:
            nbr[v] |= bits
    return [bits & ~bit[v] for v, bits in enumerate(nbr)]


def _search_order(pattern: Hypergraph) -> list[int]:
    # Descending degree puts constrained vertices early; ties by index.
    return sorted(range(pattern.n), key=lambda v: (-pattern.degree(v), v))


def _closing_edges(pattern: Hypergraph, order: Sequence[int]) -> list[list[tuple[int, ...]]]:
    """For each search position, the edges completed there, as the positions
    of their other vertices."""
    pos = {v: i for i, v in enumerate(order)}
    closing: list[list[tuple[int, ...]]] = [[] for _ in order]
    for e in pattern.edges:
        *others, last = sorted(pos[v] for v in e)
        closing[last].append(tuple(others))
    return closing


def _pair_checks(
    pattern: Hypergraph, order: Sequence[int], closing: list[list[tuple[int, ...]]]
) -> list[tuple[int, ...]]:
    """For each search position, the earlier positions that share a pattern
    edge with it but lie in none of its closing edges (the completion index
    already ties those to it)."""
    pos = {v: i for i, v in enumerate(order)}
    checks: list[set[int]] = [set() for _ in order]
    for e in pattern.edges:
        ps = sorted(pos[v] for v in e)
        for j, q in enumerate(ps):
            checks[q].update(ps[:j])
    for i, edges in enumerate(closing):
        for others in edges:
            checks[i].difference_update(others)
    return [tuple(sorted(c)) for c in checks]


def contains_copy(pattern: Hypergraph, host: Hypergraph) -> Optional[VertexMap]:
    """Injective edge-preserving map from pattern into host, or None.

    The injective search of ``_count_maps``, stopped at its first leaf, so
    the witness is deterministic for fixed inputs: candidates are tried in
    increasing order along the fixed search order.
    """
    witness: dict[int, int] = {}
    if not _count_maps(pattern, host, injective=True, witness=witness):
        return None
    return VertexMap(witness, True)


def is_embedding(pattern: Hypergraph, host: Hypergraph, mapping: dict[int, int]) -> bool:
    """Independent re-check of a containment witness."""
    if pattern.k != host.k:
        return False
    if set(mapping) != set(range(pattern.n)):
        return False
    values = list(mapping.values())
    if len(set(values)) != len(values):
        return False
    if any(w < 0 or w >= host.n for w in values):
        return False
    return all(tuple(sorted(mapping[v] for v in e)) in host.edge_set for e in pattern.edges)


def count_embeddings(pattern: Hypergraph, host: Hypergraph) -> int:
    """Exact number of injective edge-preserving maps (enumeration variant)."""
    return _count_maps(pattern, host, injective=True)


def count_homomorphisms(pattern: Hypergraph, host: Hypergraph) -> int:
    """Exact number of (not necessarily injective) edge-preserving maps.

    A pattern with edges, into a host whose adjacency tensor has at least
    CONTRACTION_MIN_CELLS cells (n**k), is counted by contraction
    (``_contract_homomorphisms``) when its einsum steps walk at most
    CONTRACTION_MAX_WORK index tuples in all (``_contraction_work``) and
    n**v(F) < 2**63, which bounds every partial sum, so int64 stays exact.
    A step walks at least the tensor's cells, so the cap bounds the tensor
    too.  Every other count runs the search of ``_count_maps``: below the
    floor a Python walk beats loading numpy, past the cap the search can be
    faster, and an edgeless pattern is just n**v.
    """
    _check_map_sizes(pattern, host)
    n = host.n
    if pattern.edges and n ** host.k >= CONTRACTION_MIN_CELLS and n ** pattern.n < 1 << 63:
        order = _elimination_order(pattern)
        if _contraction_work(order, n) <= CONTRACTION_MAX_WORK:
            return _contract_homomorphisms(pattern, host, order)
    return _count_maps(pattern, host, injective=False)


def _elimination_order(pattern: Hypergraph) -> list[tuple[int, tuple[int, ...]]]:
    """The pattern's vertices in min-degree elimination order (ties by
    index), each with its neighbours when it is eliminated: the axes of the
    table its step leaves.  Eliminating a vertex joins its neighbours."""
    adjacent: dict[int, set[int]] = {v: set() for v in range(pattern.n)}
    for e in pattern.edges:
        for v in e:
            adjacent[v].update(e)
    for v, near in adjacent.items():
        near.discard(v)
    order = []
    while adjacent:
        v = min(adjacent, key=lambda u: (len(adjacent[u]), u))
        near = adjacent.pop(v)
        for u in near:
            adjacent[u] |= near
            adjacent[u].discard(u)
            adjacent[u].discard(v)
        order.append((v, tuple(sorted(near))))
    return order


def _contraction_work(order: list[tuple[int, tuple[int, ...]]], n: int) -> int:
    """Index tuples the einsum steps of ``order`` walk into an n-vertex
    host: a step runs over its vertex and its neighbours, n**(1 + len(
    neighbours)) tuples.  An isolated vertex, which walks none, counts n."""
    return sum(n ** (1 + len(neighbours)) for _, neighbours in order)


def _adjacency_tensor(host: Hypergraph) -> "np.ndarray":
    """The host's symmetric 0/1 uint8 tensor: cell (w_1, ..., w_k) is 1 iff
    the w_i are the vertices of an edge, in any order."""
    import numpy as np

    n, k = host.n, host.k
    columns = np.fromiter(chain.from_iterable(host.edges), np.intp, len(host.edges) * k).reshape(-1, k).T
    cells = np.zeros((n,) * k, np.uint8)
    for axes in permutations(range(k)):
        cells[tuple(columns[a] for a in axes)] = 1
    return cells


def _contract_homomorphisms(
    pattern: Hypergraph, host: Hypergraph, order: list[tuple[int, tuple[int, ...]]]
) -> int:
    """hom(pattern, host) by variable elimination over the adjacency tensor.

    Each pattern edge starts as one factor, the tensor on its vertices.  A
    step sums out one vertex: one ``np.einsum`` over the factors that hold
    it leaves an int64 table on its neighbours, so its cells number
    n**len(its neighbours), known from ``order`` before anything is
    allocated.  The einsum reads the uint8 tensor through int64 buffers.
    An isolated vertex contributes a factor n, and a component's last step
    a scalar.  Every cell counts maps of the vertices summed out so far, so
    with n**v < 2**63 no int64 overflows; the final product is a Python
    int.
    """
    import numpy as np

    tensor = _adjacency_tensor(host)
    factors: list[tuple[tuple[int, ...], "np.ndarray"]] = [(e, tensor) for e in pattern.edges]
    total = 1
    for v, neighbours in order:
        used = [f for f in factors if v in f[0]]
        if not used:
            total *= host.n
            continue
        factors = [f for f in factors if v not in f[0]]
        axis = {u: i for i, u in enumerate((v,) + neighbours)}
        operands: list = []
        for vertices, table in used:
            operands += [table, [axis[u] for u in vertices]]
        table = np.einsum(*operands, [axis[u] for u in neighbours], dtype=np.int64)
        if neighbours:
            factors.append((neighbours, table))
        else:
            total *= int(table)
    return total


def _count_maps(
    pattern: Hypergraph, host: Hypergraph, injective: bool, witness: Optional[dict[int, int]] = None
) -> int:
    """Count edge-preserving maps; with ``witness``, stop at the first leaf
    of the injective search and store its map there.  Hosts are limited to
    HOST_VERTEX_LIMIT vertices, because the per-vertex tables below grow
    with n, and patterns to PATTERN_VERTEX_LIMIT, because ``count``
    recurses once per position; both are checked before anything is built.

    Positions are eliminated along the search order.  The boundary B_i of
    position i holds the earlier positions that some edge closing at i or
    later reads, and the count below i depends only on the images there.
    A position outside B_{i+1} is read by nothing later, so it contributes
    its candidate count times one recursion; the last constrained position
    therefore just counts its candidates.  The count below i is memoised on
    the images at B_i, but only where B_i is a strict subset of the prefix:
    where it is the whole prefix every key occurs once, and a memo there
    would only hold memory.  Isolated pattern vertices are folded into one
    n**f factor.  Python integers, so counts never overflow.

    Injectivity reads every earlier image through ``used``, so in that
    walk B_i is the whole prefix for i < n: nothing is memoised, and only
    the last position is eliminated, its least candidate standing in for
    the witness.

    A position's candidates complete each of its closing edges, and a pair
    filter keeps only those adjacent in the host to the image of every
    earlier position that shares a pattern edge with it closing later: the
    images of an edge's vertices are k distinct vertices of one host edge,
    for homomorphisms too.  Those earlier positions lie in B_i, so the memo
    keys and the elimination stay valid, and only candidates with no
    completion are dropped, which keeps every count and witness.  A
    position with no closing edge takes its candidates from the set bits
    of that filter, or, without one, from the host vertices that lie in an
    edge whenever its pattern vertex does, so no position walks all n host
    vertices to keep a few: one edge into an edgeless host is refused at
    once."""
    _check_map_sizes(pattern, host)
    if injective and pattern.n > host.n:
        return 0
    order = _search_order(pattern)
    first_free = len(order)
    if not injective:
        while first_free > 0 and pattern.degree(order[first_free - 1]) == 0:
            first_free -= 1
    closing = _closing_edges(pattern, order)
    checks = _pair_checks(pattern, order, closing)
    completions = _completion_index(host)
    nbr = _neighbour_masks(completions, host.n) if any(checks) else []
    in_edges = sorted(set(chain.from_iterable(host.edges)))
    unchecked = [in_edges if pattern.degree(v) else range(host.n) for v in order]
    images: list[int] = []
    used: set[int] = set()

    def candidates(i: int) -> Sequence[int]:
        pools = []
        for others in closing[i]:
            opts = completions.get(tuple(sorted(images[p] for p in others)))
            if not opts:
                return ()
            pools.append(opts)
        if checks[i]:
            near = -1
            for p in checks[i]:
                near &= nbr[images[p]]
            if not pools:
                return [w for w in _set_bits(near) if w not in used]
        if not pools:
            pool: Sequence[int] = unchecked[i]
        elif len(pools) == 1:
            pool = pools[0]
        else:
            pool = sorted(set(pools[0]).intersection(*pools[1:]))
        if checks[i]:
            return [w for w in pool if near >> w & 1 and w not in used]
        return [w for w in pool if w not in used] if used else pool

    # boundary[i] = B_i; boundary[first_free] is empty.
    boundary = [
        tuple(range(i)) if injective
        else tuple(sorted({p for j in range(i, first_free) for others in closing[j] for p in others if p < i}))
        for i in range(first_free)
    ] + [()]
    memo = [{} if len(boundary[i]) < i else None for i in range(first_free)]
    free_factor = host.n ** (len(order) - first_free)

    def count(i: int) -> int:
        if i == first_free:
            if witness is not None:
                witness.update(sorted(zip(order, images)))
            return free_factor
        seen = memo[i]
        if seen is not None:
            key = tuple(images[p] for p in boundary[i])
            hit = seen.get(key)
            if hit is not None:
                return hit
        cands = candidates(i)
        if not cands:
            total = 0
        elif i not in boundary[i + 1]:
            images.append(cands[0])  # placeholder: nothing later reads position i
            total = len(cands) * count(i + 1)
            images.pop()
        else:
            total = 0
            for w in cands:
                images.append(w)
                if injective:
                    used.add(w)
                total += count(i + 1)
                used.discard(w)
                images.pop()
                if total and witness is not None:
                    break
        if seen is not None:
            seen[key] = total
        return total

    return count(0)


def enumerate_hypergraphs(k: int, f: int) -> Iterator[Hypergraph]:
    """All labeled k-uniform hypergraphs on f vertices, in edge-bitmask order."""
    total = comb(f, k)
    if total > 25:
        raise ValueError(f"C({f},{k}) = {total} > 25: stream of 2**{total} hypergraphs refused")
    all_edges = list(combinations(range(f), k))
    for mask in range(1 << total):
        sel = tuple(e for i, e in enumerate(all_edges) if mask >> i & 1)
        yield Hypergraph(k, f, sel)
