"""k-ary hypergraphs on digit strings, and the frequency decider.

The depth-n host on base k has vertex set {0..k-1}^n; a k-set of distinct
strings is an edge iff at the first coordinate where they are not all
equal, their values are exactly {0..k-1}.  A pattern occurs inside some
such host iff its vertex set splits into k parts (at least two nonempty)
with every edge either inside one part or meeting each part exactly once,
and each part recursively splitting the same way.  That recursive search,
with memoization on vertex subsets, is complete and yields a witness of
coordinate length at most v(F).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import groupby, product
from math import perm
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from .hypergraphs import Hypergraph, check_pattern_size, enumerate_hypergraphs

KaryVector = tuple[int, ...]

DEFAULT_VERTEX_LIMIT = 256
# An explicit host also has at most this many edges: T_5 on base 3 has
# 597,861 and builds in about 0.3 s, while 256 vertices on base 4 would
# have 1.7e7 and on base 16 about 1.8e19.
KARY_EDGE_LIMIT = 10**6


@dataclass(frozen=True)
class EmbeddingWitness:
    """Injective map from pattern vertices to equal-length digit strings."""

    k: int
    length: int
    mapping: dict[int, KaryVector]


def kary_edge(k: int, vectors: Sequence[KaryVector]) -> bool:
    """Edge rule: first not-all-equal coordinate shows every value 0..k-1."""
    vecs = [tuple(v) for v in vectors]
    if len(vecs) != k:
        raise ValueError(f"expected {k} vectors, got {len(vecs)}")
    length = len(vecs[0])
    if any(len(v) != length for v in vecs):
        raise ValueError("vectors have unequal lengths")
    if len(set(vecs)) != k:
        raise ValueError("duplicate vectors")
    if any(c < 0 or c >= k for v in vecs for c in v):
        raise ValueError("coordinate outside base range")
    for i in range(length):
        values = {v[i] for v in vecs}
        if len(values) == 1:
            continue
        return values == set(range(k))
    raise AssertionError("distinct vectors must differ somewhere")


def build_kary(k: int, n: int) -> Hypergraph:
    """Explicit depth-n host on k**n vertices (vertex = digit-string index).

    Built level by level in canonical order, so no level sorts its edges:
    with N the previous level's size, block c holds the vertices
    [cN, (c+1)N).  An edge whose least vertex a lies in block 0 is either
    an edge of block 0 starting at a or a transversal (a, N + r_1, ...,
    (k-1)N + r_{k-1}), whose second vertex lies above every block-0
    vertex; the transversals come in product order.  The shifted copies
    of blocks 1..k-1 follow, each in the previous level's order.
    """
    if k < 2:
        raise ValueError("base must be >= 2")
    if n < 0:
        raise ValueError("depth must be >= 0")
    size = k ** n
    if size > DEFAULT_VERTEX_LIMIT:
        raise ValueError(f"{k}**{n} = {size} exceeds the explicit-size limit {DEFAULT_VERTEX_LIMIT}")
    if kary_edge_count(k, n) > KARY_EDGE_LIMIT:
        raise ValueError(f"the base-{k} depth-{n} host has {kary_edge_count(k, n)} edges, "
                         f"past the explicit-size limit {KARY_EDGE_LIMIT}")
    edges: list[tuple[int, ...]] = []
    block = 1
    for _ in range(n):
        starting_at = {a: list(group) for a, group in groupby(edges, itemgetter(0))}
        tails = list(product(*(range(c * block, (c + 1) * block) for c in range(1, k))))
        level: list[tuple[int, ...]] = []
        for a in range(block):
            level += starting_at.get(a, ())
            level += [(a, *tail) for tail in tails]
        for c in range(1, k):
            level += [tuple(map((c * block).__add__, e)) for e in edges]
        edges, block = level, block * k
    return Hypergraph(k, size, tuple(edges))


def kary_edge_count(k: int, n: int) -> int:
    """Closed form (k**(kn) - k**n) / (k**k - k); exact integers."""
    if k < 2 or n < 0:
        raise ValueError("need k >= 2 and n >= 0")
    return (k ** (k * n) - k ** n) // (k ** k - k)


def _splits(pattern: Hypergraph, vs: tuple[int, ...]) -> Iterator[list[tuple[int, ...]]]:
    """The k parts (some possibly empty) of each canonical labelling of vs
    under which every edge of F[vs] lies inside one part or meets all k
    parts: the first digits of a map of F[vs] into a digit-string host.

    Canonical labels take first occurrences in increasing order, so a vertex
    gets a label at most one above the labels before it; at least two labels
    occur, at most k.  This quotients out part-label symmetry without losing
    completeness.  The vertices of vs are labelled one at a time, and at each
    edge's last vertex only one label can keep the edge: the label its other
    k-1 vertices share, or the one they miss when they are all distinct.
    Labels are tried in increasing order, so the splits come out in the
    lexicographic order of their label sequences.  For k = 2 every
    labelling keeps every edge.
    """
    k = pattern.k
    if len(vs) < 2:
        return
    index = {v: i for i, v in enumerate(vs)}
    # closing[i]: each edge of F[vs] whose last vertex is vs[i], as the
    # positions of its other vertices
    closing: list[list[list[int]]] = [[] for _ in vs]
    for e in pattern.edges if k > 2 else ():
        if all(v in index for v in e):
            *others, last = sorted(index[v] for v in e)
            closing[last].append(others)
    missing_sum = k * (k - 1) // 2  # labels 0..k-1 sum to this
    labels: list[int] = []

    def rec(i: int, used: int) -> Iterator[list[tuple[int, ...]]]:
        if i == len(vs):
            if used >= 2:
                parts: list[list[int]] = [[] for _ in range(k)]
                for v, lab in zip(vs, labels):
                    parts[lab].append(v)
                yield [tuple(part) for part in parts]
            return
        forced = -1
        for others in closing[i]:
            seen = {labels[p] for p in others}
            if len(seen) == 1:
                lab = labels[others[0]]
            elif len(seen) == k - 1:
                lab = missing_sum - sum(seen)
            else:
                return
            if forced != lab:
                if forced >= 0:
                    return
                forced = lab
        for lab in range(min(used + 1, k)) if forced < 0 else (forced,):
            labels.append(lab)
            yield from rec(i + 1, max(used, lab + 1))
            labels.pop()

    labels.append(0)
    yield from rec(1, 1)


def find_kary_embedding(pattern: Hypergraph) -> Optional[EmbeddingWitness]:
    """Complete recursive partition search for an embedding witness.

    Returns a witness of uniform coordinate length < v(F) (parts are
    padded with trailing zeros), or None when no labelled partition tree
    exists.  Memoized on vertex subsets of the pattern.
    """
    if pattern.k < 3:
        raise ValueError("requires uniformity k >= 3")
    check_pattern_size(pattern)
    k = pattern.k
    memo: dict[frozenset[int], Optional[dict[int, KaryVector]]] = {}

    def solve(vs: tuple[int, ...]) -> Optional[dict[int, KaryVector]]:
        if len(vs) <= 1:
            return {v: () for v in vs}
        key = frozenset(vs)
        if key in memo:
            return memo[key]
        found: Optional[dict[int, KaryVector]] = None
        for parts in _splits(pattern, vs):
            subs: list[dict[int, KaryVector]] = []
            for part in parts:
                sub = solve(part)
                if sub is None:
                    break
                subs.append(sub)
            else:
                depth = max((len(next(iter(s.values()))) if s else 0) for s in subs)
                found = {
                    v: (lab,) + tail + (0,) * (depth - len(tail))
                    for lab, sub in enumerate(subs)
                    for v, tail in sub.items()
                }
                break
        memo[key] = found
        return found

    top = solve(tuple(range(pattern.n)))
    if top is None:
        return None
    length = len(next(iter(top.values()))) if top else 0
    if length > pattern.n:
        raise RuntimeError(f"witness length {length} exceeds v(F) = {pattern.n}")
    return EmbeddingWitness(k=k, length=length, mapping=top)


def kary_hom_counts(pattern: Hypergraph, depth: int) -> list[int]:
    """Exact hom(F, T_d) on base k = k(F) for d = 0..depth, by the host's
    recursion, from one memo on (vertex subset, d).

    The first digits of a map label V(F) so that every edge lies inside one
    label class or meets all k classes, and each class maps one level down:
    the k constant labellings give k * hom(F, T_{d-1}), and a split into
    u nonempty parts is labelled in (k)_u ways.  A vertex in no edge maps
    anywhere (factor k**d); at depth 0 an edge has no image.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    check_pattern_size(pattern)
    k = pattern.k
    splits = cache(lambda vs: list(_splits(pattern, vs)))

    @cache
    def hom(vs: tuple[int, ...], d: int) -> int:
        vset = set(vs)
        covered = {v for e in pattern.edges if vset.issuperset(e) for v in e}
        if len(covered) < len(vs):
            core = tuple(v for v in vs if v in covered)
            return (k**d) ** (len(vs) - len(core)) * hom(core, d)
        if not vs:
            return 1
        if d == 0:
            return 0
        total = k * hom(vs, d - 1)
        for parts in splits(vs):
            term = perm(k, sum(1 for part in parts if part))
            for part in parts:
                term *= hom(part, d - 1)
            total += term
        return total

    # Ascending depths keep each call's recursion one level deep in d.
    top = tuple(range(pattern.n))
    return [hom(top, d) for d in range(depth + 1)]


def verify_kary_embedding(pattern: Hypergraph, witness: EmbeddingWitness) -> bool:
    """True iff the witness is injective and every edge passes the edge rule."""
    if witness.k != pattern.k:
        return False
    if set(witness.mapping) != set(range(pattern.n)):
        return False
    vecs = list(witness.mapping.values())
    if any(len(v) != witness.length for v in vecs):
        return False
    if any(c < 0 or c >= witness.k for v in vecs for c in v):
        return False
    if len(set(vecs)) != len(vecs):
        return False
    return all(kary_edge(witness.k, [witness.mapping[v] for v in e]) for e in pattern.edges)


def is_frequent(pattern: Hypergraph) -> bool:
    """Whether the pattern embeds into some digit-string host."""
    return find_kary_embedding(pattern) is not None


def classify_patterns(f: int) -> dict[str, int]:
    """Class counts of every labeled 3-uniform pattern on f vertices under
    the two deciders: frequent (embeds into a digit-string host) and
    orderable (admits a conflict-free rainbow ordering).  Frequent patterns
    are orderable, so "frequent_not_orderable" counts counterexamples."""
    # the rainbow decider is loaded by the sweep alone
    from .rainbow import find_rainbow_ordering

    counts = {"frequent_and_orderable": 0, "orderable_only": 0, "neither": 0,
              "frequent_not_orderable": 0}
    for pattern in enumerate_hypergraphs(3, f):
        orderable = find_rainbow_ordering(pattern) is not None
        frequent = is_frequent(pattern)
        if frequent and orderable:
            counts["frequent_and_orderable"] += 1
        elif frequent:
            counts["frequent_not_orderable"] += 1
        elif orderable:
            counts["orderable_only"] += 1
        else:
            counts["neither"] += 1
    return counts


def embedding_to_dict(witness: EmbeddingWitness) -> dict:
    def digits(vec: KaryVector) -> str:
        if witness.k <= 10:
            return "".join(map(str, vec))
        return ",".join(map(str, vec))

    return {
        "length": witness.length,
        "map": {str(v): digits(vec) for v, vec in sorted(witness.mapping.items())},
    }
