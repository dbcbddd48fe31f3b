"""Reference searches for the pattern-map kernel in ``hyperdense.hypergraphs``.

``count_maps`` is the backtracking counter the library used before it
eliminated positions: it walks one leaf per map.  ``first_copy`` is the
separate containment search the library used before ``contains_copy``
became the injective counting kernel with an early exit; its witness is
the one the library must still return.  ``naive_contains_copy`` tries
every injective map.  All three are self-contained, so a change to the
library's search order or candidate order shows up as a disagreement.
"""

from __future__ import annotations

from itertools import permutations
from typing import Optional, Sequence

from hyperdense.hypergraphs import Hypergraph, VertexMap


def search_order(pattern: Hypergraph) -> list[int]:
    return sorted(range(pattern.n), key=lambda v: (-pattern.degree(v), v))


def closing_edges(pattern: Hypergraph, order: Sequence[int]) -> list[list[tuple[int, ...]]]:
    pos = {v: i for i, v in enumerate(order)}
    closing: list[list[tuple[int, ...]]] = [[] for _ in order]
    for e in pattern.edges:
        last = max(e, key=lambda v: pos[v])
        closing[pos[last]].append(tuple(v for v in e if v != last))
    return closing


def completion_index(host: Hypergraph) -> dict[tuple[int, ...], tuple[int, ...]]:
    idx: dict[tuple[int, ...], list[int]] = {}
    for e in host.edges:
        for i in range(host.k):
            idx.setdefault(e[:i] + e[i + 1:], []).append(e[i])
    return {f: tuple(sorted(c)) for f, c in idx.items()}


def count_maps(pattern: Hypergraph, host: Hypergraph, injective: bool) -> int:
    if pattern.k != host.k:
        raise ValueError(f"uniformity mismatch: {pattern.k} vs {host.k}")
    if injective and pattern.n > host.n:
        return 0
    order = search_order(pattern)
    first_free = len(order)
    if not injective:
        while first_free > 0 and pattern.degree(order[first_free - 1]) == 0:
            first_free -= 1
    pos = {v: i for i, v in enumerate(order)}
    closing = closing_edges(pattern, order)
    completions = completion_index(host)
    images: list[int] = []
    used: set[int] = set()

    def candidates(i: int) -> list[int]:
        pools = []
        for others in closing[i]:
            key = tuple(sorted(images[pos[v]] for v in others))
            opts = completions.get(key)
            if not opts:
                return []
            pools.append(opts)
        if not pools:
            if injective:
                return [w for w in range(host.n) if w not in used]
            return list(range(host.n))
        cand = set(pools[0])
        for p in pools[1:]:
            cand.intersection_update(p)
        if injective:
            cand.difference_update(used)
        return sorted(cand)

    def rec(i: int) -> int:
        if i == first_free:
            return host.n ** (len(order) - first_free)
        total = 0
        for w in candidates(i):
            images.append(w)
            if injective:
                used.add(w)
            total += rec(i + 1)
            if injective:
                used.discard(w)
            images.pop()
        return total

    return rec(0)


def first_copy(pattern: Hypergraph, host: Hypergraph) -> Optional[VertexMap]:
    if pattern.k != host.k:
        raise ValueError(f"uniformity mismatch: {pattern.k} vs {host.k}")
    if pattern.n > host.n:
        return None
    if pattern.n == 0:
        return VertexMap({}, True)
    order = search_order(pattern)
    pos = {v: i for i, v in enumerate(order)}
    closing = closing_edges(pattern, order)
    completions = completion_index(host)
    images: list[int] = []
    used: set[int] = set()

    def candidates(i: int) -> list[int]:
        pools = []
        for others in closing[i]:
            key = tuple(sorted(images[pos[v]] for v in others))
            opts = completions.get(key)
            if not opts:
                return []
            pools.append(opts)
        if not pools:
            return [w for w in range(host.n) if w not in used]
        cand = set(pools[0])
        for p in pools[1:]:
            cand.intersection_update(p)
        cand.difference_update(used)
        return sorted(cand)

    def dfs(i: int) -> bool:
        if i == len(order):
            return True
        for w in candidates(i):
            images.append(w)
            used.add(w)
            if dfs(i + 1):
                return True
            used.discard(w)
            images.pop()
        return False

    if not dfs(0):
        return None
    return VertexMap({v: images[pos[v]] for v in range(pattern.n)}, True)


def naive_contains_copy(pattern: Hypergraph, host: Hypergraph) -> bool:
    if pattern.k != host.k:
        raise ValueError("uniformity mismatch")
    if pattern.n > host.n:
        return False
    for img in permutations(range(host.n), pattern.n):
        if all(tuple(sorted(img[v] for v in e)) in host.edge_set for e in pattern.edges):
            return True
    return False
