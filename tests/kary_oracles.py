"""References for the digit-string recursions.

``edge_mask_counts`` is the counter the sampled subset audit used before it
counted by the host's split: it builds the depth-level ternary host and
tests every mask against each edge mask.  ``recursive_sampled_audit`` is
the sampled audit as it ran before it read the split from lookup tables:
it recurses through ``_split_counts`` down to single vertices, half a draw
at a time, with the same draws.  ``size_minima`` scans all
2**(3**level) subsets of that host for the least edge count at each size.
``splits`` is the split enumeration the frequency decider used before it
propagated labels: it lists every canonical labelling and only then tests
each edge.  ``vector_of`` gives a vertex index's digit string.
``recursive_build_kary`` is the host builder that ``build_kary`` replaced:
it builds every level as a hypergraph and sorts its edges.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

import numpy as np

from hyperdense import inequalities
from hyperdense.hypergraphs import Hypergraph
from hyperdense.inequalities import SubsetAuditReport, _split_counts
from hyperdense.seeding import subseed
from hyperdense.ternary import KaryVector, build_kary


def vector_of(index: int, k: int, length: int) -> KaryVector:
    """Base-k digits of a vertex index, most significant first."""
    digits = []
    for _ in range(length):
        digits.append(index % k)
        index //= k
    return tuple(reversed(digits))


def recursive_build_kary(k: int, n: int) -> Hypergraph:
    """k shifted copies of depth n-1 plus all transversal k-sets taking one
    vertex per first-coordinate block, deduplicated and sorted."""
    if n == 0:
        return Hypergraph(k, 1, ())
    prev = recursive_build_kary(k, n - 1)
    block = k ** (n - 1)
    edges: list[tuple[int, ...]] = []
    for c in range(k):
        off = c * block
        edges.extend(tuple(off + v for v in e) for e in prev.edges)
    for residues in product(range(block), repeat=k):
        edges.append(tuple(c * block + residues[c] for c in range(k)))
    return Hypergraph.from_edges(k, k**n, edges)


def edge_mask_counts(masks: np.ndarray, level: int) -> np.ndarray:
    """e(X) for each int64 mask X, counted edge by edge in the built host."""
    host = build_kary(3, level)
    counts = np.zeros(len(masks), dtype=np.int64)
    for e in host.edges:
        em = sum(1 << v for v in e)
        counts += (masks & em) == em
    return counts


def recursive_sampled_audit(level: int, samples: int, seed: int) -> SubsetAuditReport:
    """audit_kary_subsets(level, "sampled", samples, seed), counting each
    half of every 2**15-mask draw by the full recursion of _split_counts.
    The floor is read from the module at call time, so a patched floor
    applies here too."""
    n = 3**level
    floors = np.array([inequalities.density_floor(size, level) for size in range(n + 1)])
    rng = np.random.default_rng(subseed(seed, f"subset-audit/{level}"))
    violations = []
    for start in range(0, samples, 1 << 15):
        draw = rng.integers(0, 1 << n, size=min(1 << 15, samples - start), dtype=np.int64)
        for masks in np.array_split(draw, 2):
            counts, sizes = _split_counts(masks, level)
            for idx in np.nonzero(counts < floors[sizes] - 1e-9)[0]:
                mask, size = int(masks[idx]), int(sizes[idx])
                violations.append({"subset": [v for v in range(n) if mask >> v & 1], "size": size,
                                   "edges": int(counts[idx]), "bound": float(floors[size])})
    return SubsetAuditReport(level, "sampled", samples, violations, seed=seed)


def size_minima(level: int) -> list[int]:
    """The least e(X) over the subsets X of each size, by a full scan."""
    n = 3**level
    masks = np.arange(1 << n, dtype=np.int64)
    counts = edge_mask_counts(masks, level)
    sizes = np.bitwise_count(masks)
    return [int(counts[sizes == s].min()) for s in range(n + 1)]


def label_assignments(count: int, k: int) -> Iterator[tuple[int, ...]]:
    """Canonical part labels (first occurrences in increasing order), at
    least two distinct labels, at most k."""

    def rec(prefix: list[int], used: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == count:
            if used >= 2:
                yield tuple(prefix)
            return
        for lab in range(min(used + 1, k)):
            prefix.append(lab)
            yield from rec(prefix, max(used, lab + 1))
            prefix.pop()

    if count >= 2:
        yield from rec([0], 1)


def splits(pattern: Hypergraph, vs: tuple[int, ...]) -> Iterator[list[tuple[int, ...]]]:
    """The k parts of each canonical labelling of vs under which every edge
    of F[vs] lies inside one part or meets all k parts."""
    k = pattern.k
    vset = set(vs)
    edges = [e for e in pattern.edges if vset.issuperset(e)]
    for labels in label_assignments(len(vs), k):
        label_of = dict(zip(vs, labels))
        if all(len({label_of[v] for v in e}) in (1, k) for e in edges):
            parts: list[list[int]] = [[] for _ in range(k)]
            for v, lab in zip(vs, labels):
                parts[lab].append(v)
            yield [tuple(part) for part in parts]
