"""Test instances and references for ``hyperdense.reduced``.

``random_reduced`` and ``complete_reduced`` generate reduced hypergraphs,
and ``reduced_to_dict`` with ``serialize_reduced_json`` write the JSON
schema that ``reduced_from_dict`` reads.  ``degree`` counts a
constituent's edges through one class vertex by brute force.  No command
calls any of them, so they live with the tests.
"""

from __future__ import annotations

import json
from itertools import combinations, product
from typing import Optional

from hyperdense.reduced import ClassEdge, Pair, ReducedHypergraph, Triple
from hyperdense.seeding import derive_rng


def degree(rh: ReducedHypergraph, triple: Triple, pair: Pair, vertex: int) -> int:
    """Edges of the constituent through the given class vertex."""
    i, j, k = sorted(triple)
    slot = {(i, j): 0, (i, k): 1, (j, k): 2}.get(tuple(sorted(pair)))
    if slot is None:
        raise ValueError(f"pair {pair} is not a class of triple {triple}")
    if not 0 <= vertex < rh.class_sizes[tuple(sorted(pair))]:
        raise ValueError(f"vertex {vertex} outside class {pair}")
    return sum(1 for e in rh.edges_of(triple) if e[slot] == vertex)


def random_reduced(
    m: int,
    class_size: int,
    p: float,
    seed: int,
    mu: Optional[float] = None,
    max_tries: int = 10_000,
) -> ReducedHypergraph:
    """Independent edge inclusion with probability p.  When mu is given,
    each constituent is resampled until it meets the mu bound; density is
    a per-constituent property, so this equals global rejection sampling
    but terminates at desk scale."""
    rng = derive_rng(seed, f"reduced/{m}/{class_size}/{p}")
    sizes = {pair: class_size for pair in combinations(range(m), 2)}
    cons: dict[Triple, set[ClassEdge]] = {}
    for triple in combinations(range(m), 3):
        need = 0 if mu is None else mu * class_size ** 3
        for _ in range(max_tries):
            edges = {
                e
                for e in product(range(class_size), repeat=3)
                if rng.random() < p
            }
            if len(edges) >= need:
                break
        else:
            raise RuntimeError(f"could not sample a constituent meeting mu={mu}")
        cons[triple] = edges
    return ReducedHypergraph.from_parts(m, sizes, cons)


def complete_reduced(m: int, class_size: int) -> ReducedHypergraph:
    sizes = {pair: class_size for pair in combinations(range(m), 2)}
    full = set(product(range(class_size), repeat=3))
    cons = {triple: set(full) for triple in combinations(range(m), 3)}
    return ReducedHypergraph.from_parts(m, sizes, cons)


def reduced_to_dict(rh: ReducedHypergraph) -> dict:
    return {
        "m": rh.m,
        "class_size": {f"{i},{j}": s for (i, j), s in sorted(rh.class_sizes.items())},
        "constituents": {
            f"{i},{j},{k}": sorted(map(list, es))
            for (i, j, k), es in sorted(rh.constituents.items())
            if es
        },
    }


def serialize_reduced_json(rh: ReducedHypergraph) -> str:
    return json.dumps(reduced_to_dict(rh), indent=2) + "\n"
