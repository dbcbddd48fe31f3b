"""Test instances and references for ``hyperdense.reduced``.

``random_reduced`` and ``complete_reduced`` generate reduced hypergraphs,
and ``reduced_to_dict`` with ``serialize_reduced_json`` write the JSON
schema that ``reduced_from_dict`` reads.  ``degree`` counts a
constituent's edges through one class vertex by brute force.  No command
calls any of them, so they live with the tests.

The rest is the selection pipeline as it was before the stage tables: a
Python loop per index triple for the mu-density test (``mu_dense``) and
for every stage's candidates (``red_candidates``, ``blue_candidates``,
``green_candidates``), each stage built and its floors checked triple by
triple (``stage_instance``), and the pipeline over them
(``select_rainbow_core``).  Every threshold and floor is compared as a
Fraction against the decimal that mu names.  The tests compare the tables
against them.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, product
from typing import Callable, Optional, Sequence

from hyperdense.reduced import (
    ClassEdge,
    CoreSelection,
    MuDensityError,
    Pair,
    ReducedHypergraph,
    SelectionInstance,
    Triple,
    select_blue,
    select_green,
    select_red,
    verify_core,
)
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
            for (i, j, k), es in ((t, rh.edges_of(t)) for t in combinations(range(rh.m), 3))
            if es
        },
    }


def serialize_reduced_json(rh: ReducedHypergraph) -> str:
    return json.dumps(reduced_to_dict(rh), indent=2) + "\n"


# ---------------------------------------------------------------------------
# the pipeline, one triple at a time


def class_product(rh: ReducedHypergraph, triple: Triple) -> int:
    i, j, k = sorted(triple)
    return rh.class_sizes[(i, j)] * rh.class_sizes[(i, k)] * rh.class_sizes[(j, k)]


def mu_dense(rh: ReducedHypergraph, mu: float) -> tuple[bool, Optional[Triple]]:
    """is_mu_dense, one constituent at a time."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError("mu must lie in [0, 1]")
    bound = Fraction(str(mu))
    triples = list(combinations(range(rh.m), 3))
    sizes = {t: (len(rh.edges_of(t)), class_product(rh, t)) for t in triples}
    dense = all(count * bound.denominator >= bound.numerator * prod for count, prod in sizes.values())
    return dense, min(triples, key=lambda t: sizes[t][0] / sizes[t][1], default=None)


def red_candidates(rh: ReducedHypergraph, mu: float, triple: Triple) -> frozenset[int]:
    """Vertices of P^{ij} whose degree in the constituent is at least
    mu/2 |P^{ik}| |P^{jk}|, for the decimal that mu names."""
    i, j, k = sorted(triple)
    threshold = Fraction(str(mu)) / 2 * rh.class_sizes[(i, k)] * rh.class_sizes[(j, k)]
    counts = [0] * rh.class_sizes[(i, j)]
    for e in rh.edges_of((i, j, k)):
        counts[e[0]] += 1
    return frozenset(p for p, c in enumerate(counts) if c >= threshold)


def blue_candidates(rh: ReducedHypergraph, mu: float, reds: dict[Pair, int], triple: Triple) -> frozenset[int]:
    """Vertices q of P^{ik} on at least mu/4 |P^{jk}| edges through the red
    vertex of (i, j), for the decimal that mu names."""
    i, j, k = triple
    p_red, threshold = reds[(i, j)], Fraction(str(mu)) / 4 * rh.class_sizes[(j, k)]
    pair_counts = [0] * rh.class_sizes[(i, k)]
    for e in rh.edges_of((i, j, k)):
        if e[0] == p_red:
            pair_counts[e[1]] += 1
    return frozenset(q for q, cnt in enumerate(pair_counts) if cnt >= threshold)


def green_candidates(rh: ReducedHypergraph, reds: dict[Pair, int], blues: dict[Pair, int],
                     triple: Triple) -> frozenset[int]:
    """Vertices r of P^{jk} that complete an edge through the red and blue vertices."""
    i, j, k = triple
    p_red, q_blue = reds[(i, j)], blues[(i, k)]
    return frozenset(e[2] for e in rh.edges_of((i, j, k)) if e[0] == p_red and e[1] == q_blue)


# per anchor, the pair of a triple r < s < t whose element its candidates refine
PAIR_OF = {
    "first": lambda r, s, t: (r, s),
    "outer": lambda r, s, t: (r, t),
    "last": lambda r, s, t: (s, t),
}
STAGE_OF = {"first": "red", "outer": "blue", "last": "green"}


def stage_instance(rh: ReducedHypergraph, index: Sequence[int], candidates: Callable[..., frozenset],
                   mu: float, d: int, anchor: str) -> SelectionInstance:
    """A stage's instance over the positions of its increasing index tuple,
    each candidate set checked against mu/d times its anchor class, for the
    decimal that mu names; a breach names that floor as a float."""
    pair_of, stage = PAIR_OF[anchor], STAGE_OF[anchor]
    positions = range(len(index))
    classes = {(a, b): tuple(range(rh.class_sizes[(index[a], index[b])]))
               for a, b in combinations(positions, 2)}
    cands: dict[Triple, frozenset] = {}
    for a, b, c in combinations(positions, 3):
        cset = candidates(index[a], index[b], index[c])
        size = len(classes[pair_of(a, b, c)])
        if len(cset) < Fraction(str(mu)) / d * size:
            raise RuntimeError(f"{stage} candidate set has {len(cset)} elements, below {mu / d * size}")
        cands[(a, b, c)] = cset
    return SelectionInstance(len(index), classes, cands)


def on_indices(index, result):
    positions, choices = result
    return tuple(index[p] for p in positions), {(index[a], index[b]): e for (a, b), e in choices.items()}


def select_rainbow_core(rh: ReducedHypergraph, mu: float, f: int,
                        memo: Optional[dict] = None) -> Optional[CoreSelection]:
    """The staged selection with every stage built triple by triple.  A memo
    passed in keeps the density test and the red and blue stages, which do
    not depend on f, for later calls on the same rh and mu."""
    if f < 1:
        raise ValueError("need f >= 1")
    memo = {} if memo is None else memo

    def once(key, compute):
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    dense, worst = once("dense", lambda: mu_dense(rh, mu))
    if not dense:
        raise MuDensityError(f"input is not {mu}-dense (worst constituent {worst})")
    index = tuple(range(rh.m))
    res = once("red", lambda: select_red(
        stage_instance(rh, index, lambda *t: red_candidates(rh, mu, t), mu, 2, "first"), None))
    if res is None:
        raise RuntimeError("red selection without a target size failed")
    X, reds = on_indices(index, res)
    if len(X) < f:
        return None
    res = once("blue", lambda: select_blue(
        stage_instance(rh, X, lambda *t: blue_candidates(rh, mu, reds, t), mu, 4, "outer"), None))
    if res is None:
        raise RuntimeError("blue selection without a target size failed")
    W, blues = on_indices(X, res)
    if len(W) < f:
        return None
    res = select_green(stage_instance(rh, W, lambda *t: green_candidates(rh, reds, blues, t), mu, 4, "last"), f)
    if res is None:
        return None
    lam, greens = on_indices(W, res)
    pairs = list(combinations(range(f), 2))
    red, blue, green = ({(a, b): got[(lam[a], lam[b])] for a, b in pairs} for got in (reds, blues, greens))
    selection = CoreSelection(lam, red, blue, green)
    if not verify_core(rh, selection):
        raise RuntimeError("core selection does not verify")
    return selection
