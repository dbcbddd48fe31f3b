"""Seeded benchmark inputs and reference oracles.

Everything here is plain data (edge lists, colour dictionaries) built with
the benchmark's own random generator, so the program under test receives
only finished inputs.  The oracles are deliberately naive re-statements of
the paper's definitions; they are used to check the program's outputs and
never call into it.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations, product
from typing import Iterable, Sequence

Edge = tuple[int, ...]

RED, BLUE, GREEN = 3, 2, 1


def rng_for(workload: str, seed: int, label: str) -> random.Random:
    """Generator for one input of one workload: a pure function of its labels."""
    digest = hashlib.sha256(f"bench/{workload}/{seed}/{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# ---------------------------------------------------------------------------
# generators


def pair_colours(rng: random.Random, n: int) -> dict[Edge, int]:
    """Independent uniform colours 1..3 on all pairs of [n]."""
    return {pair: rng.randint(1, 3) for pair in combinations(range(n), 2)}


def pattern_host_edges(colours: dict[Edge, int], n: int) -> list[Edge]:
    """Triples a < b < c with (a, b) red, (a, c) blue and (b, c) green."""
    edges = []
    for a, b in combinations(range(n), 2):
        if colours[(a, b)] != RED:
            continue
        for c in range(b + 1, n):
            if colours[(a, c)] == BLUE and colours[(b, c)] == GREEN:
                edges.append((a, b, c))
    return edges


def random_edges(rng: random.Random, n: int, p: float) -> list[Edge]:
    return [e for e in combinations(range(n), 3) if rng.random() < p]


def planted_k4_edges(rng: random.Random, n: int, p: float) -> list[Edge]:
    """Random 3-graph that contains K4^(3), hence has no rainbow ordering:
    for a < b < c < d the pair (a, c) would need colour 2 in abc and 3 in acd."""
    core = sorted(rng.sample(range(n), 4))
    edges = set(combinations(core, 3))
    edges.update(random_edges(rng, n, p))
    return sorted(edges)


def kary_host_edges(level: int) -> list[Edge]:
    """Depth-`level` ternary host on the base-3 digit strings of 0..3**level-1:
    at the first coordinate where the three strings are not all equal they
    must show all of 0, 1, 2."""
    n = 3**level

    def digits(v: int) -> list[int]:
        return [(v // 3 ** (level - 1 - i)) % 3 for i in range(level)]

    strings = [digits(v) for v in range(n)]
    edges = []
    for e in combinations(range(n), 3):
        for column in zip(*(strings[v] for v in e)):
            if len(set(column)) > 1:
                if len(set(column)) == 3:
                    edges.append(e)
                break
    return edges


def connected_subpattern(rng: random.Random, host_edges: Sequence[Edge], size: int) -> list[Edge]:
    """Induced sub-pattern on `size` host vertices grown edge by edge from a
    random host edge, relabelled by a random permutation of [size]."""
    chosen = set(rng.choice(host_edges))
    while len(chosen) < size:
        # prefer closing a new edge, then touching one, then any vertex
        for shared in (2, 1):
            frontier = sorted({v for e in host_edges if len(chosen.intersection(e)) >= shared for v in e} - chosen)
            if frontier:
                break
        else:
            frontier = sorted(set(range(1 + max(map(max, host_edges)))) - chosen)
        chosen.add(rng.choice(frontier))
    index = {v: i for i, v in enumerate(sorted(chosen))}
    edges = [tuple(index[v] for v in e) for e in host_edges if chosen.issuperset(e)]
    return relabel(edges, size, rng)


def relabel(edges: Sequence[Edge], n: int, rng: random.Random) -> list[Edge]:
    """The same hypergraph under a random permutation of [n]."""
    label = list(range(n))
    rng.shuffle(label)
    return sorted(tuple(sorted(label[v] for v in e)) for e in edges)


def all_patterns(f: int) -> list[list[Edge]]:
    """Every labelled 3-graph on f vertices, in edge-bitmask order."""
    triples = list(combinations(range(f), 3))
    return [[e for i, e in enumerate(triples) if mask >> i & 1] for mask in range(1 << len(triples))]


def reduced_instance(rng: random.Random, m: int, class_size: int, p: float, mu: float) -> tuple[dict, dict]:
    """Class sizes and constituents of a reduced hypergraph on [m]; each
    constituent is resampled until its density reaches mu, so the instance
    is mu-dense by construction."""
    need = mu * class_size**3
    constituents = {}
    for triple in combinations(range(m), 3):
        while True:
            edges = {e for e in product(range(class_size), repeat=3) if rng.random() < p}
            if len(edges) >= need:
                break
        constituents[triple] = edges
    return {pair: class_size for pair in combinations(range(m), 2)}, constituents


def reduced_json(m: int, sizes: dict, constituents: dict) -> str:
    """The reduced-hypergraph JSON format read by `hyperdense reduced`."""
    return json.dumps({
        "m": m,
        "class_size": {f"{i},{j}": s for (i, j), s in sizes.items()},
        "constituents": {",".join(map(str, t)): sorted(map(list, es)) for t, es in constituents.items()},
    })


def hyg_text(n: int, edges: Iterable[Edge]) -> str:
    edges = list(edges)
    return f"3 {n} {len(edges)}\n" + "".join(" ".join(map(str, e)) + "\n" for e in edges)


def colouring_text(n: int, colours: dict[Edge, int]) -> str:
    return f"3 {n}\n" + "".join(f"{a} {b} {c}\n" for (a, b), c in sorted(colours.items()))


# ---------------------------------------------------------------------------
# oracles


def brute_force_homs(pattern_n: int, pattern_edges: Sequence[Edge], host_n: int, host_edges: Iterable[Edge]) -> int:
    """Number of maps V(F) -> V(H) sending every edge onto an edge."""
    edge_set = {tuple(sorted(e)) for e in host_edges}
    count = 0
    for image in product(range(host_n), repeat=pattern_n):
        if all(tuple(sorted(image[v] for v in e)) in edge_set for e in pattern_edges):
            count += 1
    return count


def slice_edges(r: int, n: int) -> int:
    """Edges of the slice {0,1}^r x {0,1,2}^(n-r) of the depth-n host."""
    return 2**r * (27 ** (n - r) - 3 ** (n - r)) // 24
