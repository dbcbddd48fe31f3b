"""Multipartite index-class hypergraphs and the staged rainbow selection.

A reduced hypergraph has an index set [m], a vertex class P^{ij} for every
index pair, and a tripartite constituent A^{ijk} for every index triple
whose edges take one vertex from each of P^{ij}, P^{ik}, P^{jk}.  The
selection pipeline picks indices and, for every selected pair, a red, a
blue, and a green class vertex so that along every selected triple
r < s < t the vertices (red(r,s), blue(r,t), green(s,t)) form a
constituent edge.

The selections follow the staged degree-threshold mechanism greedily
(keep the choice that leaves the most future indices alive, ties broken
by least element).  The guarantees behind the mechanism hold only for
astronomically many indices, so at desk scale a selection may honestly
fail; a returned success, however, is always verified before it leaves
this module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, product
from typing import Optional, Sequence

from .seeding import derive_rng

Pair = tuple[int, int]
Triple = tuple[int, int, int]
ClassEdge = tuple[int, int, int]  # (vertex in P^{ij}, in P^{ik}, in P^{jk})


class MuDensityError(ValueError):
    """Input reduced hypergraph misses the required constituent density."""


class SelectionInputError(ValueError):
    """A candidate set violates the declared size margin."""


@dataclass(frozen=True)
class ReducedHypergraph:
    m: int
    class_sizes: dict[Pair, int]
    constituents: dict[Triple, frozenset[ClassEdge]]

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("need at least two indices")
        for pair in combinations(range(self.m), 2):
            size = self.class_sizes.get(pair)
            if size is None or size < 1:
                raise ValueError(f"class {pair} missing or empty")
        for triple in combinations(range(self.m), 3):
            i, j, k = triple
            edges = self.constituents.get(triple, frozenset())
            for p, q, r in edges:
                if not (
                    0 <= p < self.class_sizes[(i, j)]
                    and 0 <= q < self.class_sizes[(i, k)]
                    and 0 <= r < self.class_sizes[(j, k)]
                ):
                    raise ValueError(f"constituent edge {(p, q, r)} outside classes of {triple}")

    @classmethod
    def from_parts(
        cls,
        m: int,
        class_sizes: dict[Pair, int],
        constituents: dict[Triple, set[ClassEdge]],
    ) -> "ReducedHypergraph":
        full_sizes = {tuple(sorted(p)): s for p, s in class_sizes.items()}
        # one tuple object per distinct class edge: constituents over small
        # classes repeat the same few edges thousands of times
        shared: dict[ClassEdge, ClassEdge] = {}
        full_cons = {
            tuple(sorted(t)): frozenset(shared.setdefault(e, e) for e in map(tuple, es))
            for t, es in constituents.items()
        }
        for triple in combinations(range(m), 3):
            full_cons.setdefault(triple, frozenset())
        return cls(m, full_sizes, full_cons)

    def edges_of(self, triple: Triple) -> frozenset[ClassEdge]:
        return self.constituents.get(tuple(sorted(triple)), frozenset())

    def class_product(self, triple: Triple) -> int:
        i, j, k = sorted(triple)
        return (
            self.class_sizes[(i, j)] * self.class_sizes[(i, k)] * self.class_sizes[(j, k)]
        )


@dataclass(frozen=True)
class CoreSelection:
    """Selected indices plus red/blue/green class vertices per position pair."""

    indices: tuple[int, ...]
    red: dict[Pair, int]
    blue: dict[Pair, int]
    green: dict[Pair, int]


def is_mu_dense(rh: ReducedHypergraph, mu: float) -> tuple[bool, Optional[Triple]]:
    """Whether every constituent has density >= mu; also the worst triple
    (None when m < 3 and there are no constituents at all)."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError("mu must lie in [0, 1]")
    worst_ratio = 2.0
    worst: Optional[Triple] = None
    dense = True
    for triple in combinations(range(rh.m), 3):
        prod = rh.class_product(triple)
        count = len(rh.edges_of(triple))
        if count < mu * prod:
            dense = False
        ratio = count / prod
        if ratio < worst_ratio:
            worst_ratio = ratio
            worst = triple
    return dense, worst


def degree(rh: ReducedHypergraph, triple: Triple, pair: Pair, vertex: int) -> int:
    """Edges of the constituent through the given class vertex."""
    i, j, k = sorted(triple)
    slot = {(i, j): 0, (i, k): 1, (j, k): 2}.get(tuple(sorted(pair)))
    if slot is None:
        raise ValueError(f"pair {pair} is not a class of triple {triple}")
    if not 0 <= vertex < rh.class_sizes[tuple(sorted(pair))]:
        raise ValueError(f"vertex {vertex} outside class {pair}")
    return sum(1 for e in rh.edges_of(triple) if e[slot] == vertex)


def red_candidates(rh: ReducedHypergraph, mu_prime: float, triple: Triple) -> frozenset[int]:
    """Vertices of P^{ij} whose degree in the constituent meets the
    mu' * |P^{ik}| * |P^{jk}| threshold."""
    i, j, k = sorted(triple)
    threshold = mu_prime * rh.class_sizes[(i, k)] * rh.class_sizes[(j, k)]
    counts = [0] * rh.class_sizes[(i, j)]
    for e in rh.edges_of((i, j, k)):
        counts[e[0]] += 1
    return frozenset(p for p, c in enumerate(counts) if c >= threshold)


# ---------------------------------------------------------------------------
# abstract selection instances


@dataclass(frozen=True)
class SelectionInstance:
    """Classes keyed by index pairs and candidate sets keyed by triples.

    Which pair of a triple the candidates refine depends on the selection
    being run: (r,s) for red, (r,t) for blue, (s,t) for green.
    """

    size: int
    classes: dict[Pair, tuple]
    candidates: dict[Triple, frozenset]


def reverse_instance(inst: SelectionInstance) -> SelectionInstance:
    """Index reversal i -> size-1-i; an involution that swaps the red and
    green selection patterns."""
    M = inst.size
    classes = {}
    for (a, b), cls in inst.classes.items():
        classes[(M - 1 - b, M - 1 - a)] = cls
    candidates = {}
    for (a, b, c), cand in inst.candidates.items():
        candidates[(M - 1 - c, M - 1 - b, M - 1 - a)] = cand
    return SelectionInstance(M, classes, candidates)


# per selection, the pair of a triple r < s < t whose element its candidates refine
_PAIR_OF = {
    "first": lambda r, s, t: (r, s),
    "outer": lambda r, s, t: (r, t),
    "last": lambda r, s, t: (s, t),
}


def _check_margins(inst: SelectionInstance, eps: float, anchor: str) -> None:
    pair_of = _PAIR_OF[anchor]
    for r, s, t in combinations(range(inst.size), 3):
        pair = pair_of(r, s, t)
        cand = inst.candidates.get((r, s, t))
        cls = inst.classes.get(pair)
        if cand is None or cls is None:
            raise SelectionInputError(f"instance misses data for triple {(r, s, t)}")
        if not cand.issubset(cls):
            raise SelectionInputError(f"candidates for {(r, s, t)} leave class {pair}")
        if len(cand) < eps * len(cls):
            raise SelectionInputError(
                f"candidate set for {(r, s, t)} has {len(cand)} < {eps} * {len(cls)} elements"
            )


def verify_selection(
    inst: SelectionInstance, indices: Sequence[int], choices: dict[Pair, object], anchor: str
) -> bool:
    """Whether choices give every pair of the increasing indices an element
    of its class, and every triple r < s < t of them an element of its
    candidates at its anchor pair: (r, s) for "first" (red), (r, t) for
    "outer" (blue), (s, t) for "last" (green)."""
    pair_of = _PAIR_OF[anchor]
    for pair in combinations(indices, 2):
        elem = choices.get(pair)
        if elem is None or elem not in inst.classes[pair]:
            return False
    return all(
        choices[pair_of(r, s, t)] in inst.candidates[(r, s, t)] for r, s, t in combinations(indices, 3)
    )


def select_red(
    inst: SelectionInstance, eps: float, m: Optional[int]
) -> Optional[tuple[tuple[int, ...], dict[Pair, object]]]:
    """Pick indices and, per pair, an element valid for every later chosen
    index.  m = None collects as many indices as the greedy can sustain.

    Each new index is the least alive one; each pair element maximizes the
    number of still-alive future indices whose candidate sets contain it
    (ties by least element), and the alive set shrinks to the survivors.
    """
    _check_margins(inst, eps, "first")
    if m is not None and m > inst.size:
        return None
    chosen: list[int] = []
    choices: dict[Pair, object] = {}
    alive = list(range(inst.size))
    while alive and (m is None or len(chosen) < m):
        new = alive.pop(0)
        future = alive
        for r in chosen:
            best_elem = None
            best_surv: list[int] = []
            for elem in inst.classes[(r, new)]:
                surv = [t for t in future if elem in inst.candidates[(r, new, t)]]
                if best_elem is None or len(surv) > len(best_surv):
                    best_elem, best_surv = elem, surv
            choices[(r, new)] = best_elem
            future = best_surv
        chosen.append(new)
        alive = future
    if m is not None and len(chosen) < m:
        return None
    if not verify_selection(inst, chosen, choices, "first"):
        raise RuntimeError("red selection does not verify")
    return tuple(chosen), choices


def select_green(
    inst: SelectionInstance, eps: float, m: Optional[int]
) -> Optional[tuple[tuple[int, ...], dict[Pair, object]]]:
    """Mirror image of select_red: elements must be valid for every earlier
    chosen index.  Implemented through the index reversal."""
    _check_margins(inst, eps, "last")
    res = select_red(reverse_instance(inst), eps, m)
    if res is None:
        return None
    rev_indices, rev_choices = res
    M = inst.size
    indices = tuple(sorted(M - 1 - x for x in rev_indices))
    choices = {
        (M - 1 - b, M - 1 - a): elem for (a, b), elem in rev_choices.items()
    }
    if not verify_selection(inst, indices, choices, "last"):
        raise RuntimeError("green selection does not verify")
    return indices, choices


def select_blue(
    inst: SelectionInstance, eps: float, m: Optional[int]
) -> Optional[tuple[tuple[int, ...], dict[Pair, object]]]:
    """Middle-index pattern: the element for pair (r, t) must be valid for
    every chosen index strictly between r and t.

    Middles of a pair are already known when the pair is finalized, so the
    greedy scans indices in increasing order, adding an index whenever all
    its pair intersections are nonempty (least element chosen)."""
    _check_margins(inst, eps, "outer")
    chosen: list[int] = []
    choices: dict[Pair, object] = {}
    for t in range(inst.size):
        picks: dict[Pair, object] = {}
        ok = True
        for r in chosen:
            middles = [s for s in chosen if r < s < t]
            pool = [
                e
                for e in inst.classes[(r, t)]
                if all(e in inst.candidates[(r, s, t)] for s in middles)
            ]
            if not pool:
                ok = False
                break
            picks[(r, t)] = pool[0]
        if not ok:
            continue
        choices.update(picks)
        chosen.append(t)
        if m is not None and len(chosen) == m:
            break
    if m is not None and len(chosen) < m:
        return None
    if not verify_selection(inst, chosen, choices, "outer"):
        raise RuntimeError("blue selection does not verify")
    return tuple(chosen), choices


# ---------------------------------------------------------------------------
# the end-to-end pipeline


def _check_floor(cset: frozenset, floor: float, stage: str) -> None:
    if len(cset) < floor - 1e-9:
        raise RuntimeError(f"{stage} candidate set has {len(cset)} elements, below {floor}")


def select_rainbow_core(rh: ReducedHypergraph, mu: float, f: int) -> Optional[CoreSelection]:
    """Three stages: red via mu/2 degree thresholds over all indices, blue
    via mu/4 pair-degree thresholds inside the red survivors, green via
    direct membership sets.  Success is verified; failure is honest."""
    if f < 1:
        raise ValueError("need f >= 1")
    dense, worst = is_mu_dense(rh, mu)
    if not dense:
        raise MuDensityError(f"input is not {mu}-dense (worst constituent {worst})")
    m = rh.m

    classes = {
        pair: tuple(range(rh.class_sizes[pair])) for pair in combinations(range(m), 2)
    }
    cand_red: dict[Triple, frozenset] = {}
    for triple in combinations(range(m), 3):
        i, j, k = triple
        cset = red_candidates(rh, mu / 2, triple)
        _check_floor(cset, mu / 2 * rh.class_sizes[(i, j)], "red")
        cand_red[triple] = cset
    res = select_red(SelectionInstance(m, classes, cand_red), mu / 2, None)
    if res is None:
        raise RuntimeError("red selection without a target size failed")
    X, reds = res
    if len(X) < f:
        return None

    classes_blue = {
        (a, b): tuple(range(rh.class_sizes[(X[a], X[b])]))
        for a, b in combinations(range(len(X)), 2)
    }
    cand_blue: dict[Triple, frozenset] = {}
    for a, b, c in combinations(range(len(X)), 3):
        i, j, k = X[a], X[b], X[c]
        p_red = reds[(i, j)]
        threshold = mu / 4 * rh.class_sizes[(j, k)]
        pair_counts = [0] * rh.class_sizes[(i, k)]
        for e in rh.edges_of((i, j, k)):
            if e[0] == p_red:
                pair_counts[e[1]] += 1
        cset = frozenset(q for q, cnt in enumerate(pair_counts) if cnt >= threshold)
        _check_floor(cset, mu / 4 * rh.class_sizes[(i, k)], "blue")
        cand_blue[(a, b, c)] = cset
    res = select_blue(SelectionInstance(len(X), classes_blue, cand_blue), mu / 4, None)
    if res is None:
        raise RuntimeError("blue selection without a target size failed")
    Y_pos, blues_pos = res
    if len(Y_pos) < f:
        return None
    W = [X[p] for p in Y_pos]
    blues = {(X[a], X[b]): e for (a, b), e in blues_pos.items()}

    classes_green = {
        (a, b): tuple(range(rh.class_sizes[(W[a], W[b])]))
        for a, b in combinations(range(len(W)), 2)
    }
    cand_green: dict[Triple, frozenset] = {}
    for a, b, c in combinations(range(len(W)), 3):
        i, j, k = W[a], W[b], W[c]
        p_red = reds[(i, j)]
        q_blue = blues[(i, k)]
        cset = frozenset(
            e[2] for e in rh.edges_of((i, j, k)) if e[0] == p_red and e[1] == q_blue
        )
        _check_floor(cset, mu / 4 * rh.class_sizes[(j, k)], "green")
        cand_green[(a, b, c)] = cset
    res = select_green(SelectionInstance(len(W), classes_green, cand_green), mu / 4, f)
    if res is None:
        return None
    Z_pos, greens_pos = res
    lam = tuple(W[p] for p in Z_pos)
    rank = {p: i for i, p in enumerate(Z_pos)}

    red = {}
    blue = {}
    green = {}
    for a, b in combinations(range(f), 2):
        red[(a, b)] = reds[(lam[a], lam[b])]
        blue[(a, b)] = blues[(lam[a], lam[b])]
    for (a, b), elem in greens_pos.items():
        green[(rank[a], rank[b])] = elem

    selection = CoreSelection(lam, red, blue, green)
    if not verify_core(rh, selection):
        raise RuntimeError("core selection does not verify")
    return selection


def verify_core(rh: ReducedHypergraph, sel: CoreSelection) -> bool:
    """Recompute every C(f,3) membership test from scratch."""
    f = len(sel.indices)
    if list(sel.indices) != sorted(set(sel.indices)):
        return False
    if any(i < 0 or i >= rh.m for i in sel.indices):
        return False
    for a, b in combinations(range(f), 2):
        pair = (sel.indices[a], sel.indices[b])
        size = rh.class_sizes[pair]
        for colour_map in (sel.red, sel.blue, sel.green):
            vertex = colour_map.get((a, b))
            if vertex is None:
                return False
            if not 0 <= vertex < size:
                raise ValueError(f"vertex {vertex} outside class {pair}")
    for a, b, c in combinations(range(f), 3):
        triple = (sel.indices[a], sel.indices[b], sel.indices[c])
        edge = (sel.red[(a, b)], sel.blue[(a, c)], sel.green[(b, c)])
        if edge not in rh.edges_of(triple):
            return False
    return True


# ---------------------------------------------------------------------------
# instances: random generation and JSON


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


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list, got {type(value).__name__}")
    return value


def _json_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {json.dumps(value)}")
    return value


def _key_ints(key: str, count: int, what: str) -> tuple[int, ...]:
    parts = key.split(",")
    # canonical decimals only: int() would also read " 1", "01" and "1_0"
    if len(parts) != count or not all(x.isascii() and x.isdigit() and str(int(x)) == x for x in parts):
        raise ValueError(f"{what} key {key!r} must hold {count} comma-separated decimal integers")
    return tuple(int(x) for x in parts)


def _index_key(key: str, count: int, m: int, what: str, seen: dict) -> tuple[int, ...]:
    """The sorted index tuple a key names: count distinct indices in [0, m),
    not the same set as a key already in seen."""
    index = tuple(sorted(_key_ints(key, count, what)))
    if len(set(index)) != count or index[-1] >= m:  # _key_ints admits no negative index
        raise ValueError(f"{what} key {key!r} must name {count} distinct indices in [0, {m})")
    if index in seen:
        raise ValueError(f"{what} key {key!r} repeats an earlier key")
    return index


def reduced_from_dict(data: dict) -> ReducedHypergraph:
    """Parse the reduced-hypergraph JSON schema; malformed input raises ValueError."""
    data = _json_object(data, "reduced hypergraph")
    if "m" not in data or "class_size" not in data:
        raise ValueError('reduced hypergraph needs the keys "m" and "class_size"')
    m = _json_int(data["m"], "m")
    sizes = {}
    for key, s in _json_object(data["class_size"], "class_size").items():
        sizes[_index_key(key, 2, m, "class_size", sizes)] = _json_int(s, f"class_size[{key!r}]")
    cons: dict[Triple, set[ClassEdge]] = {}
    for key, es in _json_object(data.get("constituents", {}), "constituents").items():
        what = f"constituents[{key!r}]"
        cons[_index_key(key, 3, m, "constituents", cons)] = {
            tuple(_json_int(v, what) for v in _json_list(e, what)) for e in _json_list(es, what)
        }
    return ReducedHypergraph.from_parts(m, sizes, cons)


def selection_to_dict(sel: CoreSelection) -> dict:
    def colour(mapping: dict[Pair, int]) -> dict:
        return {f"{r},{s}": v for (r, s), v in sorted(mapping.items())}

    return {
        "lambda": list(sel.indices),
        "red": colour(sel.red),
        "blue": colour(sel.blue),
        "green": colour(sel.green),
    }


def selection_from_dict(data: dict) -> CoreSelection:
    """Parse the core-selection JSON schema; malformed input raises ValueError.
    Each colour's keys must be exactly the position pairs "a,b" with
    0 <= a < b < f, where f is the number of selected indices."""
    data = _json_object(data, "core selection")
    missing = [key for key in ("lambda", "red", "blue", "green") if key not in data]
    if missing:
        raise ValueError(f"core selection lacks the keys {missing}")
    indices = tuple(_json_int(i, "lambda") for i in _json_list(data["lambda"], "lambda"))
    pairs = set(combinations(range(len(indices)), 2))

    def colour(name: str) -> dict[Pair, int]:
        mapping = _json_object(data[name], name)
        got = {_key_ints(key, 2, name): _json_int(v, f"{name}[{key!r}]") for key, v in mapping.items()}
        if got.keys() != pairs:
            bad = sorted(got.keys() - pairs) or sorted(pairs - got.keys())
            what = "has the stray key" if got.keys() - pairs else "lacks the key"
            raise ValueError(f"{name} {what} {bad[0][0]},{bad[0][1]}: its keys must be the pairs "
                             f"a,b with 0 <= a < b < {len(indices)}")
        return got

    return CoreSelection(indices, colour("red"), colour("blue"), colour("green"))


def parse_reduced_json(text: str) -> ReducedHypergraph:
    return reduced_from_dict(json.loads(text))


def serialize_reduced_json(rh: ReducedHypergraph) -> str:
    return json.dumps(reduced_to_dict(rh), indent=2) + "\n"
