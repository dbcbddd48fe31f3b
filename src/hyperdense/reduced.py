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

The input's mu-density is checked exactly, against the decimal that mu
names.  On a mu-dense input every stage's candidate sets meet their floor
(mu/2 of the anchored class for red, mu/4 for blue and green); the
pipeline checks each floor once, as it builds the stage, and reports a
breach as an internal fault (RuntimeError), not as an input error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Optional, Sequence

Pair = tuple[int, int]
Triple = tuple[int, int, int]
ClassEdge = tuple[int, int, int]  # (vertex in P^{ij}, in P^{ik}, in P^{jk})
Selection = tuple[tuple[int, ...], dict[Pair, object]]  # chosen indices, element per pair

# Input sizes reduced_from_dict accepts.  Each stage holds a candidate set
# per index triple, about C(m, 3) times the class size elements; with every
# class at the limit and mu = 0, select takes about 2.5 s and 130 MB.
INDEX_LIMIT = 64
CLASS_SIZE_LIMIT = 64


class MuDensityError(ValueError):
    """Input reduced hypergraph misses the required constituent density."""


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
        cls, m: int, class_sizes: dict[Pair, int], constituents: dict[Triple, set[ClassEdge]]
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
        return self.class_sizes[(i, j)] * self.class_sizes[(i, k)] * self.class_sizes[(j, k)]


@dataclass(frozen=True)
class CoreSelection:
    """Selected indices plus red/blue/green class vertices per position pair."""

    indices: tuple[int, ...]
    red: dict[Pair, int]
    blue: dict[Pair, int]
    green: dict[Pair, int]


def is_mu_dense(rh: ReducedHypergraph, mu: float) -> tuple[bool, Optional[Triple]]:
    """Whether every constituent has density >= mu, compared exactly against
    the decimal that mu names; also the worst triple (None when m < 3 and
    there are no constituents at all)."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError("mu must lie in [0, 1]")
    bound = Fraction(str(mu))
    triples = list(combinations(range(rh.m), 3))
    sizes = {t: (len(rh.edges_of(t)), rh.class_product(t)) for t in triples}
    dense = all(count * bound.denominator >= bound.numerator * prod for count, prod in sizes.values())
    return dense, min(triples, key=lambda t: sizes[t][0] / sizes[t][1], default=None)


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
    classes = {(M - 1 - b, M - 1 - a): cls for (a, b), cls in inst.classes.items()}
    candidates = {(M - 1 - c, M - 1 - b, M - 1 - a): cand for (a, b, c), cand in inst.candidates.items()}
    return SelectionInstance(M, classes, candidates)


# per selection, the pair of a triple r < s < t whose element its candidates refine
_PAIR_OF = {
    "first": lambda r, s, t: (r, s),
    "outer": lambda r, s, t: (r, t),
    "last": lambda r, s, t: (s, t),
}


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


def select_red(inst: SelectionInstance, m: Optional[int]) -> Optional[Selection]:
    """Pick indices and, per pair, an element valid for every later chosen
    index.  m = None collects as many indices as the greedy can sustain.

    Each new index is the least alive one; each pair element maximizes the
    number of still-alive future indices whose candidate sets contain it
    (ties by least element), and the alive set shrinks to the survivors.
    """
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


def select_green(inst: SelectionInstance, m: Optional[int]) -> Optional[Selection]:
    """Mirror image of select_red: elements must be valid for every earlier
    chosen index.  Implemented through the index reversal."""
    res = select_red(reverse_instance(inst), m)
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


def select_blue(inst: SelectionInstance, m: Optional[int]) -> Optional[Selection]:
    """Middle-index pattern: the element for pair (r, t) must be valid for
    every chosen index strictly between r and t.

    Middles of a pair are already known when the pair is finalized, so the
    greedy scans indices in increasing order, adding an index whenever all
    its pair intersections are nonempty (least element chosen)."""
    chosen: list[int] = []
    choices: dict[Pair, object] = {}
    for t in range(inst.size):
        picks: dict[Pair, object] = {}
        for r in chosen:
            middles = [s for s in chosen if r < s < t]
            pool = [e for e in inst.classes[(r, t)] if all(e in inst.candidates[(r, s, t)] for s in middles)]
            if not pool:
                break
            picks[(r, t)] = pool[0]
        else:
            choices.update(picks)
            chosen.append(t)
            if len(chosen) == m:
                break
    if m is not None and len(chosen) < m:
        return None
    if not verify_selection(inst, chosen, choices, "outer"):
        raise RuntimeError("blue selection does not verify")
    return tuple(chosen), choices


# ---------------------------------------------------------------------------
# the end-to-end pipeline

_STAGE_OF = {"first": "red", "outer": "blue", "last": "green"}


def _check_floor(cset: frozenset, floor: float, stage: str) -> None:
    if len(cset) < floor - 1e-9:
        raise RuntimeError(f"{stage} candidate set has {len(cset)} elements, below {floor}")


def _stage_instance(rh: ReducedHypergraph, index: Sequence[int], candidates: Callable[..., frozenset],
                    fraction: float, anchor: str) -> SelectionInstance:
    """A stage's instance over the positions of its increasing index tuple:
    the class of every index pair, and the candidates of every index triple,
    each checked once against fraction times the class of its anchor pair."""
    pair_of, stage = _PAIR_OF[anchor], _STAGE_OF[anchor]
    positions = range(len(index))
    classes = {(a, b): tuple(range(rh.class_sizes[(index[a], index[b])]))
               for a, b in combinations(positions, 2)}
    cands: dict[Triple, frozenset] = {}
    for a, b, c in combinations(positions, 3):
        cset = candidates(index[a], index[b], index[c])
        _check_floor(cset, fraction * len(classes[pair_of(a, b, c)]), stage)
        cands[(a, b, c)] = cset
    return SelectionInstance(len(index), classes, cands)


def _on_indices(index: Sequence[int], result: Selection) -> Selection:
    """A stage's position-keyed selection, keyed by the indices instead."""
    positions, choices = result
    return tuple(index[p] for p in positions), {(index[a], index[b]): e for (a, b), e in choices.items()}


def select_rainbow_core(rh: ReducedHypergraph, mu: float, f: int) -> Optional[CoreSelection]:
    """Three stages: red via mu/2 degree thresholds over all indices, blue
    via mu/4 pair-degree thresholds inside the red survivors, green via
    direct membership sets.  Success is verified; failure is honest."""
    if f < 1:
        raise ValueError("need f >= 1")
    dense, worst = is_mu_dense(rh, mu)
    if not dense:
        raise MuDensityError(f"input is not {mu}-dense (worst constituent {worst})")

    def red_of(i, j, k):
        return red_candidates(rh, mu / 2, (i, j, k))

    index = tuple(range(rh.m))
    res = select_red(_stage_instance(rh, index, red_of, mu / 2, "first"), None)
    if res is None:
        raise RuntimeError("red selection without a target size failed")
    X, reds = _on_indices(index, res)
    if len(X) < f:
        return None

    def blue_of(i, j, k):
        p_red, threshold = reds[(i, j)], mu / 4 * rh.class_sizes[(j, k)]
        pair_counts = [0] * rh.class_sizes[(i, k)]
        for e in rh.edges_of((i, j, k)):
            if e[0] == p_red:
                pair_counts[e[1]] += 1
        return frozenset(q for q, cnt in enumerate(pair_counts) if cnt >= threshold)

    res = select_blue(_stage_instance(rh, X, blue_of, mu / 4, "outer"), None)
    if res is None:
        raise RuntimeError("blue selection without a target size failed")
    W, blues = _on_indices(X, res)
    if len(W) < f:
        return None

    def green_of(i, j, k):
        p_red, q_blue = reds[(i, j)], blues[(i, k)]
        return frozenset(e[2] for e in rh.edges_of((i, j, k)) if e[0] == p_red and e[1] == q_blue)

    res = select_green(_stage_instance(rh, W, green_of, mu / 4, "last"), f)
    if res is None:
        return None
    lam, greens = _on_indices(W, res)

    pairs = list(combinations(range(f), 2))
    red, blue, green = ({(a, b): got[(lam[a], lam[b])] for a, b in pairs} for got in (reds, blues, greens))
    selection = CoreSelection(lam, red, blue, green)
    if not verify_core(rh, selection):
        raise RuntimeError("core selection does not verify")
    return selection


def verify_core(rh: ReducedHypergraph, sel: CoreSelection) -> bool:
    """Recompute every C(f,3) membership test from scratch."""
    f = len(sel.indices)
    if list(sel.indices) != sorted(set(sel.indices)) or any(i < 0 or i >= rh.m for i in sel.indices):
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
# JSON


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
    if m > INDEX_LIMIT:
        raise ValueError(f"reduced hypergraphs are limited to m <= {INDEX_LIMIT}, got m={m}")
    sizes = {}
    for key, s in _json_object(data["class_size"], "class_size").items():
        sizes[_index_key(key, 2, m, "class_size", sizes)] = _json_int(s, f"class_size[{key!r}]")
        if s > CLASS_SIZE_LIMIT:
            raise ValueError(f"class sizes are limited to <= {CLASS_SIZE_LIMIT}, "
                             f"got class_size[{key!r}] = {s}")
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

