"""Multipartite index-class hypergraphs and the staged rainbow selection.

A reduced hypergraph has an index set [m], a vertex class P^{ij} for every
index pair, and a tripartite constituent A^{ijk} for every index triple
whose edges take one vertex from each of P^{ij}, P^{ik}, P^{jk}.  The
selection pipeline picks indices and, for every selected pair, a red, a
blue, and a green class vertex so that along every selected triple
r < s < t the vertices (red(r,s), blue(r,t), green(s,t)) form a
constituent edge.

The constituents are kept as two flat integer columns: the edges of the
t-th triple of combinations(range(m), 3) are codes[offsets[t]:offsets[t+1]],
each class edge (p, q, r) of (i, j, k) coded as (p |P^{ik}| + q) |P^{jk}| + r
and sorted.  Building, parsing and verifying stay in pure Python.  The build
also keeps the sparsest constituent, compared exactly, so the mu-density
test is one exact comparison and needs no numpy.  A stage counts a triple's
candidates by bisecting its sorted codes, triple by triple in Python up to
PYTHON_INDEX_LIMIT indices, and past the limit for every triple at once
through numpy, on one increasing key column.  Both give the same candidate
sets, and every stage instance is built from them on one path.

The selections follow the staged degree-threshold mechanism greedily
(keep the choice that leaves the most future indices alive, ties broken
by least element).  The guarantees behind the mechanism hold only for
astronomically many indices, so at desk scale a selection may honestly
fail; a returned success, however, is always verified before it leaves
this module.

The input's mu-density is checked exactly against the decimal that mu
names, and so are every stage's candidate thresholds and floors
(_stage_rule).  On a mu-dense input every stage's candidate sets meet
their floor (mu/2 of the anchored class for red, mu/4 for blue and
green); the pipeline checks each floor once, on the stage's candidate
sets, and reports a breach as an internal fault (RuntimeError), not as an
input error.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left
from fractions import Fraction
from functools import cache, partial
from itertools import combinations
from math import comb, prod
from typing import TYPE_CHECKING, Callable, Collection, Iterable, NamedTuple, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np

Pair = tuple[int, int]
Triple = tuple[int, int, int]
ClassEdge = tuple[int, int, int]  # (vertex in P^{ij}, in P^{ik}, in P^{jk})
Selection = tuple[tuple[int, ...], dict[Pair, object]]  # chosen indices, element per pair

# Input sizes reduced_from_dict accepts.  A stage's table holds a run end per
# index triple and class vertex, about C(m, 3) times the class size entries;
# with every class at both limits, mu = 0 and no edges, select takes about
# 1.2 s, and the whole process peaks at about 90 MB (2-vCPU Xeon).
INDEX_LIMIT = 64
CLASS_SIZE_LIMIT = 64
# Inputs of at most this many indices take the stage candidate sets triple
# by triple in Python, so that select loads no numpy.  A cold import of
# numpy takes 130-150 ms.  A selection in Python takes about 0.4-0.5 ms at
# m = 6, 0.8-1 ms at m = 8, 1.4-1.9 ms at m = 10, 2.4-3 ms at m = 12 and
# 17-39 ms at m = 24, with numpy 0.6, 0.7-0.9, 0.9-1.6, 1.4-1.6 and 8 ms
# once numpy is loaded (2-vCPU Xeon, class sizes 2 and 3).  At 10 a process
# that has loaded numpy anyway loses at most about 1 ms a call; the
# benchmark's search instances have m = 24-32.
PYTHON_INDEX_LIMIT = 10


class MuDensityError(ValueError):
    """Input reduced hypergraph misses the required constituent density."""


class ReducedHypergraph:
    """Class sizes per index pair and the constituents as flat columns:
    the codes of the t-th triple of combinations(range(m), 3) are
    codes[offsets[t]:offsets[t + 1]], one per class edge, sorted.
    sparsest is the first triple, in that order, whose constituent has the
    least density (edges over class product), None when m < 3.  All five
    fields compare by ==, and repr shows m and class_sizes."""

    def __init__(self, m: int, class_sizes: dict[Pair, int],
                 constituents: dict[Triple, Collection[Sequence[int]]]):
        """Validate and encode: constituents maps sorted index triples to
        their class edges (p, q, r); a triple it lacks has no edges."""
        if m < 2:
            raise ValueError("need at least two indices")
        for pair in combinations(range(m), 2):
            size = class_sizes.get(pair)
            if size is None or size < 1:
                raise ValueError(f"class {pair} missing or empty")
        for what, given, count in (("class", class_sizes, 2), ("constituent triple", constituents, 3)):
            stray = given.keys() - set(combinations(range(m), count))
            if stray:
                raise ValueError(f"{what} {min(stray)} does not name {count} increasing indices in [0, {m})")
        offsets, codes = array("q", [0]), array("q")
        sparsest, low, high = None, 1, 0  # the least density so far is low / high; 1 / 0 is above any
        for triple in combinations(range(m), 3):
            i, j, k = triple
            a, b, c = class_sizes[(i, j)], class_sizes[(i, k)], class_sizes[(j, k)]
            edges = constituents.get(triple, ())
            try:
                kept = [(p * b + q) * c + r for p, q, r in edges if 0 <= p < a and 0 <= q < b and 0 <= r < c]
            except ValueError:  # an edge of another arity
                kept = []
            if len(kept) < len(edges):
                bad = min(tuple(e) for e in edges
                          if len(e) != 3 or not (0 <= e[0] < a and 0 <= e[1] < b and 0 <= e[2] < c))
                raise ValueError(f"constituent edge {bad} "
                                 f"{'outside classes' if len(bad) == 3 else 'of the wrong arity'} of {triple}")
            codes.extend(sorted(set(kept)))
            offsets.append(len(codes))
            # densities compared exactly, by cross-multiplying ints
            count = offsets[-1] - offsets[-2]
            if count * high < low * a * b * c:
                sparsest, low, high = triple, count, a * b * c
        self.m, self.class_sizes, self.offsets, self.codes, self.sparsest = m, class_sizes, offsets, codes, sparsest

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(m={self.m!r}, class_sizes={self.class_sizes!r})"

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    @classmethod
    def from_parts(
        cls, m: int, class_sizes: dict[Pair, int], constituents: dict[Triple, Collection[Sequence[int]]]
    ) -> "ReducedHypergraph":
        """The constructor on keys in any order."""
        return cls(m, {tuple(sorted(p)): s for p, s in class_sizes.items()},
                   {tuple(sorted(t)): es for t, es in constituents.items()})

    def edges_of(self, triple: Triple) -> frozenset[ClassEdge]:
        """The class edges (p, q, r) of a triple, its indices in any order."""
        i, j, k = sorted(triple)
        if not 0 <= i < j < k < self.m:
            raise ValueError(f"triple {triple} must name three distinct indices in [0, {self.m})")
        b, c = self.class_sizes[(i, k)], self.class_sizes[(j, k)]
        t = _row(self.m, i, j, k)
        return frozenset((x // c // b, x // c % b, x % c) for x in self.codes[self.offsets[t]:self.offsets[t + 1]])


def _row(m: int, i: int, j: int, k: int) -> int:
    """The position of the triple i < j < k in combinations(range(m), 3)."""
    return comb(m, 3) - comb(m - i, 3) + comb(m - 1 - i, 2) - comb(m - j, 2) + k - j - 1


class CoreSelection(NamedTuple):
    """Selected indices plus red/blue/green class vertices per position pair."""

    indices: tuple[int, ...]
    red: dict[Pair, int]
    blue: dict[Pair, int]
    green: dict[Pair, int]


class _Columns(NamedTuple):
    """A reduced hypergraph viewed through numpy, for the whole-stage tables.

    m is the hypergraph's.  Row t of triples and sizes is the t-th triple
    (i, j, k) of combinations(range(m), 3) and its class sizes |P^{ij}|,
    |P^{ik}|, |P^{jk}|.  keys holds the codes in their order, those of row t
    raised by span t, where span is the largest class product: so keys
    increase, and row t's codes are its keys in [span t, span (t + 1)).
    width is the largest class size, the padded width of every stage
    table."""

    m: int
    triples: "np.ndarray"
    sizes: "np.ndarray"
    keys: "np.ndarray"
    span: int
    width: int


def _columns(rh: ReducedHypergraph) -> _Columns:
    """The columns of rh as numpy arrays, once per call of the pipeline."""
    import numpy as np

    m = rh.m
    size_of = np.zeros((m, m), np.int64)
    size_of[np.triu_indices(m, 1)] = [rh.class_sizes[pair] for pair in combinations(range(m), 2)]
    at = np.arange(m)
    # nonzero lists the triples i < j < k in C order, which is combinations order
    i, j, k = np.nonzero((at[:, None, None] < at[:, None]) & (at[:, None] < at))
    sizes = np.stack([size_of[i, j], size_of[i, k], size_of[j, k]], axis=1)
    counts = np.diff(np.frombuffer(rh.offsets, np.int64))
    # keys stay below C(64, 3) 64^3, about 1.1e10, at the input limits
    span = int(sizes.prod(axis=1).max(initial=1))
    keys = np.frombuffer(rh.codes, np.int64) + np.repeat(np.arange(len(i)) * span, counts)
    return _Columns(m, np.stack([i, j, k], axis=1), sizes, keys, span, int(size_of.max()))


def _mu_bound(mu: float) -> Fraction:
    """The decimal that mu names, exactly, once mu lies in [0, 1]."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError("mu must lie in [0, 1]")
    return Fraction(str(mu))


def is_mu_dense(rh: ReducedHypergraph, mu: float) -> tuple[bool, Optional[Triple]]:
    """Whether every constituent has density >= mu, compared exactly against
    the decimal that mu names; also the worst triple (None when m < 3 and
    there are no constituents at all).  Only the sparsest constituent,
    found when rh was built, can miss the bound."""
    bound = _mu_bound(mu)
    if rh.sparsest is None:
        return True, None
    i, j, k = rh.sparsest
    t = _row(rh.m, i, j, k)
    count = rh.offsets[t + 1] - rh.offsets[t]
    product = rh.class_sizes[(i, j)] * rh.class_sizes[(i, k)] * rh.class_sizes[(j, k)]
    return count * bound.denominator >= bound.numerator * product, rh.sparsest


# ---------------------------------------------------------------------------
# abstract selection instances


class SelectionInstance(NamedTuple):
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

# per stage: the slot of the class edge (p, q, r) whose vertex it picks, which
# is also the pair of a triple (i, j, k) whose class anchors its floor, and
# the d of that floor, mu/d times the class
_STAGES = {"red": (0, 2), "blue": (1, 4), "green": (2, 4)}
_SLOT_PAIRS = ((0, 1), (0, 2), (1, 2))  # slot -> its index pair, as columns of a triple


def _stage_rule(stage: str, mu: float) -> tuple[Callable[[int], int], Callable[[int], int]]:
    """The stage's candidate threshold and floor, exact for the decimal mu
    names and cached per argument.  The threshold of run, the product of
    the class sizes after the stage's slot, is the count of edges through
    the picks that makes a vertex a candidate: ceil(mu/2 run) for red,
    ceil(mu/4 run) for blue, 1 for green.  The floor of a class size s is
    ceil(mu/d s).  Python ints: a 17-digit mu times run overflows int64."""
    d = _STAGES[stage][1]
    bound = _mu_bound(mu)
    ceiling = cache(lambda x: -(-bound.numerator * x // (bound.denominator * d)))
    return (lambda run: 1) if stage == "green" else ceiling, ceiling


def _stage_table(cols: _Columns, stage: str, index: Sequence[int], mu: float,
                 picks: Sequence[dict[Pair, int]]) -> tuple["np.ndarray", "np.ndarray"]:
    """The stage's candidates for every triple of the increasing index tuple.

    Returns the triples' rows of cols, in combinations order, and a boolean
    table with one row per triple and one column per vertex v of the
    stage's class (padded to cols.width, padding never a candidate).  picks
    holds the vertices chosen by the earlier stages, per index pair; v is a
    candidate when the edges through them and v meet _stage_rule's
    threshold.  Those edges are one run of the triple's keys, as in
    _stage_candidates_py, and searchsorted finds the run ends of every row
    and v at once."""
    import numpy as np

    slot = _STAGES[stage][0]
    member = np.zeros(cols.m, bool)
    member[list(index)] = True
    rows = np.flatnonzero(member[cols.triples].all(axis=1))
    triples, sizes = cols.triples[rows], cols.sizes[rows]
    lead, picked = np.zeros(len(rows), np.int64), np.ones(len(rows), bool)
    for s, chosen in enumerate(picks):
        pick = np.full((cols.m, cols.m), -1)
        for (x, y), v in chosen.items():
            pick[x, y] = v
        a, b = _SLOT_PAIRS[s]
        want = pick[triples[:, a], triples[:, b]]
        lead, picked = lead * sizes[:, s] + want, picked & (want >= 0)
    run = sizes[:, slot + 1:].prod(axis=1)
    starts = rows * cols.span + lead * sizes[:, slot] * run
    # a row that misses a pick has every run end at its start, so it counts
    # nothing, not the run of another vertex or triple
    ends = np.searchsorted(cols.keys, starts[:, None] + np.arange(cols.width + 1) * (run * picked)[:, None])
    counts = np.diff(ends, axis=1)
    distinct, inverse = np.unique(run, return_inverse=True)
    threshold = np.array(list(map(_stage_rule(stage, mu)[0], distinct.tolist())), np.int64)[inverse]
    return rows, (counts >= threshold[:, None]) & (np.arange(cols.width) < sizes[:, slot, None])


def _stage_candidates(cols: _Columns, stage: str, index: Sequence[int], mu: float,
                      picks: Sequence[dict[Pair, int]]) -> list[frozenset]:
    """The candidate sets of _stage_table, one per triple of the increasing
    index tuple."""
    import numpy as np

    rows, table = _stage_table(cols, stage, index, mu, picks)
    # each row's bits as one bytes key (numpy drops its trailing zero bytes);
    # one frozenset per distinct key, shared by every triple that has it
    packed = np.packbits(table, axis=1, bitorder="little")
    keys = packed.view(f"S{packed.shape[1]}").reshape(-1).tolist()
    sets = {}
    for key in set(keys):
        bits = int.from_bytes(key, "little")
        sets[key] = frozenset(v for v in range(cols.width) if bits >> v & 1)
    return [sets[key] for key in keys]


def _instance(class_sizes: dict[Pair, int], stage: str, index: Sequence[int], mu: float,
              sets: Iterable[frozenset]) -> SelectionInstance:
    """A stage's instance over the positions of the increasing index tuple:
    the class of every index pair, and the given candidate sets, one per
    index triple in combinations order, each checked once, in that order,
    against _stage_rule's floor: mu/2 (red) or mu/4 (blue, green) times the
    class of its anchor pair."""
    slot, d = _STAGES[stage]
    x, y = _SLOT_PAIRS[slot]
    floor = _stage_rule(stage, mu)[1]
    positions = range(len(index))
    classes = {(a, b): tuple(range(class_sizes[(index[a], index[b])])) for a, b in combinations(positions, 2)}
    candidates = dict(zip(combinations(positions, 3), sets))
    for triple, held in candidates.items():
        size = len(classes[(triple[x], triple[y])])
        if len(held) < floor(size):
            raise RuntimeError(f"{stage} candidate set has {len(held)} elements, below {mu / d * size}")
    return SelectionInstance(len(index), classes, candidates)


def _stage_candidates_py(rh: ReducedHypergraph, stage: str, index: Sequence[int], mu: float,
                         picks: Sequence[dict[Pair, int]]) -> list[frozenset]:
    """The candidate sets of _stage_table, one per triple of the increasing
    index tuple, computed triple by triple in Python.  The picks fix the
    leading digits of a code and v the next one, so in a triple's sorted
    codes the class edges through the picks whose stage slot holds v form
    one run: v's count is its length, read off the run ends that bisection
    finds for every v."""
    slot = _STAGES[stage][0]
    threshold = _stage_rule(stage, mu)[0]
    out = []
    for triple in combinations(index, 3):
        i, j, k = triple
        sizes = (rh.class_sizes[(i, j)], rh.class_sizes[(i, k)], rh.class_sizes[(j, k)])
        lead = 0
        for s, chosen in enumerate(picks):
            a, b = _SLOT_PAIRS[s]
            lead = lead * sizes[s] + chosen[(triple[a], triple[b])]
        run, t = prod(sizes[slot + 1:]), _row(rh.m, i, j, k)
        ends = [bisect_left(rh.codes, (lead * sizes[slot] + v) * run, rh.offsets[t], rh.offsets[t + 1])
                for v in range(sizes[slot] + 1)]
        need = threshold(run)
        out.append(frozenset(v for v in range(sizes[slot]) if ends[v + 1] - ends[v] >= need))
    return out


def _stage_kernel(rh: ReducedHypergraph) -> Callable[..., list[frozenset]]:
    """The stage candidate function (of stage, index, mu, picks) for rh:
    triple by triple in Python up to PYTHON_INDEX_LIMIT indices, whole-stage
    numpy tables past it."""
    if rh.m <= PYTHON_INDEX_LIMIT:
        return partial(_stage_candidates_py, rh)
    return partial(_stage_candidates, _columns(rh))


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
    candidates = _stage_kernel(rh)

    def run(stage: str, select: Callable, index: Sequence[int], picks: tuple, size: Optional[int]):
        """The stage's selection keyed by indices; None only with a target size."""
        res = select(_instance(rh.class_sizes, stage, index, mu, candidates(stage, index, mu, picks)), size)
        if res is None and size is None:
            raise RuntimeError(f"{stage} selection without a target size failed")
        return None if res is None else _on_indices(index, res)

    X, reds = run("red", select_red, tuple(range(rh.m)), (), None)
    if len(X) < f:
        return None
    W, blues = run("blue", select_blue, X, (reds,), None)
    if len(W) < f:
        return None
    res = run("green", select_green, W, (reds, blues), f)
    if res is None:
        return None
    lam, greens = res

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

