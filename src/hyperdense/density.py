"""Density auditors with independently checkable certificates.

Three notions are audited:

* vertex:  every subset U must satisfy
           |edges inside U| >= d * C(|U|, k) - eta * n**k;
* triple:  every X, Y, Z must satisfy (k = 3)
           #{(x,y,z) in X*Y*Z : xyz an edge} >= d|X||Y||Z| - eta * n**3;
* profile: per eta, the minimum of |edges inside U| / C(|U|, 3) over
           subsets with |U| >= ceil(eta * n).

Exact mode reads one table of e(U) for every subset U (vertex and
profile): Python lists up to PYTHON_TABLE_LIMIT vertices, so that those
audits load no numpy, and past it a numpy table of int16 counts (int32
from 2**15 edges).  The triple notion reads the codegrees of a block of
about 2**14 (X, Y) pairs at once, a few X rows against every Y.
Heuristic mode runs all seeded random restarts in lockstep, one numpy
column per restart, in blocks of about _RESTART_BLOCK cells (a cell is one
vertex or incidence entry of one restart).  For vertex and profile it is a
steepest single-flip descent: each move flips the lowest vertex whose score
(the change in slack, or the new relative density) beats the best so far by
more than 1e-12; the profile descent starts at or above the size floor
max(ceil(eta * n), k) and never removes a vertex below it.  Each column
keeps its member count per edge and its inside degree per vertex, and a
move updates only the edges through the flipped vertex.  A column moves to
its argmin v* when v* beats every earlier score by the same 1e-12, for the
one-vertex scan then ends at v* too; any other moving column is decided by
that scan, so the reports are those of one restart at a time, bit for bit.
The triple notion uses alternating closed-form coordinate descent, counting
each role's codegree table for all running restarts at once.  Heuristic
mode takes hosts up to HEURISTIC_HOST_LIMIT vertices with C(n, k) < 2**53.
A "violated" verdict always carries a certificate that re-verifies with
negative slack; heuristic mode never claims "satisfied", only "unresolved".
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cache
from itertools import permutations
from math import ceil, comb, inf
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

from .hypergraphs import Hypergraph, induced_edge_count
from .seeding import derive_rng

if TYPE_CHECKING:
    import numpy as np

VERTEX_EXACT_LIMIT = 24
# Hosts of at most this many vertices get the exact vertex and profile
# audits' subset tables as Python lists, so those audits load no numpy.  A
# cold import of numpy takes 130-150 ms.  An audit on Python lists takes
# about 0.5 ms at n = 10, 1-1.6 ms at n = 12, 4 ms at n = 14 and 14 ms at
# n = 16, on numpy tables 0.4-1.2 ms once numpy is loaded (2-vCPU Xeon).
# At 12 a process that has loaded numpy anyway loses at most about 1 ms a call.
PYTHON_TABLE_LIMIT = 12
TRIPLE_EXACT_LIMIT = 10
# Largest host of the heuristic audits.  At n = 10**4 the default vertex
# audit of an empty 3-graph (64 restarts of 1000 flips each) takes about
# 20 s; every step is O(n) per restart.  C(n, k) must also lie below 2**53,
# so that every count is an exact float and each profile ratio equals the
# float of int / int.
HEURISTIC_HOST_LIMIT = 10**4
# (X, Y) cells per block of the exact triple audit: each array stays below 1 MiB at n <= 10
_TRIPLE_BLOCK = 1 << 14
# masks per block when the exact vertex and profile audits look up a size's
# minimisers: the block's bool arrays take 64 KiB each, not 1 MiB at n = 20
_SCAN_BLOCK = 1 << 16
# cells per block of heuristic restarts, a cell being one edge incidence or
# vertex of one restart; a block's largest arrays hold 1 or 2 bytes a cell
_RESTART_BLOCK = 1 << 18


def _check_search(budget: int, restarts: int) -> None:
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")


@dataclass
class DensityQuery:
    """Audit parameters; restarts and budget only matter in heuristic mode."""

    d: float
    eta: float
    mode: str = "exact"
    budget: int = 1000
    restarts: int = 64
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.d <= 1.0:
            raise ValueError(f"d must lie in [0, 1], got {self.d}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")
        _check_search(self.budget, self.restarts)
        if self.mode not in ("exact", "heuristic"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class DensityReport:
    notion: str
    verdict: str  # satisfied | violated | unresolved
    d: float
    eta: float
    certificate: Optional[dict]
    slack: Optional[float]
    stats: dict

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ProfileEntry:
    eta: float
    size_floor: int
    density: Optional[float]
    subset: Optional[tuple[int, ...]]


@dataclass
class ProfileReport:
    entries: list[ProfileEntry]
    mode: str
    stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "notion": "profile",
            "mode": self.mode,
            "entries": [
                {
                    "eta": e.eta,
                    "size_floor": e.size_floor,
                    "density": e.density,
                    "certificate": None if e.subset is None else {"U": list(e.subset)},
                }
                for e in self.entries
            ],
            "stats": self.stats,
        }


def _decode(mask: int, n: int) -> tuple[int, ...]:
    return tuple(v for v in range(n) if mask >> v & 1)


def size_floor(eta: float, n: int, k: int) -> int:
    """Smallest admissible |U|: ceil(eta*n) for the decimal that eta names,
    but never below k."""
    from fractions import Fraction  # about 3 ms cold, which vertex and triple audits do without

    return max(ceil(Fraction(str(eta)) * n), k)


def _fill_subset_counts(out: np.ndarray, k: int, edges: Sequence[tuple[int, ...]]) -> None:
    """out[U] = #{given sorted k-sets inside U} for every mask U < len(out), by
    subset doubling: a mask in [2**v, 2**(v+1)) is a lower mask plus v, so its
    count is the lower mask's plus that of the sets with top vertex v whose
    rest lies inside, a table one uniformity down built in the upper half."""
    if k == 0:
        out[:] = len(edges)
        return
    by_top: list[list[tuple[int, ...]]] = [[] for _ in range(len(out).bit_length() - 1)]
    for e in edges:
        by_top[e[-1]].append(e[:-1])
    out[0] = 0
    for v, rests in enumerate(by_top):
        low, high = out[: 1 << v], out[1 << v : 2 << v]
        if rests:
            _fill_subset_counts(high, k - 1, rests)
            high += low
        else:
            high[:] = low


def _size_minima(h: Hypergraph) -> tuple[list[int], Callable[[int], int], Callable[[int], int]]:
    """m(s) = min e(U) over |U| = s for s = 0..n, and two picks among the
    masks that attain m(s): the one whose sorted vertex tuple is
    lexicographically least, and the one a Gray-code walk from 0 meets
    first.  Hosts of at most PYTHON_TABLE_LIMIT vertices are tabled in
    Python lists (_size_minima_py).  Larger ones take numpy tables, whose
    minimisers are found _SCAN_BLOCK masks at a time.  No count exceeds the
    edge count, so the counts are int16 below 2**15 edges and int32 from
    there: the tables take 3 or 5 * 2**n bytes with the uint8 sizes."""
    if h.n <= PYTHON_TABLE_LIMIT:
        return _size_minima_py(h)
    # imported here, not at the top: only the audits need numpy, and
    # commands that run none of them start without loading it
    import numpy as np

    dtype = np.int16 if h.edge_count < 1 << 15 else np.int32
    counts = np.empty(1 << h.n, dtype=dtype)
    _fill_subset_counts(counts, h.k, h.edges)
    sizes = np.empty(1 << h.n, dtype=np.uint8)
    _fill_subset_counts(sizes, 1, [(v,) for v in range(h.n)])
    minima = np.full(h.n + 1, np.iinfo(dtype).max, dtype=dtype)
    np.minimum.at(minima, sizes, counts)

    def minimisers(s: int) -> np.ndarray:
        return np.concatenate([
            start + np.flatnonzero((sizes[start:start + _SCAN_BLOCK] == s)
                                   & (counts[start:start + _SCAN_BLOCK] == minima[s]))
            for start in range(0, len(counts), _SCAN_BLOCK)
        ])

    return (minima.tolist(), lambda s: _lex_least(minimisers(s), h.n),
            lambda s: _first_in_gray_order(minimisers(s)))


def _subset_counts_py(n: int, k: int, edges: Sequence[tuple[int, ...]]) -> list[int]:
    """[#{given sorted k-sets inside U} for every mask U < 2**n], by the
    subset doubling of _fill_subset_counts, on Python lists."""
    if k == 0:
        return [len(edges)] * (1 << n)
    by_top: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for e in edges:
        by_top[e[-1]].append(e[:-1])
    out = [0]
    for v, rests in enumerate(by_top):
        if rests:
            out += [low + high for low, high in zip(out, _subset_counts_py(v, k - 1, rests))]
        else:
            out += out
    return out


def _size_minima_py(h: Hypergraph) -> tuple[list[int], Callable[[int], int], Callable[[int], int]]:
    """_size_minima from Python lists of e(U) and |U|, each size's
    minimisers collected in one pass over the masks."""
    n = h.n
    counts = _subset_counts_py(n, h.k, h.edges)
    sizes = _subset_counts_py(n, 1, [(v,) for v in range(n)])
    minima = [h.edge_count] * (n + 1)
    for count, size in zip(counts, sizes):
        if count < minima[size]:
            minima[size] = count
    minimisers: list[list[int]] = [[] for _ in range(n + 1)]
    for mask, (count, size) in enumerate(zip(counts, sizes)):
        if count == minima[size]:
            minimisers[size].append(mask)
    return (minima, lambda s: min(minimisers[s], key=lambda mask: _decode(mask, n)),
            lambda s: min(minimisers[s], key=_gray_rank))


def _lex_least(masks: np.ndarray, n: int) -> int:
    """Among masks of one size, the one whose sorted vertex tuple is
    lexicographically least: while some hold the next vertex, keep those."""
    for v in range(n):
        holding = masks[masks >> v & 1 == 1]
        masks = holding if len(holding) else masks
    return int(masks[0])


def _gray_rank(rank: int | np.ndarray) -> int | np.ndarray:
    """The inverse Gray code of a mask below 2**32, or in place of an array
    of them: the step at which a Gray-code walk from 0 meets it."""
    for shift in (1, 2, 4, 8, 16):
        rank ^= rank >> shift
    return rank


def _first_in_gray_order(masks: np.ndarray) -> int:
    """The mask a Gray-code walk from 0 meets first: least inverse-Gray rank."""
    return int(masks[_gray_rank(masks.copy()).argmin()])


def _check_heuristic_host(h: Hypergraph) -> None:
    if h.n > HEURISTIC_HOST_LIMIT or comb(h.n, h.k) >= 1 << 53:
        raise ValueError(f"heuristic mode limited to n <= {HEURISTIC_HOST_LIMIT} and C(n, k) < 2**53, "
                         f"got n = {h.n}, k = {h.k}")


def _audit(h: Hypergraph, query: DensityQuery, limit: int, exact, heuristic) -> DensityReport:
    """Run one audit, then recompute a violated verdict's slack on the
    reference path; an explicit check, so that it also runs under -O."""
    if query.mode == "exact" and h.n > limit:
        raise ValueError(f"exact mode limited to n <= {limit}, got n = {h.n}")
    if query.mode == "heuristic":
        _check_heuristic_host(h)
    report = (exact if query.mode == "exact" else heuristic)(h, query)
    if report.verdict == "violated":
        recomputed = verify_density_certificate(h, report)
        if not (recomputed < 0 and abs(recomputed - report.slack) < 1e-9):
            raise RuntimeError(f"{report.notion} certificate re-verifies at {recomputed}, not {report.slack}")
    return report


def _exact_report(notion: str, query: DensityQuery, slack: float, cert: dict, stats: dict) -> DensityReport:
    return DensityReport(notion, "violated" if slack < 0 else "satisfied", query.d, query.eta,
                         cert if slack < 0 else None, slack, {"mode": "exact", **stats})


def _heuristic_report(notion: str, query: DensityQuery, slack: float, cert: dict, stats: dict) -> DensityReport:
    """A search that finds no negative slack proves nothing: "unresolved"."""
    violated = slack < 0
    return DensityReport(notion, "violated" if violated else "unresolved", query.d, query.eta,
                         cert if violated else None, slack if violated else None,
                         {"mode": "heuristic", "restarts": query.restarts, **stats})


# ---------------------------------------------------------------------------
# vertex notion


def vertex_density_check(h: Hypergraph, query: DensityQuery) -> DensityReport:
    return _audit(h, query, VERTEX_EXACT_LIMIT, _vertex_exact, _vertex_heuristic)


def _vertex_exact(h: Hypergraph, query: DensityQuery) -> DensityReport:
    n = h.n
    penalty = query.eta * n ** h.k
    minima, lex_least, _ = _size_minima(h)
    slacks = [minima[s] - query.d * comb(s, h.k) + penalty for s in range(n + 1)]
    best = min(slacks)
    # the least vertex tuple among all minimisers: per size, then across sizes; () precedes all
    tied = [s for s in range(n + 1) if slacks[s] == best]
    subset = min(_decode(lex_least(s), n) for s in tied) if tied[0] else ()
    return _exact_report(
        "vertex", query, best, {"U": list(subset)},
        {"subsets_examined": 1 << n, "argmin": list(subset), "uniformity": h.k},
    )


def _restart_blocks(restarts: int, cells: int) -> Iterator[range]:
    """range(restarts) in order, cut into blocks of about _RESTART_BLOCK
    cells, one restart taking cells of them."""
    rows = max(1, _RESTART_BLOCK // max(1, cells))
    return (range(r, min(r + rows, restarts)) for r in range(0, restarts, rows))


def _by_vertex(n: int, vertex: np.ndarray, *columns: np.ndarray) -> tuple:
    """CSR over vertices: ptr, then each column sorted by vertex, so that
    the entries of v are [ptr[v], ptr[v + 1])."""
    import numpy as np

    ptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(vertex, minlength=n), out=ptr[1:])
    order = np.argsort(vertex, kind="stable")
    return (ptr, *(c[order] for c in columns))


def _segment_sums(values: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Per vertex v, the int64 sum of the 0/1 rows ptr[v] .. ptr[v + 1] - 1
    of values.  reduceat copies all of values into its sum type, so the
    sums are taken in the least int type that holds the longest segment."""
    import numpy as np

    lengths = ptr[1:] - ptr[:-1]
    out = np.zeros((len(lengths), values.shape[1]), dtype=np.int64)
    held = np.flatnonzero(lengths)
    if len(held):
        dtype = np.min_scalar_type(-int(lengths.max()) - 1)
        out[held] = np.add.reduceat(values, ptr[held], axis=0, dtype=dtype)
    return out


def _entries(ptr: np.ndarray, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR positions of us[0]'s entries, then us[1]'s, ...; and for each
    position the index into us it belongs to."""
    import numpy as np

    lengths = ptr[us + 1] - ptr[us]
    which = np.repeat(np.arange(len(us)), lengths)
    shift = np.repeat(np.cumsum(lengths) - lengths - ptr[us], lengths)
    return which, np.arange(len(which)) - shift


def _membership(masks: list[int], n: int) -> np.ndarray:
    """n x len(masks) bool: column c holds the bits of masks[c]."""
    import numpy as np

    width = (n + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), dtype=np.uint8)
    bits = np.unpackbits(raw.reshape(len(masks), width), axis=1, count=n, bitorder="little")
    return np.ascontiguousarray(bits.T, dtype=bool)


def _flip_index(h: Hypergraph) -> tuple:
    """The host as numpy arrays for the descent: the edges (m x k); each
    vertex's edges (CSR: ptr, edge); and per vertex u, a pair (edge, w)
    for every edge through u and every other vertex w of it (CSR: ptr,
    edge, w)."""
    import numpy as np

    k = h.k
    edges = np.array(h.edges, dtype=np.intp).reshape(-1, k)
    ids = np.arange(len(edges))
    u, w = np.nonzero(~np.eye(k, dtype=bool))
    return (edges, *_by_vertex(h.n, edges.ravel(), np.repeat(ids, k)),
            *_by_vertex(h.n, edges[:, u].ravel(), np.repeat(ids, len(u)), edges[:, w].ravel()))


def _first_descent_move(scores: list[float], stay: float) -> int:
    """The scalar move rule: the lowest vertex whose score beats the best so
    far by 1e-12, the best starting at stay; -1 for none."""
    move, best = -1, stay
    for v, score in enumerate(scores):
        if score < best - 1e-12:
            move, best = v, score
    return move


def _descend(index: tuple, n: int, k: int, restarts: int, start: Callable[[int], int], budget: int,
             floor: int, score: Callable, value: Callable) -> tuple[float, tuple[int, ...], int]:
    """Descend from start(r), a vertex mask, for every restart r, in blocks
    of restarts.  Returns the least value over all the descents' states,
    the first subset that attains it (in restart order, then state order),
    and the number of steps, a step being a scan for a move: the last scan
    of a descent finds none unless the budget ran out."""
    import numpy as np

    best, best_subset, steps = inf, (), 0
    for block in _restart_blocks(restarts, index[0].size + n):  # a cell per edge incidence and per vertex
        values, subsets, moves = _descend_block(index, [start(r) for r in block], n, k, budget, floor,
                                                score, value)
        steps += int(np.minimum(moves + 1, budget).sum())
        col = int(values.argmin())
        if values[col] < best:
            best, best_subset = float(values[col]), tuple(np.flatnonzero(subsets[:, col]).tolist())
    return best, best_subset, steps


def _descend_block(index: tuple, masks: list[int], n: int, k: int, budget: int, floor: int,
                   score: Callable, value: Callable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Steepest single-vertex-flip descents from the start masks, all at
    once, one column per start, over at most budget moves each.

    Returns per column the least value(inside, size) over the descent's
    states and the first subset attaining it (an n x columns bool array),
    and the number of moves made.

    score(mem, deg, size, inside) gives, per vertex and column, the score
    of flipping that vertex, and per column the score of staying put.  A
    column moves to the lowest vertex whose score beats the best so far by
    1e-12, the best starting at the stay score; no move leaves fewer than
    floor vertices.  That scan takes the argmin v* whenever v* beats every
    earlier score by the same margin: the scan then accepts v* whatever it
    held before, and no later score can beat v*'s.  Any other moving column
    is handed to the scan itself (_first_descent_move).

    A vertex's inside degree (its edges whose other vertices all lie in the
    subset) is counted once from the member counts per edge, then kept up
    to date: flipping u adds its step to the count of each edge through u,
    and to the degree of w for each pair (e, w) of u whose rest e - u - w
    lies in the subset."""
    import numpy as np

    edges, inc_ptr, inc_edge, pair_ptr, pair_edge, pair_other = index
    mem = _membership(masks, n)
    # members per edge, edges x columns; an edge needs k <= n <= HEURISTIC_HOST_LIMIT < 2**15
    count = mem[edges].sum(axis=1, dtype=np.int16)
    # a member's inside edges are full, a non-member's lack only it
    deg = np.where(mem, _segment_sums((count == k)[inc_edge], inc_ptr),
                   _segment_sums((count == k - 1)[inc_edge], inc_ptr))
    size = mem.sum(axis=0)
    inside = (count == k).sum(axis=0)
    best, best_mem = value(inside, size), mem.copy()
    moves = np.zeros(len(masks), dtype=np.int64)
    live = np.arange(len(masks))  # the columns still descending; mem, deg, size and inside hold only these
    below = np.arange(n)[:, None]
    for _ in range(budget if n else 0):
        cand, stay = score(mem, deg, size, inside)
        cand[mem & (size <= floor)] = inf
        low, pick = cand.min(axis=0), cand.argmin(axis=0)
        moving = low < stay - 1e-12
        for c in np.flatnonzero(moving & ((cand - 1e-12 <= low) & (below < pick)).any(axis=0)).tolist():
            pick[c] = _first_descent_move(cand[:, c].tolist(), float(stay[c]))
        if not moving.all():
            live, mem, deg, size, inside, pick = live[moving], mem[:, moving], deg[:, moving], \
                size[moving], inside[moving], pick[moving]
            if not len(live):
                break
        cols = np.arange(len(live))
        step = np.where(mem[pick, cols], -1, 1)
        mem[pick, cols] = step > 0
        size += step
        inside += step * deg[pick, cols]
        which, pos = _entries(inc_ptr, pick)
        count[inc_edge[pos], live[which]] += step[which]
        which, pos = _entries(pair_ptr, pick)
        e, w = pair_edge[pos], pair_other[pos]
        hit = count[e, live[which]] - mem[w, which] - (step[which] > 0) == k - 2
        np.add.at(deg, (w[hit], which[hit]), step[which[hit]])
        moves[live] += 1
        now = value(inside, size)
        better = now < best[live]
        best[live[better]] = now[better]
        best_mem[:, live[better]] = mem[:, better]
    return best, best_mem, moves


def _vertex_heuristic(h: Hypergraph, query: DensityQuery) -> DensityReport:
    import numpy as np

    n, k = h.n, h.k
    binom = [comb(s, k) for s in range(n + 1)]
    penalty = query.eta * n ** k
    # per size s, the floats a one-vertex scan computes: d * (C(s +- 1, k) - C(s, k))
    # and d * C(s, k); up[n] and down[0] pad moves that cannot occur
    up = np.array([query.d * (binom[s + 1] - binom[s]) for s in range(n)] + [0.0])
    down = np.array([0.0] + [query.d * (binom[s - 1] - binom[s]) for s in range(1, n + 1)])
    weight = np.array([query.d * b for b in binom])

    def score(mem, deg, size, inside):
        return np.where(mem, -deg - down[size], deg - up[size]), np.zeros(len(size))

    best_slack, best_subset, steps_total = _descend(
        _flip_index(h), n, k, query.restarts,
        lambda r: derive_rng(query.seed, f"vertex/{r}").getrandbits(n) if n else 0,
        query.budget, 0, score, lambda inside, size: inside - weight[size] + penalty,
    )
    return _heuristic_report(
        "vertex", query, best_slack, {"U": list(best_subset)},
        {"steps": steps_total, "best_slack": best_slack, "seed": query.seed},
    )


# ---------------------------------------------------------------------------
# triple notion


def ordered_triple_count(h: Hypergraph, xs: Iterable[int], ys: Iterable[int], zs: Iterable[int]) -> int:
    """#{(x,y,z) in X*Y*Z : {x,y,z} an edge}; the sets may overlap."""
    if h.k != 3:
        raise ValueError("three-set counting requires uniformity 3")
    X, Y, Z = set(xs), set(ys), set(zs)
    count = 0
    for e in h.edges:
        for p in permutations(e):
            if p[0] in X and p[1] in Y and p[2] in Z:
                count += 1
    return count


def _codegree_index(h: Hypergraph) -> tuple:
    """CSR over vertices w (ptr, a, b): both orders (a, b) of the other two
    vertices of every edge through w."""
    import numpy as np

    edges = np.array(h.edges, dtype=np.intp).reshape(-1, 3)
    w, a, b = (np.concatenate([edges[:, p[i]] for p in permutations(range(3))]) for i in range(3))
    return _by_vertex(h.n, w, a, b)


def _codegrees(index: tuple, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Per vertex w and column c: #{(a,b) in first*second : {a,b,w} an edge},
    first and second being n x columns bool membership."""
    ptr, a, b = index
    return _segment_sums(first[a] & second[b], ptr)


def triple_density_check(h: Hypergraph, query: DensityQuery) -> DensityReport:
    if h.k != 3:
        raise ValueError("three-set audit requires uniformity 3")
    return _audit(h, query, TRIPLE_EXACT_LIMIT, _triple_exact, _triple_heuristic)


def _triple_exact(h: Hypergraph, query: DensityQuery) -> DensityReport:
    """Enumerate (X, Y) pairs; for fixed X, Y the optimal Z has a closed
    form (take every vertex whose codegree is below d|X||Y|), so this
    equals the full minimum over all 8**n triples.

    The pairs are taken a block of X rows at a time, about _TRIPLE_BLOCK
    cells per block.  xy[w][X, y] counts the x in X with xyw an edge, so
    xy[w][block] times the Y membership rows is w's codegree for every
    pair of the block, a float matmul of small integers and so exact.
    Each w's gap, clipped at 0, is added into the block's total in w order,
    one vertex at a time: a pairwise sum would change the last bit.
    The first minimum of a block is the least X and then the first Y in
    Gray order, and only a strictly smaller block minimum replaces it."""
    import numpy as np

    n = h.n
    penalty = query.eta * n ** 3
    # column j is the j-th Gray code: argmin's first minimum is the first in Gray order
    ys = np.arange(1 << n)
    ys ^= ys >> 1
    members = (ys[:, None] >> np.arange(n) & 1).astype(np.float64)
    ysize = members.sum(axis=1)
    xmembers = (np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(np.float64)
    xweight = query.d * xmembers.sum(axis=1)  # d|X|, one float product per X
    link = np.zeros((n, n, n))  # link[x, y, w] = 1 when xyw is an edge
    for e in h.edges:
        for x, y, w in permutations(e):
            link[x, y, w] = 1.0
    xy = np.empty((n, 1 << n, n))
    for w in range(n):
        np.matmul(xmembers, link[:, :, w], out=xy[w])
    members_t = np.ascontiguousarray(members.T)
    rows = max(1, _TRIPLE_BLOCK >> n)
    best = penalty  # X = Y = Z = empty
    best_pair = None
    for start in range(0, 1 << n, rows):
        block = slice(start, start + rows)
        weight = xweight[block, None] * ysize
        total = np.zeros_like(weight)
        for w in range(n):
            gap = xy[w, block] @ members_t
            gap -= weight
            total += np.minimum(gap, 0.0, out=gap)
        total += penalty
        cell = int(np.argmin(total))
        if total.flat[cell] < best:
            best = float(total.flat[cell])
            row, j = divmod(cell, 1 << n)
            best_pair = (start + row, j)
    if best_pair is None:
        best_cert = ((), (), ())
    else:
        xmask, j = best_pair
        gap = xy[:, xmask] @ members[j] - xweight[xmask] * ysize[j]
        best_cert = (_decode(xmask, n), _decode(int(ys[j]), n), tuple(np.flatnonzero(gap < 0).tolist()))
    X, Y, Z = best_cert
    return _exact_report(
        "triple", query, best, {"X": list(X), "Y": list(Y), "Z": list(Z)},
        {"pairs_examined": 1 << (2 * n), "argmin": [list(X), list(Y), list(Z)]},
    )


def _triple_heuristic(h: Hypergraph, query: DensityQuery) -> DensityReport:
    """Alternating descent: each role in turn becomes the set of vertices
    whose codegree into the other two sets lies below d times their sizes.
    The restarts run together, one column each, and a column stops after a
    sweep that changes none of its sets.  Each role update counts the role's
    codegree table for every running column at once; the tables are
    integers, so they are the same however they are counted."""
    import numpy as np

    n = h.n
    penalty = query.eta * n ** 3
    index = _codegree_index(h)
    best = inf
    best_cert: tuple = ((), (), ())
    traces: list[list[float]] = []

    # The ordered-triple count is symmetric in the three roles: it is the
    # sum, over any one set, of the codegrees into the other two.
    def objective(count, sizes):
        return count - query.d * sizes[0] * sizes[1] * sizes[2] + penalty

    for block in _restart_blocks(query.restarts, 6 * h.edge_count + n):
        draws = []
        for r in block:
            rng = derive_rng(query.seed, f"triple/{r}")
            draws.append([rng.random() for _ in range(3 * n)])
        # sets[role][v, c]: v lies in that role's set in column c
        sets = np.ascontiguousarray(np.array(draws).reshape(len(block), 3, n).transpose(1, 2, 0) < 0.5)
        sizes = sets.sum(axis=1)
        obj = objective((_codegrees(index, sets[0], sets[1]) * sets[2]).sum(axis=0), sizes)
        final = obj.copy()
        block_traces = [[value] for value in obj.tolist()]
        live = np.arange(len(block))
        for _ in range(query.budget):
            changed = np.zeros(len(live), dtype=bool)
            for role in (2, 0, 1):
                a, b = (role + 1) % 3, (role + 2) % 3
                c = _codegrees(index, sets[a][:, live], sets[b][:, live])
                threshold = query.d * sizes[a, live] * sizes[b, live]
                replacement = c < threshold
                changed |= (replacement != sets[role][:, live]).any(axis=0)
                sets[role][:, live] = replacement
                sizes[role, live] = replacement.sum(axis=0)
                new_obj = objective((c * replacement).sum(axis=0), sizes[:, live])
                rising = np.flatnonzero(new_obj > obj + 1e-9)
                if len(rising):
                    i = rising[0]
                    raise RuntimeError(f"descent step increased the objective from {float(obj[i])} to {float(new_obj[i])}")
                obj = final[live] = new_obj
                for col, value in zip(live.tolist(), new_obj.tolist()):
                    block_traces[col].append(value)
            live, obj = live[changed], obj[changed]
            if not len(live):
                break
        traces += block_traces
        col = int(final.argmin())
        if final[col] < best:
            best = float(final[col])
            best_cert = tuple(tuple(np.flatnonzero(s[:, col]).tolist()) for s in sets)
    X, Y, Z = best_cert
    return _heuristic_report(
        "triple", query, best, {"X": list(X), "Y": list(Y), "Z": list(Z)},
        {"seed": query.seed, "best_objective": best, "objective_traces": traces},
    )


# ---------------------------------------------------------------------------
# profile notion


def density_profile(
    h: Hypergraph,
    eta_grid: Sequence[float],
    mode: str = "exact",
    budget: int = 1000,
    restarts: int = 64,
    seed: int = 0,
) -> ProfileReport:
    """Per eta, the minimum relative density over subsets of size at least
    ceil(eta * n), with the minimizing subset as certificate.  Every
    certificate is recomputed on the reference path, subset_relative_density,
    and must give the entry's density exactly (both are floats of int / int)
    from at least the size floor; an explicit check, so that it also runs
    under -O."""
    if not eta_grid:
        raise ValueError("empty eta grid")
    for eta in eta_grid:
        if not 0.0 < eta <= 1.0:
            raise ValueError(f"eta values must lie in (0, 1], got {eta}")
    _check_search(budget, restarts)
    if mode == "exact":
        if h.n > VERTEX_EXACT_LIMIT:
            raise ValueError(f"exact mode limited to n <= {VERTEX_EXACT_LIMIT}")
        report = _profile_exact(h, eta_grid)
    elif mode == "heuristic":
        _check_heuristic_host(h)
        report = _profile_heuristic(h, eta_grid, budget, restarts, seed)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    for e in report.entries:
        if e.subset is None:
            continue
        recomputed = subset_relative_density(h, e.subset)
        if recomputed != e.density or len(e.subset) < e.size_floor:
            raise RuntimeError(f"profile certificate for eta {e.eta} re-verifies at {recomputed} on "
                               f"{len(e.subset)} vertices, not {e.density} on at least {e.size_floor}")
    return report


def _profile_exact(h: Hypergraph, eta_grid: Sequence[float]) -> ProfileReport:
    n, k = h.n, h.k
    minima, _, first_in_gray_order = _size_minima(h)
    ratios = {s: minima[s] / comb(s, k) for s in range(k, n + 1)}
    subset = cache(lambda s: _decode(first_in_gray_order(s), n))
    entries = []
    for eta in eta_grid:
        floor = size_floor(eta, n, k)
        if floor > n:
            entries.append(ProfileEntry(eta, floor, None, None))
            continue
        best = min(range(floor, n + 1), key=ratios.__getitem__)  # the smallest size among ties
        entries.append(ProfileEntry(eta, floor, ratios[best], subset(best)))
    return ProfileReport(entries, "exact", {"subsets_examined": 1 << n})


def _profile_heuristic(
    h: Hypergraph, eta_grid: Sequence[float], budget: int, restarts: int, seed: int
) -> ProfileReport:
    import numpy as np

    n, k = h.n, h.k
    # exact counts below 2**53, so each ratio is the float of int / int.  The
    # 1s stand in where no move is taken: below k (the floor is at least k)
    # and at n + 1 (at size n no vertex is outside)
    binom = np.array([max(comb(s, k), 1) for s in range(n + 2)], dtype=np.float64)

    def score(mem, deg, size, inside):
        ratio = (np.where(mem, -deg, deg) + inside) / binom[np.where(mem, size - 1, size + 1)]
        return ratio, inside / binom[size]

    index = _flip_index(h)
    entries = []
    for eta in eta_grid:
        floor = size_floor(eta, n, k)
        if floor > n:
            entries.append(ProfileEntry(eta, floor, None, None))
            continue

        def start(r: int) -> int:
            rng = derive_rng(seed, f"profile/{float(eta)}/{r}")
            return sum(1 << v for v in rng.sample(range(n), rng.randint(floor, n)))

        best_ratio, best_subset, _ = _descend(index, n, k, restarts, start, budget, floor, score,
                                              lambda inside, size: inside / binom[size])
        entries.append(ProfileEntry(eta, floor, best_ratio, best_subset))
    return ProfileReport(entries, "heuristic", {"restarts": restarts, "seed": seed})


# ---------------------------------------------------------------------------
# certificates


def verify_density_certificate(h: Hypergraph, report: DensityReport) -> float:
    """Recompute a report's slack from scratch (reference code path)."""
    if report.certificate is None:
        raise ValueError("report carries no certificate")
    if report.notion == "vertex":
        U = list(report.certificate["U"])
        if any(v < 0 or v >= h.n for v in U):
            raise ValueError("certificate vertex out of range")
        if len(set(U)) != len(U):
            raise ValueError("certificate subset has repeated vertices")
        inside = induced_edge_count(h, U)
        return inside - report.d * comb(len(U), h.k) + report.eta * h.n ** h.k
    if report.notion == "triple":
        parts = []
        for key in ("X", "Y", "Z"):
            part = list(report.certificate[key])
            if any(v < 0 or v >= h.n for v in part):
                raise ValueError("certificate vertex out of range")
            parts.append(part)
        X, Y, Z = parts
        count = ordered_triple_count(h, X, Y, Z)
        return count - report.d * len(X) * len(Y) * len(Z) + report.eta * h.n ** 3
    raise ValueError(f"unsupported notion {report.notion!r}")


def subset_relative_density(h: Hypergraph, vertices: Iterable[int]) -> float:
    """|edges inside U| / C(|U|, k); reference path for profile entries."""
    vs = sorted(set(vertices))
    if any(v < 0 or v >= h.n for v in vs):
        raise ValueError("vertex out of range")
    denom = comb(len(vs), h.k)
    if denom == 0:
        raise ValueError(f"subset must have at least {h.k} vertices")
    return induced_edge_count(h, vs) / denom
