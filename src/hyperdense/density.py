"""Density auditors with independently checkable certificates.

Three notions are audited:

* vertex:  every subset U must satisfy
           |edges inside U| >= d * C(|U|, k) - eta * n**k;
* triple:  every X, Y, Z must satisfy (k = 3)
           #{(x,y,z) in X*Y*Z : xyz an edge} >= d|X||Y||Z| - eta * n**3;
* profile: per eta, the minimum of |edges inside U| / C(|U|, 3) over
           subsets with |U| >= ceil(eta * n).

Exact mode reads one numpy table of e(U) for every subset U (vertex and
profile; int16 counts below 2**15 edges), or the codegrees of a block of
about 2**14 (X, Y) pairs at once, a few X rows against every Y (triple).
Heuristic mode runs, for vertex and profile, one steepest single-flip
descent from seeded random starts: each move flips the vertex that lowers
the objective (slack, or relative density) most, by more than 1e-12, and
the lowest such vertex on ties; the profile descent starts at or above
the size floor max(ceil(eta * n), k) and never removes a vertex below
it.  The descent counts each vertex's inside degree once and keeps it up
to date per flip, touching only the edges through the flipped vertex u,
so a move costs O(n + (k-1) * deg(u)).  The triple notion uses
alternating closed-form coordinate descent.  A "violated" verdict always
carries a certificate that re-verifies with negative slack; heuristic
mode never claims "satisfied", only "unresolved".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import permutations
from math import ceil, comb, inf
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from .hypergraphs import Hypergraph, induced_edge_count
from .seeding import derive_rng

if TYPE_CHECKING:
    import numpy as np

VERTEX_EXACT_LIMIT = 24
TRIPLE_EXACT_LIMIT = 10
# (X, Y) cells per block of the exact triple audit: each array stays below 1 MiB at n <= 10
_TRIPLE_BLOCK = 1 << 14

# guard against float artifacts in ceil(eta * n), e.g. (2/3)*9 -> 6.000000000000001
_CEIL_GUARD = 1e-9


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
        return {
            "notion": self.notion,
            "verdict": self.verdict,
            "d": self.d,
            "eta": self.eta,
            "certificate": self.certificate,
            "slack": self.slack,
            "stats": self.stats,
        }


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


def _edge_masks_without(h: Hypergraph) -> list[list[int]]:
    """Per vertex v, bitmasks of (edge minus v) for every edge through v."""
    out: list[list[int]] = [[] for _ in range(h.n)]
    for e in h.edges:
        mask = 0
        for v in e:
            mask |= 1 << v
        for v in e:
            out[v].append(mask & ~(1 << v))
    return out


def _flip_pairs(others: list[list[int]]) -> list[list[tuple[int, int]]]:
    """Per vertex u, a pair (w, rest) for every edge e through u and every w
    in e - u, rest the mask of e - u - w: while rest lies inside a subset,
    flipping u adds or removes the edge e from w's inside degree."""
    return [[(w, om & ~(1 << w)) for om in masks for w in range(om.bit_length()) if om >> w & 1]
            for masks in others]


def _decode(mask: int, n: int) -> tuple[int, ...]:
    return tuple(v for v in range(n) if mask >> v & 1)


def size_floor(eta: float, n: int, k: int) -> int:
    """Smallest admissible |U|: ceil(eta*n), but never below k."""
    return max(ceil(eta * n - _CEIL_GUARD), k)


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


def _size_minima(h: Hypergraph) -> tuple[list[int], Callable[[int], np.ndarray]]:
    """m(s) = min e(U) over |U| = s for s = 0..n, and a function giving the
    masks that attain m(s).  No count exceeds the edge count, so the counts
    are int16 below 2**15 edges and int32 from there: the tables take 3 or
    5 * 2**n bytes with the uint8 sizes."""
    # imported here, not at the top: only the exact audits need numpy, and
    # commands that run none of them start without loading it
    import numpy as np

    dtype = np.int16 if h.edge_count < 1 << 15 else np.int32
    counts = np.empty(1 << h.n, dtype=dtype)
    _fill_subset_counts(counts, h.k, h.edges)
    sizes = np.empty(1 << h.n, dtype=np.uint8)
    _fill_subset_counts(sizes, 1, [(v,) for v in range(h.n)])
    minima = np.full(h.n + 1, np.iinfo(dtype).max, dtype=dtype)
    np.minimum.at(minima, sizes, counts)
    return minima.tolist(), lambda s: np.flatnonzero((sizes == s) & (counts == minima[s]))


def _lex_least(masks: np.ndarray, n: int) -> int:
    """Among masks of one size, the one whose sorted vertex tuple is
    lexicographically least: while some hold the next vertex, keep those."""
    for v in range(n):
        holding = masks[masks >> v & 1 == 1]
        masks = holding if len(holding) else masks
    return int(masks[0])


def _first_in_gray_order(masks: np.ndarray) -> int:
    """The mask a Gray-code walk from 0 meets first: least inverse-Gray rank."""
    rank = masks.copy()
    for shift in (1, 2, 4, 8, 16):  # enough for masks below 2**32
        rank ^= rank >> shift
    return int(masks[rank.argmin()])


def _audit(h: Hypergraph, query: DensityQuery, limit: int, exact, heuristic) -> DensityReport:
    """Run one audit, then recompute a violated verdict's slack on the
    reference path; an explicit check, so that it also runs under -O."""
    if query.mode == "exact" and h.n > limit:
        raise ValueError(f"exact mode limited to n <= {limit}, got n = {h.n}")
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
    minima, minimisers = _size_minima(h)
    slacks = [minima[s] - query.d * comb(s, h.k) + penalty for s in range(n + 1)]
    best = min(slacks)
    # the least vertex tuple among all minimisers: per size, then across sizes; () precedes all
    tied = [s for s in range(n + 1) if slacks[s] == best]
    subset = min(_decode(_lex_least(minimisers(s), n), n) for s in tied) if tied[0] else ()
    return _exact_report(
        "vertex", query, best, {"U": list(subset)},
        {"subsets_examined": 1 << n, "argmin": list(subset), "uniformity": h.k},
    )


def _descend(others: list[list[int]], pairs: list[list[tuple[int, int]]], mask: int, k: int,
             budget: int, floor: int, score):
    """Steepest single-vertex-flip descent from mask, over at most budget
    moves; yields (mask, size, inside) at the start and after every move.

    A move flips the lowest vertex whose score(inside, size, di, ns) -- di
    the change in inside edges, ns the new size -- beats the best so far by
    1e-12, the best starting at the score of staying put; no move leaves
    fewer than floor vertices.  Each vertex's inside degree (its edges whose
    other vertices all lie in mask) is counted from others once, then kept
    up to date: flipping u moves the degree of w by one for each pair
    (w, rest) of u whose rest lies in mask.  A move costs
    O(n + (k-1) * deg(u)), not a scan of every edge."""
    size = mask.bit_count()
    deg = [sum(1 for e in om if e & mask == e) for om in others]  # others[v] excludes v
    # each inside edge is seen once per contained vertex, hence the // k
    inside = sum(dv for v, dv in enumerate(deg) if mask >> v & 1) // k
    yield mask, size, inside
    for _ in range(budget):
        move, best, move_di = -1, score(inside, size, 0, size), 0
        for v, dv in enumerate(deg):
            member = mask >> v & 1
            if member and size <= floor:
                continue
            di, ns = (-dv, size - 1) if member else (dv, size + 1)
            cand = score(inside, size, di, ns)
            if cand < best - 1e-12:
                move, best, move_di = v, cand, di
        if move < 0:
            return
        mask ^= 1 << move
        step = 1 if mask >> move & 1 else -1
        size += step
        inside += move_di
        for w, rest in pairs[move]:
            if rest & mask == rest:
                deg[w] += step
        yield mask, size, inside


def _vertex_heuristic(h: Hypergraph, query: DensityQuery) -> DensityReport:
    n = h.n
    binom = [comb(s, h.k) for s in range(n + 1)]
    penalty = query.eta * n ** h.k
    others = _edge_masks_without(h)
    pairs = _flip_pairs(others)
    best_slack = inf
    best_mask = 0
    steps_total = 0
    for r in range(query.restarts):
        rng = derive_rng(query.seed, f"vertex/{r}")
        start = rng.getrandbits(n) if n else 0
        descent = _descend(others, pairs, start, h.k, query.budget, 0,
                           lambda inside, size, di, ns: di - query.d * (binom[ns] - binom[size]))
        for states, (mask, size, inside) in enumerate(descent, 1):
            slack = inside - query.d * binom[size] + penalty
            if slack < best_slack:
                best_slack, best_mask = slack, mask
        # a step is a scan for a move, the last one finding none unless the budget ran out
        steps_total += min(states, query.budget)
    return _heuristic_report(
        "vertex", query, best_slack, {"U": list(_decode(best_mask, n))},
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


def _codegrees(h: Hypergraph, first: set[int], second: set[int]) -> list[int]:
    """Per vertex w: #{(a,b) in first*second : {a,b,w} an edge}."""
    f, s = [0] * h.n, [0] * h.n  # 0/1 membership, read instead of set lookups
    for v in first:
        f[v] = 1
    for v in second:
        s[v] = 1
    c = [0] * h.n
    for x, y, z in h.edges:
        fx, fy, fz, sx, sy, sz = f[x], f[y], f[z], s[x], s[y], s[z]
        c[z] += fx * sy + fy * sx
        c[y] += fx * sz + fz * sx
        c[x] += fy * sz + fz * sy
    return c


def _move_codegrees(links: list[list[tuple[int, int]]], moved: Iterable[int], step: int,
                    table: list[int], partner: set[int]) -> None:
    """Add step to a codegree table for each pair of a moved vertex's edge
    whose other vertex lies in partner."""
    inside = [0] * len(links)  # step on partner's members, read instead of set lookups
    for v in partner:
        inside[v] = step
    for u in moved:
        for p, q in links[u]:
            table[q] += inside[p]
            table[p] += inside[q]


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
    Each role's codegree table is built once per restart, when the role is
    first updated; after that a role update moves the other two tables
    through the edges of the vertices that joined or left.  The tables are
    integers, so they equal a fresh count exactly."""
    n = h.n
    best = inf
    best_cert: tuple = ((), (), ())
    traces: list[list[float]] = []
    links: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # links[u]: the other two vertices of u's edges
    for x, y, z in h.edges:
        links[x].append((y, z))
        links[y].append((x, z))
        links[z].append((x, y))

    # The ordered-triple count is symmetric in the three roles: it is the
    # sum, over any one set, of the codegrees into the other two.
    def objective(count: int) -> float:
        return count - query.d * len(sets[0]) * len(sets[1]) * len(sets[2]) + query.eta * n ** 3

    for r in range(query.restarts):
        rng = derive_rng(query.seed, f"triple/{r}")
        sets = [
            {v for v in range(n) if rng.random() < 0.5},
            {v for v in range(n) if rng.random() < 0.5},
            {v for v in range(n) if rng.random() < 0.5},
        ]
        # tables[role][w]: w's codegree into the two sets other than role's,
        # built when the role is first updated
        tables: list[Optional[list[int]]] = [None, None, _codegrees(h, sets[0], sets[1])]
        obj = objective(sum(tables[2][z] for z in sets[2]))
        trace = [obj]
        for _ in range(query.budget):
            changed = False
            for role in (2, 0, 1):
                a, b = (role + 1) % 3, (role + 2) % 3
                c = tables[role]
                if c is None:
                    c = tables[role] = _codegrees(h, sets[a], sets[b])
                threshold = query.d * len(sets[a]) * len(sets[b])
                replacement = {v for v in range(n) if c[v] < threshold}
                if replacement != sets[role]:
                    for moved, step in ((replacement - sets[role], 1), (sets[role] - replacement, -1)):
                        for t, partner in ((a, b), (b, a)):
                            if tables[t] is not None:
                                _move_codegrees(links, moved, step, tables[t], sets[partner])
                    sets[role] = replacement
                    changed = True
                new_obj = objective(sum(c[v] for v in replacement))
                if new_obj > obj + 1e-9:
                    raise RuntimeError(f"descent step increased the objective from {obj} to {new_obj}")
                obj = new_obj
                trace.append(obj)
            if not changed:
                break
        traces.append(trace)
        if obj < best:
            best = obj
            best_cert = (tuple(sorted(sets[0])), tuple(sorted(sets[1])), tuple(sorted(sets[2])))
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
    ceil(eta * n), with the minimizing subset as certificate."""
    if not eta_grid:
        raise ValueError("empty eta grid")
    for eta in eta_grid:
        if not 0.0 < eta <= 1.0:
            raise ValueError(f"eta values must lie in (0, 1], got {eta}")
    _check_search(budget, restarts)
    if mode == "exact":
        if h.n > VERTEX_EXACT_LIMIT:
            raise ValueError(f"exact mode limited to n <= {VERTEX_EXACT_LIMIT}")
        return _profile_exact(h, eta_grid)
    if mode == "heuristic":
        return _profile_heuristic(h, eta_grid, budget, restarts, seed)
    raise ValueError(f"unknown mode {mode!r}")


def _profile_exact(h: Hypergraph, eta_grid: Sequence[float]) -> ProfileReport:
    n, k = h.n, h.k
    minima, minimisers = _size_minima(h)
    ratios = {s: minima[s] / comb(s, k) for s in range(k, n + 1)}
    subset = cache(lambda s: _decode(_first_in_gray_order(minimisers(s)), n))
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
    n, k = h.n, h.k
    binom = [comb(s, k) for s in range(n + 1)]
    others = _edge_masks_without(h)
    pairs = _flip_pairs(others)
    entries = []
    for eta in eta_grid:
        floor = size_floor(eta, n, k)
        if floor > n:
            entries.append(ProfileEntry(eta, floor, None, None))
            continue
        best_ratio = inf
        best_mask = 0
        for r in range(restarts):
            rng = derive_rng(seed, f"profile/{float(eta)}/{r}")
            start = sum(1 << v for v in rng.sample(range(n), rng.randint(floor, n)))
            descent = _descend(others, pairs, start, k, budget, floor,
                               lambda inside, size, di, ns: (inside + di) / binom[ns])
            for mask, size, inside in descent:
                ratio = inside / binom[size]
                if ratio < best_ratio:
                    best_ratio, best_mask = ratio, mask
        entries.append(ProfileEntry(eta, floor, best_ratio, _decode(best_mask, n)))
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
