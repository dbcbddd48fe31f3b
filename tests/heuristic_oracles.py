"""Reference searches for the heuristic vertex, profile and triple audits.

``vertex_heuristic`` and ``profile_heuristic`` are the two hand-written
single-vertex-flip descents that one shared descent in
``hyperdense.density`` replaced.  ``triple_heuristic``, ``codegrees`` and
``move_codegrees`` are the three-set descent that ran one restart at a
time, with its codegree tables kept up to date per role update.  All are
kept verbatim, apart from their names.  The property tests require the
library's reports, whose restarts all run at once, to agree with them
byte for byte.
"""

from __future__ import annotations

from math import comb, inf
from typing import Iterable, Optional, Sequence

from hyperdense.density import (
    DensityQuery,
    DensityReport,
    ProfileEntry,
    ProfileReport,
    _decode,
    _heuristic_report,
    size_floor,
)
from hyperdense.hypergraphs import Hypergraph
from hyperdense.seeding import derive_rng

from gray_oracles import edge_masks_without


def vertex_heuristic(h: Hypergraph, query: DensityQuery) -> DensityReport:
    n = h.n
    binom = [comb(s, h.k) for s in range(n + 1)]
    penalty = query.eta * n ** h.k
    others = edge_masks_without(h)
    best_slack = inf
    best_mask = 0
    steps_total = 0
    for r in range(query.restarts):
        rng = derive_rng(query.seed, f"vertex/{r}")
        mask = rng.getrandbits(n) if n else 0
        size = bin(mask).count("1")
        # each inside edge is seen once per contained vertex, hence the // k
        inside = sum(
            1 for v in range(n) if mask >> v & 1 for om in others[v] if om & mask == om
        ) // h.k
        slack = inside - query.d * binom[size] + penalty
        if slack < best_slack:
            best_slack, best_mask = slack, mask
        for _ in range(query.budget):
            steps_total += 1
            chosen_v = -1
            chosen_delta = 0.0
            chosen_di = 0
            for v in range(n):
                bit = 1 << v
                if mask & bit:
                    di = -sum(1 for om in others[v] if om & mask == om)
                    ns = size - 1
                else:
                    di = sum(1 for om in others[v] if om & (mask | bit) == om)
                    ns = size + 1
                delta = di - query.d * (binom[ns] - binom[size])
                if delta < chosen_delta - 1e-12:
                    chosen_v, chosen_delta, chosen_di = v, delta, di
            if chosen_v < 0:
                break
            mask ^= 1 << chosen_v
            size = size + 1 if mask >> chosen_v & 1 else size - 1
            inside += chosen_di
            slack = inside - query.d * binom[size] + penalty
            if slack < best_slack:
                best_slack, best_mask = slack, mask
    subset = _decode(best_mask, n)
    violated = best_slack < 0
    return DensityReport(
        notion="vertex",
        verdict="violated" if violated else "unresolved",
        d=query.d,
        eta=query.eta,
        certificate={"U": list(subset)} if violated else None,
        slack=best_slack if violated else None,
        stats={
            "mode": "heuristic",
            "restarts": query.restarts,
            "steps": steps_total,
            "best_slack": best_slack,
            "seed": query.seed,
        },
    )


def profile_heuristic(
    h: Hypergraph, eta_grid: Sequence[float], budget: int, restarts: int, seed: int
) -> ProfileReport:
    n, k = h.n, h.k
    binom = [comb(s, k) for s in range(n + 1)]
    others = edge_masks_without(h)
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
            chosen = rng.sample(range(n), rng.randint(floor, n))
            mask = 0
            for v in chosen:
                mask |= 1 << v
            size = len(chosen)
            inside = sum(
                1 for v in chosen for om in others[v] if om & mask == om
            ) // k
            ratio = inside / binom[size]
            if ratio < best_ratio:
                best_ratio, best_mask = ratio, mask
            for _ in range(budget):
                move_v = -1
                move_ratio = ratio
                for v in range(n):
                    bit = 1 << v
                    if mask & bit:
                        if size - 1 < floor:
                            continue
                        di = -sum(1 for om in others[v] if om & mask == om)
                        ns = size - 1
                    else:
                        di = sum(1 for om in others[v] if om & (mask | bit) == om)
                        ns = size + 1
                    cand = (inside + di) / binom[ns]
                    if cand < move_ratio - 1e-12:
                        move_v, move_ratio = v, cand
                if move_v < 0:
                    break
                bit = 1 << move_v
                if mask & bit:
                    inside -= sum(1 for om in others[move_v] if om & mask == om)
                    mask ^= bit
                    size -= 1
                else:
                    mask |= bit
                    size += 1
                    inside += sum(1 for om in others[move_v] if om & mask == om)
                ratio = inside / binom[size]
                if ratio < best_ratio:
                    best_ratio, best_mask = ratio, mask
        entries.append(ProfileEntry(eta, floor, best_ratio, _decode(best_mask, n)))
    return ProfileReport(entries, "heuristic", {"restarts": restarts, "seed": seed})


def codegrees(h: Hypergraph, first: set[int], second: set[int]) -> list[int]:
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


def move_codegrees(links: list[list[tuple[int, int]]], moved: Iterable[int], step: int,
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


def triple_heuristic(h: Hypergraph, query: DensityQuery) -> DensityReport:
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
        tables: list[Optional[list[int]]] = [None, None, codegrees(h, sets[0], sets[1])]
        obj = objective(sum(tables[2][z] for z in sets[2]))
        trace = [obj]
        for _ in range(query.budget):
            changed = False
            for role in (2, 0, 1):
                a, b = (role + 1) % 3, (role + 2) % 3
                c = tables[role]
                if c is None:
                    c = tables[role] = codegrees(h, sets[a], sets[b])
                threshold = query.d * len(sets[a]) * len(sets[b])
                replacement = {v for v in range(n) if c[v] < threshold}
                if replacement != sets[role]:
                    for moved, step in ((replacement - sets[role], 1), (sets[role] - replacement, -1)):
                        for t, partner in ((a, b), (b, a)):
                            if tables[t] is not None:
                                move_codegrees(links, moved, step, tables[t], sets[partner])
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
