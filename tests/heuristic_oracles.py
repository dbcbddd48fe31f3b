"""Reference descents for the heuristic vertex and profile audits.

These are the two hand-written single-vertex-flip descents that the
shared ``_descend`` in ``hyperdense.density`` replaced, kept verbatim.
The property tests require the library's reports to agree with them
byte for byte.
"""

from __future__ import annotations

from math import comb, inf
from typing import Sequence

from hyperdense.density import (
    DensityQuery,
    DensityReport,
    ProfileEntry,
    ProfileReport,
    _decode,
    _edge_masks_without,
    size_floor,
)
from hyperdense.hypergraphs import Hypergraph
from hyperdense.seeding import derive_rng


def vertex_heuristic(h: Hypergraph, query: DensityQuery) -> DensityReport:
    n = h.n
    binom = [comb(s, h.k) for s in range(n + 1)]
    penalty = query.eta * n ** h.k
    others = _edge_masks_without(h)
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
    others = _edge_masks_without(h)
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
