"""Reference scans for the exact density audits.

The Gray-code scans are the loop implementations the numpy subset tables in
``hyperdense.density`` replaced.  They walk every subset in Gray-code
order, updating edge counts incrementally, and break ties the way the
library does, by the least bitmask (for triples the least X mask, then the
least Y mask), not by the order of the walk; the property tests require the
two to agree exactly.  ``triple_exact_by_x`` is the numpy three-set audit
that took one X at a time, the one the blocks of X rows replaced.  ``edge_masks_without``
gives each vertex the bitmasks of its edges less itself, for these scans
and the heuristic references.
"""

from __future__ import annotations

from itertools import permutations
from math import comb, inf
from typing import Sequence

from hyperdense.density import (
    DensityQuery,
    DensityReport,
    ProfileEntry,
    ProfileReport,
    _decode,
    _exact_report,
    size_floor,
)
from hyperdense.hypergraphs import Hypergraph


def edge_masks_without(h: Hypergraph) -> list[list[int]]:
    """Per vertex v, bitmasks of (edge minus v) for every edge through v."""
    out: list[list[int]] = [[] for _ in range(h.n)]
    for e in h.edges:
        mask = 0
        for v in e:
            mask |= 1 << v
        for v in e:
            out[v].append(mask & ~(1 << v))
    return out


def vertex_exact(h: Hypergraph, query: DensityQuery) -> DensityReport:
    n = h.n
    penalty = query.eta * n ** h.k
    binom = [comb(s, h.k) for s in range(n + 1)]
    others = edge_masks_without(h)
    best_slack = penalty  # empty subset
    best_mask = 0
    mask = size = inside = 0
    for i in range(1, 1 << n):
        v = (i & -i).bit_length() - 1
        bit = 1 << v
        if mask & bit:
            inside -= sum(1 for om in others[v] if om & mask == om)
            mask ^= bit
            size -= 1
        else:
            mask |= bit
            size += 1
            inside += sum(1 for om in others[v] if om & mask == om)
        slack = inside - query.d * binom[size] + penalty
        if slack < best_slack or (slack == best_slack and mask < best_mask):
            best_slack = slack
            best_mask = mask
    subset = _decode(best_mask, n)
    violated = best_slack < 0
    return DensityReport(
        notion="vertex",
        verdict="violated" if violated else "satisfied",
        d=query.d,
        eta=query.eta,
        certificate={"U": list(subset)} if violated else None,
        slack=best_slack,
        stats={
            "mode": "exact",
            "subsets_examined": 1 << n,
            "argmin": list(subset),
            "uniformity": h.k,
        },
    )


def triple_exact(h: Hypergraph, query: DensityQuery) -> DensityReport:
    n = h.n
    penalty = query.eta * n ** 3
    pair_others: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for x, y, z in h.edges:
        pair_others[x].append((y, z))
        pair_others[y].append((x, z))
        pair_others[z].append((x, y))
    best = penalty  # X = Y = Z = empty
    best_pair = (0, 0)
    best_cert = ((), (), ())
    for xmask in range(1 << n):
        xbit = [(xmask >> w) & 1 for w in range(n)]
        xsize = sum(xbit)
        c = [0] * n
        ymask = 0
        ysize = 0
        for j in range(1, 1 << n):
            u = (j & -j).bit_length() - 1
            s = -1 if ymask >> u & 1 else 1
            for a, b in pair_others[u]:
                c[b] += s * xbit[a]
                c[a] += s * xbit[b]
            ymask ^= 1 << u
            ysize += s
            t = query.d * xsize * ysize
            total = 0.0
            for cz in c:
                gap = cz - t
                if gap < 0:
                    total += gap
            obj = total + penalty
            if obj < best or (obj == best and (xmask, ymask) < best_pair):
                best, best_pair = obj, (xmask, ymask)
                zs = tuple(w for w in range(n) if c[w] - t < 0)
                best_cert = (_decode(xmask, n), _decode(ymask, n), zs)
    violated = best < 0
    X, Y, Z = best_cert
    return DensityReport(
        notion="triple",
        verdict="violated" if violated else "satisfied",
        d=query.d,
        eta=query.eta,
        certificate={"X": list(X), "Y": list(Y), "Z": list(Z)} if violated else None,
        slack=best,
        stats={"mode": "exact", "pairs_examined": 1 << (2 * n), "argmin": [list(X), list(Y), list(Z)]},
    )


def triple_exact_by_x(h: Hypergraph, query: DensityQuery) -> DensityReport:
    """Enumerate (X, Y) pairs; for fixed X, Y the optimal Z has a closed
    form (take every vertex whose codegree is below d|X||Y|), so this
    equals the full minimum over all 8**n triples.  For each X, the
    codegrees of every Y at once are Y's membership rows times X's links."""
    import numpy as np

    n = h.n
    penalty = query.eta * n ** 3
    # row j holds mask j: argmin's first minimum is the least Y
    members = np.arange(1 << n)[:, None] >> np.arange(n) & 1
    ysize = members.sum(axis=1)
    link = np.zeros((n, n, n), dtype=np.int64)  # link[x, y, w] = 1 when xyw is an edge
    for e in h.edges:
        for x, y, w in permutations(e):
            link[x, y, w] = 1
    best = penalty  # X = Y = Z = empty
    best_cert = ((), (), ())
    for xmask in range(1 << n):
        xs = _decode(xmask, n)
        codegree = members @ link[list(xs)].sum(axis=0)  # [j, w] = #{(x, y) in X*Y_j : xyw an edge}
        gap = codegree - query.d * len(xs) * ysize[:, None]
        # summed column by column, in w order: a pairwise sum would change the last bit
        total = np.zeros(1 << n)
        for w in range(n):
            total += np.minimum(gap[:, w], 0.0)
        obj = total + penalty
        j = int(np.argmin(obj))
        if obj[j] < best:
            best = float(obj[j])
            best_cert = (xs, _decode(j, n), tuple(np.flatnonzero(gap[j] < 0).tolist()))
    X, Y, Z = best_cert
    return _exact_report(
        "triple", query, best, {"X": list(X), "Y": list(Y), "Z": list(Z)},
        {"pairs_examined": 1 << (2 * n), "argmin": [list(X), list(Y), list(Z)]},
    )


def profile_exact(h: Hypergraph, eta_grid: Sequence[float]) -> ProfileReport:
    n, k = h.n, h.k
    binom = [comb(s, k) for s in range(n + 1)]
    others = edge_masks_without(h)
    per_size: list[tuple[float, int]] = [(inf, 0)] * (n + 1)  # (ratio, mask)
    mask = size = inside = 0
    for i in range(1, 1 << n):
        v = (i & -i).bit_length() - 1
        bit = 1 << v
        if mask & bit:
            inside -= sum(1 for om in others[v] if om & mask == om)
            mask ^= bit
            size -= 1
        else:
            mask |= bit
            size += 1
            inside += sum(1 for om in others[v] if om & mask == om)
        if size >= k:
            ratio = inside / binom[size]
            if (ratio, mask) < per_size[size]:
                per_size[size] = (ratio, mask)
    entries = []
    for eta in eta_grid:
        floor = size_floor(eta, n, k)
        best: tuple[float, int] | None = None
        for s in range(floor, n + 1):
            if per_size[s][0] < inf and (best is None or per_size[s][0] < best[0]):
                best = per_size[s]
        if best is None:
            entries.append(ProfileEntry(eta, floor, None, None))
        else:
            entries.append(ProfileEntry(eta, floor, best[0], _decode(best[1], n)))
    return ProfileReport(entries, "exact", {"subsets_examined": 1 << n})
