"""Numerical verification of the quantitative density estimates.

The exponent rho is the unique solution of (2/3)**rho = 1/4, and
tau = rho + 3 satisfies 2**(tau-1) = 3**(tau-3).  The central inequality

    x**tau + y**tau + z**tau + 24*x*y*z  >=  3**(3-tau) * (x + y + z)**tau

holds on the unit cube with equality at (1,1,0) and (1,1,1); the grid scan
here is a regression check of that floor, not a proof.  The scan evaluates
the gap only where it can be small: with C = 3**(3-tau), the gap on a box
is at least the lower corner's powers and 24 times its product less C
times the upper corner's sum to the power tau, and aligned index cubes
from side 64 down to 2 whose bound exceeds 1e-9 are dropped (94,721 of
the 401**3 points are kept).  A dropped point's gap exceeds 1e-9, far
above the float error of terms no larger than 27, so it can neither be
the minimum, which the origin's exact 0 holds at or below, nor tie it.
The kept points come unsorted and are evaluated in blocks, each gap with
the operations of the full slice scan, and among exact ties the point of
least index (i*r + j)*r + k wins, so the minimum and its lexicographically
least argmin are those of that scan.  Up to PYTHON_RESOLUTION_LIMIT the
same steps run on Python floats, with scalar powers where the numpy scan
takes array powers that may differ in the last bit; the tests check that
both give the same result at every such resolution.  From the inequality
follows a per-subset edge floor inside the depth-l ternary host,

    e(X) >= eta**rho / 4 * |X|**3 / 6 - 3/8 * 3**l,   eta = |X| / 3**l,

which the binary-prefix slices {0,1}**r x {0,1,2}**(n-r) meet
asymptotically with ratio 1 - 9**-(n-r).  The floor depends on |X| alone,
and the host splits into three first-digit blocks whose transversal
triples are its remaining edges, so the least e(X) at each size follows
from the same minima one level down: the exact audit checks every subset
up to level KARY_EXACT_LIMIT without building the host.  The sampled audit
counts drawn subsets by the same split, reading each first-digit block's
edges and size from tables one level down, and the supersaturation counts
hom(F, T_n) come from the host's recursion in `ternary.kary_hom_counts`.
"""

from __future__ import annotations

import math
from itertools import product
from typing import TYPE_CHECKING, Callable, NamedTuple

from .hypergraphs import Hypergraph
from .seeding import subseed
from .ternary import find_kary_embedding, kary_hom_counts

if TYPE_CHECKING:
    import numpy as np

RHO = 2.0 / (math.log2(3.0) - 1.0)
TAU = RHO + 3.0


def inequality_gap(x: float, y: float, z: float) -> float:
    """Left minus right side of the cube inequality; nonnegative on [0,1]^3."""
    return x**TAU + y**TAU + z**TAU + 24.0 * x * y * z - 3.0 ** (3.0 - TAU) * (x + y + z) ** TAU


def scan_inequality(resolution: int) -> tuple[float, tuple[float, float, float]]:
    """Minimum of the gap over the uniform grid on [0,1]^3 (endpoints
    included) and the lexicographically least grid point attaining it.

    The gap is evaluated only at the points `_candidate_points` keeps; every
    other point has a box lower bound above _FLOAT_TOLERANCE, so a computed
    gap above 0 there, while the origin, always kept, has gap exactly 0.
    The kept points are evaluated _GAP_BLOCK at a time, each gap with the
    operations of a slice-by-slice scan of the whole grid.  Among points
    whose gaps tie exactly at the minimum the least packed index
    (i*r + j)*r + k wins, the point that scan meets first, so the result is
    the one it returns.  Resolutions of at most PYTHON_RESOLUTION_LIMIT take
    the same steps on Python floats (`_scan_py`), so they load no numpy."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if resolution > FACT7_RESOLUTION_LIMIT:
        raise ValueError(f"resolution is limited to <= {FACT7_RESOLUTION_LIMIT}")
    if resolution <= PYTHON_RESOLUTION_LIMIT:
        return _scan_py(resolution)
    import numpy as np

    grid = np.linspace(0.0, 1.0, resolution)
    points = _candidate_points(grid)
    best, key = math.inf, 0
    for start in range(0, len(points[0]), _GAP_BLOCK):
        i, j, k = (p[start:start + _GAP_BLOCK] for p in points)
        gaps = _point_gaps(grid, i, j, k)
        low = gaps.min()
        if low <= best:
            tied = np.flatnonzero(gaps == low)
            keys = (i[tied].astype(np.int64) * resolution + j[tied]) * resolution + k[tied]
            first = keys.argmin()
            if low < best or keys[first] < key:
                best, key = gaps[tied[first]], int(keys[first])
    i, jk = divmod(key, resolution * resolution)
    j, k = divmod(jk, resolution)
    return float(best), (float(grid[i]), float(grid[j]), float(grid[k]))


def _scan_py(resolution: int) -> tuple[float, tuple[float, float, float]]:
    """scan_inequality on Python floats, every power a scalar one: the
    points of `_candidate_points_py`, each gap with the operations of
    `_point_gaps` in its order, and among exact ties at the minimum the
    least (i, j, k), which is the least packed index."""
    grid = _linspace(resolution)
    grid_pow = [x**TAU for x in grid]
    scale = 3.0 ** (3.0 - TAU)
    points = _candidate_points_py(grid)
    gaps = [grid_pow[i] + grid_pow[j] + grid_pow[k] + 24.0 * grid[i] * (grid[j] * grid[k])
            - scale * (grid[i] + (grid[j] + grid[k])) ** TAU for i, j, k in points]
    best = min(gaps)
    i, j, k = min(point for point, gap in zip(points, gaps) if gap == best)
    return best, (grid[i], grid[j], grid[k])


def _linspace(resolution: int) -> list[float]:
    """np.linspace(0.0, 1.0, resolution) as Python floats, bit for bit."""
    step = 1.0 / (resolution - 1)
    return [i * step for i in range(resolution - 1)] + [1.0]


def _candidate_points_py(grid: list[float]) -> list[tuple[int, int, int]]:
    """The points (i, j, k) of `_candidate_points`, unsorted, by its descent
    on Python floats."""
    size = len(grid)
    scale = 3.0 ** (3.0 - TAU)
    side = _BLOCK_SIDE
    blocks = list(product(range(-(-size // side)), repeat=3))
    while side > 1:
        starts = range(0, size, side)
        lo, hi = [grid[s] for s in starts], [grid[min(s + side, size) - 1] for s in starts]
        lo_pow = [x**TAU for x in lo]
        side //= 2
        # the indices of each cube's children along one axis, past the grid's end dropped
        halves = [[c for c in (2 * b, 2 * b + 1) if c * side < size] for b in range(len(starts))]
        blocks = [child for x, y, z in blocks
                  if lo_pow[x] + lo_pow[y] + lo_pow[z] + 24.0 * lo[x] * lo[y] * lo[z]
                  - scale * (hi[x] + hi[y] + hi[z]) ** TAU <= _FLOAT_TOLERANCE
                  for child in product(halves[x], halves[y], halves[z])]
    return blocks


def _candidate_points(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays (i, j, k), unsorted and int16 (FACT7_RESOLUTION_LIMIT
    fits), of the grid points whose gap may be at most _FLOAT_TOLERANCE.

    Aligned index cubes of side _BLOCK_SIDE, then of each half side down to
    2, are kept while the box bound

        lo_x**tau + lo_y**tau + lo_z**tau + 24*lo_x*lo_y*lo_z - 3**(3-tau) * (hi_x + hi_y + hi_z)**tau

    is at most _FLOAT_TOLERANCE, lo and hi being the grid values at a cube's
    first and last index: the first four terms of the gap grow in each
    coordinate and the last falls.  A cube's bound is never above its
    children's, so the kept points are those of the side-2 cubes that pass."""
    import numpy as np

    size = len(grid)
    scale = 3.0 ** (3.0 - TAU)
    children = np.indices((2, 2, 2), dtype=np.int16).reshape(3, 8, 1)
    side = _BLOCK_SIDE
    blocks = np.indices((-(-size // side),) * 3, dtype=np.int16).reshape(3, -1)
    while side > 1:
        starts = np.arange(0, size, side)
        lo, hi = grid[starts], grid[np.minimum(starts + side, size) - 1]
        lo_pow = lo**TAU
        x, y, z = blocks
        bound = (lo_pow[x] + lo_pow[y] + lo_pow[z] + 24.0 * lo[x] * lo[y] * lo[z]
                 - scale * (hi[x] + hi[y] + hi[z]) ** TAU)
        side //= 2
        blocks = (2 * blocks[:, None, bound <= _FLOAT_TOLERANCE] + children).reshape(3, -1)
        blocks = blocks[:, (blocks * side < size).all(axis=0)]
    i, j, k = blocks
    return i, j, k


def _point_gaps(grid: np.ndarray, i: np.ndarray, j: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The gap at the grid points (i, j, k), bit for bit as a scan of the
    whole grid computes it one x-slice at a time: x**tau as a scalar power,
    y**tau and z**tau as array powers, and the sums in the scan's order."""
    import numpy as np

    x_pow = np.array([x**TAU for x in grid])
    grid_pow = grid**TAU
    x, y, z = grid[i], grid[j], grid[k]
    scale = 3.0 ** (3.0 - TAU)
    return (x_pow[i] + grid_pow[j] + grid_pow[k] + 24.0 * x * (y * z)
            - scale * (x + (y + z)) ** TAU)


class SubsetAuditReport(NamedTuple):
    level: int
    mode: str
    examined: int
    violations: list[dict]
    seed: int | None = None

    def to_dict(self) -> dict:
        from copy import deepcopy

        return deepcopy(self._asdict())


def density_floor(size: int, level: int) -> float:
    """The proven lower bound on e(X) for |X| = size inside the depth-level host."""
    eta = size / 3**level
    return 0.25 * eta**RHO * size**3 / 6.0 - 0.375 * 3**level


KARY_EXACT_LIMIT = 5
# the kept points grow about as resolution**1.5: 94,721 at 401, about 1e6 at 2001
FACT7_RESOLUTION_LIMIT = 2001
# Resolutions of at most this scan in pure Python, so that they load no
# numpy.  A cold import of numpy takes 130-150 ms.
PYTHON_RESOLUTION_LIMIT = 128
_BLOCK_SIDE = 64
# kept points per block of the gap evaluation: each float array stays at 128 KiB
_GAP_BLOCK = 1 << 14
# |slice|**3 reaches 27**n at r = 0, past the largest float from n = 216 on
SLICE_DEPTH_LIMIT = 215
SUPERSAT_DEPTH_LIMIT = 64
_FLOAT_TOLERANCE = 1e-9
_SAMPLE_SLICE = 1 << 15


def _size_minima(level: int) -> tuple[list[int], list[list[tuple[int, int, int]]]]:
    """m_l(s), the least e(X) over |X| = s in the depth-l host, for every s,
    by the host's split: m_l(s) = min over s0+s1+s2 = s of
    m_{l-1}(s0) + m_{l-1}(s1) + m_{l-1}(s2) + s0*s1*s2.  Also returns, per
    level, the block sizes (s0, s1, s2) that attain each minimum."""
    minima = [0, 0]
    choices: list[list[tuple[int, int, int]]] = []
    for _ in range(level):
        best = [-1] * (3 * len(minima) - 2)
        choice = [(0, 0, 0)] * len(best)
        for s0, m0 in enumerate(minima):
            for s1, m1 in enumerate(minima):
                for s2, m2 in enumerate(minima):
                    s, e = s0 + s1 + s2, m0 + m1 + m2 + s0 * s1 * s2
                    if best[s] < 0 or e < best[s]:
                        best[s], choice[s] = e, (s0, s1, s2)
        minima = best
        choices.append(choice)
    return minima, choices


def _extremal_subset(choices: list[list[tuple[int, int, int]]], level: int, size: int) -> list[int]:
    """The vertices of one X of the given size attaining m_level(size)."""
    if level == 0:
        return [0] if size else []
    block = 3 ** (level - 1)
    return [
        c * block + v
        for c, s in enumerate(choices[level - 1][size])
        for v in _extremal_subset(choices, level - 1, s)
    ]


def _split_counts(masks: np.ndarray, level: int) -> tuple[np.ndarray, np.ndarray]:
    """(e(X), |X|) for each mask X of the depth-level host, by the same
    split: the three first-digit blocks of X span s0*s1*s2 transversal
    edges, and each block holds its own edges one level down.  The
    recursion runs down to single vertices; the sampled audit calls it
    once, on every mask of one block, to build _table_counter's tables."""
    if level == 0:
        return masks & 0, masks
    block = 3 ** (level - 1)
    low = (1 << block) - 1
    counts, product, sizes = 0, 1, 0
    for c in range(3):
        e, s = _split_counts((masks >> (c * block)) & low, level - 1)
        counts, product, sizes = counts + e, product * s, sizes + s
    return counts + product, sizes


def _table_counter(level: int) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """A function giving (e(X), |X|) for int64 masks X of the depth-level
    host by the split with three table lookups per mask: _split_counts
    counts every mask of one first-digit block once, 2**(3**(level-1))
    entries (512 at level 3), and a mask's three blocks read their edges
    and sizes there."""
    import numpy as np

    block = 3 ** (level - 1)
    low = (1 << block) - 1
    edges, sizes = _split_counts(np.arange(low + 1, dtype=np.int64), level - 1)

    def count(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        counts, product, total = 0, 1, 0
        for c in range(3):
            part = (masks >> (c * block)) & low
            s = sizes[part]
            counts, product, total = counts + edges[part], product * s, total + s
        return counts + product, total

    return count


def audit_kary_subsets(
    level: int, mode: str = "exact", samples: int = 10**6, seed: int = 0
) -> SubsetAuditReport:
    """Check the per-subset edge floor inside the depth-level ternary host.

    The floor depends on |X| alone, so exact mode (level <= KARY_EXACT_LIMIT)
    covers all 2**(3**level) subsets through m_l(s) and lists one extremal
    subset for each size that falls below it.  Sampled mode (level <= 3,
    int64 masks) draws subsets uniformly, _SAMPLE_SLICE masks per draw, and
    counts each by the same split with three lookups into the tables of
    _table_counter.
    Expected outcome is an empty violation list; any violation is returned
    with its full arithmetic.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    violations: list[dict] = []
    if mode == "exact":
        if level > KARY_EXACT_LIMIT:
            raise ValueError(f"exact mode is limited to level <= {KARY_EXACT_LIMIT}")
        minima, choices = _size_minima(level)
        for size, edges in enumerate(minima):
            bound = density_floor(size, level)
            if edges < bound - _FLOAT_TOLERANCE:
                subset = _extremal_subset(choices, level, size)
                violations.append({"subset": subset, "size": size, "edges": edges, "bound": bound})
        return SubsetAuditReport(level, "exact", 2 ** (3**level), violations)

    if level > 3:
        raise ValueError("sampled mode draws int64 masks, so it is limited to level <= 3; use exact mode")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    import numpy as np

    n = 3**level
    floors = np.array([density_floor(size, level) for size in range(n + 1)])
    rng = np.random.default_rng(subseed(seed, f"subset-audit/{level}"))
    count = _table_counter(level)
    for start in range(0, samples, _SAMPLE_SLICE):
        masks = rng.integers(0, 1 << n, size=min(_SAMPLE_SLICE, samples - start), dtype=np.int64)
        counts, sizes = count(masks)
        for idx in np.nonzero(counts < floors[sizes] - _FLOAT_TOLERANCE)[0]:
            mask, size = int(masks[idx]), int(sizes[idx])
            violations.append({"subset": [v for v in range(n) if mask >> v & 1], "size": size,
                               "edges": int(counts[idx]), "bound": float(floors[size])})
    return SubsetAuditReport(level, "sampled", samples, violations, seed=seed)


class SliceStats(NamedTuple):
    """The slice {0,1}**r x {0,1,2}**(n-r) inside the depth-n host."""

    r: int
    n: int
    eta: float
    size: int
    edges: int
    bound: float
    ratio: float


def binary_prefix_slice(r: int, n: int) -> SliceStats:
    """Exact statistics of the slice confining the first r coordinates to
    {0, 1}: eta = (2/3)**r, edge count 2**r * (27**(n-r) - 3**(n-r)) / 24,
    and the leading-term ratio against eta**rho * |U|**3 / 24, which equals
    1 - 9**-(n-r)."""
    if not 0 <= r <= n <= SLICE_DEPTH_LIMIT:
        raise ValueError(f"need 0 <= r <= n <= {SLICE_DEPTH_LIMIT}")
    edges = 2**r * (27 ** (n - r) - 3 ** (n - r)) // 24
    size = 2**r * 3 ** (n - r)
    eta = (2.0 / 3.0) ** r
    leading = eta**RHO * size**3 / 24.0
    ratio = edges / leading
    return SliceStats(
        r=r,
        n=n,
        eta=eta,
        size=size,
        edges=edges,
        bound=density_floor(size, n),
        ratio=ratio,
    )


class SupersaturationReport(NamedTuple):
    vertices: int
    edges: int
    entries: list[tuple[int, int, float]]  # (depth, hom count, hom / (3**depth)**v)

    def to_dict(self) -> dict:
        return {
            "pattern": {"vertices": self.vertices, "edges": self.edges},
            "entries": [
                {"depth": d, "hom": hom, "ratio": ratio} for d, hom, ratio in self.entries
            ],
        }


def supersaturation_experiment(pattern: Hypergraph, n_max: int = 3) -> SupersaturationReport:
    """Exact homomorphism counts of the pattern into the depth-1..n_max
    hosts, by the hosts' recursion, with ratios hom / v(host)**v(pattern).

    The pattern must embed into some digit-string host, otherwise the
    positive-fraction behaviour has no reason to hold and the experiment
    refuses to run."""
    if not 1 <= n_max <= SUPERSAT_DEPTH_LIMIT:
        raise ValueError(f"n_max must lie in 1..{SUPERSAT_DEPTH_LIMIT}")
    if find_kary_embedding(pattern) is None:
        raise ValueError("pattern does not embed into any digit-string host")
    entries = []
    for depth, hom in enumerate(kary_hom_counts(pattern, n_max)[1:], start=1):
        ratio = hom / (pattern.k**depth) ** pattern.n
        if not 0.0 <= ratio <= 1.0:
            raise RuntimeError(f"hom ratio {ratio} at depth {depth} lies outside [0, 1]")
        entries.append((depth, hom, ratio))
    return SupersaturationReport(pattern.n, len(pattern.edges), entries)
