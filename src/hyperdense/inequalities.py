"""Numerical verification of the quantitative density estimates.

The exponent rho is the unique solution of (2/3)**rho = 1/4, and
tau = rho + 3 satisfies 2**(tau-1) = 3**(tau-3).  The central inequality

    x**tau + y**tau + z**tau + 24*x*y*z  >=  3**(3-tau) * (x + y + z)**tau

holds on the unit cube with equality at (1,1,0) and (1,1,1); the grid scan
here is a regression check of that floor, not a proof.  From it follows a
per-subset edge floor inside the depth-l ternary host,

    e(X) >= eta**rho / 4 * |X|**3 / 6 - 3/8 * 3**l,   eta = |X| / 3**l,

which the audit checks exhaustively (small l) or by sampling, and which
the binary-prefix slices {0,1}**r x {0,1,2}**(n-r) meet asymptotically
with ratio 1 - 9**-(n-r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .hypergraphs import Hypergraph, count_homomorphisms
from .seeding import subseed
from .ternary import build_kary, find_kary_embedding

if TYPE_CHECKING:
    import numpy as np

RHO = 2.0 / (math.log2(3.0) - 1.0)
TAU = RHO + 3.0


def inequality_gap(x: float, y: float, z: float) -> float:
    """Left minus right side of the cube inequality; nonnegative on [0,1]^3."""
    return x**TAU + y**TAU + z**TAU + 24.0 * x * y * z - 3.0 ** (3.0 - TAU) * (x + y + z) ** TAU


def scan_inequality(resolution: int) -> tuple[float, tuple[float, float, float]]:
    """Minimum of the gap over the uniform grid on [0,1]^3 (endpoints
    included) and a point attaining it."""
    import numpy as np

    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    grid = np.linspace(0.0, 1.0, resolution)
    scale = 3.0 ** (3.0 - TAU)
    Y, Z = np.meshgrid(grid, grid, indexing="ij")
    y_pow = Y**TAU
    z_pow = Z**TAU
    yz = Y * Z
    y_plus_z = Y + Z
    best = math.inf
    best_point = (0.0, 0.0, 0.0)
    for x in grid:
        gap = x**TAU + y_pow + z_pow + 24.0 * x * yz - scale * (x + y_plus_z) ** TAU
        flat = int(np.argmin(gap))
        value = float(gap.flat[flat])
        if value < best:
            best = value
            best_point = (float(x), float(grid[flat // resolution]), float(grid[flat % resolution]))
    return best, best_point


@dataclass
class SubsetAuditReport:
    level: int
    mode: str
    examined: int
    violations: list[dict]
    seed: int | None = None

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "mode": self.mode,
            "examined": self.examined,
            "violations": self.violations,
            "seed": self.seed,
        }


def density_floor(size: int, level: int) -> float:
    """The proven lower bound on e(X) for |X| = size inside the depth-level host."""
    eta = size / 3**level
    return 0.25 * eta**RHO * size**3 / 6.0 - 0.375 * 3**level


_EXACT_DEFAULT_LEVEL = 2
_FLOAT_TOLERANCE = 1e-9


def audit_kary_subsets(
    level: int,
    mode: str = "exact",
    samples: int = 10**6,
    seed: int = 0,
    allow_large: bool = False,
    batch: int = 1 << 18,
) -> SubsetAuditReport:
    """Check the per-subset edge floor inside the depth-level ternary host.

    Exact mode enumerates all 2**(3**level) subsets (level 3 only behind
    allow_large; that is 2**27 subsets).  Sampled mode draws subsets
    uniformly.  Expected outcome is an empty violation list; any violation
    is returned with its full arithmetic.
    """
    import numpy as np

    if level < 1:
        raise ValueError("level must be >= 1")
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact" and level > _EXACT_DEFAULT_LEVEL and not allow_large:
        raise ValueError(
            f"exact mode above level {_EXACT_DEFAULT_LEVEL} enumerates 2**{3**level}"
            " subsets; pass allow_large=True to run it anyway"
        )
    host = build_kary(3, level, max_vertices=3**level)
    n = host.n
    edge_masks = np.array(
        [sum(1 << v for v in e) for e in host.edges], dtype=np.int64
    )
    three_l = 3**level

    violations: list[dict] = []
    examined = 0

    def check_block(masks: np.ndarray) -> None:
        nonlocal examined
        examined += len(masks)
        counts = np.zeros(len(masks), dtype=np.int64)
        for em in edge_masks:
            counts += (masks & em) == em
        sizes = np.bitwise_count(masks.astype(np.uint64)).astype(np.int64)
        eta = sizes / three_l
        bound = 0.25 * eta**RHO * sizes.astype(float) ** 3 / 6.0 - 0.375 * three_l
        bad = counts < bound - _FLOAT_TOLERANCE
        for idx in np.nonzero(bad)[0]:
            mask = int(masks[idx])
            violations.append(
                {
                    "subset": [v for v in range(n) if mask >> v & 1],
                    "size": int(sizes[idx]),
                    "edges": int(counts[idx]),
                    "bound": float(bound[idx]),
                }
            )

    if mode == "exact":
        total = 1 << n
        start = 0
        while start < total:
            stop = min(start + batch, total)
            check_block(np.arange(start, stop, dtype=np.int64))
            start = stop
        return SubsetAuditReport(level, "exact", examined, violations)

    rng = np.random.default_rng(subseed(seed, f"subset-audit/{level}"))
    remaining = samples
    while remaining > 0:
        take = min(batch, remaining)
        masks = rng.integers(0, 1 << n, size=take, dtype=np.int64)
        check_block(masks)
        remaining -= take
    return SubsetAuditReport(level, "sampled", examined, violations, seed=seed)


@dataclass(frozen=True)
class SliceStats:
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
    if r < 0 or n < 0 or r > n:
        raise ValueError("need 0 <= r <= n")
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


@dataclass
class SupersaturationReport:
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


def supersaturation_experiment(
    pattern: Hypergraph, n_max: int = 3, max_vertices: int = 256
) -> SupersaturationReport:
    """Exact homomorphism counts of the pattern into the depth-1..n_max
    hosts, with ratios hom / v(host)**v(pattern).

    The pattern must embed into some digit-string host, otherwise the
    positive-fraction behaviour has no reason to hold and the experiment
    refuses to run."""
    if find_kary_embedding(pattern) is None:
        raise ValueError("pattern does not embed into any digit-string host")
    entries = []
    for depth in range(1, n_max + 1):
        host = build_kary(pattern.k, depth, max_vertices=max_vertices)
        hom = count_homomorphisms(pattern, host)
        ratio = hom / host.n**pattern.n if pattern.n else 1.0
        if not 0.0 <= ratio <= 1.0:
            raise RuntimeError(f"hom ratio {ratio} at depth {depth} lies outside [0, 1]")
        entries.append((depth, hom, ratio))
    return SupersaturationReport(pattern.n, len(pattern.edges), entries)
