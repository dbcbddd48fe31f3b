"""References for the cube-inequality grid scan in ``hyperdense.inequalities``.

``grid_scan`` is the scan the library used before it pruned the grid with
the box bound: it evaluates the gap at every grid point, one x-slice at a
time, and keeps the first minimum of each slice unless an earlier slice
was strictly lower, so it returns the lexicographically least argmin.
``grid_gaps`` stacks the same slices into the whole r x r x r array of gaps.
``sorted_scan`` is the pruned scan as it ran before it evaluated the kept
points in blocks: int32 block indices, the kept points sorted
lexicographically, every gap at once and the first argmin.  It needs no
full grid, so it checks resolutions up to the scan's limit.
"""

from __future__ import annotations

import math

import numpy as np

from hyperdense.inequalities import _BLOCK_SIDE, _FLOAT_TOLERANCE, TAU, _point_gaps


def grid_scan(resolution: int) -> tuple[float, tuple[float, float, float]]:
    """Minimum of the gap over the uniform grid on [0,1]^3 (endpoints
    included) and a point attaining it."""
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


def grid_gaps(resolution: int) -> np.ndarray:
    """The gap at every grid point, indexed [i, j, k], computed slice by
    slice exactly as ``grid_scan`` computes it."""
    grid = np.linspace(0.0, 1.0, resolution)
    scale = 3.0 ** (3.0 - TAU)
    Y, Z = np.meshgrid(grid, grid, indexing="ij")
    y_pow = Y**TAU
    z_pow = Z**TAU
    yz = Y * Z
    y_plus_z = Y + Z
    return np.stack([x**TAU + y_pow + z_pow + 24.0 * x * yz - scale * (x + y_plus_z) ** TAU
                     for x in grid])


def sorted_scan(resolution: int) -> tuple[float, tuple[float, float, float]]:
    """The minimum over the points whose box bound may reach
    _FLOAT_TOLERANCE, and the lexicographically least point attaining it."""
    grid = np.linspace(0.0, 1.0, resolution)
    scale = 3.0 ** (3.0 - TAU)
    children = np.indices((2, 2, 2), dtype=np.int32).reshape(3, 8, 1)
    side = _BLOCK_SIDE
    blocks = np.indices((-(-resolution // side),) * 3, dtype=np.int32).reshape(3, -1)
    while side > 1:
        starts = np.arange(0, resolution, side)
        lo, hi = grid[starts], grid[np.minimum(starts + side, resolution) - 1]
        lo_pow = lo**TAU
        x, y, z = blocks
        bound = (lo_pow[x] + lo_pow[y] + lo_pow[z] + 24.0 * lo[x] * lo[y] * lo[z]
                 - scale * (hi[x] + hi[y] + hi[z]) ** TAU)
        side //= 2
        blocks = (2 * blocks[:, None, bound <= _FLOAT_TOLERANCE] + children).reshape(3, -1)
        blocks = blocks[:, (blocks * side < resolution).all(axis=0)]
    i, j, k = blocks[:, np.lexsort(blocks[::-1])]
    gaps = _point_gaps(grid, i, j, k)
    best = int(np.argmin(gaps))
    return float(gaps[best]), (float(grid[i[best]]), float(grid[j[best]]), float(grid[k[best]]))
