"""References for the cube-inequality grid scan in ``hyperdense.inequalities``.

``grid_scan`` is the scan the library used before it pruned the grid with
the box bound: it evaluates the gap at every grid point, one x-slice at a
time, and keeps the first minimum of each slice unless an earlier slice
was strictly lower, so it returns the lexicographically least argmin.
``grid_gaps`` stacks the same slices into the whole r x r x r array of gaps.
"""

from __future__ import annotations

import math

import numpy as np

from hyperdense.inequalities import TAU


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
