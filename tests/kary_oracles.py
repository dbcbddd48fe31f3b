"""Host-building references for the digit-string recursions.

``edge_mask_counts`` is the counter the sampled subset audit used before it
counted by the host's split: it builds the depth-level ternary host and
tests every mask against each edge mask.  ``size_minima`` scans all
2**(3**level) subsets of that host for the least edge count at each size.
"""

from __future__ import annotations

import numpy as np

from hyperdense.ternary import build_kary


def edge_mask_counts(masks: np.ndarray, level: int) -> np.ndarray:
    """e(X) for each int64 mask X, counted edge by edge in the built host."""
    host = build_kary(3, level)
    counts = np.zeros(len(masks), dtype=np.int64)
    for e in host.edges:
        em = sum(1 << v for v in e)
        counts += (masks & em) == em
    return counts


def size_minima(level: int) -> list[int]:
    """The least e(X) over the subsets X of each size, by a full scan."""
    n = 3**level
    masks = np.arange(1 << n, dtype=np.int64)
    counts = edge_mask_counts(masks, level)
    sizes = np.bitwise_count(masks)
    return [int(counts[sizes == s].min()) for s in range(n + 1)]
