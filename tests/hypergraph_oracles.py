"""Reference validation for ``Hypergraph``.

``canonical_form_error`` is the per-edge loop that ``Hypergraph`` ran on
every construction before it checked the four conditions of canonical
form in one pass each.  The loop now runs only to word the error, and the
tests require both paths to accept and reject the same edge lists with
the same message.
"""

from __future__ import annotations

from typing import Optional


def canonical_form_error(k: int, n: int, edges: tuple) -> Optional[str]:
    """The message the loop raised for edges, or None if it accepted them."""
    prev = None
    for e in edges:
        if len(e) != k:
            return f"edge {e} does not have {k} vertices"
        if any(v < 0 or v >= n for v in e):
            return f"edge {e} has a vertex outside [0, {n})"
        if any(e[i] >= e[i + 1] for i in range(len(e) - 1)):
            return f"edge {e} is not strictly increasing"
        if prev is not None and e <= prev:
            return "edge list is not in canonical sorted order"
        prev = e
    return None
