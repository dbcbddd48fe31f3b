"""Deterministic seed derivation.

Every randomized routine takes one master seed and derives per-subtask
generators through a labelled splitter, so results are reproducible and
independent of scheduling or restart count.
"""

from __future__ import annotations

import random


def subseed(seed: int, label: str) -> int:
    """64-bit child seed for (master seed, label), stable across platforms.
    hashlib loads with the first seed drawn, not with this module."""
    import hashlib

    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(seed: int, label: str) -> random.Random:
    return random.Random(subseed(seed, label))
