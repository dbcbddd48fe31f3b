"""The digit-string host's recursions against the built host.

The subset audit's split counter and its size minima must equal counts
taken edge by edge in ``build_kary(3, level)``, and ``kary_hom_counts`` at
each depth must equal ``count_homomorphisms`` into the built host.
Patterns include the empty one, isolated vertices, and patterns that embed
into no digit-string host.
"""

from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kary_oracles import edge_mask_counts, size_minima
from hyperdense import Hypergraph, count_homomorphisms, induced_edge_count
from hyperdense.inequalities import _extremal_subset, _size_minima, _split_counts
from hyperdense.ternary import build_kary, kary_hom_counts

ORACLE_SETTINGS = settings(max_examples=100, deadline=None)


@ORACLE_SETTINGS
@given(st.integers(1, 3).flatmap(
    lambda level: st.tuples(st.just(level), st.lists(st.integers(0, (1 << 3**level) - 1), min_size=1, max_size=64))
))
def test_split_counts_match_edge_masks(case):
    level, drawn = case
    masks = np.array(drawn, dtype=np.int64)
    counts, sizes = _split_counts(masks, level)
    assert counts.tolist() == edge_mask_counts(masks, level).tolist()
    assert sizes.tolist() == [bin(m).count("1") for m in drawn]


def test_size_minima_match_full_scan():
    for level in (1, 2):
        assert _size_minima(level)[0] == size_minima(level)


def test_extremal_subsets_recount_to_their_minimum():
    host = build_kary(3, 3)
    minima, choices = _size_minima(3)
    for size, minimum in enumerate(minima):
        subset = _extremal_subset(choices, 3, size)
        assert len(set(subset)) == len(subset) == size
        assert all(0 <= v < 27 for v in subset)
        assert induced_edge_count(host, subset) == minimum


@st.composite
def pattern_and_depth(draw):
    k = draw(st.sampled_from([3, 4]))
    n = draw(st.integers(0, 6) | st.integers(k, 6))
    # Short edge lists leave vertices isolated; long ones give patterns
    # that embed into no digit-string host.
    edges = draw(st.lists(st.sampled_from(list(combinations(range(n), k)) or [None]), max_size=8))
    pattern = Hypergraph.from_edges(k, n, [e for e in edges if e is not None])
    return pattern, draw(st.integers(0, 3 if k == 3 else 2))


@ORACLE_SETTINGS
@given(pattern_and_depth())
def test_kary_hom_count_matches_built_host(case):
    pattern, depth = case
    assert kary_hom_counts(pattern, depth)[depth] == count_homomorphisms(pattern, build_kary(pattern.k, depth))
