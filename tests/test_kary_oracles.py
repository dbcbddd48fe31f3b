"""The digit-string host's recursions against the built host.

``build_kary`` must emit the very edge tuple of the recursive builder that
sorts every level.

The subset audit's split counter, its lookup-table counter and its size
minima must equal counts taken edge by edge in ``build_kary(3, level)``,
and the sampled audit must list the violations of the recursive audit it
replaced, in the same order, when a raised floor makes many subsets
violate it.  ``kary_hom_counts`` at
each depth must equal ``count_homomorphisms`` into the built host.
Patterns include the empty one, isolated vertices, and patterns that embed
into no digit-string host.  The propagated split enumeration must list the
reference's splits in the reference's order on every vertex subset.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kary_oracles import edge_mask_counts, recursive_build_kary, recursive_sampled_audit, size_minima, splits
from hyperdense import Hypergraph, audit_kary_subsets, count_homomorphisms, enumerate_hypergraphs, induced_edge_count
from hyperdense import inequalities
from hyperdense.inequalities import _extremal_subset, _size_minima, _split_counts, _table_counter
from hyperdense.seeding import derive_rng
from hyperdense.ternary import _splits, build_kary, kary_hom_counts

ORACLE_SETTINGS = settings(max_examples=100, deadline=None)


@pytest.mark.parametrize("k, n", [(3, n) for n in range(5)] + [(4, n) for n in range(4)]
                         + [(2, n) for n in range(7)])
def test_build_kary_emits_the_sorted_edges_of_the_recursive_builder(k, n):
    assert build_kary(k, n).edges == recursive_build_kary(k, n).edges


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


@ORACLE_SETTINGS
@given(st.integers(1, 3).flatmap(
    lambda level: st.tuples(st.just(level), st.lists(st.integers(0, (1 << 3**level) - 1), min_size=1, max_size=64))
))
def test_table_counts_match_edge_masks_and_split_counts(case):
    level, drawn = case
    masks = np.array(drawn, dtype=np.int64)
    counts, sizes = _table_counter(level)(masks)
    assert counts.tolist() == edge_mask_counts(masks, level).tolist()
    split_counts, split_sizes = _split_counts(masks, level)
    assert counts.tolist() == split_counts.tolist()
    assert sizes.tolist() == split_sizes.tolist()


# 40,000 samples take two draws of the random stream, the second one short
@pytest.mark.parametrize("level, samples, violating", [(1, 3000, 363), (2, 3000, 888), (3, 3000, 11),
                                                       (2, 40_000, 11_540)])
def test_sampled_audit_lists_the_recursive_audits_violations(monkeypatch, level, samples, violating):
    # a floor raised by s**2 / 4 puts many drawn subsets below it at every level
    real_floor = inequalities.density_floor
    monkeypatch.setattr(inequalities, "density_floor", lambda size, lvl: real_floor(size, lvl) + size * size / 4)
    report = audit_kary_subsets(level, mode="sampled", samples=samples, seed=7)
    assert len(report.violations) == violating
    assert report.to_dict() == recursive_sampled_audit(level, samples, 7).to_dict()


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


def all_subsets(n):
    return [vs for r in range(n + 1) for vs in combinations(range(n), r)]


def test_splits_match_reference_on_every_labelled_3_graph_on_5_vertices():
    subsets = all_subsets(5)
    nonempty = 0
    for pattern in enumerate_hypergraphs(3, 5):
        for vs in subsets:
            got = list(_splits(pattern, vs))
            assert got == list(splits(pattern, vs)), (pattern.edges, vs)
            nonempty += bool(got)
    assert nonempty > len(subsets) * 1024 // 2


def random_pattern(k, n, p, label):
    rng = derive_rng(11, f"splits/{label}")
    return Hypergraph(k, n, tuple(e for e in combinations(range(n), k) if rng.random() < p))


SPLIT_PATTERNS = {
    "tight-path-8": Hypergraph(3, 8, tuple((i, i + 1, i + 2) for i in range(6))),
    "loose-cycle-8": Hypergraph.from_edges(3, 8, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 0)]),
    "random-8-sparse": random_pattern(3, 8, 0.1, "3/8/a"),
    "random-8-dense": random_pattern(3, 8, 0.3, "3/8/b"),
    "k4-tight-path-7": Hypergraph(4, 7, tuple(tuple(range(i, i + 4)) for i in range(4))),
    "k4-random-7": random_pattern(4, 7, 0.15, "4/7"),
    "k5-random-7": random_pattern(5, 7, 0.2, "5/7"),
    "graph-6": random_pattern(2, 6, 0.4, "2/6"),
}


@pytest.mark.parametrize("name", SPLIT_PATTERNS)
def test_splits_match_reference_on_larger_patterns(name):
    pattern = SPLIT_PATTERNS[name]
    for vs in all_subsets(pattern.n):
        assert list(_splits(pattern, vs)) == list(splits(pattern, vs)), vs
