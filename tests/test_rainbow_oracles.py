"""The rainbow-ordering decider and the pattern host against their references.

The library's search fixes face colours at placement and memoises failed
prefixes; the reference checks each edge only once it is complete.  Both
must return the very same witness, ordering and colours, or both None.
Patterns cover every labelled 3-graph on 5 vertices and random 3- and
4-graphs on up to 8 vertices, drawn edgeless, complete or with isolated
vertices often.  The pattern host built from colour bitmasks must have the
reference's edge tuple, at the sizes the benchmark and the acceptance
tests build.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdense import Hypergraph, enumerate_hypergraphs, find_rainbow_ordering, verify_rainbow_colouring
from hyperdense.rainbow import PairColouring, build_pattern_host, random_pair_colouring
from hyperdense.seeding import derive_rng
from rainbow_oracles import build_pattern_host as reference_host
from rainbow_oracles import find_rainbow_ordering as reference_ordering

ORACLE_SETTINGS = settings(max_examples=150, deadline=None)


def same_witness(got, want):
    if want is None:
        return got is None
    return got is not None and (got.order, got.colours) == (want.order, want.colours)


def test_matches_reference_on_every_labelled_3_graph_on_5_vertices():
    found = 0
    for pattern in enumerate_hypergraphs(3, 5):
        got = find_rainbow_ordering(pattern)
        assert same_witness(got, reference_ordering(pattern)), pattern.edges
        found += got is not None
    assert found == 241  # orderable, frequent or not, as the f = 5 sweep reports


@st.composite
def patterns(draw):
    k = draw(st.sampled_from([3, 4]))
    n = draw(st.integers(0, 8))
    candidates = list(combinations(range(n), k))
    kind = draw(st.sampled_from(["edgeless", "complete", "isolated", "random"]))
    if kind == "edgeless":
        return Hypergraph(k, n, ())
    if kind == "complete":
        return Hypergraph(k, n, tuple(candidates))
    # A short edge list keeps many patterns orderable.
    edges = draw(st.lists(st.sampled_from(candidates), max_size=2 * n)) if candidates else []
    if kind == "isolated" and n:
        lonely = draw(st.sets(st.integers(0, n - 1), min_size=1))
        edges = [e for e in edges if lonely.isdisjoint(e)]
    return Hypergraph.from_edges(k, n, edges)


@ORACLE_SETTINGS
@given(patterns())
def test_matches_reference_on_random_patterns(pattern):
    got = find_rainbow_ordering(pattern)
    assert same_witness(got, reference_ordering(pattern))
    if got is not None:
        assert verify_rainbow_colouring(pattern, got)


@pytest.mark.parametrize("k,n,seeds", [
    (2, 10, range(3)), (3, 20, range(10)), (3, 60, range(3)), (4, 12, range(10)), (5, 9, range(3)),
])
def test_pattern_host_matches_reference_on_random_colourings(k, n, seeds):
    for seed in seeds:
        phi = random_pair_colouring(n, k, seed)
        assert build_pattern_host(phi).edges == reference_host(phi).edges, seed


def planted_colouring(k, n, seed):
    """Colours forced by a random set of k-sets, first set first, so that
    many k-sets match the position pattern; the other faces are random."""
    rng = derive_rng(seed, f"planted-colouring/{k}/{n}")
    colours = {}
    for e in combinations(range(n), k):
        if rng.random() < 0.2:
            for ell in range(k):
                colours.setdefault(e[:ell] + e[ell + 1:], ell + 1)
    for face in combinations(range(n), k - 1):
        colours.setdefault(face, rng.randint(1, k))
    return PairColouring(k, n, colours)


@pytest.mark.parametrize("k,n", [(3, 20), (4, 12), (5, 9)])
def test_pattern_host_matches_reference_on_planted_colourings(k, n):
    for seed in range(3):
        phi = planted_colouring(k, n, seed)
        edges = build_pattern_host(phi).edges
        assert len(edges) >= k
        assert edges == reference_host(phi).edges, seed
