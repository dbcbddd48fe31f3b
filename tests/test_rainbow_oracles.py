"""The rainbow-ordering decider and the pattern host against their references.

The library's search fixes face colours at placement, memoises failed
prefixes and rejects a prefix once a face colour is too low for its rank;
the reference checks each edge only once it is complete.  Both must return
the very same witness, ordering and colours, or both None.  Patterns cover
every labelled 3-graph on 5 vertices and random 3-, 4- and 5-graphs on up
to 8 vertices, drawn edgeless, complete or with isolated vertices often.
At sizes the reference cannot reach, the search before the rank bound
(``memo_ordering``) is the reference, and the bound must cut the number of
inner search calls.  The pattern host built from colour bitmasks must have
the reference's edge tuple, at the sizes the benchmark and the acceptance
tests build.
"""

import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdense import Hypergraph, enumerate_hypergraphs, find_rainbow_ordering, verify_rainbow_colouring
from hyperdense.rainbow import PairColouring, build_pattern_host, random_pair_colouring
from hyperdense.seeding import derive_rng
from rainbow_oracles import build_pattern_host as reference_host
from rainbow_oracles import find_rainbow_ordering as reference_ordering
from rainbow_oracles import memo_ordering

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


def search_calls(decider, patterns):
    """Calls of the decider's inner ``search`` recursion over the patterns,
    counted from profiler call events; the decider's results are unchanged."""
    inner = next(c for c in decider.__code__.co_consts if getattr(c, "co_name", None) == "search")
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is inner:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for pattern in patterns:
            decider(pattern)
    finally:
        sys.setprofile(previous)
    return calls


def test_rank_bound_cuts_the_search_on_every_labelled_3_graph_on_5_vertices():
    patterns = list(enumerate_hypergraphs(3, 5))
    calls = search_calls(find_rainbow_ordering, patterns)
    before = search_calls(memo_ordering, patterns)
    assert before == 27598
    assert calls == 9102
    assert calls < before


@st.composite
def patterns(draw):
    k = draw(st.sampled_from([3, 4, 5]))
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


def random_pattern(k, n, p, seed):
    rng = derive_rng(seed, f"rainbow-pattern/{k}/{n}/{p}")
    return Hypergraph.from_edges(k, n, [e for e in combinations(range(n), k) if rng.random() < p])


@pytest.mark.parametrize("k,n", [(3, 9), (3, 10), (3, 11), (3, 12), (4, 7), (4, 8), (4, 9), (5, 7), (5, 8), (5, 9)])
def test_matches_memo_search_on_random_patterns(k, n):
    """Sizes the complete-edge reference cannot reach; for k >= 4 the rank
    bound fires at several face counts below k - 1."""
    found = 0
    for p in (0.05, 0.1, 0.2, 0.3):
        for seed in range(3):
            pattern = random_pattern(k, n, p, seed)
            got = find_rainbow_ordering(pattern)
            assert same_witness(got, memo_ordering(pattern)), (p, seed)
            if got is not None:
                assert verify_rainbow_colouring(pattern, got)
                found += 1
    assert 0 < found < 12  # both verdicts occur


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
