"""The rainbow-ordering decider against its backtracking reference.

The library's search fixes face colours at placement and memoises failed
prefixes; the reference checks each edge only once it is complete.  Both
must return the very same witness, ordering and colours, or both None.
Patterns cover every labelled 3-graph on 5 vertices and random 3- and
4-graphs on up to 8 vertices, drawn edgeless, complete or with isolated
vertices often.
"""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdense import Hypergraph, enumerate_hypergraphs, find_rainbow_ordering, verify_rainbow_colouring
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
