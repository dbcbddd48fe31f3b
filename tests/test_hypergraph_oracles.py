"""The pattern-map kernel against its backtracking references.

Homomorphism and embedding counts must equal the leaf-per-map counter
exactly, and ``contains_copy`` must return the very witness of the old
containment search.  Patterns have up to 6 vertices, including none and
isolated ones; hosts are empty, complete, random, or the digit-string
hosts of depth at most 2.
"""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from backtrack_oracles import count_maps, first_copy, naive_contains_copy
from hyperdense import Hypergraph, contains_copy, count_embeddings, count_homomorphisms, is_embedding
from hyperdense.ternary import build_kary

ORACLE_SETTINGS = settings(max_examples=150, deadline=None)


def random_edges(draw, k, n):
    candidates = list(combinations(range(n), k))
    keep = draw(st.lists(st.booleans(), min_size=len(candidates), max_size=len(candidates)))
    return [e for e, kept in zip(candidates, keep) if kept]


@st.composite
def pattern_and_host(draw):
    k = draw(st.sampled_from([3, 4]))
    n = draw(st.integers(0, 6) | st.integers(k, 6))
    # A short edge list leaves vertices isolated and gives patterns with maps.
    edges = draw(st.lists(st.sampled_from(list(combinations(range(n), k)) or [None]), max_size=6))
    pattern = Hypergraph.from_edges(k, n, [e for e in edges if e is not None])
    kind = draw(st.sampled_from(["empty", "complete", "random", "kary"] if k == 3 else ["empty", "complete", "random"]))
    if kind == "kary":
        return pattern, build_kary(3, draw(st.integers(0, 2)))
    m = draw(st.integers(0, 8) | st.integers(k + 1, 8))
    if kind == "empty":
        return pattern, Hypergraph(k, m, ())
    if kind == "complete":
        return pattern, Hypergraph(k, m, tuple(combinations(range(m), k)))
    return pattern, Hypergraph.from_edges(k, m, random_edges(draw, k, m))


@ORACLE_SETTINGS
@given(pattern_and_host())
def test_count_homomorphisms_matches_backtracking(pair):
    pattern, host = pair
    assert count_homomorphisms(pattern, host) == count_maps(pattern, host, injective=False)


@ORACLE_SETTINGS
@given(pattern_and_host())
def test_count_embeddings_matches_backtracking(pair):
    pattern, host = pair
    assert count_embeddings(pattern, host) == count_maps(pattern, host, injective=True)


@ORACLE_SETTINGS
@given(pattern_and_host())
def test_contains_copy_returns_the_backtracking_witness(pair):
    pattern, host = pair
    witness, reference = contains_copy(pattern, host), first_copy(pattern, host)
    if reference is None:
        assert witness is None
        if host.n <= 8:
            assert not naive_contains_copy(pattern, host)
    else:
        assert list(witness.mapping.items()) == list(reference.mapping.items())
        assert witness.injective and is_embedding(pattern, host, witness.mapping)
