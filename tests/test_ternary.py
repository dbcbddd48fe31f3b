from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperdense import (
    Hypergraph,
    build_kary,
    contains_copy,
    enumerate_hypergraphs,
    find_rainbow_ordering,
    find_kary_embedding,
    is_frequent,
    kary_edge,
    kary_edge_count,
    verify_kary_embedding,
)
from hyperdense.ternary import KARY_EDGE_LIMIT, EmbeddingWitness, embedding_to_dict

from kary_oracles import vector_of


# --- the edge rule -------------------------------------------------------------


def test_kary_edge_rule_examples():
    assert kary_edge(3, [(0, 0), (1, 1), (2, 2)])
    assert kary_edge(3, [(0, 0), (0, 1), (0, 2)])
    assert not kary_edge(3, [(0, 0), (1, 0), (1, 1)])


def test_kary_edge_errors():
    with pytest.raises(ValueError):
        kary_edge(3, [(0,), (1,)])                      # wrong arity
    with pytest.raises(ValueError):
        kary_edge(3, [(0, 0), (1,), (2, 2)])            # unequal lengths
    with pytest.raises(ValueError):
        kary_edge(3, [(0, 0), (0, 0), (1, 2)])          # duplicates
    with pytest.raises(ValueError):
        kary_edge(3, [(0, 3), (1, 0), (2, 0)])          # digit out of range


@given(st.permutations([(0, 0), (0, 1), (0, 2)]))
def test_kary_edge_order_invariant(vectors):
    assert kary_edge(3, vectors)


# --- explicit hosts -------------------------------------------------------------


@pytest.mark.parametrize("n,edges", [(1, 1), (2, 30), (3, 819)])
def test_host_edge_counts(n, edges):
    host = build_kary(3, n)
    assert host.n == 3**n
    assert len(host.edges) == edges == kary_edge_count(3, n)
    assert edges == (27**n - 3**n) // 24


@pytest.mark.parametrize("n", [1, 2])
def test_host_matches_direct_rule(n):
    # independent construction straight from the edge rule
    host = build_kary(3, n)
    vectors = [vector_of(i, 3, n) for i in range(3**n)]
    direct = {
        trio
        for trio in combinations(range(3**n), 3)
        if kary_edge(3, [vectors[v] for v in trio])
    }
    assert host.edge_set == frozenset(direct)


def test_host_size_limit():
    with pytest.raises(ValueError):
        build_kary(3, 6)  # 729 vertices > default 256


@pytest.mark.parametrize("k, n", [(4, 4), (16, 2)])
def test_host_edge_limit(k, n):
    # 256 vertices each, but 1.7e7 and 1.8e19 edges: refused before building
    with pytest.raises(ValueError, match=f"has {kary_edge_count(k, n)} edges, past the explicit-size limit {KARY_EDGE_LIMIT}"):
        build_kary(k, n)
    assert kary_edge_count(3, 5) <= KARY_EDGE_LIMIT


def test_edge_count_recurrence():
    for k in (3, 4):
        assert kary_edge_count(k, 0) == 0
        prev = 0
        for n in range(1, 5):
            prev = k * prev + k ** (k * (n - 1))
            assert kary_edge_count(k, n) == prev


def test_first_coordinate_blocks_are_smaller_hosts():
    for n in (1, 2, 3):
        host = build_kary(3, n)
        block = 3 ** (n - 1)
        smaller = build_kary(3, n - 1)
        for c in range(3):
            verts = range(c * block, (c + 1) * block)
            inner = {
                tuple(v - c * block for v in e)
                for e in host.edges
                if all(v in verts for v in e)
            }
            assert inner == set(smaller.edges)


# --- the embedding decider -------------------------------------------------------


def test_edgeless_patterns_embed():
    for f in (0, 1, 2, 5):
        pattern = Hypergraph(3, f, ())
        w = find_kary_embedding(pattern)
        assert w is not None
        assert verify_kary_embedding(pattern, w)
        assert w.length <= f


def test_single_edge_embeds(single_edge):
    w = find_kary_embedding(single_edge)
    assert w is not None and w.length == 1
    assert verify_kary_embedding(single_edge, w)
    assert is_frequent(single_edge)


def test_k4_does_not_embed(k4):
    assert find_kary_embedding(k4) is None
    assert not is_frequent(k4)
    assert contains_copy(k4, build_kary(3, 4)) is None


def test_c5_minus_does_not_embed(c5_minus):
    # confirmed once against an exhaustive search inside the depth-5 host
    assert find_kary_embedding(c5_minus) is None


def test_tight_path_embeds(tight_path4):
    w = find_kary_embedding(tight_path4)
    assert w is not None and verify_kary_embedding(tight_path4, w)


def test_decider_agrees_with_containment_on_all_4_vertex_patterns():
    host = build_kary(3, 4)
    for pattern in enumerate_hypergraphs(3, 4):
        decided = find_kary_embedding(pattern) is not None
        direct = contains_copy(pattern, host) is not None
        assert decided == direct


def test_witnesses_are_uniform_length_and_bounded():
    for pattern in enumerate_hypergraphs(3, 4):
        w = find_kary_embedding(pattern)
        if w is None:
            continue
        lengths = {len(vec) for vec in w.mapping.values()}
        assert lengths in (set(), {w.length})
        assert w.length <= pattern.n
        assert verify_kary_embedding(pattern, w)


def test_frequent_implies_orderable_f4():
    for pattern in enumerate_hypergraphs(3, 4):
        if is_frequent(pattern):
            assert find_rainbow_ordering(pattern) is not None


def test_k4_uniform_decider_agrees_with_containment():
    host = build_kary(4, 2)
    assert host.n == 16 and len(host.edges) == 260 == kary_edge_count(4, 2)
    single = Hypergraph(4, 4, ((0, 1, 2, 3),))
    k5 = Hypergraph(4, 5, tuple(combinations(range(5), 4)))
    pair = Hypergraph.from_edges(4, 5, [(0, 1, 2, 3), (0, 1, 2, 4)])
    for pattern in (single, k5, pair):
        decided = find_kary_embedding(pattern)
        assert (decided is not None) == (contains_copy(pattern, host) is not None)
        if decided is not None:
            assert verify_kary_embedding(pattern, decided)
    assert not is_frequent(k5)


def test_requires_uniformity_three():
    with pytest.raises(ValueError):
        find_kary_embedding(Hypergraph(2, 3, ((0, 1),)))


# --- the witness verifier --------------------------------------------------------


def test_verifier_accepts_direct_map(single_edge):
    w = EmbeddingWitness(3, 1, {0: (0,), 1: (1,), 2: (2,)})
    assert verify_kary_embedding(single_edge, w)


def test_verifier_rejects_non_injective(single_edge):
    w = EmbeddingWitness(3, 1, {0: (0,), 1: (1,), 2: (1,)})
    assert not verify_kary_embedding(single_edge, w)


def test_verifier_rejects_broken_edge(tight_path4):
    w = EmbeddingWitness(3, 2, {0: (0, 0), 1: (0, 1), 2: (0, 2), 3: (1, 0)})
    # edge (1,2,3) maps to strings whose first split is {0,0,1}: not an edge
    assert not verify_kary_embedding(tight_path4, w)


def test_embedding_dict_digit_strings(tight_path4):
    w = find_kary_embedding(tight_path4)
    data = embedding_to_dict(w)
    assert data["length"] == w.length
    assert set(data["map"]) == {"0", "1", "2", "3"}
    assert all(len(s) == w.length for s in data["map"].values())
