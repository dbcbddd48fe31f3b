"""The pattern-map kernel against its backtracking references.

Homomorphism and embedding counts must equal the leaf-per-map counter
exactly, and ``contains_copy`` must return the very witness of the old
containment search.  Patterns have up to 6 vertices, including none and
isolated ones; hosts are empty, complete, random, or the digit-string
hosts of depth at most 2.  Fixed 4-uniform cases, where a host's faces
are triples rather than pairs, check the pair filter's neighbourhoods.

The tensor contraction must equal the search on every small host, and
``count_homomorphisms`` must fall back to the search at each edge of its
window: the tensor's cell count against the floor, the einsum steps' work
against the cap, and n**v against 2**63.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backtrack_oracles import count_maps, first_copy, naive_contains_copy
from hyperdense import (
    Hypergraph, complete_hypergraph, contains_copy, count_embeddings, count_homomorphisms, is_embedding,
)
from hyperdense import hypergraphs
from hyperdense.hypergraphs import _closing_edges, _count_maps, _pair_checks, _search_order
from hyperdense.seeding import derive_rng
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


def random_host(k, n, p, label):
    rng = derive_rng(5, f"oracle-host/{label}")
    return Hypergraph(k, n, tuple(e for e in combinations(range(n), k) if rng.random() < p))


K4_HOSTS = {
    "random-9": random_host(4, 9, 0.3, "4/9"),
    "random-11-sparse": random_host(4, 11, 0.08, "4/11"),
    "random-13-sparse": random_host(4, 13, 0.04, "4/13"),
}
K4_PATTERNS = {
    "tight-path-6": Hypergraph(4, 6, ((0, 1, 2, 3), (1, 2, 3, 4), (2, 3, 4, 5))),
    "loose-path-7": Hypergraph(4, 7, ((0, 1, 2, 3), (3, 4, 5, 6))),
    "two-share-two": Hypergraph(4, 6, ((0, 1, 2, 3), (0, 1, 4, 5))),
    "triangle-of-pairs": Hypergraph(4, 6, ((0, 1, 2, 3), (0, 1, 4, 5), (2, 3, 4, 5))),
    "sunflower-plus-isolated": Hypergraph(4, 8, ((0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 5, 6))),
}


def test_k4_patterns_exercise_the_pair_filter():
    for pattern in K4_PATTERNS.values():
        order = _search_order(pattern)
        if pattern.edge_count > 1:
            assert any(_pair_checks(pattern, order, _closing_edges(pattern, order)))


@pytest.mark.parametrize("host_name", K4_HOSTS)
@pytest.mark.parametrize("pattern_name", K4_PATTERNS)
def test_k4_hosts_match_backtracking(pattern_name, host_name):
    pattern, host = K4_PATTERNS[pattern_name], K4_HOSTS[host_name]
    assert count_homomorphisms(pattern, host) == count_maps(pattern, host, injective=False)
    assert count_embeddings(pattern, host) == count_maps(pattern, host, injective=True)
    witness, reference = contains_copy(pattern, host), first_copy(pattern, host)
    if reference is None:
        assert witness is None
    else:
        assert list(witness.mapping.items()) == list(reference.mapping.items())


# --- the contraction and its window ---------------------------------------------


@ORACLE_SETTINGS
@given(pattern_and_host())
def test_contraction_matches_the_search_below_the_window(pair):
    pattern, host = pair
    order = hypergraphs._elimination_order(pattern)
    assert hypergraphs._contract_homomorphisms(pattern, host, order) == _count_maps(pattern, host, injective=False)


def sparse_host(k, n):
    """Every k-set of the first k + 2 vertices, plus 3n random k-sets."""
    rng = derive_rng(5, f"window-host/{k}/{n}")
    edges = list(combinations(range(k + 2), k)) + [tuple(sorted(rng.sample(range(n), k))) for _ in range(3 * n)]
    return Hypergraph.from_edges(k, n, edges)


def counted_by_contraction(monkeypatch, pattern, host) -> tuple[int, bool]:
    """count_homomorphisms, and whether it took the contraction."""
    taken = []
    contract = hypergraphs._contract_homomorphisms
    monkeypatch.setattr(hypergraphs, "_contract_homomorphisms", lambda *args: taken.append(args) or contract(*args))
    return count_homomorphisms(pattern, host), bool(taken)


TIGHT_PATH = Hypergraph(3, 5, ((0, 1, 2), (1, 2, 3), (2, 3, 4)))
GRAPH_PATH = Hypergraph(2, 3, ((0, 1), (1, 2)))


@pytest.mark.parametrize("k, n, pattern, contracted", [
    (3, 27, TIGHT_PATH, True),  # 27**3 cells, the floor
    (3, 26, TIGHT_PATH, False),
    # an edge and isolated vertices into 12 vertices: 12**17 < 2**63 < 12**18
    (4, 12, Hypergraph(4, 17, ((0, 1, 2, 3),)), True),
    (4, 12, Hypergraph(4, 18, ((0, 1, 2, 3),)), False),
])
def test_count_homomorphisms_window_edges(monkeypatch, k, n, pattern, contracted):
    host = sparse_host(k, n)
    count, taken = counted_by_contraction(monkeypatch, pattern, host)
    assert taken is contracted
    assert count == _count_maps(pattern, host, injective=False)


@pytest.mark.parametrize("spare, contracted", [(0, True), (-1, False)])
def test_count_homomorphisms_falls_back_one_tuple_past_the_work_cap(monkeypatch, spare, contracted):
    pattern, host = complete_hypergraph(3, 4), sparse_host(3, 27)
    work = hypergraphs._contraction_work(hypergraphs._elimination_order(pattern), host.n)
    assert work == 27**4 + 27**3 + 27**2 + 27
    monkeypatch.setattr(hypergraphs, "CONTRACTION_MAX_WORK", work + spare)
    count, taken = counted_by_contraction(monkeypatch, pattern, host)
    assert taken is contracted
    assert count == _count_maps(pattern, host, injective=False) > 0


@pytest.mark.parametrize("pattern, host, contracted", [
    (TIGHT_PATH, lambda: build_kary(3, 4), True),  # 1.6e6 tuples
    (GRAPH_PATH, lambda: sparse_host(2, 1023), True),  # 2 * 1023**2 + 1023 <= 2**21 tuples
    (GRAPH_PATH, lambda: sparse_host(2, 1024), False),  # 2 * 1024**2 + 1024 > 2**21
    # dense patterns into sparse hosts, which the search counts in tens of ms
    (complete_hypergraph(2, 3), lambda: sparse_host(2, 2048), False),  # 2048**3 tuples
    (complete_hypergraph(3, 4), lambda: sparse_host(3, 161), False),  # 161**4 tuples
])
def test_count_homomorphisms_work_cap(monkeypatch, pattern, host, contracted):
    host = host()
    _, taken = counted_by_contraction(monkeypatch, pattern, host)
    assert taken is contracted
