import time
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperdense import (
    Hypergraph,
    HypergraphParseError,
    complete_hypergraph,
    contains_copy,
    count_embeddings,
    count_homomorphisms,
    enumerate_hypergraphs,
    induced_edge_count,
    is_embedding,
    parse_hypergraph,
    relabel,
    serialize_hypergraph,
    shadow,
)
from hyperdense.hypergraphs import HOST_VERTEX_LIMIT, _completion_index, _count_maps
from hyperdense.rainbow import build_pattern_host, random_pair_colouring
from hyperdense.seeding import derive_rng
from hyperdense.ternary import build_kary

from backtrack_oracles import first_copy, naive_contains_copy
from hypergraph_oracles import canonical_form_error
from conftest import C5_MINUS_TEXT, peak_bytes


def small_hypergraphs(max_n=6, k=3):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=k, max_value=max_n))
        pool = list(combinations(range(n), k))
        edges = draw(st.sets(st.sampled_from(pool), max_size=len(pool)))
        return Hypergraph.from_edges(k, n, edges)

    return build()


def random_hypergraph(rng, n, p, k=3):
    edges = [e for e in combinations(range(n), k) if rng.random() < p]
    return Hypergraph.from_edges(k, n, edges)


# --- parsing and canonical form ---------------------------------------------


def test_parse_c5_minus(c5_minus):
    assert c5_minus.k == 3 and c5_minus.n == 5
    assert c5_minus.edges == ((0, 1, 2), (0, 3, 4), (1, 2, 3), (2, 3, 4))


def test_parse_edgeless_and_complete():
    empty = parse_hypergraph("3 3 0\n")
    assert empty.edges == ()
    k4 = parse_hypergraph("3 4 4\n0 1 2\n0 1 3\n0 2 3\n1 2 3\n")
    assert k4 == complete_hypergraph(3, 4)


def test_parse_skips_comments_and_blank_lines():
    text = "# a host\n\n3 3 1\n# the only edge\n0 1 2\n"
    assert parse_hypergraph(text).edges == ((0, 1, 2),)


@pytest.mark.parametrize(
    "text,line",
    [
        ("3 5\n0 1 2\n", 1),               # malformed header
        ("x 5 1\n0 1 2\n", 1),             # non-integer header
        ("3 3 1\n0 1 5\n", 2),             # vertex out of range
        ("3 3 1\n0 1 1\n", 2),             # repeated vertex
        ("3 4 2\n0 1 2\n2 1 0\n", 3),      # duplicate edge
        ("3 3 1\n0 1\n", 2),               # wrong arity
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(HypergraphParseError) as err:
        parse_hypergraph(text)
    assert err.value.line == line


def test_parse_wrong_edge_count():
    with pytest.raises(HypergraphParseError):
        parse_hypergraph("3 4 3\n0 1 2\n")
    with pytest.raises(HypergraphParseError):
        parse_hypergraph("3 4 1\n0 1 2\n1 2 3\n")


def test_constructor_rejects_non_canonical():
    with pytest.raises(ValueError):
        Hypergraph(3, 4, ((2, 1, 0),))
    with pytest.raises(ValueError):
        Hypergraph(3, 4, ((1, 2, 3), (0, 1, 2)))
    with pytest.raises(ValueError):
        Hypergraph(3, 3, ((0, 1, 1),))


# Each malformed kind with the message the per-edge loop gave; where an edge
# list breaks several conditions, the first edge that breaks any wins, and
# for that edge the conditions are checked in the order of the loop.
@pytest.mark.parametrize("k, n, edges, message", [
    (3, 5, ((0, 1),), "edge (0, 1) does not have 3 vertices"),
    (3, 5, ((0, 1, 2), (0, 1, 2, 3)), "edge (0, 1, 2, 3) does not have 3 vertices"),
    (3, 5, ((0, 1, 5),), "edge (0, 1, 5) has a vertex outside [0, 5)"),
    (3, 5, ((-1, 0, 1),), "edge (-1, 0, 1) has a vertex outside [0, 5)"),
    (3, 5, ((0, 7, 2),), "edge (0, 7, 2) has a vertex outside [0, 5)"),
    (3, 5, ((0, 2, 1),), "edge (0, 2, 1) is not strictly increasing"),
    (3, 5, ((0, 1, 2), (1, 1, 3)), "edge (1, 1, 3) is not strictly increasing"),
    (3, 5, ((0, 1, 3), (0, 1, 2)), "edge list is not in canonical sorted order"),
    (3, 5, ((0, 1, 2), (0, 1, 2)), "edge list is not in canonical sorted order"),
    (3, 5, ((0, 1, 3), (0, 1, 2), (0, 1)), "edge list is not in canonical sorted order"),
    (3, 5, ((1, 2, 3), (0, 1, 9), (0, 1)), "edge (0, 1, 9) has a vertex outside [0, 5)"),
    (2, 0, ((0, 1),), "edge (0, 1) has a vertex outside [0, 0)"),
])
def test_constructor_words_the_first_fault_as_the_edge_loop_did(k, n, edges, message):
    assert canonical_form_error(k, n, edges) == message
    with pytest.raises(ValueError) as info:
        Hypergraph(k, n, edges)
    assert str(info.value) == message


@st.composite
def edge_lists(draw):
    """Short edge lists near canonical form: drawn sorted or not, with
    vertices just outside [0, n) and edges one vertex short or long."""
    k, n = draw(st.integers(2, 4)), draw(st.integers(0, 6))
    edge = st.lists(st.integers(-1, n), min_size=k - 1, max_size=k + 1).map(tuple)
    edges = draw(st.lists(edge, max_size=6))
    if draw(st.booleans()):
        edges = sorted(tuple(sorted(e)) for e in edges)
    return k, n, tuple(edges)


@given(edge_lists())
def test_constructor_accepts_and_rejects_as_the_edge_loop_did(case):
    k, n, edges = case
    message = canonical_form_error(k, n, edges)
    if message is None:
        assert Hypergraph(k, n, edges).edges == edges
    else:
        with pytest.raises(ValueError) as info:
            Hypergraph(k, n, edges)
        assert str(info.value) == message


def test_constructor_accepts_canonical_hosts():
    for h in (build_kary(3, 3), build_pattern_host(random_pair_colouring(20, 3, 0)), Hypergraph(3, 4, ())):
        assert canonical_form_error(h.k, h.n, h.edges) is None
        assert Hypergraph(h.k, h.n, h.edges) == h


@given(small_hypergraphs())
def test_parse_serialize_roundtrip(h):
    assert parse_hypergraph(serialize_hypergraph(h)) == h


def test_serialize_canonical(c5_minus):
    assert serialize_hypergraph(c5_minus) == "3 5 4\n0 1 2\n0 3 4\n1 2 3\n2 3 4\n"
    assert serialize_hypergraph(parse_hypergraph(C5_MINUS_TEXT)) == serialize_hypergraph(c5_minus)


# --- shadow ------------------------------------------------------------------


def test_shadow_single_edge(single_edge):
    assert shadow(single_edge) == frozenset({(0, 1), (0, 2), (1, 2)})


def test_shadow_complete(k4):
    assert shadow(k4) == frozenset(combinations(range(4), 2))


def test_shadow_c5_minus(c5_minus):
    # oracle: pairs covered by the four edges directly
    pairs = {p for e in [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4)] for p in combinations(e, 2)}
    got = shadow(c5_minus)
    assert got == frozenset(pairs)
    assert len(got) == 9 and (1, 4) not in got


@given(small_hypergraphs(max_n=6), st.randoms(use_true_random=False))
def test_shadow_relabel_equivariance(h, rnd):
    perm = list(range(h.n))
    rnd.shuffle(perm)
    relabelled = relabel(h, perm)
    expected = frozenset(tuple(sorted(perm[v] for v in f)) for f in shadow(h))
    assert shadow(relabelled) == expected


# --- induced counts ----------------------------------------------------------


def test_induced_edge_count_basics(k4):
    assert induced_edge_count(k4, {0, 1, 2}) == 1
    assert induced_edge_count(k4, {0, 1}) == 0
    assert induced_edge_count(k4, range(4)) == len(k4.edges)
    with pytest.raises(ValueError):
        induced_edge_count(k4, {0, 9})


def test_induced_edge_count_ternary_total():
    t2 = build_kary(3, 2)
    assert induced_edge_count(t2, range(9)) == (27**2 - 3**2) // 24 == 30


# --- containment -------------------------------------------------------------


def test_single_edge_embeds_anywhere(single_edge, c5_minus):
    w = contains_copy(single_edge, c5_minus)
    assert w is not None and w.injective
    assert is_embedding(single_edge, c5_minus, w.mapping)


def test_c5_minus_inside_tight_cycle(c5_minus):
    cycle = Hypergraph.from_edges(3, 5, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0), (4, 0, 1)])
    w = contains_copy(c5_minus, cycle)
    assert w is not None and is_embedding(c5_minus, cycle, w.mapping)


def test_contains_copy_uniformity_mismatch(single_edge):
    with pytest.raises(ValueError):
        contains_copy(single_edge, Hypergraph(4, 5, ((0, 1, 2, 3),)))


def test_contains_copy_agrees_with_naive_oracle():
    rng = derive_rng(11, "containment-oracle")
    for trial in range(40):
        pattern = random_hypergraph(rng, rng.randint(3, 4), 0.5)
        host = random_hypergraph(rng, rng.randint(4, 7), 0.4)
        witness = contains_copy(pattern, host)
        if witness is None:
            assert not naive_contains_copy(pattern, host)
        else:
            assert is_embedding(pattern, host, witness.mapping)


def test_contains_copy_witness_in_pattern_host_matches_first_copy():
    # An 8-vertex connected sub-pattern of a 20-vertex pattern host, grown
    # from one edge by whole edges that meet it, then relabelled.  Its last
    # position has several candidates, so the witness pins which one the
    # kernel places there.
    host = build_pattern_host(random_pair_colouring(20, 3, 0))
    rng = derive_rng(0, "sub-pattern")
    chosen = set(rng.choice(host.edges))
    while len(chosen) < 8:
        touching = [e for e in host.edges if 0 < len(chosen.intersection(e)) < 3 and len(chosen.union(e)) <= 8]
        chosen.update(rng.choice(touching))
    label = dict(zip(sorted(chosen), rng.sample(range(8), 8)))
    pattern = Hypergraph.from_edges(3, 8, [[label[v] for v in e] for e in host.edges if chosen.issuperset(e)])
    witness = contains_copy(pattern, host)
    assert witness is not None
    assert witness == first_copy(pattern, host)


def test_count_embeddings_tight_path_into_t3():
    # Counted at the last position rather than walked leaf by leaf.
    path = Hypergraph(3, 5, ((0, 1, 2), (1, 2, 3), (2, 3, 4)))
    assert count_embeddings(path, build_kary(3, 3)) == 281880


# --- homomorphism counting ---------------------------------------------------


def test_hom_single_edge_is_six_times_edges(single_edge):
    rng = derive_rng(5, "hom-edge")
    for _ in range(10):
        host = random_hypergraph(rng, rng.randint(4, 8), rng.random())
        assert count_homomorphisms(single_edge, host) == 6 * len(host.edges)


def test_hom_edgeless_is_power(single_edge):
    host = complete_hypergraph(3, 6)
    for f in (1, 2, 3, 4):
        pattern = Hypergraph(3, f, ())
        assert count_homomorphisms(pattern, host) == 6**f


def test_hom_single_edge_into_complete_matches_falling_factorial():
    for n in (3, 4, 5, 7):
        host = complete_hypergraph(3, n)
        pattern = Hypergraph(3, 3, ((0, 1, 2),))
        assert count_homomorphisms(pattern, host) == n * (n - 1) * (n - 2)
    # brute force at n = 5
    host = complete_hypergraph(3, 5)
    brute = sum(
        1
        for a in range(5)
        for b in range(5)
        for c in range(5)
        if len({a, b, c}) == 3
    )
    assert count_homomorphisms(Hypergraph(3, 3, ((0, 1, 2),)), host) == brute


def test_hom_monotone_under_host_edges():
    rng = derive_rng(7, "hom-monotone")
    for _ in range(20):
        pattern = random_hypergraph(rng, 4, 0.5)
        host = random_hypergraph(rng, rng.randint(5, 7), 0.3)
        missing = [e for e in combinations(range(host.n), 3) if e not in host.edge_set]
        if not missing:
            continue
        bigger = Hypergraph.from_edges(3, host.n, list(host.edges) + [rng.choice(missing)])
        assert count_homomorphisms(pattern, host) <= count_homomorphisms(pattern, bigger)


def test_hom_at_least_injective_maps():
    rng = derive_rng(9, "hom-injective")
    for _ in range(20):
        pattern = random_hypergraph(rng, rng.randint(3, 4), 0.5)
        host = random_hypergraph(rng, rng.randint(4, 7), 0.4)
        inj = count_embeddings(pattern, host)
        assert count_homomorphisms(pattern, host) >= inj
        if len(pattern.edges) == 1 and all(pattern.degree(v) > 0 for v in range(pattern.n)):
            assert inj == 6 * len(host.edges)


def test_hom_bigint_counts():
    # 81-vertex host, edgeless 5-vertex pattern: 81**5 exceeds 2**31
    host = build_kary(3, 4)
    assert count_homomorphisms(Hypergraph(3, 5, ()), host) == 81**5


@given(small_hypergraphs(max_n=4), small_hypergraphs(max_n=4), st.randoms(use_true_random=False))
def test_hom_count_matches_exhaustive_maps(pattern, host, rnd):
    brute = 0
    for code in range(host.n**pattern.n):
        img, c = [], code
        for _ in range(pattern.n):
            img.append(c % host.n)
            c //= host.n
        if all(tuple(sorted({img[v] for v in e})) in host.edge_set and len({img[v] for v in e}) == 3
               for e in pattern.edges):
            brute += 1
    assert count_homomorphisms(pattern, host) == brute


def test_hom_tight_paths_into_t4():
    t4 = build_kary(3, 4)
    assert count_homomorphisms(Hypergraph(3, 4, ((0, 1, 2), (1, 2, 3))), t4) == 3311280
    assert count_homomorphisms(Hypergraph(3, 5, ((0, 1, 2), (1, 2, 3), (2, 3, 4))), t4) == 87169608


def test_hom_memo_stays_within_the_host_index():
    # Memoising a position whose boundary is its whole prefix keeps one
    # entry per partial map; the gate keeps the count near the index size.
    t4 = build_kary(3, 4)
    path = Hypergraph(3, 5, ((0, 1, 2), (1, 2, 3), (2, 3, 4)))
    assert peak_bytes(lambda: _count_maps(path, t4, injective=False)) < 2 * peak_bytes(lambda: _completion_index(t4))


def test_hom_contraction_peak_stays_below_two_tensors():
    # The uint8 adjacency tensor of T_4 has 81**3 one-byte cells, and it is
    # filled from one 8-byte index per edge vertex; P5's int64 tables have
    # 81**2 cells.  A first count loads numpy, which is not the count's memory.
    t4 = build_kary(3, 4)
    path = Hypergraph(3, 5, ((0, 1, 2), (1, 2, 3), (2, 3, 4)))
    count_homomorphisms(path, t4)
    tensor_and_index = t4.n**3 + 8 * 3 * t4.edge_count
    assert peak_bytes(lambda: count_homomorphisms(path, t4)) < 2 * tensor_and_index


def test_an_edge_into_an_edgeless_host_at_the_limit_is_refused_at_once(single_edge):
    # The first position draws from the host vertices that lie in an edge,
    # none here, so no position walks all n host vertices (about n**2 steps
    # in all, about 1 s at n = 3,000, when every free position did).
    host = Hypergraph(3, HOST_VERTEX_LIMIT, ())
    start = time.perf_counter()
    assert count_homomorphisms(single_edge, host) == 0
    assert contains_copy(single_edge, host) is None
    assert time.perf_counter() - start < 0.5


# --- enumeration -------------------------------------------------------------


@pytest.mark.parametrize("f,total", [(3, 2), (4, 16), (5, 1024)])
def test_enumerate_counts(f, total):
    seen = list(enumerate_hypergraphs(3, f))
    assert len(seen) == total
    assert len(set(seen)) == total


def test_enumerate_bound():
    with pytest.raises(ValueError):
        list(enumerate_hypergraphs(3, 7))
