from itertools import combinations, permutations, product
from math import comb

import pytest

from hyperdense import (
    Conflict,
    Hypergraph,
    PairColouring,
    build_pattern_host,
    contains_copy,
    enumerate_hypergraphs,
    find_rainbow_ordering,
    forced_colouring,
    random_pair_colouring,
    relabel,
    shadow,
    verify_rainbow_colouring,
)
from hyperdense import rainbow
from hyperdense.rainbow import (
    COLOUR_NAMES,
    ShadowColouring,
    parse_pair_colouring,
    witness_to_dict,
)
from hyperdense.seeding import derive_rng

from conftest import FIGURE_COLOURS, FIGURE_ORDER
from rainbow_oracles import serialize_pair_colouring


def naive_orderable(pattern, order):
    """Oracle: try every total colouring of the shadow for a fixed ordering."""
    faces = sorted(shadow(pattern))
    pos = {v: i for i, v in enumerate(order)}
    for assignment in product(range(1, 4), repeat=len(faces)):
        colour = dict(zip(faces, assignment))
        ok = True
        for e in pattern.edges:
            vs = sorted(e, key=pos.get)
            for ell, u in enumerate(vs, 1):
                if colour[tuple(x for x in e if x != u)] != ell:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def random_linear(rng, n):
    """Random linear pattern: every pair lies in at most one edge."""
    triples = list(combinations(range(n), 3))
    rng.shuffle(triples)
    used_pairs = set()
    edges = []
    for t in triples:
        pairs = set(combinations(t, 2))
        if pairs & used_pairs:
            continue
        used_pairs |= pairs
        edges.append(t)
        if len(edges) >= rng.randint(1, max(1, n // 2)):
            break
    return Hypergraph.from_edges(3, n, edges)


# --- forced colourings --------------------------------------------------------


def test_forced_matches_figure_on_all_constrained_pairs(c5_minus):
    got = forced_colouring(c5_minus, FIGURE_ORDER)
    assert isinstance(got, ShadowColouring)
    assert got.colours == FIGURE_COLOURS
    # and the names read green/blue/red as drawn
    assert COLOUR_NAMES == {1: "green", 2: "blue", 3: "red"}


def test_forced_single_edge_always_consistent(single_edge):
    for order in permutations(range(3)):
        assert isinstance(forced_colouring(single_edge, order), ShadowColouring)


def test_forced_k4_identity_conflict(k4):
    got = forced_colouring(k4, (0, 1, 2, 3))
    assert got == Conflict(face=(0, 2), colour_a=2, colour_b=3)


def test_forced_rejects_non_permutation(k4):
    with pytest.raises(ValueError):
        forced_colouring(k4, (0, 1, 2, 2))


def test_forced_agrees_with_naive_enumeration_f4():
    for pattern in enumerate_hypergraphs(3, 4):
        for order in permutations(range(4)):
            fast = isinstance(forced_colouring(pattern, order), ShadowColouring)
            assert fast == naive_orderable(pattern, order)


def test_forced_agrees_with_naive_enumeration_small_shadow_f5():
    rng = derive_rng(3, "naive-oracle-f5")
    checked = 0
    while checked < 4:
        edges = rng.sample(list(combinations(range(5), 3)), 3)
        pattern = Hypergraph.from_edges(3, 5, edges)
        if len(shadow(pattern)) > 9:
            continue
        orders = [tuple(rng.sample(range(5), 5)) for _ in range(3)]
        for order in orders:
            fast = isinstance(forced_colouring(pattern, order), ShadowColouring)
            assert fast == naive_orderable(pattern, order)
        checked += 1


# --- the ordering decider -----------------------------------------------------


def test_c5_minus_has_witness(c5_minus):
    w = find_rainbow_ordering(c5_minus)
    assert w is not None
    assert verify_rainbow_colouring(c5_minus, w)


def test_k4_has_no_witness_all_orderings_conflict(k4):
    assert find_rainbow_ordering(k4) is None
    for order in permutations(range(4)):
        assert isinstance(forced_colouring(k4, order), Conflict)


def test_edgeless_has_witness():
    pattern = Hypergraph(3, 4, ())
    w = find_rainbow_ordering(pattern)
    assert w is not None and w.colours == {}
    assert verify_rainbow_colouring(pattern, w)


def test_tripartite_always_has_witness():
    rng = derive_rng(17, "tripartite")
    for _ in range(15):
        parts = [rng.randint(1, 3) for _ in range(3)]
        n = sum(parts)
        a = list(range(parts[0]))
        b = list(range(parts[0], parts[0] + parts[1]))
        c = list(range(parts[0] + parts[1], n))
        edges = [
            (x, y, z)
            for x in a
            for y in b
            for z in c
            if rng.random() < 0.7
        ]
        pattern = Hypergraph.from_edges(3, n, edges)
        w = find_rainbow_ordering(pattern)
        assert w is not None and verify_rainbow_colouring(pattern, w)


def test_linear_patterns_always_have_witness():
    rng = derive_rng(23, "linear")
    for _ in range(25):
        pattern = random_linear(rng, rng.randint(4, 8))
        w = find_rainbow_ordering(pattern)
        assert w is not None and verify_rainbow_colouring(pattern, w)


def test_decider_is_isomorphism_invariant():
    rng = derive_rng(29, "iso-invariance")
    pool = list(enumerate_hypergraphs(3, 4))
    for pattern in rng.sample(pool, 8):
        perm = list(range(4))
        rng.shuffle(perm)
        a = find_rainbow_ordering(pattern) is not None
        b = find_rainbow_ordering(relabel(pattern, perm)) is not None
        assert a == b


def test_witness_is_lexicographically_least(c5_minus):
    w = find_rainbow_ordering(c5_minus)
    for order in permutations(range(5)):
        if isinstance(forced_colouring(c5_minus, order), ShadowColouring):
            assert tuple(w.order) <= order
            break


# --- the verifier -------------------------------------------------------------


def test_verifier_rejects_permuted_colours(single_edge):
    w = find_rainbow_ordering(single_edge)
    swapped = dict(w.colours)
    faces = sorted(swapped)
    swapped[faces[0]], swapped[faces[1]] = swapped[faces[1]], swapped[faces[0]]
    assert not verify_rainbow_colouring(single_edge, ShadowColouring(w.order, swapped))


def test_verifier_rejects_wrong_domain(single_edge):
    w = find_rainbow_ordering(single_edge)
    extra = dict(w.colours)
    extra[(9, 10)] = 1
    assert not verify_rainbow_colouring(single_edge, ShadowColouring(w.order, extra))
    assert not verify_rainbow_colouring(single_edge, ShadowColouring(w.order, {}))


def test_verifier_accepts_vacuous_edgeless():
    pattern = Hypergraph(3, 3, ())
    assert verify_rainbow_colouring(pattern, ShadowColouring((0, 1, 2), {}))


# --- uniformity four ------------------------------------------------------------


def test_k4_uniform_single_edge_and_partite_have_witnesses():
    single = Hypergraph(4, 4, ((0, 1, 2, 3),))
    w = find_rainbow_ordering(single)
    assert w is not None and verify_rainbow_colouring(single, w)
    partite = Hypergraph.from_edges(4, 5, [(0, 1, 2, 3), (0, 1, 2, 4)])
    w = find_rainbow_ordering(partite)
    assert w is not None and verify_rainbow_colouring(partite, w)


def test_k4_uniform_complete_pattern_conflicts_everywhere():
    k5 = Hypergraph(4, 5, tuple(combinations(range(5), 4)))
    assert find_rainbow_ordering(k5) is None
    for order in permutations(range(5)):
        assert isinstance(forced_colouring(k5, order), Conflict)


# --- pattern hosts -------------------------------------------------------------


def test_pattern_host_single_triple_matches_rule():
    # earliest pair red (3), outer pair blue (2), latest pair green (1)
    phi = PairColouring(3, 3, {(0, 1): 3, (0, 2): 2, (1, 2): 1})
    assert build_pattern_host(phi).edges == ((0, 1, 2),)
    phi = PairColouring(3, 3, {(0, 1): 2, (0, 2): 2, (1, 2): 1})
    assert build_pattern_host(phi).edges == ()


def test_pattern_host_k4_explicit_colouring():
    # omitting the ell-th smallest vertex of (0,1,2,3) leaves a face coloured ell
    faces = {(1, 2, 3): 1, (0, 2, 3): 2, (0, 1, 3): 3, (0, 1, 2): 4}
    host = build_pattern_host(PairColouring(4, 4, faces))
    assert host.edges == ((0, 1, 2, 3),)
    broken = dict(faces)
    broken[(1, 2, 3)] = 2
    broken[(0, 2, 3)] = 1
    assert build_pattern_host(PairColouring(4, 4, broken)).edges == ()


def test_pattern_host_requires_total_colouring():
    with pytest.raises(ValueError):
        PairColouring(3, 4, {(0, 1): 1})


@pytest.mark.parametrize("k", [1, 0, -1])
def test_pair_colourings_reject_uniformity_below_two(k):
    # k = 1 would colour the one empty face; k <= 0 has no subsets to colour
    with pytest.raises(ValueError, match=f"^need uniformity k >= 2, got k={k}$"):
        PairColouring(k, 3, {(): 1})
    with pytest.raises(ValueError, match=f"^need uniformity k >= 2, got k={k}$"):
        random_pair_colouring(3, k, 0)


# (n, k) at each limit, then one past it: C(n, k) candidate edges at k = 2 and
# 3, C(n, k-1) colours at k = 6, and the vertex bound at k - 1 = n
LIMIT_CASES = [((4472, 2), (4473, 2)), ((392, 3), (393, 3)), ((43, 6), (44, 6)),
               ((10**6, 10**6 + 1), (10**6 + 1, 10**6 + 2))]


@pytest.mark.parametrize("inside, past", LIMIT_CASES)
def test_colouring_size_limits_reject_before_building(monkeypatch, inside, past):
    rainbow._check_colouring_size(*inside)
    monkeypatch.setattr(rainbow, "derive_rng", None)  # a draw past the check would raise TypeError
    with pytest.raises(ValueError, match=f"limited to n <= {rainbow.PAIR_COLOURING_LIMIT}, "):
        random_pair_colouring(*past, 0)
    n, k = past
    with pytest.raises(ValueError, match=f"^line 2: .* C\\(n, k\\) <= {rainbow.PATTERN_HOST_LIMIT} "):
        parse_pair_colouring(f"# header only\n{k} {n}\n")


@pytest.mark.parametrize("limit", ["PAIR_COLOURING_LIMIT", "PATTERN_HOST_LIMIT"])
def test_colouring_size_limits_are_inclusive(monkeypatch, limit):
    n, k = 10, 4  # C(10, 3) = 120 colours, C(10, 4) = 210 candidate edges
    count = comb(n, k - 1) if limit == "PAIR_COLOURING_LIMIT" else comb(n, k)
    monkeypatch.setattr(rainbow, limit, count)
    rainbow._check_colouring_size(n, k)
    monkeypatch.setattr(rainbow, limit, count - 1)
    with pytest.raises(ValueError, match="limited to"):
        rainbow._check_colouring_size(n, k)


def test_random_pair_colouring_is_deterministic_and_total():
    a = random_pair_colouring(6, 3, 42)
    b = random_pair_colouring(6, 3, 42)
    assert a == b
    assert random_pair_colouring(6, 3, 43) != a
    assert set(a.colours) == set(combinations(range(6), 2))


def test_random_pair_colouring_frequencies_balanced():
    phi = random_pair_colouring(60, 3, 0)
    total = len(phi.colours)
    assert total == 1770
    for c in (1, 2, 3):
        freq = sum(1 for v in phi.colours.values() if v == c) / total
        assert abs(freq - 1 / 3) < 0.03


def test_unorderable_patterns_never_embed_in_pattern_hosts(k4):
    # exhaustive over every colouring of the 6 pairs of [4]
    pairs = list(combinations(range(4), 2))
    for assignment in product((1, 2, 3), repeat=6):
        phi = PairColouring(3, 4, dict(zip(pairs, assignment)))
        host = build_pattern_host(phi)
        assert contains_copy(k4, host) is None


def test_unorderable_patterns_never_embed_at_n20(k4):
    for seed in range(1000):
        host = build_pattern_host(random_pair_colouring(20, 3, seed))
        assert contains_copy(k4, host) is None


def test_c5_minus_embeds_in_some_pattern_host(c5_minus):
    # transplant the witness colouring onto [5] with the witness order as
    # the natural order; the host then contains the relabelled pattern
    w = find_rainbow_ordering(c5_minus)
    rank = {v: i for i, v in enumerate(w.order)}
    colours = {}
    for face, c in w.colours.items():
        colours[tuple(sorted(rank[v] for v in face))] = c
    for pair in combinations(range(5), 2):
        colours.setdefault(pair, 1)
    host = build_pattern_host(PairColouring(3, 5, colours))
    assert contains_copy(c5_minus, host) is not None


def test_pair_colouring_file_roundtrip():
    phi = random_pair_colouring(5, 3, 9)
    assert parse_pair_colouring(serialize_pair_colouring(phi)) == phi


def test_pair_colouring_rejects_repeated_vertex_in_a_face():
    # three faces, as many as the pairs of [3], but (1, 1) is no pair
    with pytest.raises(ValueError, match="increasing"):
        PairColouring(3, 3, {(0, 1): 1, (0, 2): 2, (1, 1): 3})
    with pytest.raises(ValueError, match="increasing"):
        PairColouring(3, 3, {(0, 1): 1, (0, 2): 2, (2, 1): 3})


@pytest.mark.parametrize(
    "text, line",
    [
        ("3 3\n0 1 1\n0 2 2\n1 1 3\n", 4),  # repeated vertex
        ("3 3\n0 1 1\n0 x 2\n1 2 3\n", 3),  # non-integer vertex
        ("3 3\n0 1 1\n0 2 blue\n1 2 3\n", 3),  # non-integer colour
        ("3 3\n0 1 1\n0 3 2\n1 2 3\n", 3),  # vertex out of range
        ("3 3\n0 1 1\n0 2 4\n1 2 3\n", 3),  # colour out of range
        ("# pairs of [3]\n3 three\n", 2),  # non-integer header
    ],
)
def test_parse_pair_colouring_names_the_bad_line(text, line):
    with pytest.raises(ValueError, match=f"^line {line}: "):
        parse_pair_colouring(text)


def test_witness_dict_uses_colour_names(c5_minus):
    w = find_rainbow_ordering(c5_minus)
    data = witness_to_dict(w, 3)
    assert data["ordering"] == list(w.order)
    assert {entry["colour"] for entry in data["colours"]} <= {"red", "blue", "green"}
