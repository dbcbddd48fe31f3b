from itertools import combinations

import pytest

from hyperdense import (
    CoreSelection,
    MuDensityError,
    ReducedHypergraph,
    is_mu_dense,
    select_rainbow_core,
    verify_core,
)
from hyperdense.reduced import (
    SelectionInstance,
    SelectionInputError,
    complete_reduced,
    degree,
    parse_reduced_json,
    random_reduced,
    red_candidates,
    reverse_instance,
    select_blue,
    select_green,
    select_red,
    selection_from_dict,
    selection_to_dict,
    serialize_reduced_json,
    verify_selection,
)
from hyperdense.seeding import derive_rng


def build_instance(size, class_elems, cand):
    classes = {p: tuple(class_elems) for p in combinations(range(size), 2)}
    candidates = {t: frozenset(cand(t)) for t in combinations(range(size), 3)}
    return SelectionInstance(size, classes, candidates)


def full_instance(size, class_size):
    elems = tuple(range(class_size))
    return build_instance(size, elems, lambda t: elems)


# --- density, degrees, candidates ---------------------------------------------------


def test_complete_is_mu_dense_for_all_mu():
    rh = complete_reduced(4, 3)
    for mu in (0.0, 0.5, 1.0):
        dense, worst = is_mu_dense(rh, mu)
        assert dense


def test_empty_constituent_fails_density():
    rh = complete_reduced(4, 2)
    cons = dict(rh.constituents)
    cons[(0, 2, 3)] = frozenset()
    rh = ReducedHypergraph(4, rh.class_sizes, cons)
    dense, worst = is_mu_dense(rh, 0.1)
    assert not dense and worst == (0, 2, 3)


def test_random_half_density_usually_quarter_dense():
    hits = 0
    for seed in range(20):
        rh = random_reduced(5, 4, 0.5, seed)
        dense, _ = is_mu_dense(rh, 0.25)
        hits += dense
    assert hits >= 19


def test_degree_complete_and_empty():
    rh = complete_reduced(3, 3)
    assert degree(rh, (0, 1, 2), (0, 1), 0) == 9
    cons = dict(rh.constituents)
    cons[(0, 1, 2)] = frozenset()
    empty = ReducedHypergraph(3, rh.class_sizes, cons)
    assert degree(empty, (0, 1, 2), (0, 1), 0) == 0


def test_degree_rejects_foreign_pair():
    rh = complete_reduced(4, 2)
    with pytest.raises(ValueError):
        degree(rh, (0, 1, 2), (0, 3), 0)
    with pytest.raises(ValueError):
        degree(rh, (0, 1, 2), (0, 1), 7)


def test_degree_sums_to_constituent_size():
    rng = derive_rng(3, "degree-sum")
    for seed in range(5):
        rh = random_reduced(4, 3, rng.random(), seed)
        for triple in combinations(range(4), 3):
            i, j, k = triple
            total = sum(degree(rh, triple, (i, j), p) for p in range(rh.class_sizes[(i, j)]))
            assert total == len(rh.edges_of(triple))


def test_red_candidates_extremes():
    rh = complete_reduced(3, 3)
    assert red_candidates(rh, 1.0, (0, 1, 2)) == frozenset(range(3))
    cons = dict(rh.constituents)
    cons[(0, 1, 2)] = frozenset()
    assert red_candidates(ReducedHypergraph(3, rh.class_sizes, cons), 0.1, (0, 1, 2)) == frozenset()


def test_red_candidates_handcrafted_threshold():
    sizes = {p: 2 for p in combinations(range(3), 2)}
    edges = {(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 1, 1)}  # degrees 3 and 1 of 4
    rh = ReducedHypergraph.from_parts(3, sizes, {(0, 1, 2): edges})
    assert red_candidates(rh, 0.5, (0, 1, 2)) == frozenset({0})


def test_red_candidates_meet_averaging_bound():
    for seed in range(10):
        rh = random_reduced(5, 4, 0.6, seed, mu=0.5)
        for triple in combinations(range(5), 3):
            i, j, _ = triple
            cand = red_candidates(rh, 0.25, triple)
            assert len(cand) >= 0.25 * rh.class_sizes[(i, j)]


# --- abstract selections --------------------------------------------------------------


def test_select_red_full_candidates_takes_prefix():
    inst = full_instance(6, 3)
    for m in (1, 3, 6):
        res = select_red(inst, 1.0, m)
        assert res is not None
        indices, choices = res
        assert indices == tuple(range(m))
        assert verify_selection(inst, indices, choices, "first")


def test_select_red_maximal_mode():
    inst = full_instance(5, 2)
    indices, choices = select_red(inst, 1.0, None)
    assert indices == tuple(range(5))


def test_select_red_rejects_margin_violation():
    inst = build_instance(4, (0, 1, 2, 3), lambda t: [0])
    with pytest.raises(SelectionInputError):
        select_red(inst, 0.5, 2)


def test_select_red_honest_failure_when_m_too_large():
    inst = full_instance(3, 2)
    assert select_red(inst, 1.0, 5) is None


def test_select_red_random_instances_verify():
    rng = derive_rng(11, "select-red")
    for trial in range(20):
        elems = tuple(range(3))
        inst = build_instance(
            8,
            elems,
            lambda t: [e for e in elems if rng.random() < 0.8] or [rng.choice(elems)],
        )
        res = select_red(inst, 1 / 3, 3)
        if res is not None:
            indices, choices = res
            assert verify_selection(inst, indices, choices, "first")


def test_reverse_instance_is_involution():
    rng = derive_rng(13, "reversal")
    elems = tuple(range(3))
    inst = build_instance(6, elems, lambda t: [e for e in elems if rng.random() < 0.7] or [0])
    assert reverse_instance(reverse_instance(inst)) == inst


def test_select_green_equals_manually_reversed_red():
    rng = derive_rng(17, "green-vs-red")
    for trial in range(50):
        elems = tuple(range(3))
        inst = build_instance(
            7,
            elems,
            lambda t: [e for e in elems if rng.random() < 0.75] or [rng.choice(elems)],
        )
        m = rng.randint(2, 4)
        green = select_green(inst, 1 / 3, m)
        red_on_reversed = select_red(reverse_instance(inst), 1 / 3, m)
        if green is None:
            assert red_on_reversed is None
            continue
        indices, choices = green
        assert verify_selection(inst, indices, choices, "last")
        rev_indices, rev_choices = red_on_reversed
        assert indices == tuple(sorted(6 - x for x in rev_indices))
        assert choices == {(6 - b, 6 - a): e for (a, b), e in rev_choices.items()}


def test_select_blue_full_and_tiny():
    inst = full_instance(6, 2)
    res = select_blue(inst, 1.0, 4)
    assert res is not None
    indices, choices = res
    assert len(indices) == 4
    res = select_blue(inst, 1.0, 2)  # no middle index exists
    assert res is not None and len(res[0]) == 2


@pytest.mark.parametrize("select, anchor, pair", [
    (select_red, "first", (0, 1)),
    (select_blue, "outer", (0, 2)),
    (select_green, "last", (1, 2)),
])
def test_verify_selection_rejects_one_broken_element(select, anchor, pair):
    # only element 0 of the class {0, 1} is a candidate of the triple (0, 1, 2)
    inst = build_instance(4, (0, 1), lambda t: (0,) if t == (0, 1, 2) else (0, 1))
    indices, choices = select(inst, 0.5, None)
    assert indices == (0, 1, 2, 3) and choices[pair] == 0
    assert verify_selection(inst, indices, choices, anchor)
    # 1 leaves the triple's candidates, 2 leaves the class, None leaves the pair without an element
    for broken in (1, 2, None):
        assert not verify_selection(inst, indices, {**choices, pair: broken}, anchor)


# --- the pipeline -----------------------------------------------------------------------


def test_pipeline_complete_instances_always_succeed():
    for m in range(2, 9):
        rh = complete_reduced(m, 2)
        for f in range(1, m + 1):
            sel = select_rainbow_core(rh, 1.0, f)
            assert sel is not None
            assert len(sel.indices) == f
            assert verify_core(rh, sel)


def test_pipeline_singleton_classes():
    rh = complete_reduced(5, 1)
    sel = select_rainbow_core(rh, 1.0, 4)
    assert sel is not None and verify_core(rh, sel)


def test_pipeline_rejects_sparse_input():
    rh = complete_reduced(4, 2)
    cons = dict(rh.constituents)
    cons[(0, 1, 2)] = frozenset()
    with pytest.raises(MuDensityError):
        select_rainbow_core(ReducedHypergraph(4, rh.class_sizes, cons), 0.5, 3)


@pytest.mark.parametrize(
    "stage, value",
    [("select_red", None), ("select_blue", None), ("red_candidates", frozenset())],
)
def test_pipeline_stage_fault_raises_runtime_error(monkeypatch, stage, value):
    # explicit checks, not asserts: they must also hold under python -O
    monkeypatch.setattr(f"hyperdense.reduced.{stage}", lambda *args: value)
    with pytest.raises(RuntimeError):
        select_rainbow_core(complete_reduced(5, 2), 1.0, 3)


def test_pipeline_random_instances_no_unverified_success():
    rng = derive_rng(23, "pipeline")
    successes = 0
    for trial in range(30):
        m = rng.randint(4, 10)
        rh = random_reduced(m, rng.randint(2, 4), 0.6, trial, mu=0.4)
        sel = select_rainbow_core(rh, 0.4, rng.randint(2, 4))
        if sel is not None:
            assert verify_core(rh, sel)
            successes += 1
    assert successes > 0  # the sweep should not be vacuous


def test_verify_core_detects_red_green_swap():
    sizes = {p: 2 for p in combinations(range(3), 2)}
    cons = {(0, 1, 2): {(0, 0, 0)}}
    rh = ReducedHypergraph.from_parts(3, sizes, cons)
    good = CoreSelection(
        (0, 1, 2),
        red={(0, 1): 0, (0, 2): 0, (1, 2): 1},
        blue={(0, 1): 0, (0, 2): 0, (1, 2): 0},
        green={(0, 1): 1, (0, 2): 1, (1, 2): 0},
    )
    assert verify_core(rh, good)
    swapped = CoreSelection((0, 1, 2), red=good.green, blue=good.blue, green=good.red)
    assert not verify_core(rh, swapped)


def test_verify_core_vacuous_for_two_indices():
    rh = complete_reduced(4, 2)
    sel = CoreSelection((1, 3), red={(0, 1): 0}, blue={(0, 1): 0}, green={(0, 1): 1})
    assert verify_core(rh, sel)


def test_verify_core_rejects_out_of_class_vertex():
    rh = complete_reduced(3, 2)
    sel = CoreSelection(
        (0, 1, 2),
        red={(0, 1): 5, (0, 2): 0, (1, 2): 0},
        blue={(0, 1): 0, (0, 2): 0, (1, 2): 0},
        green={(0, 1): 0, (0, 2): 0, (1, 2): 0},
    )
    with pytest.raises(ValueError):
        verify_core(rh, sel)


# --- serialization -----------------------------------------------------------------------


def test_reduced_json_roundtrip():
    rh = random_reduced(4, 3, 0.5, 7)
    again = parse_reduced_json(serialize_reduced_json(rh))
    assert again == rh


def test_constituents_share_one_tuple_per_class_edge():
    # parsed from JSON, every edge arrives as a list of its own; the
    # constituents keep one tuple object per distinct class edge
    rh = random_reduced(6, 2, 0.7, 3)
    again = parse_reduced_json(serialize_reduced_json(rh))
    edges = [e for es in again.constituents.values() for e in es]
    assert again == rh
    assert len(edges) > 8
    assert len({id(e) for e in edges}) == len(set(edges)) <= 8


def test_selection_json_roundtrip():
    rh = complete_reduced(4, 2)
    sel = select_rainbow_core(rh, 1.0, 3)
    again = selection_from_dict(selection_to_dict(sel))
    assert again == sel
