import json
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdense import (
    CoreSelection,
    MuDensityError,
    ReducedHypergraph,
    is_mu_dense,
    select_rainbow_core,
    verify_core,
)
from hyperdense import reduced
from hyperdense.reduced import (
    SelectionInstance,
    parse_reduced_json,
    reverse_instance,
    select_blue,
    select_green,
    select_red,
    selection_from_dict,
    selection_to_dict,
    verify_selection,
)
from hyperdense.seeding import derive_rng

from reduced_oracles import complete_reduced, degree, random_reduced, reduced_to_dict, serialize_reduced_json


def build_instance(size, class_elems, cand):
    classes = {p: tuple(class_elems) for p in combinations(range(size), 2)}
    candidates = {t: frozenset(cand(t)) for t in combinations(range(size), 3)}
    return SelectionInstance(size, classes, candidates)


def full_instance(size, class_size):
    elems = tuple(range(class_size))
    return build_instance(size, elems, lambda t: elems)


def constituents(rh):
    """Every constituent of rh, as edges_of gives it."""
    return {t: rh.edges_of(t) for t in combinations(range(rh.m), 3)}


def red_sets(rh, mu):
    """The red stage's candidate set of every triple, from its table."""
    rows, table = reduced._stage_table(reduced._columns(rh), "red", range(rh.m), mu, ())
    return {t: frozenset(row.nonzero()[0].tolist()) for t, row in zip(combinations(range(rh.m), 3), table)}


# --- density, degrees, candidates ---------------------------------------------------


def test_complete_is_mu_dense_for_all_mu():
    rh = complete_reduced(4, 3)
    for mu in (0.0, 0.5, 1.0):
        dense, worst = is_mu_dense(rh, mu)
        assert dense


def test_empty_constituent_fails_density():
    rh = complete_reduced(4, 2)
    cons = constituents(rh)
    cons[(0, 2, 3)] = frozenset()
    rh = ReducedHypergraph(4, rh.class_sizes, cons)
    dense, worst = is_mu_dense(rh, 0.1)
    assert not dense and worst == (0, 2, 3)


def one_constituent(sizes, edges):
    a, b, c = sizes
    return ReducedHypergraph.from_parts(3, {(0, 1): a, (0, 2): b, (1, 2): c}, {(0, 1, 2): set(edges)})


def test_density_exactly_mu_is_dense():
    # 7 of 1 x 5 x 5 class edges: density 0.28 exactly, while 0.28 * 25 is
    # 7.000000000000001 in floats
    rh = one_constituent((1, 5, 5), [(0, q, r) for q in range(5) for r in range(5)][:7])
    assert is_mu_dense(rh, 0.28) == (True, (0, 1, 2))
    assert not is_mu_dense(rh, 0.2801)[0]
    sel = select_rainbow_core(rh, 0.28, 1)
    assert sel is not None and verify_core(rh, sel)


@pytest.mark.parametrize("limit", [3, 2])  # the Python kernel, then the numpy tables
def test_a_red_count_of_exactly_the_threshold_is_a_candidate(monkeypatch, limit):
    # vertex 0 of P^{01} is on 7 edges, exactly mu/2 |P^{02}| |P^{12}| at
    # mu = 0.01, while 0.01 / 2 * 28 * 50 is 7.000000000000001 in floats; of
    # the two red candidates the greedy takes the least
    rh = one_constituent((2, 28, 50), [(0, q, 0) for q in range(7)] + [(1, q, 0) for q in range(21)])
    monkeypatch.setattr(reduced, "PYTHON_INDEX_LIMIT", limit)
    assert is_mu_dense(rh, 0.01) == (True, (0, 1, 2))
    picks = {(0, 1): 0, (0, 2): 0, (1, 2): 0}
    assert select_rainbow_core(rh, 0.01, 3) == CoreSelection((0, 1, 2), picks, picks, picks)


# sizes from products of 2s and 5s, so every count / product is a short decimal
tie_sizes = st.tuples(*[st.sampled_from((1, 2, 4, 5, 8, 10))] * 3)


@settings(max_examples=150, deadline=None)
@given(tie_sizes, st.data())
def test_mu_density_ties_count_as_dense(sizes, data):
    a, b, c = sizes
    count = data.draw(st.integers(0, a * b * c))
    mu = float(Decimal(count) / Decimal(a * b * c))
    assert Fraction(str(mu)) == Fraction(count, a * b * c)  # the density is exactly mu
    edges = data.draw(st.permutations(list(product(range(a), range(b), range(c)))))[:count]
    rh = one_constituent(sizes, edges)
    assert is_mu_dense(rh, mu) == (True, (0, 1, 2))
    if count:
        assert not is_mu_dense(one_constituent(sizes, edges[1:]), mu)[0]
    # the stage floors hold at a tie too: no internal fault
    sel = select_rainbow_core(rh, mu, data.draw(st.integers(1, 3)))
    assert sel is None or verify_core(rh, sel)


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
    cons = constituents(rh)
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
    assert red_sets(rh, 1.0) == {(0, 1, 2): frozenset(range(3))}
    cons = constituents(rh)
    cons[(0, 1, 2)] = frozenset()
    assert red_sets(ReducedHypergraph(3, rh.class_sizes, cons), 0.2) == {(0, 1, 2): frozenset()}


def test_red_candidates_handcrafted_threshold():
    sizes = {p: 2 for p in combinations(range(3), 2)}
    edges = {(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 1, 1)}  # degrees 3 and 1 of 4
    rh = ReducedHypergraph.from_parts(3, sizes, {(0, 1, 2): edges})
    assert red_sets(rh, 1.0) == {(0, 1, 2): frozenset({0})}


def test_red_candidates_meet_averaging_bound():
    for seed in range(10):
        rh = random_reduced(5, 4, 0.6, seed, mu=0.5)
        for (i, j, _), cand in red_sets(rh, 0.5).items():
            assert len(cand) >= 0.25 * rh.class_sizes[(i, j)]


# --- abstract selections --------------------------------------------------------------


def test_select_red_full_candidates_takes_prefix():
    inst = full_instance(6, 3)
    for m in (1, 3, 6):
        res = select_red(inst, m)
        assert res is not None
        indices, choices = res
        assert indices == tuple(range(m))
        assert verify_selection(inst, indices, choices, "first")


def test_select_red_maximal_mode():
    inst = full_instance(5, 2)
    indices, choices = select_red(inst, None)
    assert indices == tuple(range(5))


def test_select_red_honest_failure_when_m_too_large():
    inst = full_instance(3, 2)
    assert select_red(inst, 5) is None


def test_select_red_random_instances_verify():
    rng = derive_rng(11, "select-red")
    for trial in range(20):
        elems = tuple(range(3))
        inst = build_instance(
            8,
            elems,
            lambda t: [e for e in elems if rng.random() < 0.8] or [rng.choice(elems)],
        )
        res = select_red(inst, 3)
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
        green = select_green(inst, m)
        red_on_reversed = select_red(reverse_instance(inst), m)
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
    res = select_blue(inst, 4)
    assert res is not None
    indices, choices = res
    assert len(indices) == 4
    res = select_blue(inst, 2)  # no middle index exists
    assert res is not None and len(res[0]) == 2


@pytest.mark.parametrize("select, anchor, pair", [
    (select_red, "first", (0, 1)),
    (select_blue, "outer", (0, 2)),
    (select_green, "last", (1, 2)),
])
def test_verify_selection_rejects_one_broken_element(select, anchor, pair):
    # only element 0 of the class {0, 1} is a candidate of the triple (0, 1, 2)
    inst = build_instance(4, (0, 1), lambda t: (0,) if t == (0, 1, 2) else (0, 1))
    indices, choices = select(inst, None)
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
    cons = constituents(rh)
    cons[(0, 1, 2)] = frozenset()
    with pytest.raises(MuDensityError):
        select_rainbow_core(ReducedHypergraph(4, rh.class_sizes, cons), 0.5, 3)


STAGE_FAULTS = {
    "select_red": "^red selection without a target size failed$",
    "select_blue": "^blue selection without a target size failed$",
    # the red floor, mu/2 of a 2-vertex class
    "_stage_table": "^red candidate set has 0 elements, below 1.0$",
    "_stage_candidates_py": "^red candidate set has 0 elements, below 1.0$",
}


STAGE_TABLE = reduced._stage_table
STAGE_CANDIDATES_PY = reduced._stage_candidates_py


def no_candidates(*args):
    rows, table = STAGE_TABLE(*args)
    return rows, table & False


def no_candidates_py(*args):
    return [frozenset() for _ in STAGE_CANDIDATES_PY(*args)]


def on_numpy_tables(monkeypatch):
    """Send the 5-index instances below through the numpy tables."""
    monkeypatch.setattr("hyperdense.reduced.PYTHON_INDEX_LIMIT", 4)


@pytest.mark.parametrize(
    "stage, value",
    [("select_red", None), ("select_blue", None), ("_stage_table", no_candidates),
     ("_stage_candidates_py", no_candidates_py)],
)
def test_pipeline_stage_fault_raises_runtime_error(monkeypatch, stage, value):
    # explicit checks, not asserts: they must also hold under python -O
    if stage == "_stage_table":
        on_numpy_tables(monkeypatch)
    monkeypatch.setattr(f"hyperdense.reduced.{stage}", value or (lambda *args: None))
    with pytest.raises(RuntimeError, match=STAGE_FAULTS[stage]):
        select_rainbow_core(complete_reduced(5, 2), 1.0, 3)


def keep_only(rh, keep):
    """rh with each constituent cut down to the class edges keep accepts."""
    cons = {t: frozenset(e for e in es if keep(e)) for t, es in constituents(rh).items()}
    return ReducedHypergraph(rh.m, rh.class_sizes, cons)


def test_blue_floor_breach_names_the_blue_stage(monkeypatch):
    # red vertex 0 has no edge, so its blue candidates are empty; admitting
    # it as a red candidate lets the greedy pick it on its tie
    rh = keep_only(complete_reduced(5, 2), lambda e: e[0] == 1)
    assert set(red_sets(rh, 0.5).values()) == {frozenset({1})}

    def red_takes_both(cols, stage, *args):
        rows, table = STAGE_TABLE(cols, stage, *args)
        return rows, table | (stage == "red")

    on_numpy_tables(monkeypatch)
    monkeypatch.setattr("hyperdense.reduced._stage_table", red_takes_both)
    with pytest.raises(RuntimeError, match="^blue candidate set has 0 elements, below 0.25$"):
        select_rainbow_core(rh, 0.5, 3)


def test_blue_floor_breach_names_the_blue_stage_in_python(monkeypatch):
    # the same breach on the candidate sets built triple by triple
    rh = keep_only(complete_reduced(5, 2), lambda e: e[0] == 1)

    def red_takes_both(rh, stage, *args):
        sets = STAGE_CANDIDATES_PY(rh, stage, *args)
        return [frozenset({0, 1}) for _ in sets] if stage == "red" else sets

    monkeypatch.setattr("hyperdense.reduced._stage_candidates_py", red_takes_both)
    with pytest.raises(RuntimeError, match="^blue candidate set has 0 elements, below 0.25$"):
        select_rainbow_core(rh, 0.5, 3)


def test_green_floor_breach_names_the_green_stage(monkeypatch):
    # only blue vertex 1 completes an edge; a blue stage that picks 0 leaves
    # every green candidate set empty
    rh = keep_only(complete_reduced(5, 2), lambda e: e[1] == 1)

    def pick_zero(inst, m):
        indices, choices = select_blue(inst, m)
        return indices, dict.fromkeys(choices, 0)

    monkeypatch.setattr("hyperdense.reduced.select_blue", pick_zero)
    with pytest.raises(RuntimeError, match="^green candidate set has 0 elements, below 0.25$"):
        select_rainbow_core(rh, 0.5, 3)
    on_numpy_tables(monkeypatch)
    with pytest.raises(RuntimeError, match="^green candidate set has 0 elements, below 0.25$"):
        select_rainbow_core(rh, 0.5, 3)


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


def mixed_parts(seed):
    """Class sizes 1-6 and random constituents, some of them empty."""
    rng = derive_rng(seed, "mixed-parts")
    m = rng.randint(3, 7)
    sizes = {p: rng.randint(1, 6) for p in combinations(range(m), 2)}
    cons = {}
    for i, j, k in combinations(range(m), 3):
        every = list(product(range(sizes[(i, j)]), range(sizes[(i, k)]), range(sizes[(j, k)])))
        cons[(i, j, k)] = set(rng.sample(every, rng.randint(0, len(every))))
    return m, sizes, cons


@pytest.mark.parametrize("seed", range(5))
def test_columns_give_back_every_constituent(seed):
    m, sizes, cons = mixed_parts(seed)
    rh = ReducedHypergraph.from_parts(m, sizes, cons)
    assert constituents(rh) == cons
    assert parse_reduced_json(serialize_reduced_json(rh)) == rh
    assert len(rh.codes) == rh.offsets[-1] == sum(map(len, cons.values()))


@pytest.mark.parametrize("seed", range(5))
def test_equal_edges_in_another_order_give_an_equal_instance(seed):
    m, sizes, cons = mixed_parts(seed)
    rng = derive_rng(seed, "shuffle")
    shuffled = {}
    for t in reversed(list(cons)):  # other key order, keys unsorted, edges as lists in another order
        edges = [list(e) for e in cons[t]]
        rng.shuffle(edges)
        shuffled[tuple(reversed(t))] = edges + edges[:1]  # a repeated edge counts once
    rh = ReducedHypergraph.from_parts(m, sizes, cons)
    assert ReducedHypergraph.from_parts(m, dict(reversed(sizes.items())), shuffled) == rh
    data = reduced_to_dict(rh)
    data["constituents"] = {key: edges[::-1] for key, edges in reversed(data["constituents"].items())}
    assert parse_reduced_json(json.dumps(data)) == rh


@pytest.mark.parametrize("bad, line", [
    ([(0, 0, 2), (0, 2, 0)], "constituent edge (0, 0, 2) outside classes of (0, 1, 2)"),
    ([(0, 0, 0), (-1, 0, 0), (0, 0, -1)], "constituent edge (-1, 0, 0) outside classes of (0, 1, 2)"),
    ([(0, 1), (1, 0, 0, 0)], "constituent edge (0, 1) of the wrong arity of (0, 1, 2)"),
    ([(0, 0, 5), (0, 1)], "constituent edge (0, 0, 5) outside classes of (0, 1, 2)"),
])
def test_bad_edges_name_the_least(bad, line):
    sizes = {p: 2 for p in combinations(range(3), 2)}
    with pytest.raises(ValueError) as info:
        ReducedHypergraph.from_parts(3, sizes, {(0, 1, 2): [(1, 1, 1)] + bad})
    assert str(info.value) == line
    with pytest.raises(ValueError) as info:
        reduced.reduced_from_dict({"m": 3, "class_size": {"0,1": 2, "0,2": 2, "1,2": 2},
                                   "constituents": {"0,1,2": [[1, 1, 1]] + [list(e) for e in bad]}})
    assert str(info.value) == line


@pytest.mark.parametrize("sizes, cons, line", [
    ({(0, 1): 2, (0, 2): 2, (1, 2): 2, (0, 9): 5}, {(0, 1, 9): {(0, 0, 0)}, (0, 1, 2): {(1, 1, 1)}},
     "class (0, 9) does not name 2 increasing indices in [0, 3)"),
    ({(0, 1): 2, (0, 2): 2, (1, 2): 2, (1, 1): 1, (0, 3): 1}, {},
     "class (0, 3) does not name 2 increasing indices in [0, 3)"),
    ({(0, 1): 2, (0, 2): 2, (1, 2): 2}, {(2, 1, 1): set(), (0, 1, 2): {(1, 1, 1)}, (0, 1, 9): {(0, 0, 0)}},
     "constituent triple (0, 1, 9) does not name 3 increasing indices in [0, 3)"),
])
def test_from_parts_rejects_keys_outside_the_indices(sizes, cons, line):
    with pytest.raises(ValueError) as info:
        ReducedHypergraph.from_parts(3, sizes, cons)
    assert str(info.value) == line


def test_edges_of_rejects_a_triple_outside_the_indices():
    rh = complete_reduced(4, 2)
    assert rh.edges_of((3, 1, 2)) == rh.edges_of((1, 2, 3))
    for triple in ((0, 1, 4), (0, 1, 1), (-1, 0, 1)):
        with pytest.raises(ValueError):
            rh.edges_of(triple)


def test_selection_json_roundtrip():
    rh = complete_reduced(4, 2)
    sel = select_rainbow_core(rh, 1.0, 3)
    again = selection_from_dict(selection_to_dict(sel))
    assert again == sel
