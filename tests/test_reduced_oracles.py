"""The staged selection's two paths against the per-triple references.

Past ``PYTHON_INDEX_LIMIT`` indices ``select_rainbow_core`` computes every
stage's candidate table for all index triples at once, in numpy, from the
reduced hypergraph's flat columns; up to the limit it counts each
triple's candidates in Python by bisecting the triple's sorted codes.
Both paths hand their candidate sets to one instance builder, which
checks the floors.  ``reduced_oracles`` keeps the loops these replaced:
one Python pass per triple for the density test and for each stage's
candidates, and each stage built and its floors checked triple by triple.
The density test, decided when the hypergraph is built, must give the
references' verdict and worst triple; each path must give the same
candidate set for every triple, the same floor verdict (the same
instance, or the same RuntimeError naming the first failing triple), and
the same selection, None, or exception with the same text.  At the limit
and one past it, both paths are forced in turn on the same inputs.

Instances have 2-9 indices, class sizes 1-6 mixed within one instance and
empty constituents; mu is 0 or 1 often, the exact density of a constituent
(a tie that counts as dense), or a hair above an integer floor.  The
benchmark's ``search`` instances are checked at three seeds for f = 1-10.
"""

import importlib.util
import math
from fractions import Fraction
from functools import partial
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperdense import reduced
from hyperdense.reduced import ReducedHypergraph
from hyperdense.seeding import derive_rng

import reduced_oracles as oracle

ORACLE_SETTINGS = settings(max_examples=150, deadline=None)


def outcome(fn, *args):
    """fn's result, or the type and text of the exception it raised."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def parts(seed, m, largest, p, empty):
    """Class sizes 1..largest mixed, each class edge kept with probability p,
    and each constituent left empty with probability empty."""
    rng = derive_rng(seed, "reduced-oracle")
    sizes = {pair: rng.randint(1, largest) for pair in combinations(range(m), 2)}
    cons = {}
    for i, j, k in combinations(range(m), 3):
        every = product(range(sizes[(i, j)]), range(sizes[(i, k)]), range(sizes[(j, k)]))
        cons[(i, j, k)] = set() if rng.random() < empty else {e for e in every if rng.random() < p}
    return sizes, cons


@st.composite
def instances(draw):
    m = draw(st.integers(2, 9))
    sizes, cons = parts(draw(st.integers(0, 2**32)), m, draw(st.integers(1, 6)),
                        draw(st.sampled_from([0.0, 0.3, 0.6, 0.9, 1.0])), draw(st.sampled_from([0.0, 0.1, 0.5])))
    return ReducedHypergraph.from_parts(m, sizes, cons)


@st.composite
def mus(draw, rh):
    """mu: 0 or 1, the exact density of a constituent when a decimal names
    it, a hair above a floor or threshold tie, or any value in [0, 1]."""
    kind = draw(st.sampled_from(["zero", "one", "density", "nudged", "any"]))
    if kind == "zero":
        return 0.0
    if kind == "one":
        return 1.0
    if kind == "any":
        return draw(st.floats(0.0, 1.0))
    triples = list(combinations(range(rh.m), 3)) or [None]
    t = draw(st.sampled_from(triples))
    if kind == "density" and t is not None:
        exact = Fraction(len(rh.edges_of(t)), oracle.class_product(rh, t))
        if Fraction(str(float(exact))) == exact:
            return float(exact)
    # n d / s is where the floor, mu/d of an s-vertex class, reaches n
    s, d = draw(st.integers(1, 6)), draw(st.sampled_from([2, 4]))
    n = draw(st.integers(0, s // d))
    return min(1.0, n * d / s * (1 + 1e-12))


@st.composite
def picks(draw, rh):
    """An index subset and a red and a blue vertex for each of its pairs."""
    index = tuple(sorted(draw(st.sets(st.integers(0, rh.m - 1)))))
    vertex = lambda pair: draw(st.integers(0, rh.class_sizes[pair] - 1))  # noqa: E731
    pairs = list(combinations(index, 2))
    return index, {p: vertex(p) for p in pairs}, {p: vertex(p) for p in pairs}


def table_sets(cols, stage, index, mu, chosen):
    rows, table = reduced._stage_table(cols, stage, index, mu, chosen)
    assert rows.tolist() == [list(combinations(range(cols.m), 3)).index(t) for t in combinations(index, 3)]
    return [frozenset(row.nonzero()[0].tolist()) for row in table]


def kernels(rh):
    """Both stage candidate functions for rh: the numpy tables, then Python."""
    return partial(reduced._stage_candidates, reduced._columns(rh)), partial(reduced._stage_candidates_py, rh)


def built(candidates, rh, stage, index, mu, chosen):
    """The stage instance the pipeline builds on the candidate sets of candidates."""
    return reduced._instance(rh.class_sizes, stage, index, mu, candidates(stage, index, mu, chosen))


def reference_stages(rh, index, mu, reds, blues):
    """Per stage: its picks, the references' candidate function, floor divisor and anchor."""
    return {
        "red": ((), lambda *t: oracle.red_candidates(rh, mu, t), 2, "first"),
        "blue": ((reds,), lambda *t: oracle.blue_candidates(rh, mu, reds, t), 4, "outer"),
        "green": ((reds, blues), lambda *t: oracle.green_candidates(rh, reds, blues, t), 4, "last"),
    }


def least_density(rh):
    """The sparsest constituent's density, exactly."""
    return Fraction(len(rh.edges_of(rh.sparsest)), oracle.class_product(rh, rh.sparsest))


@ORACLE_SETTINGS
@given(instances())
@example(ReducedHypergraph.from_parts(2, {(0, 1): 3}, {}))
def test_the_build_keeps_the_sparsest_constituent(rh):
    assert rh.sparsest == oracle.mu_dense(rh, 0.0)[1]
    if rh.sparsest is None:
        return
    # mu at the least density, a tie that counts as dense, and a hair above
    at = float(least_density(rh))
    for mu in (at, math.nextafter(at, 2.0)):
        assert outcome(reduced.is_mu_dense, rh, mu) == outcome(oracle.mu_dense, rh, mu)
    if Fraction(str(at)) == least_density(rh):
        assert reduced.is_mu_dense(rh, at) == (True, rh.sparsest)
        if at < 1:
            assert reduced.is_mu_dense(rh, math.nextafter(at, 2.0)) == (False, rh.sparsest)


# class sizes 1 on (0, 1) and (1, 2) and 2 on the others: (0, 1, 2) has a
# class product of 2, (0, 1, 3) and (1, 2, 3) of 4 and (0, 2, 3) of 8
MIXED_SIZES = {(0, 1): 1, (0, 2): 2, (0, 3): 2, (1, 2): 1, (1, 3): 2, (2, 3): 2}


@pytest.mark.parametrize("edges, sparsest", [
    # (0, 1, 2) and (0, 1, 3) tie at 1/2: the first in combinations order is kept
    ({(0, 1, 2): 1, (0, 1, 3): 2, (0, 2, 3): 8, (1, 2, 3): 4}, (0, 1, 2)),
    # (0, 2, 3) has the most edges but the least density, 3/8
    ({(0, 1, 2): 1, (0, 1, 3): 2, (0, 2, 3): 3, (1, 2, 3): 4}, (0, 2, 3)),
])
def test_the_sparsest_constituent_is_compared_by_density(edges, sparsest):
    cons = {}
    for t, count in edges.items():
        i, j, k = t
        every = product(range(MIXED_SIZES[(i, j)]), range(MIXED_SIZES[(i, k)]), range(MIXED_SIZES[(j, k)]))
        cons[t] = set(list(every)[:count])
    rh = ReducedHypergraph(4, MIXED_SIZES, cons)
    assert rh.sparsest == sparsest
    least = float(least_density(rh))
    assert reduced.is_mu_dense(rh, least) == (True, sparsest)
    assert reduced.is_mu_dense(rh, math.nextafter(least, 1.0)) == (False, sparsest)


@ORACLE_SETTINGS
@given(st.data())
def test_stage_tables_and_floors_match_the_references(data):
    rh = data.draw(instances())
    mu = data.draw(mus(rh))
    assert reduced.is_mu_dense(rh, mu) == oracle.mu_dense(rh, mu)
    index, reds, blues = data.draw(picks(rh))
    cols = reduced._columns(rh)
    for stage, (chosen, candidates, d, anchor) in reference_stages(rh, index, mu, reds, blues).items():
        want = [candidates(*t) for t in combinations(index, 3)]
        assert table_sets(cols, stage, index, mu, chosen) == want, stage
        assert reduced._stage_candidates_py(rh, stage, index, mu, chosen) == want, stage
        expected = outcome(oracle.stage_instance, rh, index, candidates, mu, d, anchor)
        for kernel in kernels(rh):
            assert outcome(built, kernel, rh, stage, index, mu, chosen) == expected, stage


# each floor lies a hair above 1 (mu/d times the class) while one vertex is a
# candidate.  Its exact ceiling is 2, which that one candidate does not meet,
# so every path reports the breach
@pytest.mark.parametrize("stage, sizes", [("red", (4, 1, 1)), ("blue", (1, 8, 1)), ("green", (1, 1, 8))])
def test_a_floor_a_hair_above_an_integer_is_not_met_by_it(stage, sizes):
    a, b, c = sizes
    mu = 0.5 * (1 + 1e-12)
    rh = ReducedHypergraph.from_parts(3, {(0, 1): a, (0, 2): b, (1, 2): c}, {(0, 1, 2): {(0, 0, 0)}})
    reds = blues = {(0, 1): 0, (0, 2): 0, (1, 2): 0}
    chosen, candidates, d, anchor = reference_stages(rh, (0, 1, 2), mu, reds, blues)[stage]
    expected = (RuntimeError, f"{stage} candidate set has 1 elements, below {mu / d * max(sizes)}")
    assert outcome(oracle.stage_instance, rh, (0, 1, 2), candidates, mu, d, anchor) == expected
    for kernel in kernels(rh):
        assert outcome(built, kernel, rh, stage, (0, 1, 2), mu, chosen) == expected


@ORACLE_SETTINGS
@given(instances())
@example(ReducedHypergraph.from_parts(2, {(0, 1): 3}, {}))
@example(ReducedHypergraph.from_parts(4, dict(zip(combinations(range(4), 2), (1, 6, 2, 5, 3, 4))),
                                      {(0, 1, 2): {(0, 5, 1)}, (1, 2, 3): {(0, 0, 0), (4, 2, 3)}}))
def test_keys_increase_and_give_back_the_codes(rh):
    # the stage tables bisect the keys, so each row's run ends must stay in its own span
    cols = reduced._columns(rh)
    row = np.repeat(np.arange(len(cols.triples)), [b - a for a, b in zip(rh.offsets, rh.offsets[1:])])
    assert (np.diff(cols.keys) > 0).all()
    assert (cols.keys // cols.span == row).all()
    assert (cols.keys - cols.span * row).tolist() == list(rh.codes)


def test_padding_is_never_a_candidate():
    # the tables are padded to the widest class, 3 here; at mu = 0 every
    # count, a padding slot's 0 included, meets its threshold of 0
    rh = ReducedHypergraph.from_parts(3, {(0, 1): 1, (0, 2): 2, (1, 2): 3}, {})
    cols = reduced._columns(rh)
    assert table_sets(cols, "red", (0, 1, 2), 0.0, ()) == [frozenset({0})]
    assert table_sets(cols, "blue", (0, 1, 2), 0.0, ({(0, 1): 0},)) == [frozenset({0, 1})]


def test_a_missing_pick_counts_no_edge():
    # complete constituents: a row whose pick is missing must count nothing,
    # not the run of another vertex or of the triple before it
    rh = oracle.complete_reduced(5, 2)
    cols = reduced._columns(rh)
    reds = {pair: 1 for pair in combinations(range(5), 2) if pair != (1, 2)}
    got = table_sets(cols, "blue", range(5), 1.0, (reds,))
    assert got == [frozenset() if t[:2] == (1, 2) else frozenset({0, 1}) for t in combinations(range(5), 3)]
    assert table_sets(cols, "green", range(5), 1.0, (reds, {})) == [frozenset()] * 10


@ORACLE_SETTINGS
@given(st.data())
def test_selection_matches_the_reference(data):
    rh = data.draw(instances())
    mu = data.draw(mus(rh))
    f = data.draw(st.integers(1, rh.m))
    assert outcome(reduced.select_rainbow_core, rh, mu, f) == outcome(oracle.select_rainbow_core, rh, mu, f)


def test_selection_matches_the_reference_on_mixed_instances():
    rng = derive_rng(5, "mixed-selection")
    kinds = {"selection": 0, "none": 0, "raised": 0}
    for trial in range(300):
        m = rng.randint(3, 9)
        sizes, cons = parts(trial, m, rng.randint(1, 5), rng.choice([0.5, 0.8, 1.0]), rng.choice([0.0, 0.05]))
        rh = ReducedHypergraph.from_parts(m, sizes, cons)
        worst = min(Fraction(len(rh.edges_of(t)), oracle.class_product(rh, t)) for t in combinations(range(m), 3))
        mu = rng.choice([0.0, 1.0, rng.random(), float(worst), float(worst) / 2])
        f = rng.randint(1, m)
        got = outcome(reduced.select_rainbow_core, rh, mu, f)
        assert got == outcome(oracle.select_rainbow_core, rh, mu, f), (trial, mu, f)
        kinds["raised" if isinstance(got, tuple) else "none" if got is None else "selection"] += 1
    assert min(kinds.values()) >= 20, kinds  # every kind of outcome is exercised


# Up to PYTHON_INDEX_LIMIT indices the stages run triple by triple in
# Python, past it on numpy tables.  At the limit and one past it each path
# is forced in turn: both must give the reference's selection, None, or
# exception with the same text, mu outside [0, 1] included.
INDEX_LIMIT = reduced.PYTHON_INDEX_LIMIT


def on_both_paths(fn, m, *args):
    """The outcome of fn(*args) for an m-index input in Python, then on numpy tables."""
    got = []
    for limit in (m, m - 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reduced, "PYTHON_INDEX_LIMIT", limit)
            got.append(outcome(fn, *args))
    return got


@pytest.mark.parametrize("m", [INDEX_LIMIT, INDEX_LIMIT + 1])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_python_and_numpy_selections_agree_at_the_limit(m, data):
    sizes, cons = parts(data.draw(st.integers(0, 2**32)), m, data.draw(st.integers(1, 4)),
                        data.draw(st.sampled_from([0.5, 0.8, 1.0])), data.draw(st.sampled_from([0.0, 0.02])))
    rh = ReducedHypergraph.from_parts(m, sizes, cons)
    mu = data.draw(st.one_of(mus(rh), st.sampled_from([-0.5, 1.5, float("nan")])))
    f = data.draw(st.integers(1, m))
    assert outcome(reduced.is_mu_dense, rh, mu) == outcome(oracle.mu_dense, rh, mu)
    want = outcome(oracle.select_rainbow_core, rh, mu, f)
    assert on_both_paths(reduced.select_rainbow_core, m, rh, mu, f) == [want, want]


@pytest.mark.parametrize("m", [INDEX_LIMIT, INDEX_LIMIT + 1])
def test_python_and_numpy_selections_agree_on_every_outcome_at_the_limit(m):
    rng = derive_rng(m, "selection-paths")
    kinds = {"selection": 0, "none": 0, "not dense": 0, "mu range": 0}
    for trial in range(60):
        sizes, cons = parts(trial, m, rng.randint(1, 3), rng.choice([0.5, 0.8, 1.0]), rng.choice([0.0, 0.02]))
        rh = ReducedHypergraph.from_parts(m, sizes, cons)
        worst = min(len(rh.edges_of(t)) / oracle.class_product(rh, t) for t in combinations(range(m), 3))
        mu = rng.choice([0.0, 1.0, worst, worst / 2, 1.5])
        f = rng.randint(1, m)
        listed, tabled = on_both_paths(reduced.select_rainbow_core, m, rh, mu, f)
        assert listed == tabled == outcome(oracle.select_rainbow_core, rh, mu, f), (trial, mu, f)
        if isinstance(listed, tuple):
            kinds["mu range" if listed[1] == "mu must lie in [0, 1]" else "not dense"] += 1
        else:
            kinds["none" if listed is None else "selection"] += 1
    assert min(kinds.values()) >= 5, kinds  # every kind of outcome is exercised


def bench_inputs():
    path = Path(__file__).parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 5, 29])
def test_selection_matches_the_reference_on_the_benchmark_instances(seed):
    inputs = bench_inputs()
    found = 0
    for m in (24, 28, 32):
        sizes, cons = inputs.reduced_instance(inputs.rng_for("search", seed, f"reduced/{m}"), m, 3, 0.55, 0.4)
        rh = ReducedHypergraph.from_parts(m, sizes, cons)
        memo = {}
        for f in range(1, 11):
            got = reduced.select_rainbow_core(rh, 0.4, f)
            assert got == oracle.select_rainbow_core(rh, 0.4, f, memo), (m, f)
            found += got is not None
    assert found >= 10
