"""The density audits against their reference implementations.

The exact audits are checked against Gray-code scans, and the vertex and
profile heuristics against their two original hand-written descents.
The block-wise three-set audit is also checked against the per-X scan it
replaced, and the three heuristics, which run every restart at once in
blocks, against the searches that ran one restart at a time.  Reports must agree byte for byte: slack, verdict, certificate, argmin,
stats and every profile entry.  Empty and complete hosts and d in {0, 1}
are drawn often, because they tie many subsets and exercise the
tie-breaking rules.  The vertex and triple paths are called below the
certificate re-verification: at an exact slack of 0 the float slack can
land on either side, and that boundary is not what these properties test.
"""

import json
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gray_oracles import profile_exact, triple_exact, triple_exact_by_x, vertex_exact
import numpy as np

from heuristic_oracles import codegrees, profile_heuristic, triple_heuristic, vertex_heuristic
from hyperdense import DensityQuery, Hypergraph, density, density_profile, triple_density_check, vertex_density_check
from hyperdense.density import (
    _codegree_index,
    _codegrees,
    _restart_blocks,
    _triple_exact,
    _triple_heuristic,
    _vertex_exact,
    _vertex_heuristic,
    ordered_triple_count,
)
from hyperdense.rainbow import build_pattern_host, random_pair_colouring
from hyperdense.seeding import derive_rng

ORACLE_SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def hosts(draw, max_n, uniformities=(2, 3, 4), often_below_k=False, min_n=0):
    k = draw(st.sampled_from(uniformities))
    n = draw(st.integers(0, k - 1) if often_below_k and draw(st.booleans()) else st.integers(min_n, max_n))
    candidates = list(combinations(range(n), k))
    kind = draw(st.sampled_from(["empty", "complete", "random"]))
    if kind == "empty":
        edges = []
    elif kind == "complete":
        edges = candidates
    else:
        keep = draw(st.lists(st.booleans(), min_size=len(candidates), max_size=len(candidates)))
        edges = [e for e, kept in zip(candidates, keep) if kept]
    return Hypergraph(k, n, tuple(edges))


densities = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
etas = st.one_of(st.sampled_from([0.001, 0.03, 0.5, 1.0]), st.floats(1e-4, 1.0))
grid_etas = st.one_of(st.sampled_from([0.25, 2 / 3, 1.0]), st.floats(0.01, 1.0))
budgets = st.integers(1, 30)
restart_counts = st.integers(1, 6)
seeds = st.integers(0, 2**32)


def same(report, reference) -> bool:
    return json.dumps(report.to_dict()) == json.dumps(reference.to_dict())


@ORACLE_SETTINGS
@given(hosts(max_n=10), densities, etas)
def test_vertex_exact_matches_gray_scan(h, d, eta):
    query = DensityQuery(d=d, eta=eta)
    assert same(_vertex_exact(h, query), vertex_exact(h, query))


@ORACLE_SETTINGS
@given(hosts(max_n=10), st.lists(grid_etas, min_size=1))
def test_profile_exact_matches_gray_scan(h, grid):
    assert same(density_profile(h, grid), profile_exact(h, grid))


@ORACLE_SETTINGS
@given(hosts(max_n=6, uniformities=(3,)), densities, etas)
def test_triple_exact_matches_gray_scan(h, d, eta):
    query = DensityQuery(d=d, eta=eta)
    assert same(_triple_exact(h, query), triple_exact(h, query))


@ORACLE_SETTINGS
@given(hosts(max_n=6, uniformities=(3,)), densities, etas)
def test_triple_exact_matches_gray_scan_one_x_per_block(h, d, eta):
    # one X row per block: below n = 8 the whole scan is otherwise one block
    query = DensityQuery(d=d, eta=eta)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(density, "_TRIPLE_BLOCK", 1)
        report = _triple_exact(h, query)
    assert same(report, triple_exact(h, query))


@ORACLE_SETTINGS
@given(hosts(max_n=10), densities, etas, st.lists(grid_etas, min_size=1, max_size=4))
def test_vertex_and_profile_exact_match_gray_scan_three_masks_per_block(h, d, eta, grid):
    # three masks per block: a size's minimisers then span many blocks.  The
    # limit is lowered so that these small hosts take the numpy tables
    query = DensityQuery(d=d, eta=eta)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(density, "_SCAN_BLOCK", 3)
        mp.setattr(density, "PYTHON_TABLE_LIMIT", -1)
        vertex, profile = _vertex_exact(h, query), density_profile(h, grid)
    assert same(vertex, vertex_exact(h, query))
    assert same(profile, profile_exact(h, grid))


# Up to PYTHON_TABLE_LIMIT vertices the vertex and profile audits table
# their subsets in Python lists, past it in numpy.  At the limit and one
# past it each path is forced in turn, and the reports must equal each
# other and the Gray-code scans.  Empty and complete hosts tie every subset
# of a size, and random hosts some, so the least-mask tie rule picks many of
# the vertex and profile certificates, whatever order a scan meets them in.
TABLE_LIMIT = density.PYTHON_TABLE_LIMIT


def on_both_tables(audit, n):
    """audit() with an n-vertex host's tables in Python lists, then in numpy."""
    reports = []
    for limit in (n, n - 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(density, "PYTHON_TABLE_LIMIT", limit)
            reports.append(audit())
    return reports


@pytest.mark.parametrize("n", [TABLE_LIMIT, TABLE_LIMIT + 1])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_python_and_numpy_tables_agree_at_the_limit(n, data):
    h = data.draw(hosts(max_n=n, min_n=n, uniformities=(2, 3)))
    query = DensityQuery(d=data.draw(densities), eta=data.draw(etas))
    grid = data.draw(st.lists(grid_etas, min_size=1, max_size=4))
    listed, tabled = on_both_tables(lambda: (_vertex_exact(h, query).to_dict(), density_profile(h, grid).to_dict()), n)
    assert listed == tabled
    assert listed == (vertex_exact(h, query).to_dict(), profile_exact(h, grid).to_dict())


@pytest.mark.parametrize("n", [TABLE_LIMIT, TABLE_LIMIT + 1])
@pytest.mark.parametrize("kind", ["empty", "complete", "random"])
def test_checked_audits_agree_on_both_tables_at_the_limit(kind, n):
    h = {"empty": Hypergraph(3, n, ()), "complete": Hypergraph(3, n, tuple(combinations(range(n), 3))),
         "random": random_host(3, n, 0.3, n)}[kind]
    grid = [0.1, 0.25, 0.5, 2 / 3, 1.0]
    for d in (0.0, 0.05, 0.3, 1.0):
        query = DensityQuery(d=d, eta=0.01)
        listed, tabled = on_both_tables(lambda: vertex_density_check(h, query).to_dict(), n)
        assert listed == tabled == vertex_exact(h, query).to_dict(), d
    listed, tabled = on_both_tables(lambda: density_profile(h, grid).to_dict(), n)
    assert listed == tabled == profile_exact(h, grid).to_dict()


# Where several subsets attain the minimum, the certificate is the least
# bitmask among them.  On the host 012, 013, 123 at d = 1, eta = 0.01 the
# slack -0.36 is attained on {0, 2, 3} (mask 13, no edge inside) and on all
# four vertices (mask 15, three edges).  On the host 012, 123 the density 0
# on three vertices is attained on {0, 1, 3} (mask 11) and {0, 2, 3} (mask
# 13), which a Gray-code walk meets first.
def test_vertex_ties_take_the_least_mask_on_both_tables():
    h = Hypergraph(3, 4, ((0, 1, 2), (0, 1, 3), (1, 2, 3)))
    query = DensityQuery(d=1.0, eta=0.01)
    for report in on_both_tables(lambda: vertex_density_check(h, query), 4):
        assert report.slack == 0 - 1.0 + 0.01 * 4**3
        assert report.certificate == {"U": [0, 2, 3]}
        assert report.stats["argmin"] == [0, 2, 3]


def test_profile_ties_take_the_least_mask_on_both_tables():
    h = Hypergraph(3, 4, ((0, 1, 2), (1, 2, 3)))
    for report in on_both_tables(lambda: density_profile(h, [0.25, 1.0]), 4):
        assert [(e.density, e.subset) for e in report.entries] == [(0.0, (0, 1, 3)), (0.5, (0, 1, 2, 3))]


# Three disjoint triangles at d = 0.01: the least slack is taken by the
# unions of two triangles in each role, one for each triangle to miss, so
# every order of the three unions ties.  The least X mask is the first two
# triangles, and beside it the least Y mask is the first and the third,
# where a Gray-code walk over Y meets the second and the third first.
def test_triple_ties_take_the_least_x_and_then_the_least_y_mask():
    h = Hypergraph(3, 9, ((0, 1, 2), (3, 4, 5), (6, 7, 8)))
    query = DensityQuery(d=0.01, eta=0.001)
    report = triple_density_check(h, query)
    assert report.slack == pytest.approx(0.001 * 9**3 - 0.01 * 6**3)
    assert report.certificate == {"X": [0, 1, 2, 3, 4, 5], "Y": [0, 1, 2, 6, 7, 8], "Z": [3, 4, 5, 6, 7, 8]}
    assert same(report, triple_exact_by_x(h, query))


def triple_host(kind: str, n: int) -> Hypergraph:
    if kind == "empty":
        return Hypergraph(3, n, ())
    if kind == "complete":
        return Hypergraph(3, n, tuple(combinations(range(n), 3)))
    return random_host(3, n, 0.4, n)


# From n = 8 on the X rows span several blocks (4 at n = 8, 64 at n = 10).
# On the complete host d = 0.25, 0.5 and 0.75 tie the minimum across many
# blocks (57 of 64 at n = 10, d = 0.5), so the first minimiser must survive
# every later tie; d = 0 ties every pair at the empty triple's slack.
@pytest.mark.parametrize("n", [7, 8, 9, 10])
@pytest.mark.parametrize("kind", ["empty", "complete", "random"])
def test_triple_exact_blocks_match_per_x_scan(kind, n):
    h = triple_host(kind, n)
    rng = derive_rng(n, f"triple-blocks/{kind}")
    ds = (0.0, 0.25, 0.5, 0.75, 1.0) if kind == "complete" else (0.0, 1.0, rng.random())
    for d in ds:
        query = DensityQuery(d=d, eta=0.001)
        assert same(_triple_exact(h, query), triple_exact_by_x(h, query))


@ORACLE_SETTINGS
@given(hosts(max_n=10), densities, etas, budgets, restart_counts, seeds)
def test_vertex_heuristic_matches_reference_descent(h, d, eta, budget, restarts, seed):
    query = DensityQuery(d=d, eta=eta, mode="heuristic", budget=budget, restarts=restarts, seed=seed)
    assert same(_vertex_heuristic(h, query), vertex_heuristic(h, query))


@ORACLE_SETTINGS
# n < k half the time: then every eta's size floor exceeds n and the entry is empty
@given(hosts(max_n=10, often_below_k=True), st.lists(grid_etas, min_size=1, max_size=4),
       budgets, restart_counts, seeds)
def test_profile_heuristic_matches_reference_descent(h, grid, budget, restarts, seed):
    report = density_profile(h, grid, mode="heuristic", budget=budget, restarts=restarts, seed=seed)
    assert same(report, profile_heuristic(h, grid, budget, restarts, seed))


@ORACLE_SETTINGS
@given(hosts(max_n=10, uniformities=(3,)), densities, etas, budgets, restart_counts, seeds)
def test_triple_heuristic_matches_reference_descent(h, d, eta, budget, restarts, seed):
    query = DensityQuery(d=d, eta=eta, mode="heuristic", budget=budget, restarts=restarts, seed=seed)
    assert same(_triple_heuristic(h, query), triple_heuristic(h, query))


# Blocks of 1, 2 and 3 restarts: with up to 6 restarts the last block is
# often short, and a tie between blocks must keep the earlier restart.
@ORACLE_SETTINGS
@given(hosts(max_n=8, uniformities=(3,)), densities, budgets, st.integers(1, 3), restart_counts, seeds)
def test_heuristics_match_reference_in_small_blocks(h, d, budget, rows, restarts, seed):
    query = DensityQuery(d=d, eta=0.01, mode="heuristic", budget=budget, restarts=restarts, seed=seed)
    grid = [0.25, 0.5]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(density, "_RESTART_BLOCK", rows * (3 * h.edge_count + h.n))
        vertex = _vertex_heuristic(h, query)
        profile = density_profile(h, grid, mode="heuristic", budget=budget, restarts=restarts, seed=seed)
        mp.setattr(density, "_RESTART_BLOCK", rows * (6 * h.edge_count + h.n))
        triple = _triple_heuristic(h, query)
    assert same(vertex, vertex_heuristic(h, query))
    assert same(profile, profile_heuristic(h, grid, budget, restarts, seed))
    assert same(triple, triple_heuristic(h, query))


# One restart per block, on hosts where two restarts end at the same least
# value with different certificates: the earlier restart must keep it.
@pytest.mark.parametrize("notion, n, edges, d, budget", [
    ("vertex", 5, ((0, 1, 2), (1, 2, 3), (2, 3, 4)), 0.5, 1),
    ("triple", 4, tuple(combinations(range(4), 3)), 0.5, 2),
])
def test_ties_between_blocks_keep_the_earlier_restart(notion, n, edges, d, budget):
    h = Hypergraph(3, n, edges)
    query = DensityQuery(d=d, eta=0.01, mode="heuristic", budget=budget, restarts=6)
    audit, reference = {"vertex": (_vertex_heuristic, vertex_heuristic),
                        "triple": (_triple_heuristic, triple_heuristic)}[notion]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(density, "_RESTART_BLOCK", 1)
        report = audit(h, query)
    assert report.verdict == "violated"
    assert same(report, reference(h, query))


@pytest.mark.parametrize("restarts, rows, sizes", [(7, 3, [3, 3, 1]), (6, 3, [3, 3]), (5, 1, [1] * 5), (2, 64, [2])])
def test_restart_blocks_cover_every_restart_once(restarts, rows, sizes):
    cells = 10
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(density, "_RESTART_BLOCK", rows * cells)
        blocks = list(_restart_blocks(restarts, cells))
    assert [len(b) for b in blocks] == sizes
    assert [r for b in blocks for r in b] == list(range(restarts))


def random_host(k: int, n: int, p: float, seed: int) -> Hypergraph:
    rng = derive_rng(seed, "oracle-host")
    return Hypergraph(k, n, tuple(e for e in combinations(range(n), k) if rng.random() < p))


# At n <= 10 a descent makes only a few moves.  These hosts are the size the
# heuristics run at: an audit there makes up to about a hundred moves, each
# relying on the inside degrees that the moves before it kept up to date.
BENCH_HOSTS = {
    "pattern-60": lambda: build_pattern_host(random_pair_colouring(60, 3, 1)),
    "random-4-uniform-16": lambda: random_host(4, 16, 0.3, 0),
}


@pytest.mark.parametrize("name", BENCH_HOSTS)
@pytest.mark.parametrize("d", [0.01, 0.2])
def test_vertex_heuristic_matches_reference_descent_at_bench_size(name, d):
    h = BENCH_HOSTS[name]()
    query = DensityQuery(d=d, eta=0.01, mode="heuristic", restarts=4)
    assert same(_vertex_heuristic(h, query), vertex_heuristic(h, query))


@pytest.mark.parametrize("name", BENCH_HOSTS)
def test_profile_heuristic_matches_reference_descent_at_bench_size(name):
    h = BENCH_HOSTS[name]()
    grid = [0.25, 0.5]
    report = density_profile(h, grid, mode="heuristic", restarts=4)
    assert same(report, profile_heuristic(h, grid, 1000, 4, 0))


@pytest.mark.parametrize("name", ["pattern-60"])
@pytest.mark.parametrize("d", [0.01, 0.2])
def test_triple_heuristic_matches_reference_descent_at_bench_size(name, d):
    h = BENCH_HOSTS[name]()
    query = DensityQuery(d=d, eta=0.01, mode="heuristic")
    assert same(_triple_heuristic(h, query), triple_heuristic(h, query))


# At small d two flip scores can lie within 1e-12 of each other without
# being equal.  The argmin then takes the lower, later vertex, while the
# scalar rule keeps the earlier one; the scan must decide those moves.  On
# the 40-vertex host some such move has no exact tie after the argmin, so
# only the check of the earlier scores sends it to the scan.
@pytest.mark.parametrize("n, seed, d, restarts", [(60, 1, 0.01, 4), (40, 2, 0.02, 8)])
def test_scalar_scan_overrules_the_argmin_at_near_ties(monkeypatch, n, seed, d, restarts):
    scan = density._first_descent_move
    overruled = []

    def spy(scores, stay):
        move = scan(scores, stay)
        overruled.append(move != scores.index(min(scores)))
        return move

    monkeypatch.setattr(density, "_first_descent_move", spy)
    h = build_pattern_host(random_pair_colouring(n, 3, seed))
    query = DensityQuery(d=d, eta=0.01, mode="heuristic", restarts=restarts)
    report = _vertex_heuristic(h, query)
    assert any(overruled)
    assert same(report, vertex_heuristic(h, query))


def test_codegrees_match_ordered_triple_counts():
    rng = derive_rng(0, "codegree-sets")
    for seed, (n, p) in enumerate([(12, 0.5), (20, 0.2), (30, 0.1)]):
        h = random_host(3, n, p, seed)
        pairs = [({v for v in range(n) if rng.random() < 0.5}, {v for v in range(n) if rng.random() < 0.5})
                 for _ in range(20)]
        # every pair at once, one column each
        first, second = (np.array([[v in sets[i] for sets in pairs] for v in range(n)]) for i in (0, 1))
        table = _codegrees(_codegree_index(h), first, second)
        for c, (one, two) in enumerate(pairs):
            expected = [ordered_triple_count(h, one, two, {w}) for w in range(n)]
            assert codegrees(h, one, two) == expected
            assert table[:, c].tolist() == expected
