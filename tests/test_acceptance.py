"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances and runtime budgets are pinned here.
"""

import time
from itertools import combinations, permutations, product
from math import comb, isclose

import pytest

from hyperdense import (
    DensityQuery,
    Hypergraph,
    PairColouring,
    RHO,
    TAU,
    audit_kary_subsets,
    build_kary,
    build_pattern_host,
    contains_copy,
    count_homomorphisms,
    enumerate_hypergraphs,
    find_kary_embedding,
    find_rainbow_ordering,
    forced_colouring,
    induced_edge_count,
    inequality_gap,
    is_frequent,
    kary_edge_count,
    random_pair_colouring,
    scan_inequality,
    select_rainbow_core,
    triple_density_check,
    verify_core,
    verify_density_certificate,
    verify_rainbow_colouring,
    vertex_density_check,
)
from hyperdense.rainbow import ShadowColouring
from hyperdense.reduced import reverse_instance, select_green, select_red
from hyperdense.reduced import SelectionInstance
from hyperdense.seeding import derive_rng
from hyperdense.ternary import classify_patterns

from conftest import FIGURE_COLOURS, FIGURE_ORDER
from kary_oracles import vector_of
from reduced_oracles import complete_reduced, random_reduced


def report(number: int, label: str, started: float) -> None:
    print(f"ACCEPTANCE {number:2d} PASS {label} ({time.time() - started:.1f}s)")


def test_criterion_01_ternary_edge_counts():
    t0 = time.time()
    for n, expected in ((1, 1), (2, 30), (3, 819)):
        host = build_kary(3, n)
        assert len(host.edges) == expected
        assert expected == (27**n - 3**n) // 24 == kary_edge_count(3, n)
    assert time.time() - t0 < 5.0
    report(1, "ternary hosts have 1, 30, 819 edges at depths 1..3", t0)


def test_criterion_02_inequality_scan():
    t0 = time.time()
    minimum, point = scan_inequality(201)
    assert minimum >= -1e-9
    assert abs(inequality_gap(1.0, 1.0, 0.0)) <= 1e-12
    assert abs(inequality_gap(1.0, 1.0, 1.0)) <= 1e-12
    rel = abs(2.0 ** (TAU - 1.0) - 3.0 ** (TAU - 3.0)) / 3.0 ** (TAU - 3.0)
    assert rel <= 1e-12
    assert time.time() - t0 < 10.0
    report(2, f"cube inequality floor {minimum:.2e} over the 201^3 grid", t0)


def test_criterion_03_subset_density_audit():
    t0 = time.time()
    exact = audit_kary_subsets(2, mode="exact")
    assert exact.examined == 512 and exact.violations == []
    sampled = audit_kary_subsets(3, mode="sampled", samples=10**6, seed=0)
    assert sampled.examined == 10**6 and sampled.violations == []
    assert time.time() - t0 < 120.0
    report(3, "edge floor holds on all 512 subsets (depth 2) and 1e6 samples (depth 3)", t0)


def test_criterion_04_slice_family_tightness():
    t0 = time.time()
    for n in range(4):
        host = build_kary(3, n)
        for r in range(n + 1):
            members = [
                v for v in range(3**n) if all(d < 2 for d in vector_of(v, 3, n)[:r])
            ]
            brute = induced_edge_count(host, members)
            assert brute == 2**r * (27 ** (n - r) - 3 ** (n - r)) // 24
    assert abs((2.0 / 3.0) ** RHO - 0.25) <= 1e-12
    report(4, "binary-prefix slice edge counts match the closed form; (2/3)^rho = 1/4", t0)


def test_criterion_05_ordering_decider(c5_minus, k4):
    t0 = time.time()
    # the reference ordering matches the drawn colouring on all 9 pairs
    forced = forced_colouring(c5_minus, FIGURE_ORDER)
    assert isinstance(forced, ShadowColouring)
    assert forced.colours == FIGURE_COLOURS
    witness = find_rainbow_ordering(c5_minus)
    assert witness is not None and verify_rainbow_colouring(c5_minus, witness)
    # the complete pattern on four vertices conflicts for every ordering
    assert find_rainbow_ordering(k4) is None
    assert all(
        not isinstance(forced_colouring(k4, order), ShadowColouring)
        for order in permutations(range(4))
    )
    # 100 random linear patterns on <= 8 vertices all get witnesses
    rng = derive_rng(0, "acceptance-linear")
    for _ in range(100):
        n = rng.randint(4, 8)
        triples = list(combinations(range(n), 3))
        rng.shuffle(triples)
        used, edges = set(), []
        for t in triples:
            pairs = set(combinations(t, 2))
            if pairs & used:
                continue
            used |= pairs
            edges.append(t)
        pattern = Hypergraph.from_edges(3, n, edges)
        w = find_rainbow_ordering(pattern)
        assert w is not None and verify_rainbow_colouring(pattern, w)
    # fixed-ordering consistency agrees with naive enumeration (shadow <= 9)
    def naive(pattern, order):
        faces = sorted({f for e in pattern.edges for f in combinations(e, 2)})
        pos = {v: i for i, v in enumerate(order)}
        for assignment in product((1, 2, 3), repeat=len(faces)):
            colour = dict(zip(faces, assignment))
            if all(
                colour[tuple(x for x in e if x != u)] == ell
                for e in pattern.edges
                for ell, u in enumerate(sorted(e, key=pos.get), 1)
            ):
                return True
        return False

    for pattern in enumerate_hypergraphs(3, 4):
        for order in permutations(range(4)):
            fast = isinstance(forced_colouring(pattern, order), ShadowColouring)
            assert fast == naive(pattern, order)
    checked = 0
    while checked < 3:
        edges = rng.sample(list(combinations(range(5), 3)), 3)
        pattern = Hypergraph.from_edges(3, 5, edges)
        if len({f for e in pattern.edges for f in combinations(e, 2)}) > 9:
            continue
        for _ in range(2):
            order = tuple(rng.sample(range(5), 5))
            fast = isinstance(forced_colouring(pattern, order), ShadowColouring)
            assert fast == naive(pattern, order)
        checked += 1
    report(5, "ordering decider: figure colouring, conflicts, linear patterns, naive oracle", t0)


def test_criterion_06_pattern_host_properties(k4):
    t0 = time.time()
    pairs = list(combinations(range(4), 2))
    for assignment in product((1, 2, 3), repeat=6):
        phi = PairColouring(3, 4, dict(zip(pairs, assignment)))
        assert contains_copy(k4, build_pattern_host(phi)) is None
    total = comb(60, 3)
    hits = 0
    for seed in range(100):
        host = build_pattern_host(random_pair_colouring(60, 3, seed))
        density = len(host.edges) / total
        if abs(density - 1 / 27) <= 0.01:
            hits += 1
    assert hits >= 95
    assert time.time() - t0 < 60.0
    report(6, f"pattern hosts: no complete pattern in 729 colourings; density ok for {hits}/100 seeds", t0)


def test_criterion_07_frequency_decider(k4):
    t0 = time.time()
    host4 = build_kary(3, 4)
    for pattern in enumerate_hypergraphs(3, 4):
        assert (find_kary_embedding(pattern) is not None) == (
            contains_copy(pattern, host4) is not None
        )
    classes = classify_patterns(5)
    assert sum(classes.values()) == 1024 and classes["frequent_not_orderable"] == 0
    assert classes == {"frequent_and_orderable": 181, "orderable_only": 60, "neither": 783,
                       "frequent_not_orderable": 0}
    assert not is_frequent(k4)
    report(7, "frequency decider: 16-pattern agreement, 1024-pattern sweep consistent", t0)


def test_criterion_08_homomorphism_oracle(single_edge):
    t0 = time.time()
    rng = derive_rng(0, "acceptance-hom")

    def random_host(n, p):
        return Hypergraph.from_edges(
            3, n, [e for e in combinations(range(n), 3) if rng.random() < p]
        )

    for _ in range(50):
        host = random_host(rng.randint(4, 9), rng.random())
        assert count_homomorphisms(single_edge, host) == 6 * len(host.edges)
    host = random_host(7, 0.5)
    for f in (1, 2, 3, 5):
        assert count_homomorphisms(Hypergraph(3, f, ()), host) == host.n**f
    for _ in range(20):
        pattern = random_host(4, 0.5)
        small = random_host(rng.randint(5, 7), 0.3)
        missing = [e for e in combinations(range(small.n), 3) if e not in small.edge_set]
        if not missing:
            continue
        bigger = Hypergraph.from_edges(3, small.n, list(small.edges) + [rng.choice(missing)])
        assert count_homomorphisms(pattern, small) <= count_homomorphisms(pattern, bigger)
    report(8, "homomorphism counts: six-per-edge identity, power law, monotonicity", t0)


def test_criterion_09_density_auditors():
    t0 = time.time()
    rng = derive_rng(0, "acceptance-density")
    for _ in range(25):
        n = rng.randint(8, 14)
        h = Hypergraph.from_edges(
            3, n, [e for e in combinations(range(n), 3) if rng.random() < 60 / comb(n, 3)]
        )
        d, eta = rng.random(), 0.001
        report_ = vertex_density_check(h, DensityQuery(d=d, eta=eta))
        brute = min(
            induced_edge_count(h, [v for v in range(n) if mask >> v & 1])
            - d * comb(bin(mask).count("1"), 3)
            + eta * n**3
            for mask in range(1 << n)
        )
        assert isclose(report_.slack, brute, abs_tol=1e-9)
        if report_.verdict == "violated":
            assert isclose(verify_density_certificate(h, report_), report_.slack, abs_tol=1e-9)
    # every violated certificate re-verifies with identical negative slack
    verified = 0
    while verified < 10:
        h = Hypergraph.from_edges(
            3, 9, [e for e in combinations(range(9), 3) if rng.random() < 0.15]
        )
        rep = vertex_density_check(h, DensityQuery(d=0.95, eta=0.0001))
        if rep.verdict != "violated":
            continue
        again = verify_density_certificate(h, rep)
        assert again < 0 and isclose(again, rep.slack, abs_tol=1e-9)
        verified += 1
    # coordinate descent never increases the objective, 100 runs at n = 30
    runs = 0
    while runs < 100:
        h = Hypergraph.from_edges(
            3, 30, [e for e in combinations(range(30), 3) if rng.random() < 0.1]
        )
        q = DensityQuery(d=rng.random(), eta=0.0001, mode="heuristic", restarts=1,
                         budget=25, seed=runs)
        rep = triple_density_check(h, q)
        for trace in rep.stats["objective_traces"]:
            assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
            runs += 1
    report(9, "density auditors: exact = brute force, certificates re-verify, descent monotone", t0)


def test_criterion_10_selection_soundness():
    t0 = time.time()
    rng = derive_rng(0, "acceptance-selection")
    successes = 0
    for trial in range(200):
        m = rng.randint(4, 12)
        rh = random_reduced(m, rng.randint(2, 4), 0.6, trial, mu=0.4)
        sel = select_rainbow_core(rh, 0.4, rng.randint(2, 4))
        if sel is not None:
            assert verify_core(rh, sel)
            successes += 1
    for m in range(2, 9):
        rh = complete_reduced(m, 2)
        for f in range(1, m + 1):
            sel = select_rainbow_core(rh, 1.0, f)
            assert sel is not None and verify_core(rh, sel)
    matched = 0
    for trial in range(50):
        size = 7
        elems = tuple(range(3))
        classes = {p: elems for p in combinations(range(size), 2)}
        cands = {
            t: frozenset(e for e in elems if rng.random() < 0.75) or frozenset({0})
            for t in combinations(range(size), 3)
        }
        inst = SelectionInstance(size, classes, cands)
        green = select_green(inst, 3)
        red = select_red(reverse_instance(inst), 3)
        if green is None:
            assert red is None
            continue
        g_idx, g_choices = green
        r_idx, r_choices = red
        assert g_idx == tuple(sorted(size - 1 - x for x in r_idx))
        assert g_choices == {
            (size - 1 - b, size - 1 - a): e for (a, b), e in r_choices.items()
        }
        matched += 1
    assert matched > 0
    report(10, f"selection pipeline: {successes}/200 verified successes, reversal identity", t0)
