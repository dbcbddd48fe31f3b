import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, count, islice
from math import comb, isclose
from pathlib import Path

import numpy as np
import pytest

import hyperdense
from hyperdense import (
    DensityQuery,
    Hypergraph,
    build_kary,
    complete_hypergraph,
    density_profile,
    induced_edge_count,
    triple_density_check,
    verify_density_certificate,
    vertex_density_check,
)
from hyperdense import density
from hyperdense.density import (
    ordered_triple_count,
    size_floor,
    subset_relative_density,
)
from hyperdense.inequalities import RHO
from hyperdense.seeding import derive_rng
from conftest import peak_bytes


def random_host(rng, n, p):
    edges = [e for e in combinations(range(n), 3) if rng.random() < p]
    return Hypergraph.from_edges(3, n, edges)


def brute_force_vertex_min(h, d, eta):
    best = None
    for mask in range(1 << h.n):
        U = [v for v in range(h.n) if mask >> v & 1]
        slack = induced_edge_count(h, U) - d * comb(len(U), 3) + eta * h.n**3
        if best is None or slack < best:
            best = slack
    return best


# --- vertex notion ---------------------------------------------------------------


def test_complete_host_satisfied():
    h = complete_hypergraph(3, 8)
    report = vertex_density_check(h, DensityQuery(d=1.0, eta=0.01))
    assert report.verdict == "satisfied"
    assert report.certificate is None


def test_empty_host_violated_with_expected_slack():
    h = Hypergraph(3, 10, ())
    report = vertex_density_check(h, DensityQuery(d=0.5, eta=0.01))
    assert report.verdict == "violated"
    assert report.certificate == {"U": list(range(10))}
    assert isclose(report.slack, -50.0)
    assert isclose(verify_density_certificate(h, report), report.slack)


def test_exact_minimum_matches_brute_force():
    rng = derive_rng(31, "vertex-exact")
    for _ in range(8):
        h = random_host(rng, rng.randint(5, 9), rng.random())
        d, eta = rng.random(), 0.001
        report = vertex_density_check(h, DensityQuery(d=d, eta=eta))
        assert isclose(report.slack, brute_force_vertex_min(h, d, eta), abs_tol=1e-9)


def test_exact_monotone_in_d():
    rng = derive_rng(37, "vertex-monotone")
    h = random_host(rng, 8, 0.4)
    for eta in (0.001, 0.01):
        sat = [
            vertex_density_check(h, DensityQuery(d=d, eta=eta)).verdict == "satisfied"
            for d in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        # once violated, stays violated at larger d
        assert sat == sorted(sat, reverse=True)


def test_exact_size_limit():
    with pytest.raises(ValueError):
        vertex_density_check(Hypergraph(3, 25, ()), DensityQuery(d=0.5, eta=0.01))


def test_heuristic_never_claims_satisfied():
    rng = derive_rng(41, "vertex-heuristic")
    for _ in range(5):
        h = random_host(rng, 12, rng.random())
        q = DensityQuery(d=rng.random(), eta=0.001, mode="heuristic", restarts=8, budget=100)
        report = vertex_density_check(h, q)
        assert report.verdict in ("violated", "unresolved")
        if report.verdict == "violated":
            assert verify_density_certificate(h, report) < 0


def test_heuristic_finds_planted_violation():
    h = Hypergraph(3, 12, ())
    q = DensityQuery(d=0.9, eta=0.001, mode="heuristic", restarts=4, budget=200)
    report = vertex_density_check(h, q)
    assert report.verdict == "violated"
    assert isclose(verify_density_certificate(h, report), report.slack, abs_tol=1e-9)


def test_query_validation():
    with pytest.raises(ValueError):
        DensityQuery(d=1.5, eta=0.01)
    with pytest.raises(ValueError):
        DensityQuery(d=0.5, eta=0.0)
    with pytest.raises(ValueError):
        DensityQuery(d=0.5, eta=0.01, mode="guess")


# --- three-set notion -------------------------------------------------------------


def test_triple_complete_satisfied_when_eta_covers_collisions():
    n = 6
    h = complete_hypergraph(3, n)
    report = triple_density_check(h, DensityQuery(d=1.0, eta=3.0 / n))
    assert report.verdict == "satisfied"


def test_triple_empty_host_violated_heuristic():
    h = Hypergraph(3, 30, ())
    q = DensityQuery(d=0.5, eta=0.1, mode="heuristic", restarts=4, budget=30)
    report = triple_density_check(h, q)
    assert report.verdict == "violated"
    assert report.certificate == {"X": list(range(30)), "Y": list(range(30)), "Z": list(range(30))}
    assert isclose(report.slack, -0.4 * 27000)


def test_triple_exact_agrees_with_full_enumeration():
    rng = derive_rng(43, "triple-exact")
    for _ in range(3):
        h = random_host(rng, 5, 0.5)
        d, eta = rng.random(), 0.001
        report = triple_density_check(h, DensityQuery(d=d, eta=eta))
        best = eta * h.n**3
        for xm in range(1 << h.n):
            X = {v for v in range(h.n) if xm >> v & 1}
            for ym in range(1 << h.n):
                Y = {v for v in range(h.n) if ym >> v & 1}
                for zm in range(1 << h.n):
                    Z = {v for v in range(h.n) if zm >> v & 1}
                    slack = (
                        ordered_triple_count(h, X, Y, Z)
                        - d * len(X) * len(Y) * len(Z)
                        + eta * h.n**3
                    )
                    best = min(best, slack)
        assert isclose(report.slack, best, abs_tol=1e-9)


def test_triple_exact_size_limit():
    with pytest.raises(ValueError):
        triple_density_check(Hypergraph(3, 11, ()), DensityQuery(d=0.5, eta=0.01))


def test_descent_objective_never_increases():
    rng = derive_rng(47, "descent")
    for _ in range(10):
        h = random_host(rng, 30, 0.1)
        q = DensityQuery(d=rng.random(), eta=0.0001, mode="heuristic", restarts=2, budget=25)
        report = triple_density_check(h, q)
        for trace in report.stats["objective_traces"]:
            assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


def test_equal_sets_count_is_six_times_induced():
    rng = derive_rng(53, "xyz-equal")
    h = random_host(rng, 10, 0.4)
    for mask in range(1 << 10):
        U = [v for v in range(10) if mask >> v & 1]
        assert ordered_triple_count(h, U, U, U) == 6 * induced_edge_count(h, U)


# --- profile notion ---------------------------------------------------------------


def test_profile_complete_host_is_one():
    h = complete_hypergraph(3, 7)
    report = density_profile(h, [0.5, 1.0], mode="exact")
    assert all(e.density == 1.0 for e in report.entries)


def test_profile_ternary_depth2_golden_values():
    t2 = build_kary(3, 2)
    report = density_profile(t2, [2 / 3, 1.0], mode="exact")
    by_eta = {round(e.eta, 6): e for e in report.entries}
    full = by_eta[1.0]
    assert full.size_floor == 9
    assert isclose(full.density, 30 / 84)
    two_thirds = by_eta[round(2 / 3, 6)]
    assert two_thirds.size_floor == 6
    assert isclose(two_thirds.density, 0.1)  # 2 edges inside two 3-vertex blocks
    # the floor estimate with the additive correction holds for the certificate
    U = two_thirds.subset
    eta_u = len(U) / 9
    floor = 0.25 * eta_u**RHO * len(U) ** 3 / 6 - 0.375 * 9
    assert induced_edge_count(t2, U) >= floor
    # independent recomputation of the certificate's density
    assert isclose(subset_relative_density(t2, U), two_thirds.density)


# The subset table holds int16 counts below 2**15 edges and int32 from there.
# The complete 6-graph on 20 vertices has 38,760 edges; its first 2**15 - 1
# and 2**15 in lexicographic order miss only 6-sets avoiding vertex 0, so at
# d = 1 the whole vertex set attains the least slack.
@pytest.mark.parametrize("edges", [(1 << 15) - 1, 1 << 15, comb(20, 6)])
def test_subset_table_counts_every_edge_on_both_sides_of_int16(edges):
    h = Hypergraph(6, 20, tuple(islice(combinations(range(20), 6), edges)))
    minima = density._size_minima(h)[0]
    assert minima[20] == edges
    report = vertex_density_check(h, DensityQuery(d=1.0, eta=1e-4))
    assert report.verdict == "satisfied"
    assert report.slack == edges - comb(20, 6) + 1e-4 * 20**6
    assert density_profile(h, [1.0]).entries[0].density == edges / comb(20, 6)


def test_exact_vertex_and_profile_peaks_stay_near_their_tables():
    # At n = 20 with int16 counts the subset tables take 3 * 2**20 bytes.  A
    # size's minimisers are looked up block by block; three 2**20-entry bool
    # arrays at once took the peak to 5.25 MB.
    h = random_host(derive_rng(20, "peak-host"), 20, 0.05)
    audits = [lambda: vertex_density_check(h, DensityQuery(d=0.05, eta=0.01)),
              lambda: density_profile(h, [0.25, 0.5, 0.75, 1.0])]
    for audit in audits:
        audit()
        assert peak_bytes(audit) < 3 * (1 << 20) + 500_000


def test_profile_brute_force_agreement():
    t2 = build_kary(3, 2)
    entry = density_profile(t2, [2 / 3], mode="exact").entries[0]
    best = min(
        induced_edge_count(t2, U) / comb(s, 3)
        for s in range(6, 10)
        for U in combinations(range(9), s)
    )
    assert isclose(entry.density, best)


def test_profile_heuristic_upper_bounds_exact():
    rng = derive_rng(59, "profile-heuristic")
    h = random_host(rng, 9, 0.5)
    exact = density_profile(h, [0.5], mode="exact").entries[0]
    heur = density_profile(h, [0.5], mode="heuristic", restarts=8, budget=50, seed=1).entries[0]
    assert heur.density >= exact.density - 1e-12


def test_profile_heuristic_equal_etas_give_equal_reports():
    rng = derive_rng(1, "profile-label")
    h = random_host(rng, 30, 0.05)
    runs = [density_profile(h, grid, mode="heuristic", restarts=3, budget=5, seed=1).to_dict()
            for grid in ([0.5], [Fraction(1, 2)])]
    assert runs[0] == runs[1]


def test_profile_size_floor_uses_ceiling():
    assert size_floor(2 / 3, 9, 3) == 6
    assert size_floor(0.5, 9, 3) == 5
    assert size_floor(1.0, 9, 3) == 9
    assert size_floor(0.01, 9, 3) == 3  # never below the uniformity
    assert size_floor(0.15000000001, 20, 3) == 4  # 3.0000000002, not a float artifact of 3


# one edge {0, 1, 2} on 6 vertices: at eta = 0.5 (floor 3) the least density
# is 0, on any 3 vertices but those; a pick of exactly those re-verifies at 1
ONE_EDGE = Hypergraph(3, 6, ((0, 1, 2),))
WRONG_PICK = "profile certificate for eta 0.5 re-verifies at 1.0 on 3 vertices, not 0.0 on at least 3"


def test_profile_certificate_that_does_not_reverify_raises(monkeypatch):
    minima = density._size_minima
    monkeypatch.setattr(density, "_size_minima", lambda h: (*minima(h)[:2], lambda s: (1 << s) - 1))
    with pytest.raises(RuntimeError, match=f"^{WRONG_PICK}$"):
        density_profile(ONE_EDGE, [0.5])


def test_heuristic_profile_certificate_that_does_not_reverify_raises(monkeypatch):
    monkeypatch.setattr(density, "_descend", lambda *args: (0.0, (0, 1, 2), 1))
    with pytest.raises(RuntimeError, match=f"^{WRONG_PICK}$"):
        density_profile(ONE_EDGE, [0.5], mode="heuristic", restarts=2, budget=5)


def test_profile_rejects_bad_grid():
    t1 = build_kary(3, 1)
    with pytest.raises(ValueError):
        density_profile(t1, [])
    with pytest.raises(ValueError):
        density_profile(t1, [0.0])


# --- certificates ------------------------------------------------------------------


def test_certificate_out_of_range_vertex_rejected():
    h = Hypergraph(3, 5, ())
    report = vertex_density_check(h, DensityQuery(d=0.9, eta=0.001))
    assert report.verdict == "violated"
    report.certificate = {"U": [0, 99]}
    with pytest.raises(ValueError):
        verify_density_certificate(h, report)


def test_triple_certificate_roundtrip():
    h = Hypergraph(3, 8, ())
    report = triple_density_check(h, DensityQuery(d=0.5, eta=0.01))
    assert report.verdict == "violated"
    assert isclose(verify_density_certificate(h, report), report.slack, abs_tol=1e-9)
    assert isclose(report.slack, -0.5 * 512 + 0.01 * 512)


def test_certificate_roundtrip_on_random_violations():
    rng = derive_rng(61, "certificates")
    seen = 0
    while seen < 10:
        h = random_host(rng, rng.randint(5, 9), 0.2)
        report = vertex_density_check(h, DensityQuery(d=0.95, eta=0.0001))
        if report.verdict != "violated":
            continue
        assert isclose(verify_density_certificate(h, report), report.slack, abs_tol=1e-9)
        seen += 1


# --- soundness checks that must survive python -O -----------------------------------


def test_certificate_check_runs_under_optimize():
    script = (
        "import hyperdense.density as density\n"
        "from hyperdense import Hypergraph\n"
        "assert False, 'python -O did not strip asserts'\n"
        "h, q = Hypergraph(3, 6, ()), density.DensityQuery(d=0.5, eta=0.01)\n"
        "print(density.vertex_density_check(h, q).verdict)\n"
        "density.verify_density_certificate = lambda h, report: 1.0\n"
        "try:\n"
        "    density.vertex_density_check(h, q)\n"
        "except RuntimeError:\n"
        "    print('rejected')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(hyperdense.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "violated\nrejected\n"


@pytest.mark.parametrize("check", [vertex_density_check, triple_density_check])
def test_disagreeing_certificate_raises(monkeypatch, check):
    monkeypatch.setattr(density, "verify_density_certificate", lambda h, report: report.slack + 1.0)
    with pytest.raises(RuntimeError, match="certificate"):
        check(Hypergraph(3, 6, ()), DensityQuery(d=0.5, eta=0.01))


def test_increasing_descent_step_raises(monkeypatch):
    # Codegrees below every threshold put each vertex in each role; once the
    # sets are full, a table that grows on each call raises the objective.
    calls = count()
    monkeypatch.setattr(density, "_codegrees", lambda index, first, second: np.full(first.shape, next(calls) - 10**6))
    q = DensityQuery(d=0.5, eta=0.01, mode="heuristic", restarts=1, budget=2)
    with pytest.raises(RuntimeError, match="descent"):
        triple_density_check(Hypergraph(3, 6, ()), q)
