from math import isclose

import numpy as np
import pytest

from hyperdense import (
    RHO,
    TAU,
    Hypergraph,
    audit_kary_subsets,
    binary_prefix_slice,
    build_kary,
    induced_edge_count,
    inequality_gap,
    scan_inequality,
    supersaturation_experiment,
)
from hyperdense import inequalities
from hyperdense.inequalities import density_floor
from hyperdense.ternary import kary_hom_counts
from inequality_oracles import grid_gaps, grid_scan, sorted_scan
from conftest import peak_bytes
from kary_oracles import vector_of


# --- the exponent constants ----------------------------------------------------


def test_exponent_in_expected_window():
    assert 3.41 < RHO < 3.43
    assert TAU == RHO + 3.0


def test_exponent_identity():
    lhs = 2.0 ** (TAU - 1.0)
    rhs = 3.0 ** (TAU - 3.0)
    assert abs(lhs - rhs) / rhs < 1e-12


def test_two_thirds_power_is_one_quarter():
    assert abs((2.0 / 3.0) ** RHO - 0.25) < 1e-12


# --- the cube inequality ---------------------------------------------------------


def test_gap_vanishes_at_boundary_equality_points():
    assert abs(inequality_gap(1.0, 1.0, 0.0)) < 1e-12
    assert abs(inequality_gap(1.0, 1.0, 1.0)) < 1e-12


def test_scan_floor_across_resolutions():
    minima = {}
    for resolution in (51, 101, 201):
        minimum, point = scan_inequality(resolution)
        assert minimum >= -1e-9
        assert all(0.0 <= c <= 1.0 for c in point)
        minima[resolution] = minimum
    # the grids are nested, so refining can only lower the minimum, and
    # never by much (smoothness sanity)
    assert minima[201] <= minima[101] + 1e-15
    assert minima[101] <= minima[51] + 1e-15
    assert minima[51] - minima[201] < 1e-6


def test_scan_rejects_degenerate_resolution():
    with pytest.raises(ValueError, match=r"^resolution must be >= 2$"):
        scan_inequality(1)
    with pytest.raises(ValueError, match=rf"^resolution is limited to <= {inequalities.FACT7_RESOLUTION_LIMIT}$"):
        scan_inequality(inequalities.FACT7_RESOLUTION_LIMIT + 1)


# The pruned scan against the full-grid scan it replaced.  Resolutions
# 127-130 and 257 sit on the 64-, 32- and 2-wide block edges.
SCAN_RESOLUTIONS = [*range(2, 71), 127, 128, 129, 130, 201, 257]


@pytest.mark.parametrize("resolution", SCAN_RESOLUTIONS)
def test_scan_matches_full_grid_scan(resolution):
    assert scan_inequality(resolution) == grid_scan(resolution)


# Seven points per gap block split the kept points, which come unsorted,
# into many blocks, so the exact zeros on the segments (t, t, 0) tie the
# origin's across blocks from r = 65 on (29 points at r = 401).  The origin
# is kept first; reversed, it comes last, after every other tied point.
# Either way the lexicographically least argmin must win.
@pytest.mark.parametrize("order", ["kept", "reversed"])
@pytest.mark.parametrize("resolution", SCAN_RESOLUTIONS)
def test_blocked_scan_keeps_the_least_argmin_across_blocks(monkeypatch, resolution, order):
    monkeypatch.setattr(inequalities, "PYTHON_RESOLUTION_LIMIT", 1)  # the numpy scan at every resolution
    monkeypatch.setattr(inequalities, "_GAP_BLOCK", 7)
    if order == "reversed":
        kept = inequalities._candidate_points
        monkeypatch.setattr(inequalities, "_candidate_points", lambda grid: [p[::-1] for p in kept(grid)])
    assert scan_inequality(resolution) == grid_scan(resolution)


# Up to PYTHON_RESOLUTION_LIMIT the scan runs on Python floats, every power
# a scalar one, where the numpy scan takes array powers that can differ in
# the last bit; so the two are compared at every resolution the Python scan
# takes, and past it at the 64-wide block edge.  From r = 65 on, the exact
# zeros on (t, t, 0) tie the origin, and the least argmin must win.
PYTHON_RESOLUTIONS = [*range(2, inequalities.PYTHON_RESOLUTION_LIMIT + 1), 129, 130]


@pytest.mark.parametrize("resolution", PYTHON_RESOLUTIONS)
def test_python_scan_matches_the_numpy_scan_and_the_full_grid_scan(monkeypatch, resolution):
    grid = np.linspace(0.0, 1.0, resolution)
    assert inequalities._linspace(resolution) == grid.tolist()
    kept = inequalities._candidate_points_py(grid.tolist())
    assert sorted(kept) == sorted(zip(*(p.tolist() for p in inequalities._candidate_points(grid))))
    python = inequalities._scan_py(resolution)
    monkeypatch.setattr(inequalities, "PYTHON_RESOLUTION_LIMIT", 1)
    assert python == scan_inequality(resolution) == grid_scan(resolution)


def test_scan_at_the_resolution_limit_matches_the_sorted_int32_scan():
    limit = inequalities.FACT7_RESOLUTION_LIMIT
    assert scan_inequality(limit) == sorted_scan(limit)


@pytest.mark.parametrize("resolution", [7, 33, 65, 101])
def test_pruning_drops_only_positive_gaps_and_keeps_exact_values(resolution):
    grid = np.linspace(0.0, 1.0, resolution)
    i, j, k = inequalities._candidate_points(grid)
    full = grid_gaps(resolution)
    kept = np.zeros(full.shape, dtype=bool)
    kept[i, j, k] = True
    assert kept.sum() == len(i)
    assert (full[~kept] > 0.0).all()
    kept_gaps = inequalities._point_gaps(grid, i, j, k)
    assert np.array_equal(kept_gaps.view(np.int64), full[i, j, k].view(np.int64))


def test_pruning_keeps_few_points_at_bench_resolution():
    """Pins the pruning's work, which no equality test sees: the side-2
    blocks that pass the box bound hold 94,721 of the 401**3 points."""
    i, _, _ = inequalities._candidate_points(np.linspace(0.0, 1.0, 401))
    assert len(i) == 94_721
    assert len(i) < 0.002 * 401**3


def test_scan_peak_stays_below_three_megabytes():
    # The kept points at r = 401 take 0.57 MB as int16 indices; one block of
    # gaps takes a few 128 KiB float arrays.  Gaps evaluated all at once,
    # from int32 points sorted by a lexsort, peaked at 5.69 MB.
    scan_inequality(401)
    assert peak_bytes(lambda: scan_inequality(401)) < 3_000_000


# --- the per-subset edge floor -----------------------------------------------------


def test_level_one_floor_is_never_positive():
    for size in range(4):
        assert density_floor(size, 1) <= 0.0


def test_audit_level_one_exact():
    report = audit_kary_subsets(1, mode="exact")
    assert report.examined == 8
    assert report.violations == []


def test_audit_level_two_exact():
    report = audit_kary_subsets(2, mode="exact")
    assert report.examined == 512
    assert report.violations == []


def test_audit_level_three_sampled():
    report = audit_kary_subsets(3, mode="sampled", samples=20_000, seed=5)
    assert report.examined == 20_000
    assert report.violations == []


def test_audit_sampled_is_deterministic():
    a = audit_kary_subsets(3, mode="sampled", samples=500, seed=9)
    b = audit_kary_subsets(3, mode="sampled", samples=500, seed=9)
    assert a.to_dict() == b.to_dict()


def test_audit_exact_runs_to_level_five_and_stops_at_six():
    for level in (3, 4, 5):
        report = audit_kary_subsets(level, mode="exact")
        assert report.examined == 2 ** (3**level)
        assert report.violations == []
    with pytest.raises(ValueError, match="level <= 5"):
        audit_kary_subsets(6, mode="exact")


def test_audit_exact_lists_an_extremal_subset_per_violating_size(monkeypatch):
    # raise the floor by 4 edges: at level 2 only sizes 7 and 8 keep slack above 4
    real_floor = inequalities.density_floor
    monkeypatch.setattr(inequalities, "density_floor", lambda size, level: real_floor(size, level) + 4)
    host = build_kary(3, 2)
    report = audit_kary_subsets(2, mode="exact")
    assert [v["size"] for v in report.violations] == [0, 1, 2, 3, 4, 5, 6, 9]
    for v in report.violations:
        assert v["size"] == len(v["subset"])
        assert v["edges"] == induced_edge_count(host, v["subset"])
        assert v["edges"] < v["bound"]
    sampled = audit_kary_subsets(2, mode="sampled", samples=2000, seed=1)
    assert sampled.violations
    for v in sampled.violations:
        assert v["edges"] == induced_edge_count(host, v["subset"]) < v["bound"]


# --- the binary-prefix slices -------------------------------------------------------


def test_slice_formula_matches_brute_force_up_to_depth_three():
    for n in range(4):
        host = build_kary(3, n)
        for r in range(n + 1):
            stats = binary_prefix_slice(r, n)
            members = [
                v for v in range(3**n) if all(d < 2 for d in vector_of(v, 3, n)[:r])
            ]
            assert stats.size == len(members) == 2**r * 3 ** (n - r)
            assert stats.edges == induced_edge_count(host, members)
            assert stats.edges == 2**r * (27 ** (n - r) - 3 ** (n - r)) // 24


def test_slice_golden_values():
    s = binary_prefix_slice(1, 3)
    assert s.size == 18
    assert isclose(s.eta, 2 / 3)
    assert s.edges == 2 * 30
    assert isclose(s.ratio, 1 - 1 / 81, rel_tol=1e-9)


def test_slice_full_prefix_has_no_edges():
    for n in (1, 2, 3, 5):
        s = binary_prefix_slice(n, n)
        assert s.edges == 0
        assert s.bound <= 0.0


def test_slice_ratio_closed_form():
    for n in range(5):
        for r in range(n + 1):
            s = binary_prefix_slice(r, n)
            assert isclose(s.ratio, 1.0 - 9.0 ** -(n - r), rel_tol=1e-9, abs_tol=1e-9)


def test_slice_rejects_bad_arguments():
    # from depth 216 on, |slice|**3 no longer fits a float
    for r, n in [(3, 2), (-1, 2), (0, 216), (216, 216)]:
        with pytest.raises(ValueError):
            binary_prefix_slice(r, n)


def test_slice_reaches_its_depth_limit():
    n = inequalities.SLICE_DEPTH_LIMIT
    for r in range(n + 1):
        assert isclose(binary_prefix_slice(r, n).ratio, 1 - 9.0 ** -(n - r), rel_tol=1e-9)


# --- supersaturation ------------------------------------------------------------------


def test_supersat_single_edge_matches_closed_form(single_edge):
    # T_6 has 729 vertices, beyond what build_kary constructs
    report = supersaturation_experiment(single_edge, n_max=6)
    for depth, hom, ratio in report.entries:
        edges = (27**depth - 3**depth) // 24
        assert hom == 6 * edges
        assert isclose(ratio, 6 * edges / 27**depth)
    # ratio tends to 1/4 from below
    assert report.entries[-1][2] < 0.25


def test_supersat_edgeless_ratio_one():
    report = supersaturation_experiment(Hypergraph(3, 2, ()), n_max=2)
    assert all(ratio == 1.0 for _, _, ratio in report.entries)


def test_supersat_tight_path_golden_counts(tight_path4):
    # frozen by the first verified run (brute-force checked at depths 1..3)
    report = supersaturation_experiment(tight_path4, n_max=3)
    assert [(d, hom) for d, hom, _ in report.entries] == [(1, 6), (2, 504), (3, 40878)]
    ratios = [ratio for _, _, ratio in report.entries]
    assert isclose(ratios[1], 504 / 9**4)
    assert isclose(ratios[2], 40878 / 27**4)


@pytest.mark.parametrize("n", [5, 9], ids=["P5", "loose-path-9"])
def test_supersat_shared_memo_matches_per_depth_counts(n):
    # supersat takes every depth from one memo; each count below starts afresh
    pattern = Hypergraph.from_edges(3, n, [(i, i + 1, i + 2) for i in range(0, n - 2, 2)])
    report = supersaturation_experiment(pattern, n_max=12)
    assert [(d, hom) for d, hom, _ in report.entries] == [(d, kary_hom_counts(pattern, d)[d]) for d in range(1, 13)]


def test_supersat_rejects_non_embeddable(k4):
    with pytest.raises(ValueError):
        supersaturation_experiment(k4, n_max=2)
