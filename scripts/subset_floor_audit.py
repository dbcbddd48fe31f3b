#!/usr/bin/env python3
"""Audit the per-subset edge floor of ternary hosts and print the slice table.

The floor e(X) >= eta**rho / 4 * |X|**3 / 6 - 3/8 * 3**level (eta = |X|/3**level)
is checked over every subset for levels 1 to 5, through the least edge count
at each size, and by sampling for level 3.  The binary-prefix slices
{0,1}**r x {0,1,2}**(n-r) show how sharp the leading term is: their ratio
against eta**rho * |U|**3 / 24 equals 1 - 9**-(n-r).

Usage: python scripts/subset_floor_audit.py [samples]
"""

import sys
import time

from hyperdense import audit_kary_subsets, binary_prefix_slice


def main() -> None:
    samples = int(sys.argv[1]) if len(sys.argv) > 1 else 10**6
    for level, mode in [(level, "exact") for level in range(1, 6)] + [(3, "sampled")]:
        t0 = time.time()
        report = audit_kary_subsets(level, mode=mode, samples=samples, seed=0)
        examined = f"2**{3**level}" if mode == "exact" else report.examined
        print(
            f"level {level} ({report.mode}): {examined} subsets,"
            f" {len(report.violations)} violations, {time.time() - t0:.1f}s"
        )
        if report.violations:
            raise SystemExit(f"level {level}: {len(report.violations)} violations of the subset floor")

    print(f"\n{'r':>2} {'n':>2} {'eta':>8} {'size':>6} {'edges':>8} {'ratio':>10}")
    for n in range(1, 7):
        for r in range(n + 1):
            s = binary_prefix_slice(r, n)
            print(f"{r:>2} {n:>2} {s.eta:>8.4f} {s.size:>6} {s.edges:>8} {s.ratio:>10.6f}")


if __name__ == "__main__":
    main()
