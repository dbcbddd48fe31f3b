#!/usr/bin/env python3
"""Classify every labeled 3-uniform pattern on f vertices by the two deciders.

For each pattern we ask (a) does some vertex ordering admit a conflict-free
rainbow shadow colouring, and (b) does the pattern embed into a digit-string
host.  Embeddable patterns must always be orderable; the sweep checks that
and prints the class counts.

Usage: python scripts/sweep_patterns.py [max_f]
"""

import sys
import time

from hyperdense.ternary import classify_patterns


def main() -> None:
    max_f = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    print(f"{'f':>2} {'patterns':>9} {'both':>6} {'orderable only':>15} {'neither':>8}  time")
    for f in range(3, max_f + 1):
        t0 = time.time()
        counts = classify_patterns(f)
        if counts["frequent_not_orderable"]:
            raise SystemExit(f"inconsistency at f={f}: {counts}")
        total = sum(counts.values())
        print(
            f"{f:>2} {total:>9} {counts['frequent_and_orderable']:>6} {counts['orderable_only']:>15}"
            f" {counts['neither']:>8}  {time.time() - t0:.1f}s"
        )


if __name__ == "__main__":
    main()
