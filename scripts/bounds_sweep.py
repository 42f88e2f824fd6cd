#!/usr/bin/env python3
"""Sweep the convergence bounds and the inclination certificate over seeded random corpora.

Prints, per bound, the worst margin seen across the sweep; negative margins
beyond tolerance would mean a violated inequality.  Prints the median and
the largest certified gap estimate - dual_lower of the inclination and how
many systems close it to check_tol, and exits 1 if any gap is not finite or
below -check_tol, since the certified interval [dual_lower, estimate] must
contain l.
"""

import argparse
import math
import statistics
import sys
from collections import defaultdict

from altproj.angles import inclination
from altproj.corpus import common_core, random_system
from altproj.diagnostics import bound_report


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=20, help="systems per family")
    parser.add_argument("--iters", type=int, default=100)
    args = parser.parse_args()

    systems = []
    for seed in range(args.count):
        systems.append((f"triple9/{seed}", random_system(9, (3, 3, 3), seed=seed)))
        systems.append((f"core8/{seed}", common_core(8, (3, 4, 3), core_dim=1 + seed % 2, seed=seed)))

    worst = defaultdict(lambda: (float("inf"), ""))
    gaps, broken, closed = [], [], 0
    for name, system in systems:
        for check in bound_report(system, n_max=args.iters).entries:
            if check.margin < worst[check.name][0]:
                worst[check.name] = (check.margin, name)
        est = inclination(system)
        gap = est.estimate - est.dual_lower
        gaps.append((gap, name))
        closed += gap <= system.tol.check_tol
        if not math.isfinite(gap) or gap < -system.tol.check_tol:
            broken.append(f"{name}: estimate {est.estimate!r}, dual_lower {est.dual_lower!r}")

    print(f"{2 * args.count} systems, horizon {args.iters}")
    print(f"{'bound':12s} {'worst margin':>14s}   at")
    for bound_name, (margin, where) in sorted(worst.items()):
        print(f"{bound_name:12s} {margin:+14.3e}   {where}")
    largest = max(gaps)
    print(f"inclination gap estimate - dual_lower: median {statistics.median(g for g, _ in gaps):.3e},"
          f" largest {largest[0]:.3e} at {largest[1]}")
    print(f"inclination gap closed to check_tol on {closed} of {len(systems)} systems")
    if broken:
        print("broken inclination certificates:", *broken, sep="\n  ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
