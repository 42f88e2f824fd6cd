#!/usr/bin/env python3
"""Angle report and bound margins for the coordinate benchmark system.

The three subspaces meet pairwise in single axes, so every pairwise
minimal-angle cosine is 1 and the pairwise product bound degenerates to a
constant 1 -- yet the joint Friedrichs number is 1/2 and the geometric
envelope certifies fast uniform convergence.  This script prints both sides
of that comparison, and exits 1 unless the inclination's estimate and its
dual bound both equal sqrt(1 - kappa) to 1e-12, as the symmetric direction
attains it.
"""

import argparse
import json
import sys

import numpy as np

from altproj.angles import angle_report
from altproj.corpus import example3
from altproj.diagnostics import bound_report, dichotomy_report


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=12)
    parser.add_argument("--iters", type=int, default=50)
    args = parser.parse_args()

    system = example3(args.dim)
    report = angle_report(system)
    print(f"ambient dimension {args.dim}, component dimensions {system.dims}")
    print(f"kappa  = {report.kappa:.12f}   (expected 2/3)")
    print(f"c      = {report.c:.12f}   (expected 1/2)")
    print(f"c0     = {report.c0:.12f}")
    print("pairwise reduced minimal-angle cosines:")
    print(np.array_str(report.pairwise_dixmier_reduced, precision=6))
    print(f"prefix angles: {[round(v, 12) for v in report.prefix_friedrichs]}")
    inc = report.inclination
    print(f"inclination: estimate {inc.estimate:.10f}, dual_lower {inc.dual_lower:.10f},"
          f" gap {inc.estimate - inc.dual_lower:.3e}")
    print(f"paper's sandwich [{inc.lower:.6f}, {inc.upper:.6f}], certified={inc.certified}")

    print("\nbound margins (min over n of bound - measured):")
    for check in bound_report(system, n_max=args.iters).entries:
        note = f"  <- {check.note}" if check.note else ""
        print(f"  {check.name:12s} margin={check.margin:+.3e} satisfied={check.satisfied}{note}")

    verdict = dichotomy_report(system)
    print(f"\nverdict: {verdict.verdict}, margin 1 - c = {verdict.margin:.6f}")
    print(json.dumps({"near_asc": verdict.near_asc}, indent=None))
    closed_form = float(np.sqrt(1.0 - report.kappa))
    if max(abs(inc.estimate - closed_form), abs(inc.dual_lower - closed_form)) > 1e-12:
        print(f"inclination misses its closed form sqrt(1 - kappa) = {closed_form!r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
