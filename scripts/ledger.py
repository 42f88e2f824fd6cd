#!/usr/bin/env python3
"""The output ledger: every float the analyses report on the test corpus, by system and name.

Usage: PYTHONPATH=src python scripts/ledger.py [--write]

For each system of `tests/cases.every_system()` the ledger holds the angle
report (kappa, c, the Dixmier pair, the pairwise table, the prefix cosines
and the inclination's sandwich, estimate and dual_lower), gamma(I - T), the
operator trace ||T^n - P_M|| for n <= 30, the margin of every bound check at
that horizon, and three 40-step vector traces from x0 = (1, 1/2, ..., 1/d):
random order under coverage windows N and 2N - 1, and one explicit word.

With --write the ledger goes to tests/data/ledger.json; without it, every
value that differs from that file is printed with its relative move, and
the exit status is 1 if any does.  tests/test_ledger.py recomputes the
ledger and holds each quantity to its tolerance.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from altproj.angles import angle_report
from altproj.diagnostics import bound_report
from altproj.dynamics import IndexSchedule, iterate_vector, operator_error_norms, reduced_min_modulus

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))  # the corpus is tests/cases.py, and tests/ is not a package
from cases import every_system  # noqa: E402

LEDGER = ROOT / "tests" / "data" / "ledger.json"
HORIZON = 30  # operator trace and bound checks
STEPS = 40  # vector traces: one chunk of 32 steps and part of the next
ANGLES = ("kappa", "c", "kappa0", "c0", "pairwise_dixmier_reduced", "prefix_friedrichs")  # AngleReport fields


def outputs(system) -> dict:
    """The ledger's quantities for one system, each a list of floats, by name."""
    n, report = system.n_subspaces, angle_report(system)
    values = {name: getattr(report, name) for name in ANGLES}
    values.update({name: getattr(report.inclination, name) for name in ("lower", "upper", "estimate", "dual_lower")})
    values["gamma"] = reduced_min_modulus(system)
    values["trace"] = operator_error_norms(system, HORIZON).errors
    values.update({f"margin/{check.name}": check.margin for check in bound_report(system, n_max=HORIZON).entries})
    x0 = start(system.ambient_dim)
    walks = {"window-N": IndexSchedule.random(n, seed=1, coverage_window=n),
             "window-2N-1": IndexSchedule.random(n, seed=2, coverage_window=2 * n - 1),
             "explicit": IndexSchedule.explicit(IndexSchedule.random(n, seed=3).first(STEPS), n)}
    values.update({f"walk/{name}": iterate_vector(system, x0, schedule, STEPS).errors
                   for name, schedule in walks.items()})
    return {name: [float(v) for v in np.ravel(value)] for name, value in values.items()}


def start(d: int) -> np.ndarray:
    """x0 = (1, 1/2, ..., 1/d) of the vector traces: exact on every machine, and in no corpus subspace.

    A seeded Gaussian x0 would not do: it is the core of `common_core(d, .., seed=0)`.
    """
    return 1.0 / np.arange(1, d + 1)


def ledger() -> dict:
    return {name: outputs(build()) for name, build in every_system()}


def moves(old: dict, new: dict):
    """(system, quantity, old, new) for every value that differs, a missing or an added one included."""
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name, {}), new.get(name, {})
        for quantity in sorted(a.keys() | b.keys()):
            x, y = a.get(quantity), b.get(quantity)
            if x is not None and y is not None and len(x) == len(y):
                yield from ((name, f"{quantity}[{i}]", u, v) for i, (u, v) in enumerate(zip(x, y)) if u != v)
            elif x != y:
                yield name, quantity, x, y


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"write {LEDGER.relative_to(ROOT)}")
    args = parser.parse_args(argv)
    new = ledger()
    if args.write:
        LEDGER.parent.mkdir(exist_ok=True)
        lines = (f"{json.dumps(name)}: {json.dumps(values, separators=(',', ':'))}" for name, values in new.items())
        LEDGER.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
        print(f"{LEDGER.relative_to(ROOT)}: {len(new)} systems, "
              f"{sum(len(v) for values in new.values() for v in values.values())} floats")
        return 0
    found = 0
    for name, quantity, old, now in moves(json.loads(LEDGER.read_text(encoding="utf-8")), new):
        found += 1
        both = isinstance(old, float) and isinstance(now, float) and old != 0.0
        print(f"{name} {quantity}: {old!r} -> {now!r}" + (f" ({(now - old) / abs(old):+.2e} relative)" if both else ""))
    print(f"{found} values moved")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
