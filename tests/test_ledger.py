"""The output ledger (scripts/ledger.py, tests/data/ledger.json): every float recomputed and held to its tolerance.

A change that moves a value regenerates the ledger with `scripts/ledger.py --write` in the same commit and
lists each moved value in CHANGES.md.  No tolerance here is ever widened to absorb a move.  Another BLAS
rounds differently, so each tolerance was set against the ledger recomputed on bases perturbed by a few
ulps: it still holds at 20 ulps (two systems of 250 fail at 80), and where rounding moves a value by more,
it is held in the form in which it is stable (see `moved`).
"""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ledger.py"
spec = importlib.util.spec_from_file_location("ledger", SCRIPT)
ledger = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ledger)

RECORDED = json.loads(ledger.LEDGER.read_text(encoding="utf-8"))
RTOL = 1e-12
EPS = np.finfo(float).eps
ANGLES = ledger.ANGLES
SQUARED = ("lower", "upper", "estimate", "dual_lower", "gamma")
CHECK_TOL = 1e-8  # the default policy's: a wider interval [dual_lower, estimate] is an open duality gap


def moved(quantity: str, old: float, new: float, exact: bool = False, start: float = 1.0) -> bool:
    """Whether new differs from the recorded old by more than the quantity's tolerance.

    * kappa, c, the Dixmier pair, the pairwise table and the prefix cosines: 1e-12 relative.
    * The sandwich, estimate, dual_lower and gamma come from differences with 1 (l^2 = 1 - d, 1 - sqrt(kappa),
      gamma <= 1 - c^2), so their squares are held: within 2e-12 relative plus 8 eps.  On a system with
      coordinate bases (`exact`) the Gram matrix is exact on every machine, and dual_lower^2 is held to
      8 eps alone: dropping the 3 (r + 2) eps rounding margin of an eigh's top value moves it by 34 eps on
      example3.
    * Bound margins, differences of values of order one: 1e-12 times max(1, |margin|).
    * Traces: a 0.0 stays 0.0 and a nonzero value nonzero; a value in the normal range keeps its logarithm
      within 1e-12 times max(1, |ln value|), as rounding errors compound step by step the way the log grows.
      A vector walk's value may also move by 1e-14 ||x0|| (`start`): a walk forms the products of up to 32
      steps and applies them at once, so the rounding of a row is relative to the size of the walk where
      its chunk began, not to its own.
    """
    if quantity in ANGLES:
        return abs(new - old) > RTOL * abs(old)
    if quantity in SQUARED:
        rtol = 0.0 if exact and quantity == "dual_lower" else 2 * RTOL
        return abs(new * new - old * old) > rtol * old * old + 8 * EPS
    if quantity.startswith("margin/"):
        return abs(new - old) > RTOL * max(1.0, abs(old))
    if (old == 0.0) != (new == 0.0):
        return True
    atol = 1e-14 * start if quantity.startswith("walk/") else 0.0
    return (old >= 2.0 ** -1022 and abs(new - old) > atol
            and abs(math.log(new / old)) > RTOL * max(1.0, abs(math.log(old))))


def compare(old: dict, new: dict, exact: bool, start: float) -> list:
    """(quantity, index, recorded, now) for every value outside its tolerance; a changed length has no index."""
    assert new.keys() == old.keys()
    bad = []
    # on the duality-gap class both ends of [dual_lower, estimate] depend on rounding; each such interval
    # contains l, so the recorded and the new one must meet
    gap = "estimate" in old and old["estimate"][0] - old["dual_lower"][0] > CHECK_TOL
    if gap and not (new["dual_lower"][0] <= old["estimate"][0] and old["dual_lower"][0] <= new["estimate"][0]):
        bad.append(("interval", 0, (old["dual_lower"], old["estimate"]), (new["dual_lower"], new["estimate"])))
    for quantity, values in old.items():
        if len(values) != len(new[quantity]):
            bad.append((quantity, None, len(values), len(new[quantity])))
        elif not (gap and quantity in ("estimate", "dual_lower")):
            bad += [(quantity, i, a, b) for i, (a, b) in enumerate(zip(values, new[quantity]))
                    if moved(quantity, a, b, exact, start)]
    return bad


def test_every_recorded_value_holds():
    bad = {}
    for name, build in ledger.every_system():
        system = build()
        exact = all(np.isin(s.basis, (-1.0, 0.0, 1.0)).all() for s in system.subspaces)
        start = float(np.linalg.norm(ledger.start(system.ambient_dim)))
        bad[name] = compare(RECORDED[name], ledger.outputs(system), exact, start)
    assert list(bad) == list(RECORDED)
    bad = {name: found for name, found in bad.items() if found}
    assert not bad, f"{len(bad)} systems moved; (quantity, index, recorded, now) of the first five: " + "; ".join(
        f"{name}: {found[:5]}" for name, found in list(bad.items())[:5])
