"""Invariance oracle: every reported number is a property of the subspaces, not of their bases.

Each example takes a system of the `cases` corpora and applies one transform:
an ambient rotation, an orthogonal change of basis inside every subspace, or
a reversal of the subspace order.  Rotation and basis change leave every
output alone.  Reversal turns T into T^T, which keeps the power trace and
gamma(I - T); the prefix cosines and the DeHu, estimC and remarkK margins
depend on the order, so they are compared under the other two only.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from altproj.angles import angle_report
from altproj.diagnostics import bound_report
from altproj.dynamics import operator_error_norms, reduced_min_modulus
from altproj.subspace import Subspace, SubspaceSystem
from cases import (
    common_core_batch,
    convergence_corpus,
    grid_corpus,
    inclination_corpus,
    random_pairs_r8,
    random_triples_r9,
)

HORIZON = 30
ORDER_DEPENDENT = {"DeHu", "estimC", "remarkK"}

CORPUS = [
    *((f"pair8-{s}", system) for s, system in enumerate(random_pairs_r8())),
    *((f"triple9-{s}", system) for s, system in enumerate(random_triples_r9())),
    *((f"core8-{s}", system) for s, system in enumerate(common_core_batch())),
    *grid_corpus(),
    *convergence_corpus(),
    *((name, build()) for name, build in inclination_corpus()),
]


def transformed(system: SubspaceSystem, kind: str, seed: int) -> SubspaceSystem:
    rng = np.random.default_rng(seed)
    subs = system.subspaces
    if kind == "reverse":
        return SubspaceSystem(subs[::-1])
    if kind == "ambient":
        rotation = np.linalg.qr(rng.standard_normal((system.ambient_dim,) * 2))[0]
        return SubspaceSystem(tuple(Subspace(s.ambient_dim, rotation @ s.basis, s.name) for s in subs))
    return SubspaceSystem(tuple(
        Subspace(s.ambient_dim, s.basis @ np.linalg.qr(rng.standard_normal((s.dim, s.dim)))[0], s.name)
        for s in subs))


def outputs(system: SubspaceSystem) -> dict:
    report = angle_report(system)
    values = {
        "kappa": report.kappa,
        "c": report.c,
        "c0": report.c0,
        "kappa0": report.kappa0,
        "sorted table": np.sort(report.pairwise_dixmier_reduced, axis=None),
        "prefix": np.asarray(report.prefix_friedrichs),
        "inclination": report.inclination,
    }
    if not system.degenerate:
        values["gamma"] = reduced_min_modulus(system)
        values["trace"] = operator_error_norms(system, HORIZON).errors
    for check in bound_report(system, n_max=HORIZON).entries:
        values[check.name] = check.margin
    return values


@settings(deadline=None, max_examples=300)
@given(index=st.integers(0, len(CORPUS) - 1), kind=st.sampled_from(["ambient", "basis", "reverse"]),
       seed=st.integers(0, 2**32 - 1))
def test_outputs_do_not_depend_on_bases_rotation_or_order(index, kind, seed):
    name, system = CORPUS[index]
    base, other = outputs(system), outputs(transformed(system, kind, seed))
    assert base.keys() == other.keys(), name
    for key in base.keys() - {"inclination"}:
        if kind == "reverse" and (key in ORDER_DEPENDENT or key == "prefix"):
            continue
        assert np.allclose(base[key], other[key], rtol=0.0, atol=1e-12), (name, kind, key)
    ell, ell_other = base["inclination"], other["inclination"]
    if ell is None:
        assert ell_other is None, name
        return
    # a system with a duality gap is exempt: its estimate comes from a local
    # primal search that can settle elsewhere for other bases; its interval
    # [dual_lower, estimate] still holds l, as the inclination tests check
    tol = system.tol.check_tol
    if ell.estimate - ell.dual_lower <= tol:
        assert abs(ell_other.dual_lower - ell.dual_lower) <= 1e-12, (name, kind)
        assert abs(ell_other.estimate - ell.estimate) <= tol, (name, kind)
