"""Quantitative bound checks and the convergence-dichotomy verdict.

Each check compares a measured quantity against a bound expressed through
the angle parameters and reports the margin (minimum of bound - measured),
so near-violations caused by round-off stay visible.  Covered bounds:

* ``KW``         ||(P_2 P_1)^n - P_M|| = c^(2n-1) for pairs: DeHu's pair case,
* ``corMain``    geometric envelope (1 - ((1-c)/(4N))^2)^(n/2),
* ``DeHu``       product of pairwise reduced minimal-angle cosines (for a
                 pair the equality c^(2n-1), with its deviation),
* ``estimC``     chained upper bounds on c from the prefix angles,
* ``eqNorm``     ||T - P_M|| <= sqrt(1 - l^2/N^2),
* ``eqQua``      l^2/(2 N^2) <= gamma(I - T) <= (2^N - 1) l,
* ``remarkK``    ||P_{i_k} ... P_{i_1} - P_M|| <= sqrt(1 - l^2/k^2).

Bounds involving the inclination l substitute an endpoint of the
closed-form sandwich `inclination_bounds` in the direction that keeps the
inequality valid: the lower endpoint 1 - sqrt(kappa) where a smaller l
weakens the bound, the upper endpoint otherwise.  Every check reads the
system's policy `system.tol`, and the quantities the checks share (kappa,
the tables, the power traces, gamma(I - T)) are computed once per system.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .angles import (
    configuration_constant,
    friedrichs_number,
    inclination_bounds,
    pairwise_dixmier_reduced,
    prefix_friedrichs,
)
from .dynamics import operator_error_norms, random_product_norm, reduced_min_modulus
from .numerics import NumericalFailure
from .subspace import SubspaceSystem

__all__ = [
    "BoundCheck",
    "BoundReport",
    "DichotomyVerdict",
    "bound_report",
    "cor_main_check",
    "dehu_check",
    "dichotomy_report",
    "eq_norm_check",
    "eq_qua_check",
    "estimc_check",
    "kw_check",
    "remark_product_check",
]

# below this margin of 1 - c a system is flagged as close to losing uniform
# geometric convergence
NEAR_ASC_MARGIN = 1e-3


@dataclass(eq=False)
class BoundCheck:
    """One measured-versus-bound comparison.

    margin = min over the index of (bound - measured); satisfied means the
    margin clears -check_tol.  For the pairwise-equality check the largest
    absolute deviation is reported as well.
    """

    name: str
    measured: np.ndarray | float
    bound: np.ndarray | float
    margin: float
    satisfied: bool
    note: str = ""
    max_abs_deviation: float | None = None


@dataclass(eq=False)
class BoundReport:
    """All applicable bound checks for one system."""

    entries: list[BoundCheck]
    degenerate: bool

    def entry(self, name: str) -> BoundCheck:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


@dataclass(eq=False)
class DichotomyVerdict:
    """Finite-dimensional convergence verdict with its quantitative witnesses.

    In finite dimension the joint angle cosine c is always < 1 away from the
    degenerate family, so the verdict is always quick uniform convergence
    ("QUC") with margin 1 - c; arbitrarily slow convergence only appears as
    the limit c -> 1 along a family of systems, which the note records.
    """

    c: float
    kappa: float
    product_gap: float
    modulus: float
    inclination_interval: tuple[float, float]
    verdict: str
    margin: float
    near_asc: bool
    note: str = ""


def _finish(name: str, measured, bound, check_tol: float, note: str = "",
            max_abs_deviation: float | None = None) -> BoundCheck:
    margin = float(np.min(np.asarray(bound, dtype=float) - np.asarray(measured, dtype=float)))
    return BoundCheck(
        name=name,
        measured=measured,
        bound=bound,
        margin=margin,
        satisfied=bool(margin >= -check_tol),
        note=note,
        max_abs_deviation=max_abs_deviation,
    )


def kw_check(system: SubspaceSystem, n_max: int = 100) -> BoundCheck:
    """The pair equality ||(P_2 P_1)^n - P_M|| = c^(2n-1), c = sigma_max(R_1^T R_2): DeHu's pair case."""
    if system.n_subspaces != 2:
        raise ValueError("the pair equality check needs exactly two subspaces")
    return replace(dehu_check(system, n_max), name="KW")


def cor_main_check(system: SubspaceSystem, n_max: int = 100) -> BoundCheck:
    """Geometric envelope ||T^n - P_M|| <= (1 - ((1-c)/(4N))^2)^(n/2)."""
    if system.degenerate:
        raise ValueError("degenerate system: the joint angle is undefined")
    n = system.n_subspaces
    c = friedrichs_number(system)
    trace = operator_error_norms(system, n_max)
    base = 1.0 - ((1.0 - c) / (4.0 * n)) ** 2
    bound = base ** (trace.steps / 2.0)
    return _finish("corMain", trace.errors, bound, system.tol.check_tol)


def dehu_check(system: SubspaceSystem, n_max: int = 100) -> BoundCheck:
    """Pairwise product bound c_1N^(n-1) * c_12^n * ... * c_(N-1)N^n.

    Built from the reduced minimal-angle table; the bound degenerates to 1
    when all the consecutive cosines equal 1, in which case pairwise angles
    cannot certify geometric convergence even though the joint angle can.
    For a pair the bound is c^(2n-1), which the trace equals (KW), so the
    margin is round-off of either sign and the deviation is reported.
    """
    check_tol = system.tol.check_tol
    table = pairwise_dixmier_reduced(system)
    n = system.n_subspaces
    trace = operator_error_norms(system, n_max)
    chain = float(np.prod([table[i, i + 1] for i in range(n - 1)]))
    wrap = float(table[0, n - 1])
    steps = trace.steps.astype(float)
    bound = wrap ** (steps - 1) * chain ** steps
    note = "uninformative: all consecutive pairwise cosines are 1" if bound.min() >= 1.0 - check_tol else ""
    deviation = None
    if n == 2:
        note, deviation = "equality expected", float(np.max(np.abs(trace.errors - bound)))
    return _finish("DeHu", trace.errors, bound, check_tol, note=note, max_abs_deviation=deviation)


def estimc_check(system: SubspaceSystem) -> BoundCheck:
    """Chained upper bounds on c from the prefix angles c_j.

    c <= 1 - (1/(N-1)) * prod_j (1 - sqrt((c_j+1)/2))^2
      <= 1 - (1/((N-1) 4^(N-1))) * prod_j (1 - c_j)^2.
    """
    check_tol = system.tol.check_tol
    n = system.n_subspaces
    c = friedrichs_number(system)
    prefix = np.asarray(prefix_friedrichs(system))
    tight = 1.0 - np.prod((1.0 - np.sqrt((prefix + 1.0) / 2.0)) ** 2) / (n - 1.0)
    loose = 1.0 - np.prod((1.0 - prefix) ** 2) / ((n - 1.0) * 4.0 ** (n - 1))
    note = "vacuous: some prefix angle cosine is 1" if prefix.max(initial=0.0) >= 1.0 - check_tol else ""
    return _finish("estimC", np.full(2, c), np.array([tight, loose]), check_tol, note=note)


def eq_norm_check(system: SubspaceSystem) -> BoundCheck:
    """||T - P_M|| <= sqrt(1 - l^2/N^2): the remarkK check of the cyclic product T = P_N ... P_1."""
    return replace(remark_product_check(system, range(1, system.n_subspaces + 1)), name="eqNorm")


def eq_qua_check(system: SubspaceSystem) -> tuple[BoundCheck, BoundCheck]:
    """Two-sided modulus bounds l^2/(2 N^2) <= gamma(I - T) <= (2^N - 1) l.

    The left side substitutes the lower endpoint of the sandwich for l, the
    right side its upper endpoint, so each inequality stays valid under the
    substitution.
    """
    n = system.n_subspaces
    lower, upper = inclination_bounds(configuration_constant(system), n)
    gamma = reduced_min_modulus(system)
    low = _finish("eqQuaLower", lower ** 2 / (2.0 * n ** 2), gamma, system.tol.check_tol)
    high = _finish("eqQuaUpper", gamma, (2.0 ** n - 1.0) * upper, system.tol.check_tol)
    return low, high


def remark_product_check(system: SubspaceSystem, indices) -> BoundCheck:
    """||P_{i_k} ... P_{i_1} - P_M|| <= sqrt(1 - l^2/k^2) for a covering list."""
    idx = list(indices)
    if set(idx) != set(range(1, system.n_subspaces + 1)):
        raise ValueError("the index list must cover every subspace")
    ell = inclination_bounds(configuration_constant(system), system.n_subspaces)[0]
    measured = random_product_norm(system, idx)
    bound = float(np.sqrt(max(0.0, 1.0 - ell ** 2 / len(idx) ** 2)))
    return _finish("remarkK", measured, bound, system.tol.check_tol)


def dichotomy_report(system: SubspaceSystem) -> DichotomyVerdict:
    """Assemble the convergence verdict and its consistency witnesses.

    Confirms the finite-dimensional web: c < 1, ||T - P_M|| < 1 and
    gamma(I - T) > 0 hold together, and raises NumericalFailure when they
    do not.  The inclination interval is the closed-form sandwich
    `inclination_bounds` of kappa; no optimizer runs.  Degenerate systems
    are rejected.
    """
    if system.degenerate:
        raise ValueError("degenerate system: all subspaces coincide with the intersection")
    c = friedrichs_number(system)
    kappa = configuration_constant(system)
    gap = float(operator_error_norms(system, 1).errors[0])
    gamma = reduced_min_modulus(system)
    margin = 1.0 - c
    consistent = c < 1.0 and gap < 1.0 and gamma > 0.0
    if not consistent:
        raise NumericalFailure(
            f"consistency web broken: c={c}, ||T - P_M||={gap}, gamma={gamma}"
        )
    note = ("uniform geometric convergence holds for every fixed system in finite "
            "dimension; arbitrarily slow convergence only appears as c -> 1 along "
            "a family")
    return DichotomyVerdict(
        c=c,
        kappa=kappa,
        product_gap=gap,
        modulus=gamma,
        inclination_interval=inclination_bounds(kappa, system.n_subspaces),
        verdict="QUC",
        margin=margin,
        near_asc=bool(margin < NEAR_ASC_MARGIN),
        note=note,
    )


def bound_report(system: SubspaceSystem, n_max: int = 100) -> BoundReport:
    """Run every applicable bound check to n_max, KW included; degenerate systems get a partial report."""
    entries: list[BoundCheck] = []
    degenerate = system.degenerate
    if system.n_subspaces == 2:
        entries.append(kw_check(system, n_max))
    if not degenerate:
        entries.append(cor_main_check(system, n_max))
    entries.append(dehu_check(system, n_max))
    entries.append(estimc_check(system))
    if not degenerate:
        entries.append(eq_norm_check(system))
        entries.extend(eq_qua_check(system))
        entries.append(remark_product_check(system, range(1, system.n_subspaces + 1)))
    return BoundReport(entries=entries, degenerate=degenerate)
