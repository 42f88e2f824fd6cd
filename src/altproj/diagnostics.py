"""Quantitative bound checks and the convergence-dichotomy verdict.

Each check compares a measured quantity against a bound expressed through
the angle parameters and reports the margin (minimum of bound - measured),
so near-violations caused by round-off stay visible.  Covered bounds:

* ``KW``         exactness of ||(P_2 P_1)^n - P_M|| = c^(2n-1) for pairs,
* ``corMain``    geometric envelope (1 - ((1-c)/(4N))^2)^(n/2),
* ``DeHu``       product of pairwise reduced minimal-angle cosines,
* ``estimC``     chained upper bounds on c from the prefix angles,
* ``eqNorm``     ||T - P_M|| <= sqrt(1 - l^2/N^2),
* ``eqQua``      l^2/(2 N^2) <= gamma(I - T) <= (2^N - 1) l,
* ``remarkK``    ||P_{i_k} ... P_{i_1} - P_M|| <= sqrt(1 - l^2/k^2).

Bounds involving the inclination l substitute an endpoint of the
closed-form sandwich `inclination_bounds` in the direction that keeps the
inequality valid: the lower endpoint 1 - sqrt(kappa) where a smaller l
weakens the bound, the upper endpoint otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .angles import (
    configuration_constant,
    friedrichs_number,
    inclination_bounds,
    pairwise_dixmier_reduced,
    prefix_friedrichs,
)
from .dynamics import operator_error_norms, random_product_norm, reduced_min_modulus
from .numerics import DEFAULT_TOL, NumericalFailure, TolerancePolicy
from .subspace import SubspaceSystem

__all__ = [
    "BoundCheck",
    "BoundReport",
    "DichotomyVerdict",
    "NEAR_ASC_MARGIN",
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


def _finish(name: str, measured, bound, tol: TolerancePolicy, note: str = "",
            max_abs_deviation: float | None = None) -> BoundCheck:
    margin = float(np.min(np.asarray(bound, dtype=float) - np.asarray(measured, dtype=float)))
    return BoundCheck(
        name=name,
        measured=measured,
        bound=bound,
        margin=margin,
        satisfied=bool(margin >= -tol.check_tol),
        note=note,
        max_abs_deviation=max_abs_deviation,
    )


def kw_check(system: SubspaceSystem, n_max: int = 10, tol: TolerancePolicy = DEFAULT_TOL) -> BoundCheck:
    """Exactness of the pair error formula ||(P_2 P_1)^n - P_M|| = c^(2n-1)."""
    if system.n_subspaces != 2:
        raise ValueError("the pair equality check needs exactly two subspaces")
    c = friedrichs_number(system, tol)
    trace = operator_error_norms(system, n_max)
    exponents = 2 * trace.steps - 1
    bound = c ** exponents.astype(float)
    deviation = float(np.max(np.abs(trace.errors - bound)))
    return _finish("KW", trace.errors, bound, tol, note="equality expected",
                   max_abs_deviation=deviation)


def cor_main_check(system: SubspaceSystem, n_max: int = 100,
                   tol: TolerancePolicy = DEFAULT_TOL) -> BoundCheck:
    """Geometric envelope ||T^n - P_M|| <= (1 - ((1-c)/(4N))^2)^(n/2)."""
    if system.degenerate:
        raise ValueError("degenerate system: the joint angle is undefined")
    n = system.n_subspaces
    c = friedrichs_number(system, tol)
    trace = operator_error_norms(system, n_max)
    base = 1.0 - ((1.0 - c) / (4.0 * n)) ** 2
    bound = base ** (trace.steps / 2.0)
    return _finish("corMain", trace.errors, bound, tol)


def dehu_check(system: SubspaceSystem, n_max: int = 100,
               tol: TolerancePolicy = DEFAULT_TOL) -> BoundCheck:
    """Pairwise product bound c_1N^(n-1) * c_12^n * ... * c_(N-1)N^n.

    Built from the reduced minimal-angle table; the bound degenerates to 1
    when all the consecutive cosines equal 1, in which case pairwise angles
    cannot certify geometric convergence even though the joint angle can.
    """
    table = pairwise_dixmier_reduced(system, tol)
    n = system.n_subspaces
    trace = operator_error_norms(system, n_max)
    chain = float(np.prod([table[i, i + 1] for i in range(n - 1)]))
    wrap = float(table[0, n - 1])
    steps = trace.steps.astype(float)
    bound = wrap ** (steps - 1) * chain ** steps
    note = "uninformative: all consecutive pairwise cosines are 1" if bound.min() >= 1.0 - tol.check_tol else ""
    return _finish("DeHu", trace.errors, bound, tol, note=note)


def estimc_check(system: SubspaceSystem, tol: TolerancePolicy = DEFAULT_TOL) -> BoundCheck:
    """Chained upper bounds on c from the prefix angles c_j.

    c <= 1 - (1/(N-1)) * prod_j (1 - sqrt((c_j+1)/2))^2
      <= 1 - (1/((N-1) 4^(N-1))) * prod_j (1 - c_j)^2.
    """
    n = system.n_subspaces
    c = friedrichs_number(system, tol)
    prefix = np.asarray(prefix_friedrichs(system, tol))
    tight = 1.0 - np.prod((1.0 - np.sqrt((prefix + 1.0) / 2.0)) ** 2) / (n - 1.0)
    loose = 1.0 - np.prod((1.0 - prefix) ** 2) / ((n - 1.0) * 4.0 ** (n - 1))
    note = "vacuous: some prefix angle cosine is 1" if prefix.max(initial=0.0) >= 1.0 - tol.check_tol else ""
    return _finish("estimC", np.full(2, c), np.array([tight, loose]), tol, note=note)


def eq_norm_check(system: SubspaceSystem, ell_lower: float | None = None,
                  tol: TolerancePolicy = DEFAULT_TOL) -> BoundCheck:
    """||T - P_M|| <= sqrt(1 - l^2/N^2), with a certified lower endpoint for l."""
    n = system.n_subspaces
    if ell_lower is None:
        ell_lower = inclination_bounds(configuration_constant(system, tol), n)[0]
    measured = float(operator_error_norms(system, 1).errors[0])
    bound = float(np.sqrt(max(0.0, 1.0 - ell_lower ** 2 / n ** 2)))
    return _finish("eqNorm", measured, bound, tol)


def eq_qua_check(system: SubspaceSystem, ell_lower: float | None = None,
                 ell_upper: float | None = None,
                 tol: TolerancePolicy = DEFAULT_TOL) -> tuple[BoundCheck, BoundCheck]:
    """Two-sided modulus bounds l^2/(2 N^2) <= gamma(I - T) <= (2^N - 1) l.

    The left side substitutes a lower endpoint for l, the right side an
    upper endpoint (by default both derived from the configuration
    constant), so each inequality stays valid under the substitution.
    """
    n = system.n_subspaces
    lower, upper = inclination_bounds(configuration_constant(system, tol), n)
    if ell_lower is None:
        ell_lower = lower
    if ell_upper is None:
        ell_upper = upper
    gamma = reduced_min_modulus(system)
    low = _finish("eqQuaLower", ell_lower ** 2 / (2.0 * n ** 2), gamma, tol)
    high = _finish("eqQuaUpper", gamma, (2.0 ** n - 1.0) * ell_upper, tol)
    return low, high


def remark_product_check(system: SubspaceSystem, indices, ell_lower: float | None = None,
                         tol: TolerancePolicy = DEFAULT_TOL) -> BoundCheck:
    """||P_{i_k} ... P_{i_1} - P_M|| <= sqrt(1 - l^2/k^2) for a covering list."""
    idx = [int(i) for i in indices]
    if set(idx) != set(range(1, system.n_subspaces + 1)):
        raise ValueError("the index list must cover every subspace")
    if ell_lower is None:
        ell_lower = inclination_bounds(configuration_constant(system, tol), system.n_subspaces)[0]
    measured = random_product_norm(system, idx, tol)
    bound = float(np.sqrt(max(0.0, 1.0 - ell_lower ** 2 / len(idx) ** 2)))
    return _finish("remarkK", measured, bound, tol)


def dichotomy_report(system: SubspaceSystem, tol: TolerancePolicy = DEFAULT_TOL) -> DichotomyVerdict:
    """Assemble the convergence verdict and its consistency witnesses.

    Confirms the finite-dimensional web: c < 1, ||T - P_M|| < 1 and
    gamma(I - T) > 0 hold together, and raises NumericalFailure when they
    do not.  The inclination interval is the closed-form sandwich
    `inclination_bounds` of kappa; no optimizer runs.  Degenerate systems
    are rejected.
    """
    if system.degenerate:
        raise ValueError("degenerate system: all subspaces coincide with the intersection")
    c = friedrichs_number(system, tol)
    kappa = configuration_constant(system, tol)
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


def bound_report(system: SubspaceSystem, n_max: int = 100,
                 tol: TolerancePolicy = DEFAULT_TOL) -> BoundReport:
    """Run every applicable bound check; degenerate systems get a partial report."""
    entries: list[BoundCheck] = []
    degenerate = system.degenerate
    if system.n_subspaces == 2:
        entries.append(kw_check(system, min(n_max, 10), tol))
    if not degenerate:
        entries.append(cor_main_check(system, n_max, tol))
    entries.append(dehu_check(system, n_max, tol))
    entries.append(estimc_check(system, tol))
    if not degenerate:
        entries.append(eq_norm_check(system, tol=tol))
        entries.extend(eq_qua_check(system, tol=tol))
        entries.append(remark_product_check(system, range(1, system.n_subspaces + 1), tol=tol))
    return BoundReport(entries=entries, degenerate=degenerate)
