"""Joint angle parameters of a family of subspaces.

For N subspaces with intersection M the module computes:

* the configuration constant  kappa = || (P_1 + ... + P_N)/N - P_M ||,
* the joint Friedrichs number c = N/(N-1) * kappa - 1/(N-1)  in [0, 1],
* the non-reduced pair (c0, kappa0) in closed form: kappa0 = ||P_D P_C||^2
  on the product space equals the norm of the mean projector, so the pair
  is (1, 1) when the intersection is nonzero and (c, kappa) otherwise,
* pairwise angles, prefix angles and Gramian samples,
* the inclination  l = inf over unit y orthogonal to M of
  max_j dist(y, M_j), estimated by multistart projected subgradient
  descent on the unit sphere of the span Q of the reduced bases and
  certified against the closed-form sandwich
  1 - sqrt(kappa) <= l <= min(1, sqrt(2N(1 - sqrt(kappa)))).

Empty-supremum convention: when every reduced subspace is {0} (all
subspaces equal M) the defining suprema range over an empty set; c is
reported as 0 and kappa as 1/N, with the degenerate flag raised.  (c0,
kappa0) follows its closed form: (0, 1/N) when M = {0}, (1, 1) otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import DEFAULT_TOL, NumericalFailure, TolerancePolicy, operator_norm
from .subspace import Subspace, SubspaceSystem

__all__ = [
    "AngleReport",
    "InclinationEstimate",
    "angle_report",
    "configuration_constant",
    "dixmier_number",
    "friedrichs_number",
    "gramian_sample",
    "inclination",
    "inclination_bounds",
    "pairwise_dixmier_reduced",
    "pairwise_friedrichs",
    "prefix_friedrichs",
]


@dataclass(frozen=True)
class InclinationEstimate:
    """Numerical estimate of the inclination together with certified bounds.

    lower and upper are the closed-form sandwich `inclination_bounds` of the
    configuration constant; `certified` is set when the optimizer value
    lands inside [lower - tol, upper + tol].
    """

    lower: float
    upper: float
    estimate: float
    certified: bool


# inclination optimizer: random starts, subgradient steps, polish steps from
# the best start, initial step size, L^p smoothing power, seed of the starts
_STARTS = 32
_STEPS = 400
_POLISH_STEPS = 200
_STEP_SIZE = 0.5
_SMOOTHING_POWER = 16.0
_SEED = 0


@dataclass(eq=False)
class AngleReport:
    """All angle parameters of a system in one bundle."""

    c0: float
    c: float
    kappa0: float
    kappa: float
    pairwise_dixmier_reduced: np.ndarray
    prefix_friedrichs: tuple[float, ...]
    inclination: InclinationEstimate | None
    degenerate: bool


def _checked_range(value: float, lo: float, hi: float, tol: TolerancePolicy, label: str) -> float:
    if value < lo - tol.check_tol or value > hi + tol.check_tol:
        raise NumericalFailure(f"{label} = {value} escapes [{lo}, {hi}] beyond tolerance")
    return float(min(hi, max(lo, value)))


def configuration_constant(system: SubspaceSystem, tol: TolerancePolicy = DEFAULT_TOL) -> float:
    """kappa = || mean of the projectors - projector onto the intersection ||.

    Computed through the Gramian: the mean minus P_M is R R^T / N for the
    stacked reduced bases R = [R_1 ... R_N], so kappa = lambda_max(R^T R)/N.
    Lies in [1/N, 1]; the degenerate (all-equal) family gets 1/N by the
    empty-supremum convention.
    """
    n = system.n_subspaces
    if system.degenerate:
        return 1.0 / n
    stacked = np.hstack([r.basis for r in system.reduced])
    kappa = float(np.linalg.eigvalsh(stacked.T @ stacked)[-1]) / n
    return _checked_range(kappa, 1.0 / n, 1.0, tol, "configuration constant")


def friedrichs_number(system: SubspaceSystem, tol: TolerancePolicy = DEFAULT_TOL) -> float:
    """Joint Friedrichs number c = N/(N-1) * kappa - 1/(N-1), in [0, 1].

    c = 0 for pairwise orthogonal subspaces, c = 1 exactly when uniform
    geometric convergence of the cyclic projection iteration fails.
    """
    return _friedrichs_from(configuration_constant(system, tol), system.n_subspaces, tol)


def _friedrichs_from(kappa: float, n: int, tol: TolerancePolicy) -> float:
    return _checked_range((n * kappa - 1.0) / (n - 1.0), 0.0, 1.0, tol, "Friedrichs number")


def dixmier_number(system: SubspaceSystem, tol: TolerancePolicy = DEFAULT_TOL) -> tuple[float, float]:
    """(c0, kappa0): the non-reduced angle pair.

    kappa0 = ||P_D P_C||^2 on the product space R^{Nd}, with C = M_1 x ... x M_N
    and D the diagonal, equals ||(P_1 + ... + P_N)/N||.  That norm is 1 when
    the intersection M is nonzero and kappa when M = {0}, so the pair is
    (1, 1) or (c, kappa); the all-zero family gets (0, 1/N) through the
    empty-supremum convention of kappa.
    """
    if system.intersection.dim > 0:
        return 1.0, 1.0
    kappa = configuration_constant(system, tol)
    return _friedrichs_from(kappa, system.n_subspaces, tol), kappa


def pairwise_friedrichs(s1: Subspace, s2: Subspace, tol: TolerancePolicy = DEFAULT_TOL) -> float:
    """Friedrichs cosine ||P_2 P_1 - P_meet||, the reduced-table entry of the pair system (s1, s2)."""
    return float(pairwise_dixmier_reduced(SubspaceSystem((s1, s2), tol), tol)[0, 1])


def pairwise_dixmier_reduced(system: SubspaceSystem, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Symmetric N x N table of ||P_i~ P_j~|| over the reduced subspaces.

    Entry (i, j) is the cosine of the minimal angle between the reduced
    subspaces i and j, the norm ||R_i^T R_j|| of the Gram block of their
    bases; the diagonal is 1 for nonzero reduced subspaces and 0 otherwise.
    """
    n = system.n_subspaces
    table = np.zeros((n, n))
    bases = [r.basis for r in system.reduced]
    for i in range(n):
        table[i, i] = 1.0 if system.reduced[i].dim else 0.0
        for j in range(i + 1, n):
            value = operator_norm(bases[i].T @ bases[j])
            value = _checked_range(value, 0.0, 1.0, tol, "pairwise Dixmier number")
            table[i, j] = table[j, i] = value
    return table


def prefix_friedrichs(system: SubspaceSystem, tol: TolerancePolicy = DEFAULT_TOL) -> tuple[float, ...]:
    """c_j = pairwise angle of (M_1 ∩ ... ∩ M_{j-1}, M_j) for j = 2..N.

    The pair system of (prefix, M_j) holds the next prefix as its
    intersection, so each prefix intersection is built once.
    """
    values = []
    prefix = system.subspaces[0]
    for s in system.subspaces[1:]:
        pair = SubspaceSystem((prefix, s), tol)
        values.append(float(pairwise_dixmier_reduced(pair, tol)[0, 1]))
        prefix = pair.intersection
    return tuple(values)


def gramian_sample(system: SubspaceSystem, unit_vectors, tol: TolerancePolicy = DEFAULT_TOL) -> float:
    """(1/N) * ||G|| for the Gramian G of one unit vector per reduced subspace.

    Every sample is a lower witness for the configuration constant; the
    supremum over admissible tuples attains it.  Rejected when some reduced
    subspace is {0}, because the admissible set then has no unit vector.
    """
    n = system.n_subspaces
    if any(r.dim == 0 for r in system.reduced):
        raise ValueError("every reduced subspace must be nonzero to pick unit vectors")
    vs = [np.asarray(v, dtype=float) for v in unit_vectors]
    if len(vs) != n:
        raise ValueError(f"expected {n} vectors, got {len(vs)}")
    for v, r in zip(vs, system.reduced):
        if v.shape != (system.ambient_dim,):
            raise ValueError("vectors must live in the ambient space")
        if abs(float(np.linalg.norm(v)) - 1.0) > tol.check_tol:
            raise ValueError("vectors must have unit norm")
        if not r.contains(v, tol):
            raise ValueError("each vector must lie in its reduced subspace")
    v_mat = np.column_stack(vs)
    gram = v_mat.T @ v_mat
    return operator_norm(gram) / n


def _inclination_objective(coeff_gram: list[np.ndarray], c: np.ndarray) -> np.ndarray:
    """max_j ||A_j c|| column-wise for c of shape (m, nstarts)."""
    r2 = np.stack([np.sum(c * (s @ c), axis=0) for s in coeff_gram])
    return np.sqrt(np.maximum(r2, 0.0)).max(axis=0)


def _subgradient_run(coeff_gram: list[np.ndarray], starts: np.ndarray, steps: int,
                     step_size: float, power: float) -> tuple[float, np.ndarray]:
    """Projected subgradient descent on the unit sphere, all starts at once.

    Descent directions use an L^p smoothing of the max of norms; objective
    values are always the true max.
    """
    c = starts / np.linalg.norm(starts, axis=0, keepdims=True)
    best_val = np.full(c.shape[1], np.inf)
    best_c = c.copy()
    for t in range(steps):
        sc = [s @ c for s in coeff_gram]
        r = np.sqrt(np.maximum(np.stack([np.sum(c * x, axis=0) for x in sc]), 0.0))
        f = r.max(axis=0)
        improved = f < best_val
        best_val = np.where(improved, f, best_val)
        best_c[:, improved] = c[:, improved]
        rmax = np.maximum(f, 1e-300)
        weights = (r / rmax) ** (power - 2.0)
        grad = sum(w * x for w, x in zip(weights, sc))
        grad -= c * np.sum(grad * c, axis=0)
        norms = np.linalg.norm(grad, axis=0)
        safe = np.maximum(norms, 1e-300)
        c = c - (step_size / np.sqrt(t + 1.0)) * grad / safe
        c /= np.linalg.norm(c, axis=0, keepdims=True)
    f = _inclination_objective(coeff_gram, c)
    improved = f < best_val
    best_val = np.where(improved, f, best_val)
    best_c[:, improved] = c[:, improved]
    winner = int(np.argmin(best_val))
    return float(best_val[winner]), best_c[:, winner]


def inclination_bounds(kappa: float, n: int) -> tuple[float, float]:
    """The paper's sandwich [1 - sqrt(kappa), min(1, sqrt(2N(1 - sqrt(kappa))))] for l."""
    root = float(np.sqrt(kappa))
    return max(0.0, 1.0 - root), min(1.0, float(np.sqrt(max(0.0, 2.0 * n * (1.0 - root)))))


def inclination(system: SubspaceSystem, tol: TolerancePolicy = DEFAULT_TOL) -> InclinationEstimate:
    """Estimate l = min over unit y orthogonal to M of max_j dist(y, M_j).

    A component of y orthogonal to the span Q of the reduced bases only
    increases each distance, so multistart projected subgradient descent
    runs on the unit sphere of Q, where dist(Qc, M_j)^2 = c^T S_j c with
    S_j = I - (R_j^T Q)^T (R_j^T Q); every distance is 1 when Q = {0}.  The
    certified interval is `inclination_bounds` of kappa.  Undefined when
    the intersection is the whole space.
    """
    if system.intersection.dim == system.ambient_dim:
        raise ValueError("inclination undefined: the intersection is the whole space")
    n = system.n_subspaces
    q = system.span.basis
    m = q.shape[1]
    blocks = [r.basis.T @ q for r in system.reduced]
    coeff_gram = [np.eye(m) - b.T @ b for b in blocks]

    if m == 0:
        estimate = 1.0
    elif m == 1:
        estimate = float(_inclination_objective(coeff_gram, np.ones((1, 1)))[0])
    else:
        rng = np.random.default_rng(_SEED)
        structured = [np.linalg.eigh(sum(coeff_gram))[1][:, :2]]
        structured.extend(np.linalg.eigh(s)[1][:, :1] for s in coeff_gram)
        seeds = np.column_stack([np.hstack(structured), rng.standard_normal((m, _STARTS))])
        estimate, best = _subgradient_run(coeff_gram, seeds, _STEPS, _STEP_SIZE, _SMOOTHING_POWER)
        polish_val, _ = _subgradient_run(coeff_gram, best[:, None], _POLISH_STEPS,
                                         _STEP_SIZE / 10.0, _SMOOTHING_POWER)
        estimate = min(estimate, polish_val)

    lower, upper = inclination_bounds(configuration_constant(system, tol), n)
    certified = (lower - tol.check_tol) <= estimate <= (upper + tol.check_tol)
    return InclinationEstimate(lower=lower, upper=upper, estimate=float(estimate), certified=bool(certified))


def angle_report(system: SubspaceSystem, tol: TolerancePolicy = DEFAULT_TOL) -> AngleReport:
    """Compute every angle parameter of the system in one pass.

    c and the closed-form (c0, kappa0) are derived from kappa, not recomputed.
    """
    kappa = configuration_constant(system, tol)
    c = _friedrichs_from(kappa, system.n_subspaces, tol)
    c0, kappa0 = (1.0, 1.0) if system.intersection.dim > 0 else (c, kappa)
    table = pairwise_dixmier_reduced(system, tol)
    prefix = prefix_friedrichs(system, tol)
    if system.intersection.dim == system.ambient_dim:
        incl = None
    else:
        incl = inclination(system, tol)
    return AngleReport(
        c0=c0,
        c=c,
        kappa0=kappa0,
        kappa=kappa,
        pairwise_dixmier_reduced=table,
        prefix_friedrichs=prefix,
        inclination=incl,
        degenerate=system.degenerate,
    )
