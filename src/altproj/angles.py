"""Joint angle parameters of a family of subspaces.

For N subspaces with intersection M the module computes:

* the configuration constant  kappa = || (P_1 + ... + P_N)/N - P_M ||,
* the joint Friedrichs number c = N/(N-1) * kappa - 1/(N-1)  in [0, 1],
* the non-reduced pair (c0, kappa0) in closed form: kappa0 = ||P_D P_C||^2
  on the product space equals the norm of the mean projector, so the pair
  is (1, 1) when the intersection is nonzero and (c, kappa) otherwise,
* pairwise angles, prefix angles and Gramian samples; a pair cosine is the
  principal cosine (Bjorck & Golub 1973, a singular value of B_1^T B_2) next
  after the dim(meet) ones, so no analysis builds a pair system,
* the inclination  l = inf over unit y orthogonal to M of max_j dist(y, M_j),
  bracketed by [dual_lower, estimate] (a single point where l has a closed form)
  and by the paper's sandwich [1 - sqrt(kappa), min(1, sqrt(2N(1 - sqrt(kappa))))].

Empty-supremum convention: when every reduced subspace is {0} (all
subspaces equal M) the defining suprema range over an empty set; c is
reported as 0 and kappa as 1/N, with the degenerate flag raised.  (c0,
kappa0) follows its closed form: (0, 1/N) when M = {0}, (1, 1) otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import DEFAULT_TOL, NumericalFailure, TolerancePolicy, operator_norm
from .subspace import Subspace, SubspaceSystem, _derived, intersection_of

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
    """l lies in [dual_lower, estimate], and in the paper's sandwich [lower, upper].

    estimate is max_j dist(y, M_j) at the best unit y evaluated, dual_lower
    a Lagrangian bound never below sqrt(1 - kappa); `certified` is set when
    the estimate lands inside [lower - tol, upper + tol].
    """

    lower: float
    upper: float
    estimate: float
    certified: bool
    dual_lower: float


# inclination loop for N >= 3: steps per phase, scale of the weight and local steps
_STEP_CAP = 600
_STEP_SCALE = 3.0


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


def _checked_range(value: float, lo: float, hi: float, check_tol: float, label: str) -> float:
    if value < lo - check_tol or value > hi + check_tol:
        raise NumericalFailure(f"{label} = {value} escapes [{lo}, {hi}] beyond tolerance")
    return float(min(hi, max(lo, value)))


@_derived
def _reduced_gram(system: SubspaceSystem) -> np.ndarray:
    """G = R^T R for the stacked reduced bases R = [R_1 ... R_N], r x r with r = sum dim R_j."""
    stacked = np.hstack([r.basis for r in system.reduced])
    return stacked.T @ stacked


@_derived
def configuration_constant(system: SubspaceSystem) -> float:
    """kappa = || mean of the projectors - projector onto the intersection ||.

    Computed through the Gramian: the mean minus P_M is R R^T / N for the
    stacked reduced bases R = [R_1 ... R_N], so kappa = lambda_max(R^T R)/N.
    Lies in [1/N, 1]; the degenerate (all-equal) family gets 1/N by the
    empty-supremum convention.
    """
    n = system.n_subspaces
    if system.degenerate:
        return 1.0 / n
    kappa = float(np.linalg.eigvalsh(_reduced_gram(system))[-1]) / n
    return _checked_range(kappa, 1.0 / n, 1.0, system.tol.check_tol, "configuration constant")


def friedrichs_number(system: SubspaceSystem) -> float:
    """Joint Friedrichs number c = N/(N-1) * kappa - 1/(N-1), in [0, 1].

    c = 0 for pairwise orthogonal subspaces, c = 1 exactly when uniform
    geometric convergence of the cyclic projection iteration fails.
    """
    n = system.n_subspaces
    c = (n * configuration_constant(system) - 1.0) / (n - 1.0)
    return _checked_range(c, 0.0, 1.0, system.tol.check_tol, "Friedrichs number")


def dixmier_number(system: SubspaceSystem) -> tuple[float, float]:
    """(c0, kappa0): the non-reduced angle pair.

    kappa0 = ||P_D P_C||^2 on the product space R^{Nd}, with C = M_1 x ... x M_N
    and D the diagonal, equals ||(P_1 + ... + P_N)/N||.  That norm is 1 when
    the intersection M is nonzero and kappa when M = {0}, so the pair is
    (1, 1) or (c, kappa); the all-zero family gets (0, 1/N) through the
    empty-supremum convention of kappa.
    """
    if system.intersection.dim > 0:
        return 1.0, 1.0
    return friedrichs_number(system), configuration_constant(system)


def _friedrichs_cosine(b1: np.ndarray, b2: np.ndarray, meet_dim: int, check_tol: float) -> float:
    """Principal cosine meet_dim + 1 of (span b1, span b2), a singular value of b1^T b2; 0 if none is left."""
    cosines = np.append(np.linalg.svd(b1.T @ b2, compute_uv=False), 0.0)
    return _checked_range(float(cosines[meet_dim]), 0.0, 1.0, check_tol, "Friedrichs cosine")


def pairwise_friedrichs(s1: Subspace, s2: Subspace, tol: TolerancePolicy = DEFAULT_TOL) -> float:
    """Friedrichs cosine ||P_2 P_1 - P_meet|| of the pair (s1, s2), its meet taken under tol."""
    return _friedrichs_cosine(s1.basis, s2.basis, intersection_of((s1, s2), tol).dim, tol.check_tol)


@_derived
def pairwise_dixmier_reduced(system: SubspaceSystem) -> np.ndarray:
    """Symmetric N x N table of ||P_i~ P_j~|| over the reduced subspaces.

    Entry (i, j) is the cosine of the minimal angle between the reduced
    subspaces i and j: as P_i P_j = P_M + P_i~ P_j~, the principal cosines of
    B_i, B_j are dim M ones and then those of R_i^T R_j.  The diagonal is 1
    for nonzero reduced subspaces and 0 otherwise.
    """
    n, meet_dim, check_tol = system.n_subspaces, system.intersection.dim, system.tol.check_tol
    table = np.diag([1.0 if r.dim else 0.0 for r in system.reduced])
    bases = [s.basis for s in system.subspaces]
    for i in range(n):
        for j in range(i + 1, n):
            table[i, j] = table[j, i] = _friedrichs_cosine(bases[i], bases[j], meet_dim, check_tol)
    return table


@_derived
def prefix_friedrichs(system: SubspaceSystem) -> tuple[float, ...]:
    """c_j = Friedrichs cosine of (M_1 ∩ ... ∩ M_{j-1}, M_j) for j = 2..N.

    Each of the N - 2 intermediate prefix meets is taken once, under the
    system's policy; the last one is M.
    """
    values, prefix, tol = [], system.subspaces[0], system.tol
    for j, s in enumerate(system.subspaces[1:], start=2):
        meet = system.intersection if j == system.n_subspaces else intersection_of((prefix, s), tol)
        values.append(_friedrichs_cosine(prefix.basis, s.basis, meet.dim, tol.check_tol))
        prefix = meet
    return tuple(values)


def gramian_sample(system: SubspaceSystem, unit_vectors) -> float:
    """(1/N) * ||G|| for the Gramian G of one unit vector per reduced subspace.

    Every sample is a lower witness for the configuration constant; the
    supremum over admissible tuples attains it.  Rejected when some reduced
    subspace is {0}, because the admissible set then has no unit vector.
    """
    n, tol = system.n_subspaces, system.tol
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


def inclination_bounds(kappa: float, n: int) -> tuple[float, float]:
    """The paper's sandwich [1 - sqrt(kappa), min(1, sqrt(2N(1 - sqrt(kappa))))] for l."""
    root = float(np.sqrt(kappa))
    return max(0.0, 1.0 - root), min(1.0, float(np.sqrt(max(0.0, 2.0 * n * (1.0 - root)))))


def _weighted_dual(gram: np.ndarray, member: np.ndarray, lam: np.ndarray) -> float:
    """sqrt(1 - lambda_max(sum_j lam_j R_j R_j^T)), a lower bound on l for any simplex weights lam.

    For unit y orthogonal to M, max_j dist(y, M_j)^2 >= sum_j lam_j (1 - ||R_j^T y||^2);
    sum_j lam_j R_j R_j^T = R D R^T has the nonzero spectrum of D^(1/2) G D^(1/2).
    """
    root = np.sqrt(member @ lam)
    top = float(np.linalg.eigvalsh(root[:, None] * gram * root)[-1])
    return float(np.sqrt(max(0.0, 1.0 - top)))


def _recovered_weights(gram: np.ndarray, member: np.ndarray, c: np.ndarray, z: np.ndarray,
                       q: np.ndarray) -> np.ndarray | None:
    """Simplex weights that make the unit y = R c most nearly an eigenvector of sum_j lam_j R_j R_j^T.

    The best mu in ||sum_j lam_j R_j R_j^T y - mu y|| is sum_j lam_j q_j, which
    leaves ||sum_j lam_j w_j|| for w_j = R_j R_j^T y - q_j y = R a_j: least
    squares under sum_j lam_j = 1, solved by its KKT system in the metric G,
    then clipped to the simplex.  None when every w_j or every weight vanishes.
    """
    n = q.shape[0]
    a = member * z[:, None] - np.outer(c, q)
    w = a.T @ (gram @ a)
    scale = float(np.abs(w).max())
    if not scale > 0.0:
        return None
    kkt = np.ones((n + 1, n + 1))
    kkt[:n, :n], kkt[n, n] = w / scale, 0.0
    lam = np.maximum(np.linalg.lstsq(kkt, np.eye(n + 1)[n], rcond=None)[0][:n], 0.0)
    return lam / lam.sum() if lam.sum() > 0.0 else None


def _inclination_loop(system: SubspaceSystem, floor: float) -> tuple[float, float]:
    """(estimate, dual_lower) of l for N >= 3, in the coefficients of the stacked reduced bases R.

    A unit y = R c in the span of R has z = R^T y = G c, ||y||^2 = c . z and
    ||R_j^T y||^2 = q_j = 1 - dist(y, M_j)^2, so every step is one product
    with G = R^T R.  Power steps y <- normalize(sum_j lam_j R_j R_j^T y)
    alternate with multiplicative updates of the simplex weights lam; after
    32, 64, ..., 512 of them the weights recovered from the best point give a
    Lagrangian bound, and the loop stops once it meets the estimate within
    check_tol.  Otherwise the mean weights give one more bound, and while a
    gap remains damped steps up the farthest block's q_j follow from the
    best point, closed by one more recovered bound.  sqrt(1 - kappa) = floor
    is the bound at uniform weights.
    """
    n, tol = system.n_subspaces, system.tol.check_tol
    gram = _reduced_gram(system)
    member = np.repeat(np.eye(n), [r.dim for r in system.reduced], axis=0)
    best = [-1.0]

    def visit(c):
        z = gram @ c
        norm = float(np.sqrt(c @ z))
        c, z = c / norm, z / norm
        q = (z * z) @ member
        if q.min() > best[0]:
            best[:] = q.min(), c, z, q
        return c, z, q

    def estimate():
        return float(np.sqrt(max(0.0, 1.0 - best[0])))

    def certify(dual):
        lam = _recovered_weights(gram, member, *best[1:])
        return dual if lam is None else max(dual, _weighted_dual(gram, member, lam))

    lam, lam_sum, dual = np.full(n, 1.0 / n), 0.0, floor
    # the start R w, w_i = 1/i^2, cannot vanish: ||R w|| >= 1 - (pi^2/6 - 1) for unit columns
    c, z, q = visit(1.0 / np.arange(1.0, gram.shape[0] + 1.0) ** 2)
    for t in range(1, _STEP_CAP + 1):
        lam_sum = lam_sum + lam
        lam = lam * np.exp(_STEP_SCALE * (q.min() - q))
        lam /= lam.sum()
        c, z, q = visit((member @ lam) * z)
        if t >= 32 and t & (t - 1) == 0:  # a power of two
            dual = certify(dual)
            if estimate() - dual <= tol:
                return estimate(), dual
    dual = max(dual, _weighted_dual(gram, member, lam_sum / _STEP_CAP))
    _, c, z, q = best
    for t in range(_STEP_CAP):
        j = q.argmin()
        # half the tangent gradient of min q, R_j R_j^T y - q_j y, has norm sqrt(q_j (1 - q_j))
        length = float(np.sqrt(max(0.0, q[j] * (1.0 - q[j])) * (t + 1.0)))
        gap = estimate() - dual
        if gap <= tol or not length > 0.0:
            break
        c, z, q = visit(c + (_STEP_SCALE * gap / length) * (member[:, j] * z - q[j] * c))
    if estimate() - dual > tol:
        dual = certify(dual)
    return estimate(), dual


def inclination(system: SubspaceSystem) -> InclinationEstimate:
    """The inclination l = min over unit y orthogonal to M of max_j dist(y, M_j).

    l = 1 when some reduced subspace is {0}, as every such y is at distance 1
    from it.  l = sqrt(1 - kappa) for a pair: the bisector of the principal
    vectors attains it, and uniform dual weights bound l below by it.
    Undefined when the intersection is the whole space.
    """
    if system.intersection.dim == system.ambient_dim:
        raise ValueError("inclination undefined: the intersection is the whole space")
    n = system.n_subspaces
    kappa = configuration_constant(system)
    floor = float(np.sqrt(1.0 - kappa))
    if any(r.dim == 0 for r in system.reduced):
        estimate = dual = 1.0
    elif n == 2:
        estimate = dual = floor
    else:
        estimate, dual = _inclination_loop(system, floor)
    lower, upper = inclination_bounds(kappa, n)
    certified = lower - system.tol.check_tol <= estimate <= upper + system.tol.check_tol
    return InclinationEstimate(lower, upper, estimate, bool(certified), dual_lower=dual)


def angle_report(system: SubspaceSystem) -> AngleReport:
    """Every angle parameter; all but the inclination are computed once per system."""
    c0, kappa0 = dixmier_number(system)
    whole = system.intersection.dim == system.ambient_dim
    return AngleReport(
        c0=c0,
        c=friedrichs_number(system),
        kappa0=kappa0,
        kappa=configuration_constant(system),
        pairwise_dixmier_reduced=pairwise_dixmier_reduced(system),
        prefix_friedrichs=prefix_friedrichs(system),
        inclination=None if whole else inclination(system),
        degenerate=system.degenerate,
    )
