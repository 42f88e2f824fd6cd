"""Joint angle parameters of a family of subspaces.

For N subspaces with intersection M the module computes:

* the configuration constant  kappa = || (P_1 + ... + P_N)/N - P_M ||, read from
  the one eigh of R^T R that the inclination shares, or for a pair from its cosine,
* the joint Friedrichs number c = N/(N-1) * kappa - 1/(N-1)  in [0, 1],
* the non-reduced pair (c0, kappa0) in closed form: kappa0 = ||P_D P_C||^2
  on the product space equals the norm of the mean projector, so the pair
  is (1, 1) when the intersection is nonzero and (c, kappa) otherwise,
* the pairwise and prefix angles: entry (i, j) of the pairwise table is the
  top singular value of the Gram block R_i^T R_j that the system holds,
  and a prefix cosine is the principal cosine next after the dim(meet) ones,
  stored by the SVD that took the prefix meet at construction, so no
  analysis builds a pair system or reads a basis,
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

from .numerics import NumericalFailure
from .subspace import SubspaceSystem, _derived

__all__ = [
    "AngleReport",
    "InclinationEstimate",
    "angle_report",
    "configuration_constant",
    "dixmier_number",
    "friedrichs_number",
    "inclination",
    "inclination_bounds",
    "pairwise_dixmier_reduced",
    "prefix_friedrichs",
]


@dataclass(frozen=True)
class InclinationEstimate:
    """l lies in [dual_lower, estimate], and in the paper's sandwich [lower, upper].

    estimate is max_j dist(y, M_j) at the best unit y found, dual_lower the
    Lagrangian bound sqrt(1 - d) at the best dual weights, never below sqrt(1 - kappa);
    the two meet within check_tol unless the dual has a gap (see `_inclination_loop`).
    `certified` is set when the estimate lands inside [lower - tol, upper + tol].
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
def _gram_eigh(system: SubspaceSystem) -> tuple[np.ndarray, np.ndarray]:
    """(g, v) = eigh(R^T R), ascending: the one spectral solve of G, shared by kappa and the inclination."""
    return np.linalg.eigh(system.gram)


@_derived
def configuration_constant(system: SubspaceSystem) -> float:
    """kappa = || mean of the projectors - projector onto the intersection ||.

    Computed through the Gramian: the mean minus P_M is R R^T / N for the
    stacked reduced bases R = [R_1 ... R_N], so kappa = lambda_max(R^T R)/N.
    A pair has lambda_max([[I, B], [B^T, I]]) = 1 + sigma_max(B), B = R_1^T R_2, its table cosine.
    Lies in [1/N, 1]; the degenerate (all-equal) family gets 1/N by the
    empty-supremum convention.
    """
    n = system.n_subspaces
    if system.degenerate:
        return 1.0 / n
    kappa = ((1.0 + float(pairwise_dixmier_reduced(system)[0, 1])) / 2.0 if n == 2
             else float(_gram_eigh(system)[0][-1]) / n)
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


@_derived
def pairwise_dixmier_reduced(system: SubspaceSystem) -> np.ndarray:
    """Symmetric N x N table of ||P_i~ P_j~|| over the reduced subspaces.

    Entry (i, j) is the cosine of the minimal angle between the reduced
    subspaces i and j, the top singular value of the Gram block R_i^T R_j
    (0 when a block is empty).  The diagonal is 1 for nonzero reduced
    subspaces and 0 otherwise.
    """
    n, blocks, check_tol = system.n_subspaces, system.gram_blocks, system.tol.check_tol
    table = np.diag([1.0 if r.dim else 0.0 for r in system.reduced])
    for i in range(n):
        for j in range(i + 1, n):
            top = np.linalg.svd(blocks[i][j], compute_uv=False).max(initial=0.0)
            table[i, j] = table[j, i] = _checked_range(top, 0.0, 1.0, check_tol, "Friedrichs cosine")
    return table


def prefix_friedrichs(system: SubspaceSystem) -> tuple[float, ...]:
    """c_j = Friedrichs cosine of (M_1 ∩ ... ∩ M_{j-1}, M_j) for j = 2..N, stored at construction.

    Each is the largest principal cosine whose sine is above check_tol, or 0
    when none is left, from the SVD that took the prefix meet.
    """
    check_tol = system.tol.check_tol
    return tuple(_checked_range(c, 0.0, 1.0, check_tol, "Friedrichs cosine") for c in system.prefix_cosines)


def inclination_bounds(kappa: float, n: int) -> tuple[float, float]:
    """The paper's sandwich [1 - sqrt(kappa), min(1, sqrt(2N(1 - sqrt(kappa))))] for l."""
    root = float(np.sqrt(kappa))
    return max(0.0, 1.0 - root), min(1.0, float(np.sqrt(max(0.0, 2.0 * n * (1.0 - root)))))


def _inclination_loop(system: SubspaceSystem) -> tuple[float, float]:
    """(estimate, dual_lower) of l for N >= 3, from the dual d(lam) = lambda_max(sum_j lam_j R_j R_j^T).

    For unit y orthogonal to M and lam in the simplex, min_j q_j <= sum_j lam_j q_j
    <= d(lam), q_j = ||R_j^T y||^2 = 1 - dist(y, M_j)^2: sqrt(1 - d) bounds l below.
    With S = G^(1/2), sum_j lam_j R_j R_j^T has the nonzero spectrum of the pencil
    S D(lam) S, linear in lam, so one eigh gives d, its gradient q_j = ||(S u)_j||^2
    at the top eigenvector u, its eigenvalue Hessian, and y = R S^+ u with those q_j.
    Newton steps on the simplex from uniform lam (the eigh of G / N) close the gap where the top
    eigenvalue at the minimum is simple (Overton 1988); the answer then depends on
    the subspaces alone.  While a gap remains, y is sought on the sphere of the top
    three eigenvectors by a sample and Gauss-Newton on q_j = d, exact where
    Brickman's theorem gives a zero gap; past that, for the duality-gap class, a
    heuristic primal search: power steps with multiplicative weights, one Newton
    restart from their weights, and damped steps up the farthest block's q_j.
    """
    n, tol, eps = system.n_subspaces, system.tol.check_tol, np.finfo(float).eps
    member = np.repeat(np.eye(n), [r.dim for r in system.reduced], axis=0)
    g, v = _gram_eigh(system)
    root = (v * np.sqrt(np.maximum(g, 0.0))) @ v.T
    best, low = [-1.0], [np.inf]

    def visit(u):
        u = u / np.sqrt(u @ u)
        z = root @ u
        q = (z * z) @ member
        if q.min() > best[0]:
            best[:] = q.min(), u, z, q
        return u, z, q

    def solve(lam, pencil=None):
        mu, vecs = pencil or np.linalg.eigh((root * (member @ lam)) @ root)
        if mu[-1] < low[0]:
            low[:] = mu[-1], lam, vecs[:, -3:]
        return mu, vecs, visit(vecs[:, -1])[2]

    def gap():
        return float(np.sqrt(max(0.0, 1.0 - best[0])) - np.sqrt(max(0.0, 1.0 - low[0])))

    def newton(lam, pencil=None):
        mu, vecs, q = solve(lam, pencil)
        while gap() > tol:
            z = root @ vecs
            b = (z[:, :-1] * z[:, -1:]).T @ member
            hess = 2.0 * b.T @ (b / np.maximum(mu[-1] - mu[:-1], eps * mu[-1])[:, None])
            free = np.flatnonzero((lam > 0.0) | (q < mu[-1]))
            kkt, scale = np.ones((free.size + 1,) * 2), float(np.abs(hess).max()) or 1.0
            kkt[:-1, :-1], kkt[-1, -1] = hess[np.ix_(free, free)] / scale, 0.0
            step = np.zeros(n)
            step[free] = np.linalg.lstsq(kkt, np.append(-q[free], 0.0) / scale, rcond=None)[0][:-1]
            shrink = (step < 0.0) & (lam > 0.0)  # a zero weight that the step lowers stays at zero
            t = min(1.0, float((lam[shrink] / -step[shrink]).min(initial=np.inf)))
            for _ in range(9):
                trial = np.where(lam + t * step > eps, lam + t * step, 0.0)
                trial_mu, trial_vecs, trial_q = solve(trial / trial.sum())
                if trial_mu[-1] < mu[-1]:
                    break
                t /= 2.0
            if not mu[-1] - trial_mu[-1] > tol * tol:
                return
            lam, mu, vecs, q = trial / trial.sum(), trial_mu, trial_vecs, trial_q

    newton(np.full(n, 1.0 / n), (g / n, v))  # S S / N = G: its pencil is G's, top value kappa
    if gap() > tol:
        frame = root @ low[2]
        height, turn = 1.0 - np.arange(0.5, 64) / 32.0, np.pi * (1.0 + np.sqrt(5.0)) * np.arange(0.5, 64)
        sphere = np.vstack([np.sqrt(1.0 - height ** 2) * np.array([np.cos(turn), np.sin(turn)]), height])
        x = sphere[:, ((frame @ sphere) ** 2).T.dot(member).min(axis=1).argmax()]
        for _ in range(8):
            y = frame @ x
            jac = 2.0 * np.vstack([member.T @ (frame * y[:, None]), x])
            x = x - np.linalg.lstsq(jac, np.append((y * y) @ member - low[0], x @ x - 1.0), rcond=None)[0]
            visit(low[2] @ x)
    lam, (_, u, z, q) = low[1], best
    for _ in range(_STEP_CAP):
        if gap() <= tol:
            break
        lam = lam * np.exp(_STEP_SCALE * (q.min() - q))
        lam /= lam.sum()
        u, z, q = visit(root @ ((member @ lam) * z))
    if gap() > tol:
        newton(lam)
    _, u, z, q = best
    for t in range(_STEP_CAP):
        j = q.argmin()
        # half the tangent gradient of min q, R_j R_j^T y - q_j y, has norm sqrt(q_j (1 - q_j))
        length = float(np.sqrt(max(0.0, q[j] * (1.0 - q[j])) * (t + 1.0)))
        if gap() <= tol or not length > 0.0:
            break
        u, z, q = visit(u + (_STEP_SCALE * gap() / length) * (root @ (member[:, j] * z) - q[j] * u))
    estimate = float(np.sqrt(max(0.0, 1.0 - best[0])))
    return estimate, min(estimate, float(np.sqrt(max(0.0, 1.0 - low[0]))))  # round-off may cross them


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
    if any(r.dim == 0 for r in system.reduced):
        estimate = dual = 1.0
    elif n == 2:
        estimate = dual = float(np.sqrt(1.0 - kappa))
    else:
        estimate, dual = _inclination_loop(system)
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
