"""Joint angle parameters of a family of subspaces.

For N subspaces with intersection M the module computes:

* the configuration constant  kappa = || (P_1 + ... + P_N)/N - P_M ||, read from
  the one eigh of R^T R that the inclination shares, or for a pair from its cosine,
* the joint Friedrichs number c = N/(N-1) * kappa - 1/(N-1)  in [0, 1], for a pair its cosine,
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

from .numerics import _checked_range
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

    estimate is max_j dist(y, M_j) at the best unit y found, dual_lower the Lagrangian bound sqrt(1 - d)
    at the best dual weights, d with its rounding margin: never below sqrt(1 - kappa (1 + 3 (r + 2) eps)),
    r = sum_j dim R_j.  The two meet within check_tol unless the dual has a gap (see `_inclination_loop`).
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
# pencil order from which the Newton trials take no eigh (`_inclination_loop`); the routes tie near 36
_CERTIFIED_ORDER = 40


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
    geometric convergence of the cyclic projection iteration fails.  A pair's
    c is its table cosine itself: 2 kappa - 1 would round its last bit away.
    """
    n = system.n_subspaces
    if n == 2:
        return float(pairwise_dixmier_reduced(system)[0, 1])
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
    subspaces and 0 otherwise.  The blocks of each shape take one batched SVD.
    """
    n, blocks, check_tol = system.n_subspaces, system.gram_blocks, system.tol.check_tol
    table, shapes = np.diag([1.0 if r.dim else 0.0 for r in system.reduced]), {}
    for i in range(n):
        for j in range(i + 1, n):
            shapes.setdefault(blocks[i][j].shape, []).append((i, j))
    for pairs in shapes.values():
        tops = np.linalg.svd(np.array([blocks[i][j] for i, j in pairs]), compute_uv=False).max(-1, initial=0.0)
        for (i, j), top in zip(pairs, tops.tolist()):
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


def _eigh_margin(top: float, order: int) -> float:
    """3 (r + 2) eps top: how far rounding may put eigh's top value of a semidefinite order-r pencil below its own."""
    return 3.0 * (order + 2.0) * np.finfo(float).eps * top


def _certified_top(pencil: np.ndarray, x: np.ndarray, spread: float) -> tuple[float, float, np.ndarray]:
    """(bound, theta, u): theta = u^T pencil u <= lambda_max(pencil) <= bound, which is inf if unproved.

    u comes from Rayleigh-quotient iteration from x (Parlett 1980).  Once lambda_2 < alpha = theta - spread/4,
    spread being the top eigengap an eigh last measured, Kato-Temple bounds lambda_max by theta plus
    ||pencil u - theta u||^2 / (theta - alpha), and plus theta's rounding here; a Cholesky of
    alpha I - pencil + theta u u^T, less its rounding (Demmel 1989), proves lambda_2 < alpha by interlacing.
    """
    eps = np.finfo(float).eps
    for _ in range(4):
        u = x / np.sqrt(x @ x)
        theta = u @ pencil @ u
        resid = pencil @ u - theta * u
        if resid @ resid <= eps * theta * spread:
            break
        x = np.linalg.solve(pencil - theta * np.eye(len(x)), u)
    else:
        return np.inf, theta, u
    alpha, ulps = theta - spread / 4.0, (len(x) + 2.0) * eps
    shift = ulps * (len(x) * alpha + theta + np.trace(pencil))  # the Cholesky's backward error, and forming its input
    try:
        np.linalg.cholesky((alpha - shift) * np.eye(len(x)) - pencil + np.outer(theta * u, u))
    except np.linalg.LinAlgError:
        return np.inf, theta, u
    return theta + 4.0 * (resid @ resid) / spread + 3.0 * ulps * (np.abs(u) @ np.abs(pencil) @ np.abs(u)), theta, u


def _inclination_loop(system: SubspaceSystem) -> tuple[float, float]:
    """(estimate, dual_lower) of l for N >= 3, from the dual d(lam) = lambda_max(sum_j lam_j R_j R_j^T).

    For unit y orthogonal to M and lam in the simplex, min_j q_j <= sum_j lam_j q_j
    <= d(lam), q_j = ||R_j^T y||^2 = 1 - dist(y, M_j)^2: sqrt(1 - d) bounds l below.
    With S = G^(1/2), sum_j lam_j R_j R_j^T has the nonzero spectrum of the pencil
    S D(lam) S, linear in lam, so one eigh gives d, its gradient q_j = ||(S u)_j||^2
    at the top eigenvector u, its eigenvalue Hessian, and y = R S^+ u with those q_j.
    Newton steps on the simplex from uniform lam (the eigh of G / N) close the gap where the top
    eigenvalue at the minimum is simple (Overton 1988), so the answer depends on the subspaces alone,
    often at the next trial's top eigenvector predicted to first order (Kato 1966), with no eigh of its
    own: any u is a y with ||y|| <= 1, so q_j never overstates.  A trial takes an eigh, whose eigenpairs
    give the next Hessian, unless the route is certified (order _CERTIFIED_ORDER up, the top eigengap of
    Newton's first eigh above check_tol, every certificate held): `_certified_top` then bounds d above,
    and one solve gives the Hessian 2 W^T (theta I - P + u u^T)^-1 W, W_j = (I - u u^T) S E_j S u,
    P = S D(lam) S.  A certificate that fails or does not lower the bound hands its trial to an eigh,
    and an eigh's d gets its `_eigh_margin` in dual_lower.  While a gap remains, y is sought on the sphere
    of the top three eigenvectors at the best weights by a sample and Gauss-Newton on q_j = d, exact where
    Brickman's theorem gives a zero gap; past that, for the duality-gap class, a heuristic primal search:
    multiplicative-weight power steps, a Newton restart, damped steps up the worst q_j.
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

    def record(lam, top, u, eigh=True):  # top bounds d(lam) above, u its top eigenvector: the gradient q at u
        if top < low[0]:  # beside an eigh's top value, its rounding margin, which only dual_lower reads
            low[:] = top, lam, _eigh_margin(top, len(u)) if eigh else 0.0
        return visit(u)[2]

    def gap():
        return float(np.sqrt(max(0.0, 1.0 - best[0])) - np.sqrt(max(0.0, 1.0 - low[0])))

    def step(lam, q, top, hess):  # Newton's step on the simplex from gradient q and Hessian hess at d = top
        free = np.flatnonzero((lam > 0.0) | (q < top))
        kkt, scale = np.ones((free.size + 1,) * 2), float(np.abs(hess).max()) or 1.0
        kkt[:-1, :-1], kkt[-1, -1] = hess[np.ix_(free, free)] / scale, 0.0
        move = np.zeros(n)
        move[free] = np.linalg.lstsq(kkt, np.append(-q[free], 0.0) / scale, rcond=None)[0][:-1]
        shrink = (move < 0.0) & (lam > 0.0)  # a zero weight that the step lowers stays at zero
        return min(1.0, float((lam[shrink] / -move[shrink]).min(initial=np.inf))) * move

    def newton(lam, mu, vecs):  # from the eigenpairs (mu, vecs) of the pencil at lam
        spread, top, q = mu[-1] - mu[-2], mu[-1], record(lam, mu[-1], vecs[:, -1])
        certified = root.shape[0] >= _CERTIFIED_ORDER and spread > tol
        while gap() > tol:
            if vecs is None:  # a certified trial: (theta, u) at lam, whose pencil is matrix
                w = (root * (root @ u)) @ member - np.outer(u, q)  # columns (I - u u^T) S E_j S u
                lift = np.linalg.solve(theta * np.eye(len(u)) - matrix + np.outer(u, u), w)
                move = step(lam, q, theta, 2.0 * w.T @ lift)
                x = u + lift @ move
            else:
                z = root @ vecs
                b = (z[:, :-1] * z[:, -1:]).T @ member
                gaps = np.maximum(mu[-1] - mu[:-1], eps * mu[-1])
                move = step(lam, q, top, 2.0 * b.T @ (b / gaps[:, None]))
                x = vecs[:, -1] + vecs[:, :-1] @ ((b @ move) / gaps)
            kept = best[:]  # x is the trial's top eigenvector to first order, kept only if it closes the gap
            visit(x)
            if gap() <= tol:
                return
            best[:] = kept
            for _ in range(9):
                trial = np.where(lam + move > eps, lam + move, 0.0)
                trial /= trial.sum()
                matrix = (root * (member @ trial)) @ root
                if certified:
                    bound, theta, u = _certified_top(matrix, x, spread)
                    certified = top - bound > tol * tol
                    if certified:
                        trial_top, vecs, q = bound, None, record(trial, bound, u, eigh=False)
                        break
                mu, vecs = np.linalg.eigh(matrix)
                trial_top, q = mu[-1], record(trial, mu[-1], vecs[:, -1])
                if trial_top < top:
                    break
                move /= 2.0
            if not top - trial_top > tol * tol:
                return
            lam, top = trial, trial_top

    newton(np.full(n, 1.0 / n), g / n, v)  # S S / N = G: its pencil is G's, top value kappa
    if gap() > tol:
        top3 = np.linalg.eigh((root * (member @ low[1])) @ root)[1][:, -3:]
        frame = root @ top3
        height, turn = 1.0 - np.arange(0.5, 64) / 32.0, np.pi * (1.0 + np.sqrt(5.0)) * np.arange(0.5, 64)
        sphere = np.vstack([np.sqrt(1.0 - height ** 2) * np.array([np.cos(turn), np.sin(turn)]), height])
        x = sphere[:, ((frame @ sphere) ** 2).T.dot(member).min(axis=1).argmax()]
        for _ in range(8):
            y = frame @ x
            jac = 2.0 * np.vstack([member.T @ (frame * y[:, None]), x])
            x = x - np.linalg.lstsq(jac, np.append((y * y) @ member - low[0], x @ x - 1.0), rcond=None)[0]
            visit(top3 @ x)
    lam, (_, u, z, q) = low[1], best
    for _ in range(_STEP_CAP):
        if gap() <= tol:
            break
        lam = lam * np.exp(_STEP_SCALE * (q.min() - q))
        lam /= lam.sum()
        u, z, q = visit(root @ ((member @ lam) * z))
    if gap() > tol:
        newton(lam, *np.linalg.eigh((root * (member @ lam)) @ root))
    _, u, z, q = best
    for t in range(_STEP_CAP):
        j = q.argmin()
        # half the tangent gradient of min q, R_j R_j^T y - q_j y, has norm sqrt(q_j (1 - q_j))
        length = float(np.sqrt(max(0.0, q[j] * (1.0 - q[j])) * (t + 1.0)))
        if gap() <= tol or not length > 0.0:
            break
        u, z, q = visit(u + (_STEP_SCALE * gap() / length) * (root @ (member[:, j] * z) - q[j] * u))
    estimate = float(np.sqrt(max(0.0, 1.0 - best[0])))
    return estimate, min(estimate, float(np.sqrt(max(0.0, 1.0 - low[0] - low[2]))))  # round-off may cross them


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
