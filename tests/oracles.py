"""Independent oracles used by the test suite.

These deliberately avoid the library's optimization and SVD paths: grids,
closed-form 2x2 eigenvalues and classical Gram-Schmidt, so that each check
compares two genuinely different routes to the same number.  The d x d
helpers they are built from (projectors, complements, the restricted
minimum singular value and the principal eigenspace) live here too, since
no analysis of the library forms a d x d matrix, and so do three routes no
analysis needs: the Friedrichs cosine of a pair on its input bases, kappa as
the top eigenvalue alone of R^T R, and the Gramian sample, a lower witness
for kappa, with the membership test it uses.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from altproj.numerics import (
    DEFAULT_TOL,
    NumericalFailure,
    TolerancePolicy,
    as_matrix,
    operator_norm,
    orthonormalize,
)
from altproj.subspace import Subspace, SubspaceSystem, intersection_of


# ---- d x d helpers: no analysis of the library forms these matrices ----------

def full_space(ambient_dim: int, name: str = "") -> Subspace:
    """The whole of R^d as a subspace."""
    return Subspace(ambient_dim, np.eye(ambient_dim), name)


def projector(s: Subspace) -> np.ndarray:
    """Orthogonal projector onto the subspace, as a dense d x d matrix."""
    return s.basis @ s.basis.T


def orthogonal_complement(s: Subspace, tol: TolerancePolicy = DEFAULT_TOL) -> Subspace:
    """The subspace of all vectors orthogonal to `s` (dimension d - k)."""
    d, k = s.basis.shape
    if k == 0:
        return full_space(d, name=f"{s.name}^perp" if s.name else "")
    if k == d:
        return Subspace(d, np.zeros((d, 0)), name=f"{s.name}^perp" if s.name else "")
    u, _, _ = np.linalg.svd(s.basis, full_matrices=True)
    return Subspace(d, u[:, k:].copy(), name=f"{s.name}^perp" if s.name else "")


def restricted_min_singular(a, basis, tol: TolerancePolicy = DEFAULT_TOL) -> float:
    """Minimum of ||A y|| over unit vectors y in the column span of `basis`.

    `basis` must have orthonormal columns; the value equals the smallest
    singular value of A @ basis.  A basis with zero columns has an empty
    admissible set and returns +inf.
    """
    m = as_matrix(a)
    b = as_matrix(basis)
    if m.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes {m.shape} and {b.shape}")
    if b.shape[1] == 0:
        return float("inf")
    gram = b.T @ b
    if np.linalg.norm(gram - np.eye(b.shape[1])) > tol.check_tol:
        raise ValueError("basis columns must be orthonormal")
    s = np.linalg.svd(m @ b, compute_uv=False)
    return float(s[-1])


def principal_eigenspace(s, target: float = 1.0, tol: TolerancePolicy = DEFAULT_TOL,
                         eig_tol: float = 1e-8) -> np.ndarray:
    """Orthonormal basis of the eigenvectors with |lambda - target| <= eig_tol.

    The input must be symmetric within check_tol; an empty selection yields
    a d x 0 matrix.
    """
    m = as_matrix(s)
    if m.shape[0] != m.shape[1]:
        raise ValueError("square matrix required")
    if m.size and operator_norm(m - m.T) > tol.check_tol:
        raise ValueError("symmetric input required")
    w, v = np.linalg.eigh((m + m.T) / 2.0)
    keep = np.abs(w - target) <= eig_tol
    return v[:, keep].copy()


# ---- oracles -------------------------------------------------------------------


def sphere_grid(m, resolution=0.01):
    """Covering point set of the unit sphere in R^m (m <= 3), as columns."""
    if m == 1:
        return np.array([[1.0]])
    if m == 2:
        phi = np.arange(0.0, 2 * np.pi, resolution)
        return np.vstack([np.cos(phi), np.sin(phi)])
    if m == 3:
        phi = np.arange(0.0, np.pi + resolution, resolution)
        psi = np.arange(0.0, 2 * np.pi, resolution)
        pp, ss = np.meshgrid(phi, psi, indexing="ij")
        return np.vstack([
            (np.sin(pp) * np.cos(ss)).ravel(),
            (np.sin(pp) * np.sin(ss)).ravel(),
            np.cos(pp).ravel(),
        ])
    raise NotImplementedError(f"no grid for sphere dimension {m}")


def grid_inclination(system, resolution=0.01):
    """Exhaustive-grid value of min over unit y orthogonal to M of max_j dist(y, M_j)."""
    basis = orthogonal_complement(system.intersection).basis
    residuals = [basis - projector(s) @ basis for s in system.subspaces]
    points = sphere_grid(basis.shape[1], resolution)
    values = np.max([np.linalg.norm(a @ points, axis=0) for a in residuals], axis=0)
    return float(values.min())


def grid_dual_inclination(system, steps=40):
    """Best Lagrangian lower bound on l over a simplex grid of weights lam, by dense projectors.

    For unit y orthogonal to M, min_j ||P_j y||^2 <= y^T (sum_j lam_j P_j) y, so each
    lam bounds l below by sqrt(1 - the top eigenvalue of sum_j lam_j P_j on M^perp).
    """
    basis = orthogonal_complement(system.intersection).basis
    blocks = np.array([basis.T @ projector(s) @ basis for s in system.subspaces])
    corners = [c for c in itertools.product(range(steps + 1), repeat=len(blocks) - 1) if sum(c) <= steps]
    lam = np.array([(*c, steps - sum(c)) for c in corners]) / steps
    tops = np.linalg.eigvalsh(np.einsum("kj,jab->kab", lam, blocks))[:, -1]
    return float(np.sqrt(max(0.0, 1.0 - tops.min())))


def extended_rayleigh_quotient(matrix, vector) -> np.longdouble:
    """v^T A v / v^T v in np.longdouble, not rounded back to a double: a lower bound on lambda_max(A).

    Where longdouble is wider than float64 (80-bit on x86), its rounding lies
    far below that of float64 eigensolvers, so a double's claim to bound
    lambda_max from above can be checked against it.
    """
    a, v = np.asarray(matrix, dtype=np.longdouble), np.asarray(vector, dtype=np.longdouble)
    return (v @ a @ v) / (v @ v)


def circle_min_modulus(system, resolution=1e-5):
    """Brute-force min of ||(I - T) y|| over unit y orthogonal to M (dim <= 2)."""
    basis = orthogonal_complement(system.intersection).basis
    t = cyclic_operator(system)
    a = (np.eye(system.ambient_dim) - t) @ basis
    if basis.shape[1] == 1:
        return float(np.linalg.norm(a[:, 0]))
    if basis.shape[1] != 2:
        raise NotImplementedError("circle oracle needs a complement of dimension <= 2")
    phi = np.arange(0.0, 2 * np.pi, resolution)
    points = np.vstack([np.cos(phi), np.sin(phi)])
    return float(np.linalg.norm(a @ points, axis=0).min())


def min_singular_2x2(matrix):
    """Closed-form smallest singular value of a 2x2 matrix."""
    g = matrix.T @ matrix
    trace = g[0, 0] + g[1, 1]
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    lam_min = (trace - np.sqrt(max(trace * trace - 4.0 * det, 0.0))) / 2.0
    return float(np.sqrt(max(lam_min, 0.0)))


def principal_cosine(s1: Subspace, s2: Subspace, skip: int) -> float:
    """Principal cosine skip + 1 of the pair, on its input bases; 0 when none is left.

    The singular values of B_1^T B_2 are the principal cosines of the pair
    (Bjorck & Golub 1973), largest first.
    """
    return float(np.append(np.linalg.svd(s1.basis.T @ s2.basis, compute_uv=False), 0.0)[skip])


def pairwise_friedrichs(s1: Subspace, s2: Subspace, tol: TolerancePolicy = DEFAULT_TOL) -> float:
    """Friedrichs cosine ||P_2 P_1 - P_meet|| of a pair: the principal cosine after the dim(meet) ones.

    The meet is taken under tol; every one of its directions is a principal
    vector of cosine 1.
    """
    return principal_cosine(s1, s2, intersection_of((s1, s2), tol).dim)


def gram_kappa(system: SubspaceSystem) -> float:
    """kappa = lambda_max(R^T R)/N by eigvalsh of the stacked reduced bases; 1/N when R is empty.

    The library reads lambda_max from the eigh it shares with the inclination,
    and for a pair from the cosine of its table.
    """
    stacked = np.hstack([r.basis for r in system.reduced])
    return float(np.linalg.eigvalsh(stacked.T @ stacked).max(initial=1.0)) / system.n_subspaces


def contains(s: Subspace, vector, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Whether the vector lies in s: its residual is within check_tol of its norm (at least 1)."""
    v = np.asarray(vector, dtype=float)
    residual = v - s.basis @ (s.basis.T @ v)
    return float(np.linalg.norm(residual)) <= tol.check_tol * max(1.0, float(np.linalg.norm(v)))


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
        if not contains(r, v, tol):
            raise ValueError("each vector must lie in its reduced subspace")
    v_mat = np.column_stack(vs)
    return operator_norm(v_mat.T @ v_mat) / n


def gram_schmidt(vectors):
    """Classical Gram-Schmidt with re-orthogonalization; columns out."""
    basis = []
    for v in vectors:
        w = np.asarray(v, dtype=float).copy()
        for _ in range(2):
            for b in basis:
                w -= (b @ w) * b
        norm = np.linalg.norm(w)
        if norm > 1e-12:
            basis.append(w / norm)
    return np.column_stack(basis) if basis else np.zeros((len(vectors[0]), 0))


def optimal_gram_vectors(system):
    """Unit vectors (one per reduced subspace) whose Gramian attains kappa.

    Built from the top eigenvector y of the averaged reduced projector
    sum_j (P_j - P_M)/N: the normalized components (P_j - P_M) y realize the
    supremum.  Returns None when some component vanishes.
    """
    pm = projector(system.intersection)
    avg = sum(projector(s) for s in system.subspaces) / system.n_subspaces - pm
    _, vecs = np.linalg.eigh(avg)
    y = vecs[:, -1]
    out = []
    for s in system.subspaces:
        m = projector(s) @ y - pm @ y
        norm = np.linalg.norm(m)
        if norm < 1e-12:
            return None
        out.append(m / norm)
    return out


def dense_intersection(subspaces, tol: TolerancePolicy = DEFAULT_TOL, eig_tol: float = 1e-8) -> Subspace:
    """Common intersection of one or more subspaces.

    Computed as the eigenvalue-1 eigenspace of the averaged projector, with
    eigenvalues within eig_tol of 1: an independent route whose resolution
    is quadratic in the angle (two lines resolve only above about 2e-4).
    Every basis vector of the result is verified to lie in each component;
    nearly coincident subspaces whose top eigenvalue falls inside eig_tol
    without true containment raise NumericalFailure.
    """
    subs = list(subspaces)
    if not subs:
        raise ValueError("need at least one subspace")
    d = subs[0].ambient_dim
    if any(s.ambient_dim != d for s in subs):
        raise ValueError("subspaces must share the ambient dimension")
    if len(subs) == 1:
        return subs[0]
    avg = sum(projector(s) for s in subs) / len(subs)
    basis = principal_eigenspace(avg, 1.0, tol, eig_tol)
    for s in subs:
        if basis.size and operator_norm(basis - projector(s) @ basis) > tol.check_tol:
            raise NumericalFailure(
                "intersection basis escapes a component subspace; the configuration "
                "is below the resolution of the tolerance policy"
            )
    return Subspace(d, basis)


def dense_prefix_friedrichs(system):
    """||P_j P_prefix - P_meet|| for each prefix M_1 ∩ ... ∩ M_{j-1}, all through d x d projectors."""
    values = []
    for j in range(1, system.n_subspaces):
        prefix = dense_intersection(system.subspaces[:j])
        meet = dense_intersection((prefix, system.subspaces[j]))
        product = projector(system.subspaces[j]) @ projector(prefix)
        values.append(operator_norm(product - projector(meet)))
    return np.array(values)


def cyclic_operator(system: SubspaceSystem) -> np.ndarray:
    """The one-pass product T = P_N ... P_2 P_1 (first subspace applied first)."""
    t = np.eye(system.ambient_dim)
    for s in system.subspaces:
        t = projector(s) @ t
    return t


def dense_iterate(system, x0, schedule, n_max):
    """Errors ||x_n - P_M x0|| of the projection iteration with dense d x d projectors.

    One record per full pass for cyclic schedules, per step otherwise.
    """
    projectors = [projector(s) for s in system.subspaces]
    x = np.asarray(x0, dtype=float).copy()
    target = projector(system.intersection) @ x
    errors = np.empty(n_max)
    if schedule.kind == "cyclic":
        for i in range(n_max):
            for p in projectors:
                x = p @ x
            errors[i] = np.linalg.norm(x - target)
    else:
        for i, j in enumerate(schedule.first(n_max)):
            x = projectors[j - 1] @ x
            errors[i] = np.linalg.norm(x - target)
    return errors


def scaled_walk(system, start, schedule, n_max):
    """Errors of the projection walk from `start`, shifted by a power of two at every step.

    Each step onto M_j applies P_j - P_M = R_j R_j^T in R^d, then multiplies the walk
    by the power of two that puts its largest entry in [1/2, 1) and keeps the sum of
    the shifts, so a recorded norm times 2^-shift rounds to 0 only below 2^-1074.
    `start` is x0 (the vector trace ||x_n - P_M x0||) or R_1 (the operator trace
    ||T^n - P_M||, since T - P_M vanishes off R_1).  One record per full pass for
    cyclic schedules, per step otherwise.
    """
    n = system.n_subspaces if schedule.kind == "cyclic" else 1
    walk, exp, errors = np.asarray(start, dtype=float).copy(), 0, []
    for step, j in enumerate(schedule.first(n_max * n), start=1):
        basis = system.reduced[j - 1].basis
        walk = basis @ (basis.T @ walk)
        top = float(np.abs(walk).max(initial=0.0))
        if top:
            shift = -math.frexp(top)[1]
            walk, exp = np.ldexp(walk, shift), exp + shift
        if step % n == 0:
            errors.append(math.ldexp(float(np.linalg.norm(walk, 2)), -exp))
    return np.array(errors)


def block_stream(schedule, count):
    """The first `count` indices of a cyclic or random schedule, built block by block.

    The cyclic stream is 1..N tiled and cut; a covering random stream draws
    one `rng.permutation` per block of N and tiles the first when the window
    is shorter than 2N - 1; an uncovered one draws `count` uniform indices.
    """
    n = schedule.n_subspaces
    if schedule.kind == "cyclic":
        return np.tile(np.arange(1, n + 1), -(-count // n) or 1)[:count]
    rng = np.random.default_rng(schedule.seed)
    if schedule.coverage_window is None:
        return rng.integers(1, n + 1, size=count)
    blocks = -(-count // n) or 1
    if schedule.coverage_window < 2 * n - 1:
        perms = [rng.permutation(n)] * blocks
    else:
        perms = [rng.permutation(n) for _ in range(blocks)]
    return np.concatenate(perms)[:count] + 1


def dense_min_modulus(system):
    """gamma(I - T) as the smallest singular value of I - T on a basis of M^perp."""
    basis = orthogonal_complement(system.intersection).basis
    return restricted_min_singular(np.eye(system.ambient_dim) - cyclic_operator(system), basis)


def reduced_span(system: SubspaceSystem) -> Subspace:
    """Orthonormal basis Q of span(R_1, ..., R_N) inside M^perp.

    Every P_j - P_M maps into it and vanishes on the rest of M^perp.
    """
    stacked = np.hstack([r.basis for r in system.reduced])
    return Subspace(system.ambient_dim, orthonormalize(stacked.T, system.tol, system.ambient_dim))


def pair_svd_min_modulus(system):
    """gamma(I - P_2 P_1) for a pair as sigma_min(I - Q^T T Q) on the span Q of R_1 and R_2.

    T - P_M = R_2 (R_2^T R_1) R_1^T maps Q into itself and vanishes off it, so
    the value is capped at 1 when Q is smaller than M^perp.
    """
    r1, r2 = (r.basis for r in system.reduced)
    q = reduced_span(system).basis
    gamma = 1.0 if q.shape[1] < system.ambient_dim - system.intersection.dim else np.inf
    if q.shape[1]:
        t = (q.T @ r2) @ (r2.T @ r1) @ (r1.T @ q)
        gamma = min(gamma, float(np.linalg.svd(np.eye(q.shape[1]) - t, compute_uv=False)[-1]))
    return gamma


def dense_error_norms(system, n_max):
    """||T^n - P_M|| for n = 1..n_max by repeated dense d x d multiplication."""
    t = cyclic_operator(system)
    pm = projector(system.intersection)
    errors = np.empty(n_max)
    power = t.copy()
    errors[0] = operator_norm(power - pm)
    for i in range(1, n_max):
        power = power @ t
        errors[i] = operator_norm(power - pm)
    return errors


@dataclass(eq=False)
class ProductSpacePair:
    """Cartesian product C = M_1 x ... x M_N and the diagonal D inside R^{Nd}."""

    C: Subspace
    D: Subspace
    CD: Subspace


def product_space(system: SubspaceSystem) -> ProductSpacePair:
    """Assemble C (block-diagonal), D (diagonal copies) and C ∩ D in R^{Nd}."""
    d = system.ambient_dim
    n = system.n_subspaces
    total = sum(system.dims)
    c_basis = np.zeros((n * d, total))
    col = 0
    for j, s in enumerate(system.subspaces):
        c_basis[j * d:(j + 1) * d, col:col + s.dim] = s.basis
        col += s.dim
    d_basis = np.tile(np.eye(d), (n, 1)) / np.sqrt(n)
    cd_basis = np.tile(system.intersection.basis, (n, 1)) / np.sqrt(n)
    return ProductSpacePair(
        C=Subspace(n * d, c_basis, name="product"),
        D=Subspace(n * d, d_basis, name="diagonal"),
        CD=Subspace(n * d, cd_basis, name="product&diagonal"),
    )
