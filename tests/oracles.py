"""Independent oracles used by the test suite.

These deliberately avoid the library's optimization and SVD paths: grids,
closed-form 2x2 eigenvalues and classical Gram-Schmidt, so that each check
compares two genuinely different routes to the same number.
"""

from dataclasses import dataclass

import numpy as np

from altproj.numerics import (
    DEFAULT_TOL,
    NumericalFailure,
    TolerancePolicy,
    operator_norm,
    principal_eigenspace,
    restricted_min_singular,
)
from altproj.subspace import Subspace, SubspaceSystem, orthogonal_complement, projector


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


def dense_intersection(subspaces, tol: TolerancePolicy = DEFAULT_TOL) -> Subspace:
    """Common intersection of one or more subspaces.

    Computed as the eigenvalue-1 eigenspace of the averaged projector, the
    stable symmetric route.  Every basis vector of the result is verified to
    lie in each component; nearly coincident subspaces whose top eigenvalue
    falls inside eig_tol without true containment raise NumericalFailure.
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
    basis = principal_eigenspace(avg, 1.0, tol)
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


def dense_min_modulus(system):
    """gamma(I - T) as the smallest singular value of I - T on a basis of M^perp."""
    basis = orthogonal_complement(system.intersection).basis
    return restricted_min_singular(np.eye(system.ambient_dim) - cyclic_operator(system), basis)


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
