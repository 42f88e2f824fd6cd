"""Dense linear-algebra primitives with an explicit tolerance policy.

The analyses need orthonormalization and the operator norm, on bases and
their Gram blocks; restricted minimum singular value and principal-eigenspace
extraction act on d x d matrices, for callers that form them.  All routines
take plain float64 arrays and are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericalFailure",
    "TolerancePolicy",
    "DEFAULT_TOL",
    "as_matrix",
    "orthonormalize",
    "operator_norm",
    "restricted_min_singular",
    "principal_eigenspace",
]


class NumericalFailure(RuntimeError):
    """A computed quantity violates a hard a-priori range."""


@dataclass(frozen=True)
class TolerancePolicy:
    """Thresholds shared by every numeric routine.

    rank_tol   relative singular-value cutoff for rank decisions; None means
               max(shape) * machine-eps, the usual rank-revealing default
    eig_tol    half-width of the eigenvalue bucket around a target value
    check_tol  default tolerance for equality / membership assertions
    """

    rank_tol: float | None = None
    eig_tol: float = 1e-8
    check_tol: float = 1e-8

    def __post_init__(self) -> None:
        named = {"eig_tol": self.eig_tol, "check_tol": self.check_tol}
        if self.rank_tol is not None:
            named["rank_tol"] = self.rank_tol
        for name, value in named.items():
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie strictly between 0 and 1, got {value}")

    def rank_cutoff(self, shape: tuple[int, int], smax: float) -> float:
        rel = self.rank_tol if self.rank_tol is not None else max(shape) * np.finfo(float).eps
        return rel * smax


DEFAULT_TOL = TolerancePolicy()


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D float64 array and reject non-finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size and not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def orthonormalize(vectors, tol: TolerancePolicy = DEFAULT_TOL, ambient_dim: int | None = None) -> np.ndarray:
    """Orthonormal basis (as columns) of the span of the given vectors.

    `vectors` is a sequence of equal-length 1-D arrays, or a 2-D array with
    one vector per row.  The result is d x k with k the numerical rank of
    the input; an empty span yields a d x 0 matrix, never an error.  Inputs
    whose columns are already orthonormal are returned unchanged, so stored
    bases round-trip exactly through serialization; "already orthonormal"
    never means looser than the default check_tol, the test every
    `Subspace` basis must pass, whatever the policy.
    """
    if isinstance(vectors, np.ndarray):
        arr = vectors
    else:
        rows = list(vectors)
        if not rows:
            if ambient_dim is None:
                raise ValueError("an empty spanning set needs an explicit ambient_dim")
            return np.zeros((int(ambient_dim), 0))
        try:
            arr = np.asarray(rows, dtype=float)
        except ValueError as exc:
            raise ValueError("all vectors must share a common length") from exc
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2:
        raise ValueError("expected a sequence of vectors or a 2-D array")
    if arr.shape[0] == 0:
        if arr.shape[1] == 0 and ambient_dim is not None:
            return np.zeros((int(ambient_dim), 0))
        return np.zeros((arr.shape[1], 0))
    if arr.shape[1] < 1:
        raise ValueError("vectors must have length >= 1")
    if not np.isfinite(arr).all():
        raise ValueError("vector entries must be finite")

    a = arr.T  # columns are the input vectors, d x m
    d, m = a.shape
    if m <= d:
        with np.errstate(over="ignore", invalid="ignore"):  # huge rows: an inf Gram fails the test
            orthonormal = np.linalg.norm(a.T @ a - np.eye(m)) <= min(tol.check_tol, DEFAULT_TOL.check_tol)
        if orthonormal:
            return a.copy()
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((d, 0))
    k = int(np.count_nonzero(s > tol.rank_cutoff((d, m), float(s[0]))))
    return u[:, :k].copy()


def operator_norm(a) -> float:
    """Largest singular value; 0.0 for a matrix with an empty axis."""
    m = as_matrix(a)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


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


def principal_eigenspace(s, target: float = 1.0, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
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
    keep = np.abs(w - target) <= tol.eig_tol
    return v[:, keep].copy()
