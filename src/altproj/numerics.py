"""Dense linear-algebra primitives with an explicit tolerance policy.

The analyses need orthonormalization and the operator norm, on bases and
their Gram blocks; both take plain float64 arrays and are pure functions of
their inputs.  A `TolerancePolicy` (one equality and membership tolerance,
which also bounds the principal sines of a meet) is given to what builds a
subspace or a system, and every analysis of a system reads the policy the
system carries.  The rank cutoff of orthonormalization is not part of it:
it is fixed at the usual rank-revealing max(d, m) * eps * sigma_max.
Three rules guard the library: `_count` admits every count, index, dimension
and seed, `_orthonormal` every basis, and `_checked_range` clamps a computed
quantity into its a-priori range or raises `NumericalFailure`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericalFailure",
    "TolerancePolicy",
    "DEFAULT_TOL",
    "orthonormalize",
    "operator_norm",
]


class NumericalFailure(RuntimeError):
    """A computed quantity violates a hard a-priori range."""


def _checked_range(value: float, lo: float, hi: float, check_tol: float, label: str) -> float:
    if value < lo - check_tol or value > hi + check_tol:
        raise NumericalFailure(f"{label} = {value} escapes [{lo}, {hi}] beyond tolerance")
    return float(min(hi, max(lo, value)))


def _count(value, name: str, least: int = 1, most: int | None = None) -> int:
    """int(value) for an int or numpy integer, not a bool, in least..most: every count, index, dimension and seed."""
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and least <= value and (most is None or value <= most)):
        return int(value)
    bound = f">= {least}" if most is None else f"in {least}..{most}"
    raise ValueError(f"{name} must be {bound} and an integer, got {value!r}")


@dataclass(frozen=True)
class TolerancePolicy:
    """Thresholds shared by every numeric routine.

    check_tol  tolerance for equality / membership assertions, and the
               largest principal sine at which a vector joins a meet
    """

    check_tol: float = 1e-8

    def __post_init__(self) -> None:
        if not 0.0 < self.check_tol < 1.0:
            raise ValueError(f"check_tol must lie strictly between 0 and 1, got {self.check_tol}")


DEFAULT_TOL = TolerancePolicy()


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D float64 array and reject non-finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size and not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def _orthonormal(a: np.ndarray, tol: float) -> bool:
    """||a^T a - I||_F <= tol for finite a; an entry beyond 1 + tol fails first, so the Gram cannot overflow."""
    return bool(np.abs(a).max(initial=0.0) <= 1 + tol and np.linalg.norm(a.T @ a - np.eye(a.shape[1])) <= tol)


def orthonormalize(vectors, tol: TolerancePolicy = DEFAULT_TOL, ambient_dim: int | None = None) -> np.ndarray:
    """Orthonormal basis (as columns) of the span of the given vectors.

    `vectors` is a sequence of equal-length 1-D arrays, a 2-D array with one
    vector per row, or one vector; 0-d and 3-D inputs are refused.  The result
    is d x k with k the numerical rank of the input: its singular values above
    max(d, m) * eps * sigma_max for m vectors, so zero vectors, or no rows of
    length d, give d x 0.  `[]` and a 0 x 0 array have no length and need
    `ambient_dim`, an integer >= 1 that the vectors must not contradict.  Inputs
    whose columns pass the default check_tol test of every `Subspace` basis (or
    a stricter policy's) are returned unchanged, so stored bases round-trip
    exactly through serialization.
    """
    ambient_dim = None if ambient_dim is None else _count(ambient_dim, "ambient_dim")
    try:
        arr = np.asarray(vectors if isinstance(vectors, np.ndarray) else list(vectors), dtype=float)
    except ValueError as exc:
        raise ValueError("all vectors must share a common length") from exc
    if arr.ndim not in (1, 2):
        raise ValueError("expected a sequence of vectors or a 2-D array")
    if arr.shape == (0, 0) or (arr.shape == (0,) and not isinstance(vectors, np.ndarray)):  # a 1-D array is one vector
        if ambient_dim is None:
            raise ValueError("an empty spanning set needs an explicit ambient_dim")
        return np.zeros((ambient_dim, 0))
    a = as_matrix(np.atleast_2d(arr)).T  # columns are the input vectors, d x m
    d, m = a.shape
    if ambient_dim is not None and d != ambient_dim:
        raise ValueError(f"vectors have length {d}, but ambient_dim is {ambient_dim}")
    if m == 0:
        return np.zeros((d, 0))
    if d < 1:
        raise ValueError("vectors must have length >= 1")
    if m <= d and _orthonormal(a, min(tol.check_tol, DEFAULT_TOL.check_tol)):
        return a.copy()
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((d, 0))
    k = int(np.count_nonzero(s > max(d, m) * np.finfo(float).eps * float(s[0])))
    return u[:, :k].copy()


def operator_norm(a) -> float:
    """Largest singular value; 0.0 for a matrix with an empty axis."""
    m = as_matrix(a)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])
