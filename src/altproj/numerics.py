"""Dense linear-algebra primitives with an explicit tolerance policy.

The analyses need orthonormalization and the operator norm, on bases and
their Gram blocks; both take plain float64 arrays and are pure functions of
their inputs.  A `TolerancePolicy` (one equality and membership tolerance,
which also bounds the principal sines of a meet) is given to what builds a
subspace or a system, and every analysis of a system reads the policy the
system carries.  The rank cutoff of orthonormalization is not part of it:
it is fixed at the usual rank-revealing max(d, m) * eps * sigma_max.
Two rules guard the inputs and outputs of the library: `_count` admits every
count, index, dimension and seed, and `_checked_range` clamps a computed
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


def orthonormalize(vectors, tol: TolerancePolicy = DEFAULT_TOL, ambient_dim: int | None = None) -> np.ndarray:
    """Orthonormal basis (as columns) of the span of the given vectors.

    `vectors` is a sequence of equal-length 1-D arrays, or a 2-D array with
    one vector per row.  The result is d x k with k the numerical rank of
    the input: its singular values above max(d, m) * eps * sigma_max for m
    vectors.  An empty span yields a d x 0 matrix, never an error; an
    `ambient_dim` that is not an integer >= 1, or that the vectors' length
    contradicts, is one.  Inputs whose columns are already orthonormal are
    returned unchanged, so stored bases round-trip exactly through
    serialization; "already orthonormal" never means looser than the default
    check_tol, the test every `Subspace` basis must pass, whatever the policy.
    """
    ambient_dim = None if ambient_dim is None else _count(ambient_dim, "ambient_dim")
    if isinstance(vectors, np.ndarray):
        arr = vectors
    else:
        rows = list(vectors)
        if not rows:
            if ambient_dim is None:
                raise ValueError("an empty spanning set needs an explicit ambient_dim")
            return np.zeros((ambient_dim, 0))
        try:
            arr = np.asarray(rows, dtype=float)
        except ValueError as exc:
            raise ValueError("all vectors must share a common length") from exc
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2:
        raise ValueError("expected a sequence of vectors or a 2-D array")
    if arr.shape == (0, 0) and ambient_dim is not None:
        return np.zeros((ambient_dim, 0))
    if ambient_dim is not None and arr.shape[1] != ambient_dim:
        raise ValueError(f"vectors have length {arr.shape[1]}, but ambient_dim is {ambient_dim}")
    if arr.shape[0] == 0:
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
    k = int(np.count_nonzero(s > max(d, m) * np.finfo(float).eps * float(s[0])))
    return u[:, :k].copy()


def operator_norm(a) -> float:
    """Largest singular value; 0.0 for a matrix with an empty axis."""
    m = as_matrix(a)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])
