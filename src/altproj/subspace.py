"""Linear subspaces of R^d and subspace systems.

A `Subspace` stores an orthonormal basis; a `SubspaceSystem` bundles N >= 2
subspaces of a common ambient space as orthonormal bases only: the
intersection M, read from the singular vectors of the stacked bases, and
the reduced subspaces (each component intersected with the orthogonal
complement of M).  As P_j = P_M + R_j R_j^T
for the reduced basis R_j, no analysis forms a d x d matrix.  A system is
frozen and holds its `TolerancePolicy`, which every analysis reads, and what
`_derived` computes from it once; all of it is a pure function of the bases
and the policy, so concurrent reads are safe.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import wraps

import numpy as np

from .numerics import (
    DEFAULT_TOL,
    NumericalFailure,
    TolerancePolicy,
    as_matrix,
    operator_norm,
    orthonormalize,
)

__all__ = [
    "Subspace",
    "SubspaceSystem",
    "intersection_of",
    "reduce_mod_intersection",
]


@dataclass(frozen=True, eq=False)
class Subspace:
    """A linear subspace stored as a d x k orthonormal basis matrix.

    Zero-dimensional subspaces are ordinary values with a d x 0 basis.  Use
    `from_vectors` for raw spanning sets; the plain constructor requires an
    already orthonormal basis.
    """

    ambient_dim: int
    basis: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        d = int(self.ambient_dim)
        if d < 1:
            raise ValueError("ambient_dim must be >= 1")
        b = as_matrix(self.basis)
        if b.shape[0] != d:
            raise ValueError(f"basis has {b.shape[0]} rows, expected {d}")
        if b.shape[1] > d:
            raise ValueError("more basis columns than the ambient dimension")
        if b.shape[1]:
            gram = b.T @ b
            if np.linalg.norm(gram - np.eye(b.shape[1])) > DEFAULT_TOL.check_tol:
                raise ValueError(
                    "basis columns must be orthonormal; use Subspace.from_vectors for spanning sets"
                )
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "ambient_dim", d)
        object.__setattr__(self, "basis", b)

    @classmethod
    def from_vectors(cls, vectors, ambient_dim: int | None = None, name: str = "",
                     tol: TolerancePolicy = DEFAULT_TOL) -> "Subspace":
        """Subspace spanned by arbitrary (possibly dependent) vectors."""
        basis = orthonormalize(vectors, tol=tol, ambient_dim=ambient_dim)
        return cls(basis.shape[0], basis, name)

    @classmethod
    def zero(cls, ambient_dim: int, name: str = "") -> "Subspace":
        return cls(ambient_dim, np.zeros((ambient_dim, 0)), name)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def contains(self, vector, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
        v = np.asarray(vector, dtype=float)
        residual = v - self.basis @ (self.basis.T @ v)
        return float(np.linalg.norm(residual)) <= tol.check_tol * max(1.0, float(np.linalg.norm(v)))


def intersection_of(subspaces, tol: TolerancePolicy = DEFAULT_TOL) -> Subspace:
    """Common intersection of one or more subspaces.

    M is the eigenvalue-1 eigenspace of the mean projector B B^T / N of the
    stacked bases B = [B_1 ... B_N]: the left singular vectors of B / sqrt(N)
    with |sigma^2 - 1| <= eig_tol.  Each is verified to lie in every
    component; nearly coincident subspaces whose sigma^2 falls inside eig_tol
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
    u, sigma, _ = np.linalg.svd(np.hstack([s.basis for s in subs]) / np.sqrt(len(subs)),
                                full_matrices=False)
    basis = u[:, np.abs(sigma ** 2 - 1.0) <= tol.eig_tol]
    for s in subs:
        if basis.size and operator_norm(basis - s.basis @ (s.basis.T @ basis)) > tol.check_tol:
            raise NumericalFailure(
                "intersection basis escapes a component subspace; the configuration "
                "is below the resolution of the tolerance policy"
            )
    return Subspace(d, basis)


@dataclass(frozen=True, eq=False)
class SubspaceSystem:
    """An ordered family of N >= 2 subspaces of a common R^d, under one policy.

    The intersection and the reduced subspaces are computed once at
    construction; the analyses' derived quantities are computed on first
    use and kept.
    """

    subspaces: tuple[Subspace, ...]
    tol: TolerancePolicy = DEFAULT_TOL
    ambient_dim: int = field(init=False)
    intersection: Subspace = field(init=False, repr=False)
    reduced: tuple[Subspace, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        subs = tuple(self.subspaces)
        if len(subs) < 2:
            raise ValueError("a system needs at least two subspaces")
        d = subs[0].ambient_dim
        if any(s.ambient_dim != d for s in subs):
            raise ValueError("subspaces must share the ambient dimension")
        meet = intersection_of(subs, self.tol)
        reduced = []
        for s in subs:
            # containment of the intersection is verified above, so the shaved
            # basis has rank dim(M_j) - dim(M) exactly; forcing that rank keeps
            # the identity even when a component coincides with the intersection
            # and the residual is pure round-off
            rank = s.dim - meet.dim
            if rank == 0:
                basis = np.zeros((d, 0))
            elif meet.dim == 0:
                basis = s.basis
            else:
                shaved = s.basis - meet.basis @ (meet.basis.T @ s.basis)
                u, _, _ = np.linalg.svd(shaved, full_matrices=False)
                basis = u[:, :rank].copy()
            reduced.append(Subspace(d, basis, name=f"{s.name}~" if s.name else ""))
        object.__setattr__(self, "subspaces", subs)
        object.__setattr__(self, "ambient_dim", d)
        object.__setattr__(self, "intersection", meet)
        object.__setattr__(self, "reduced", tuple(reduced))

    @property
    def n_subspaces(self) -> int:
        return len(self.subspaces)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.subspaces)

    @property
    def degenerate(self) -> bool:
        """True when every subspace equals the intersection (empty suprema)."""
        return all(r.dim == 0 for r in self.reduced)


def _derived(fn):
    """Compute fn(system, *args) once per system and argument values.

    The value is kept in the system's __dict__, with its arrays
    (or its fields' arrays) read-only.  A miss calls `__wrapped__`, which a
    test may replace to count derivations.
    """
    signature = inspect.signature(fn)

    @wraps(fn)
    def once(*args, **kwargs):
        system, *rest = signature.bind(*args, **kwargs).arguments.values()
        memo = system.__dict__.setdefault("_derived", {})
        key = (fn.__name__, *rest)
        if key not in memo:
            value = once.__wrapped__(*args, **kwargs)
            items = value if isinstance(value, tuple) else getattr(value, "__dict__", {}).values()
            for part in (value, *items):
                if isinstance(part, np.ndarray):
                    part.setflags(write=False)
            memo[key] = value
        return memo[key]

    return once


def reduce_mod_intersection(system: SubspaceSystem) -> SubspaceSystem:
    """The system of reduced subspaces; its own intersection is verified {0}."""
    reduced_system = SubspaceSystem(system.reduced, tol=system.tol)
    if reduced_system.intersection.dim != 0:
        raise NumericalFailure("reduced system has a nontrivial intersection")
    return reduced_system
