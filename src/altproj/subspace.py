"""Linear subspaces of R^d, subspace systems, and orthogonal projectors.

A `Subspace` stores an orthonormal basis; a `SubspaceSystem` bundles N >= 2
subspaces of a common ambient space as orthonormal bases only: the
intersection M, read from the singular vectors of the stacked bases, the
reduced subspaces (each component intersected with the orthogonal
complement of M) and, on first use, their span.  As P_j = P_M + R_j R_j^T
for the reduced basis R_j, no analysis forms a d x d matrix; `projector`
and `orthogonal_complement` do, for callers that want one.  The lazy span
is a pure function of the bases, so concurrent reads are safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    "projector",
    "orthogonal_complement",
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

    @classmethod
    def full(cls, ambient_dim: int, name: str = "") -> "Subspace":
        return cls(ambient_dim, np.eye(ambient_dim), name)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def contains(self, vector, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
        v = np.asarray(vector, dtype=float)
        residual = v - self.basis @ (self.basis.T @ v)
        return float(np.linalg.norm(residual)) <= tol.check_tol * max(1.0, float(np.linalg.norm(v)))


def projector(s: Subspace) -> np.ndarray:
    """Orthogonal projector onto the subspace, as a dense d x d matrix."""
    return s.basis @ s.basis.T


def orthogonal_complement(s: Subspace, tol: TolerancePolicy = DEFAULT_TOL) -> Subspace:
    """The subspace of all vectors orthogonal to `s` (dimension d - k)."""
    d, k = s.basis.shape
    if k == 0:
        return Subspace.full(d, name=f"{s.name}^perp" if s.name else "")
    if k == d:
        return Subspace.zero(d, name=f"{s.name}^perp" if s.name else "")
    u, _, _ = np.linalg.svd(s.basis, full_matrices=True)
    return Subspace(d, u[:, k:].copy(), name=f"{s.name}^perp" if s.name else "")


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


@dataclass(eq=False)
class SubspaceSystem:
    """An ordered family of N >= 2 subspaces of a common R^d.

    The intersection and the reduced subspaces are computed once at
    construction; `span` is computed on first use.
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
        self.subspaces = subs
        self.ambient_dim = d
        meet = intersection_of(subs, self.tol)
        self.intersection = meet
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
        self.reduced = tuple(reduced)

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

    @cached_property
    def span(self) -> Subspace:
        """Orthonormal basis Q of span(R_1, ..., R_N) inside M^perp.

        Every P_j - P_M maps into it and vanishes on the rest of M^perp.
        """
        stacked = np.hstack([r.basis for r in self.reduced])
        return Subspace(self.ambient_dim, orthonormalize(stacked.T, self.tol, self.ambient_dim))


def reduce_mod_intersection(system: SubspaceSystem) -> SubspaceSystem:
    """The system of reduced subspaces; its own intersection is verified {0}."""
    reduced_system = SubspaceSystem(system.reduced, tol=system.tol)
    if reduced_system.intersection.dim != 0:
        raise NumericalFailure("reduced system has a nontrivial intersection")
    return reduced_system
