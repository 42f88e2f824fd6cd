"""Linear subspaces of R^d and subspace systems.

A `Subspace` stores an orthonormal basis; a `SubspaceSystem` bundles N >= 2
subspaces of a common ambient space and is the one stage that reads their
d-row bases: one SVD per step of the prefix chain M_1 ∩ ... ∩ M_j gives the
step's cosine and the next meet, the last being the intersection M, and the
reduced subspaces (each component intersected with the orthogonal complement
of M) give the Gram matrix R^T R and its blocks R_i^T R_j.  As
P_j = P_M + R_j R_j^T for the reduced basis R_j, the analyses read those
blocks, and R_j^T x0 for a start vector, but no d x d matrix.  A system is
frozen and holds its `TolerancePolicy`, which every analysis reads, and what
`_derived` computes from it once; all of it is a pure function of the bases
and the policy, so concurrent reads are safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps
from itertools import accumulate

import numpy as np

from .numerics import DEFAULT_TOL, TolerancePolicy, _count, _orthonormal, as_matrix, orthonormalize

__all__ = [
    "Subspace",
    "SubspaceSystem",
    "intersection_of",
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
        d = _count(self.ambient_dim, "ambient_dim")
        b = as_matrix(self.basis)
        if b.shape[0] != d:
            raise ValueError(f"basis has {b.shape[0]} rows, expected {d}")
        if not _orthonormal(b, DEFAULT_TOL.check_tol):  # also refuses more than d columns
            raise ValueError("basis columns must be orthonormal; use Subspace.from_vectors for spanning sets")
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

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def _prefix_meets(subs: tuple[Subspace, ...], tol: TolerancePolicy) -> tuple[Subspace, tuple[float, ...]]:
    """M_1 ∩ ... ∩ M_N along the prefix chain, and each step's Friedrichs cosine.

    For an orthonormal basis A of the current prefix and C = B_j^T A, the
    singular values of A - B_j C are its principal sines to M_j (Bjorck &
    Golub 1973).  The next prefix is spanned by A v for each right singular
    vector v whose sine is at most check_tol, and the cosine is the largest
    ||C v|| over the other v, which diagonalize C^T C too: not sqrt(1 - s^2),
    so large angles keep their digits (Knyazev & Argentati 2002).  Each meet
    lies in the one before, so within check_tol of every component it met.
    """
    if any(s.ambient_dim != subs[0].ambient_dim for s in subs):
        raise ValueError("subspaces must share the ambient dimension")
    meet, cosines = subs[0], []
    for s in subs[1:]:
        a, c = meet.basis, s.basis.T @ meet.basis
        _, sines, vt = np.linalg.svd(a - s.basis @ c, full_matrices=False)
        meet = Subspace(s.ambient_dim, a @ vt[sines <= tol.check_tol].T)
        cosines.append(float(np.linalg.norm(c @ vt[sines > tol.check_tol].T, axis=0).max(initial=0.0)))
    return meet, tuple(cosines)


def intersection_of(subspaces, tol: TolerancePolicy = DEFAULT_TOL) -> Subspace:
    """Common intersection of one or more subspaces: the last meet of their prefix chain."""
    subs = tuple(subspaces)
    if not subs:
        raise ValueError("need at least one subspace")
    return _prefix_meets(subs, tol)[0]


@dataclass(frozen=True, eq=False)
class SubspaceSystem:
    """An ordered family of N >= 2 subspaces of a common R^d, under one policy.

    Construction is the one stage that reads d-row bases.  It keeps the
    intersection M, the Friedrichs cosines of (M_1 ∩ ... ∩ M_{j-1}, M_j) for
    j = 2..N, the reduced subspaces R_j (the components themselves when
    M = {0}), their Gram matrix `gram` = R^T R of R = [R_1 ... R_N] and its
    blocks `gram_blocks[i][j]` = R_i^T R_j, read-only views of it; the
    analyses' derived quantities are computed on first use and kept.
    """

    subspaces: tuple[Subspace, ...]
    tol: TolerancePolicy = DEFAULT_TOL
    ambient_dim: int = field(init=False)
    intersection: Subspace = field(init=False, repr=False)
    prefix_cosines: tuple[float, ...] = field(init=False, repr=False)
    reduced: tuple[Subspace, ...] = field(init=False, repr=False)
    gram: np.ndarray = field(init=False, repr=False)
    gram_blocks: tuple[tuple[np.ndarray, ...], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        subs = tuple(self.subspaces)
        if len(subs) < 2:
            raise ValueError("a system needs at least two subspaces")
        meet, cosines = _prefix_meets(subs, self.tol)
        reduced = subs  # M_j ∩ M^perp = M_j when M = {0}
        if meet.dim:
            # M lies within check_tol of every component (its sines), so the
            # shaved basis has rank dim(M_j) - dim(M) exactly; forcing that
            # rank keeps the identity even when a component coincides with
            # the intersection and the residual is pure round-off
            shaved = (s.basis - meet.basis @ (meet.basis.T @ s.basis) for s in subs)
            reduced = tuple(Subspace(s.ambient_dim, np.linalg.svd(b, full_matrices=False)[0][:, :s.dim - meet.dim],
                                     name=f"{s.name}~" if s.name else "") for s, b in zip(subs, shaved))
        stacked = np.hstack([r.basis for r in reduced])
        gram, edges = stacked.T @ stacked, [0, *accumulate(r.dim for r in reduced)]
        gram.setflags(write=False)
        spans = [slice(a, b) for a, b in zip(edges, edges[1:])]
        object.__setattr__(self, "subspaces", subs)
        object.__setattr__(self, "ambient_dim", subs[0].ambient_dim)
        object.__setattr__(self, "intersection", meet)
        object.__setattr__(self, "prefix_cosines", cosines)
        object.__setattr__(self, "reduced", reduced)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "gram_blocks", tuple(tuple(gram[rows, cols] for cols in spans) for rows in spans))

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
    """Compute fn(system, arg) once per system and argument.

    The key is the call as made, name and argument values and types (2.0 and True miss 2 and 1); a positional
    and a keyword call share it because no derived function takes more than one argument after the system, a
    rule each new one must keep.  The value is kept in the system's __dict__, with its arrays (or its fields'
    arrays) read-only.  A miss calls `__wrapped__`, which a test may replace to count derivations.
    """

    @wraps(fn)
    def once(system, *args, **kwargs):
        memo = system.__dict__.setdefault("_derived", {})
        values = (*args, *kwargs.values())
        key = (fn.__name__, *values, type(values[-1])) if values else fn.__name__  # the one argument's type
        if key not in memo:
            value = once.__wrapped__(system, *args, **kwargs)
            items = value if isinstance(value, tuple) else getattr(value, "__dict__", {}).values()
            for part in (value, *items):
                if isinstance(part, np.ndarray):
                    part.setflags(write=False)
            memo[key] = value
        return memo[key]

    return once
