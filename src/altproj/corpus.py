"""Deterministic generators for benchmark subspace systems.

Families:

* ``example3``     three coordinate subspaces of R^d built from the residue
                   classes mod 3 plus three exceptional axes; every pair
                   meets in a line but the triple intersection is {0}, so
                   pairwise angles are degenerate while the joint angle is
                   not.  The sum of the three projectors is diagonal for
                   every d >= 4, which makes all angle values exact.
* ``two_lines``    two lines at a prescribed angle in R^2.
* ``tilted_pairs`` K independent tilted planes stacked block-diagonally in
                   R^{2K}, at angles theta_k = 1/k unless given; the joint
                   angle is max_k cos(theta_k).
* ``random_system``  seeded Gaussian spans.
* ``common_core``  seeded spans all containing a shared core subspace, so
                   the intersection is nontrivial by construction.
"""

from __future__ import annotations

import numpy as np

from .numerics import _count
from .subspace import Subspace, SubspaceSystem

__all__ = [
    "common_core",
    "example3",
    "random_system",
    "tilted_pairs",
    "two_lines",
]


def _coordinate_subspace(d: int, indices, name: str = "") -> Subspace:
    idx = sorted(set(int(i) for i in indices))
    basis = np.zeros((d, len(idx)))
    for col, i in enumerate(idx):
        basis[i, col] = 1.0
    return Subspace(d, basis, name)


def example3(d: int = 12) -> SubspaceSystem:
    """Three coordinate subspaces whose pairwise meets are single axes.

    Component 1 spans the axes with index 0 mod 3; component 2 spans axis 0
    plus the axes with index 1 mod 3; component 3 spans axes 1 and 3 plus
    the axes with index 2 mod 3.  The pairwise intersections are the axes
    0, 1 and 3 while the triple intersection is {0}.
    """
    d = _count(d, "d", 4)
    i1 = range(0, d, 3)
    i2 = [0, *range(1, d, 3)]
    i3 = [1, 3, *range(2, d, 3)]
    subs = (
        _coordinate_subspace(d, i1, "S1"),
        _coordinate_subspace(d, i2, "S2"),
        _coordinate_subspace(d, i3, "S3"),
    )
    return SubspaceSystem(subs)


def two_lines(theta: float) -> SubspaceSystem:
    """Two lines in R^2 at angle theta, the one-block `tilted_pairs`; the joint angle cosine is cos(theta).

    theta = 0 is rejected (the lines coincide; use common_core for
    degenerate studies).
    """
    return tilted_pairs(1, [theta])


def tilted_pairs(k: int, angles=None) -> SubspaceSystem:
    """K tilted planes stacked block-diagonally in R^{2K}.

    Block i holds the horizontal line and a line tilted by theta_i; angles
    lists the K angles theta_i, each in (0, pi/2], and None means
    theta_i = 1/i.
    """
    k = _count(k, "k")
    theta = (1.0 / np.arange(1, k + 1, dtype=float) if angles is None
             else np.asarray(angles, dtype=float).reshape(-1))
    if theta.shape[0] != k:
        raise ValueError(f"expected {k} angles, got {theta.shape[0]}")
    if not ((theta > 0) & (theta <= np.pi / 2)).all():
        raise ValueError("angles must lie in (0, pi/2]")
    d = 2 * k
    horizontal = np.zeros((d, k))
    tilted = np.zeros((d, k))
    for i in range(k):
        horizontal[2 * i, i] = 1.0
        tilted[2 * i, i] = np.cos(theta[i])
        tilted[2 * i + 1, i] = np.sin(theta[i])
    return SubspaceSystem((Subspace(d, horizontal, "S1"), Subspace(d, tilted, "S2")))


def random_system(d: int, dims, seed: int = 0) -> SubspaceSystem:
    """Subspaces spanned by seeded Gaussian vectors, orthonormalized: `common_core` with no core."""
    return common_core(d, dims, 0, seed)


def common_core(d: int, dims, core_dim: int, seed: int = 0) -> SubspaceSystem:
    """Seeded spans that all contain one shared core subspace.

    Guarantees a nontrivial intersection (generically exactly the core), so
    reduction and the non-reduced angle parameters get exercised.
    """
    d, seed = _count(d, "d"), _count(seed, "seed", 0)
    dims = tuple(_count(m, "dims", 0, d) for m in dims)
    if len(dims) < 2:
        raise ValueError("need at least two subspaces")
    core_dim = _count(core_dim, "core_dim", 0, min(dims))
    rng = np.random.default_rng(seed)
    core = rng.standard_normal((core_dim, d))
    subs = []
    for j, m in enumerate(dims):
        extra = rng.standard_normal((m - core_dim, d))
        vectors = np.vstack([core, extra]) if core_dim else extra
        subs.append(Subspace.from_vectors(vectors, ambient_dim=d, name=f"S{j + 1}"))
    return SubspaceSystem(tuple(subs))

