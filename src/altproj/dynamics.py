"""Alternating-projection dynamics: schedules, iterations and error norms.

Covers vector iterations along cyclic, random or explicit index schedules,
operator-power error norms ||T^n - P_M|| of the cyclic product
T = P_N ... P_1, the reduced minimum modulus of I - T, norms of arbitrary
products of projections, and a finite-horizon slow-convergence probe built
on block-diagonal families of tilted planes.
Every route works on the Gram blocks R_i^T R_j and the span Q of the reduced
bases R_j (P_j = P_M + R_j R_j^T), never on d x d matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import tilted_pairs
from .numerics import DEFAULT_TOL, NumericalFailure, TolerancePolicy, operator_norm
from .subspace import SubspaceSystem

__all__ = [
    "ConvergenceTrace",
    "IndexSchedule",
    "SlowProbeResult",
    "SlowSequence",
    "iterate_vector",
    "operator_error_norms",
    "random_product_norm",
    "reduced_min_modulus",
    "slow_vector_probe",
]


@dataclass(frozen=True)
class IndexSchedule:
    """A deterministic stream of projection indices in {1..N}.

    kind is "cyclic", "random" or "explicit".  For random schedules with a
    coverage window w, every window of w consecutive indices contains all of
    {1..N}: for w < 2N-1 the only such streams are periodic repeats of a
    single permutation, so one seeded permutation is tiled; for w >= 2N-1
    independent seeded permutations are concatenated (any such window then
    contains a whole permutation block).
    """

    kind: str
    n_subspaces: int
    seed: int | None = None
    coverage_window: int | None = None
    indices: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("cyclic", "random", "explicit"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.n_subspaces < 1:
            raise ValueError("n_subspaces must be >= 1")
        if self.kind == "explicit":
            if not self.indices:
                raise ValueError("explicit schedules need a nonempty index list")
            if any(not 1 <= i <= self.n_subspaces for i in self.indices):
                raise ValueError("explicit indices must lie in 1..N")
        if self.coverage_window is not None and self.coverage_window < self.n_subspaces:
            raise ValueError("coverage window cannot be shorter than the index alphabet")

    @classmethod
    def cyclic(cls, n_subspaces: int) -> "IndexSchedule":
        return cls(kind="cyclic", n_subspaces=n_subspaces)

    @classmethod
    def random(cls, n_subspaces: int, seed: int, coverage_window: int | None = None) -> "IndexSchedule":
        return cls(kind="random", n_subspaces=n_subspaces, seed=seed, coverage_window=coverage_window)

    @classmethod
    def explicit(cls, indices, n_subspaces: int) -> "IndexSchedule":
        return cls(kind="explicit", n_subspaces=n_subspaces, indices=tuple(int(i) for i in indices))

    def first(self, count: int) -> np.ndarray:
        """The first `count` indices of the stream (1-based values)."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        n = self.n_subspaces
        if self.kind == "cyclic":
            return np.tile(np.arange(1, n + 1), -(-count // n) or 1)[:count]
        if self.kind == "explicit":
            if count > len(self.indices):
                raise ValueError("explicit schedule exhausted")
            return np.asarray(self.indices[:count], dtype=int)
        rng = np.random.default_rng(self.seed)
        if self.coverage_window is None:
            return rng.integers(1, n + 1, size=count)
        blocks = -(-count // n) or 1
        if self.coverage_window < 2 * n - 1:
            perm = rng.permutation(n) + 1
            return np.tile(perm, blocks)[:count]
        perms = [rng.permutation(n) + 1 for _ in range(blocks)]
        return np.concatenate(perms)[:count]


@dataclass(eq=False)
class ConvergenceTrace:
    """Per-iteration error records together with named bound curves.

    For vector traces the error at step n is ||x_n - P_M x_0|| (one record
    per full cyclic pass, or per projection step otherwise); for operator
    traces it is ||T^n - P_M||.
    """

    steps: np.ndarray
    errors: np.ndarray
    bounds: dict[str, np.ndarray] = field(default_factory=dict)
    kind: str = "vector"


def iterate_vector(system: SubspaceSystem, x0, schedule: IndexSchedule, n_max: int) -> ConvergenceTrace:
    """Run the projection iteration from x0 and record the error to P_M x0.

    Cyclic schedules record one error per full pass; random and explicit
    schedules record one error per projection step.  After a step onto M_j
    the iterate is P_M x0 + R_j a and the error is ||a||; a cyclic pass maps
    a by K W (see `operator_error_norms`), a step from M_i to M_j by R_j^T R_i.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if schedule.n_subspaces != system.n_subspaces:
        raise ValueError("schedule and system disagree on the number of subspaces")
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape[0] != system.ambient_dim:
        raise ValueError("x0 must live in the ambient space")
    if not np.isfinite(x).all():
        raise ValueError("x0 must be finite")
    bases = [r.basis for r in system.reduced]
    n = system.n_subspaces
    if schedule.kind == "cyclic":
        k = _reduced_chain(system, range(1, n + 1))
        a = k @ (bases[0].T @ x)
        steps = [k @ _reduced_chain(system, (n, 1))] * (n_max - 1)
    else:
        idx = schedule.first(n_max) - 1
        a = bases[idx[0]].T @ x
        blocks = {(j, i): bases[j].T @ bases[i] for j in range(n) for i in range(n)}
        steps = [blocks[j, i] for j, i in zip(idx[1:], idx[:-1])]
    errors = [np.linalg.norm(a)]
    for step in steps:
        a = step @ a
        errors.append(np.linalg.norm(a))
    return ConvergenceTrace(steps=np.arange(1, n_max + 1), errors=np.array(errors), kind="vector")


def _reduced_chain(system: SubspaceSystem, indices) -> np.ndarray:
    """G = (R_{i_k}^T R_{i_(k-1)}) ... (R_{i_2}^T R_{i_1}) for 1-based indices.

    P_{i_k} ... P_{i_1} - P_M = R_{i_k} G R_{i_1}^T; one index gives G = I.
    """
    bases = [system.reduced[i - 1].basis for i in indices]
    chain = np.eye(bases[0].shape[1])
    for prev, nxt in zip(bases, bases[1:]):
        chain = (nxt.T @ prev) @ chain
    return chain


def operator_error_norms(system: SubspaceSystem, n_max: int) -> ConvergenceTrace:
    """e_n = ||T^n - P_M|| for n = 1..n_max, from the reduced Gram blocks.

    With K the reduced chain of 1..N and W = R_1^T R_N, T - P_M = R_N K R_1^T
    and e_n = ||(K W)^(n-1) K||: every step is an r x r product, and the
    trace keeps decaying below the round-off of subtracting P_M in R^d.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    n = system.n_subspaces
    k = _reduced_chain(system, range(1, n + 1))
    kw = k @ _reduced_chain(system, (n, 1))
    errors = np.empty(n_max)
    power = k
    errors[0] = operator_norm(power)
    for i in range(1, n_max):
        power = kw @ power
        errors[i] = operator_norm(power)
    return ConvergenceTrace(steps=np.arange(1, n_max + 1), errors=errors, kind="operator")


def reduced_min_modulus(system: SubspaceSystem) -> float:
    """gamma(I - T): the smallest ||y - T y|| over unit y orthogonal to M.

    The fixed space of T is exactly the intersection, so the infimum runs
    over the unit sphere of its orthogonal complement; undefined when the
    intersection is the whole space.  On M^perp, T = R_N K R_1^T vanishes
    off the span Q of the reduced bases, so the value is
    sigma_min(I - (Q^T R_N) K (R_1^T Q)), capped at 1 when Q is smaller.
    """
    if system.intersection.dim == system.ambient_dim:
        raise ValueError("modulus undefined: the intersection is the whole space")
    q = system.span.basis
    gamma = 1.0 if q.shape[1] < system.ambient_dim - system.intersection.dim else np.inf
    if q.shape[1]:
        k = _reduced_chain(system, range(1, system.n_subspaces + 1))
        t = (q.T @ system.reduced[-1].basis) @ k @ (system.reduced[0].basis.T @ q)
        gamma = min(gamma, float(np.linalg.svd(np.eye(q.shape[1]) - t, compute_uv=False)[-1]))
    return float(gamma)


def random_product_norm(system: SubspaceSystem, indices, tol: TolerancePolicy = DEFAULT_TOL) -> float:
    """||P_{i_k} ... P_{i_1} - P_M|| for an explicit index list (1-based), from its reduced chain."""
    idx = [int(i) for i in indices]
    if not idx:
        raise ValueError("index list must be nonempty")
    if any(not 1 <= i <= system.n_subspaces for i in idx):
        raise ValueError("indices must lie in 1..N")
    value = operator_norm(_reduced_chain(system, idx))
    if value > 1.0 + tol.check_tol:
        raise NumericalFailure(f"product-of-projections gap {value} exceeds 1")
    return min(value, 1.0)


@dataclass(frozen=True)
class SlowSequence:
    """A nonnegative target sequence a_n that decreases to zero.

    Built-ins: power decay a_n = (n + offset)^(-p), log decay
    a_n = 1/log(n + 2), or an explicit list (which may be all zeros for
    degenerate probes).  `values` checks finiteness, nonnegativity and a
    nonincreasing tail over the requested horizon.
    """

    kind: str
    exponent: float = 0.5
    offset: int = 2
    explicit_values: tuple[float, ...] | None = None

    @classmethod
    def power(cls, exponent: float, offset: int = 2) -> "SlowSequence":
        if exponent <= 0:
            raise ValueError("power decay needs a positive exponent")
        return cls(kind="power", exponent=exponent, offset=offset)

    @classmethod
    def log(cls) -> "SlowSequence":
        return cls(kind="log")

    @classmethod
    def explicit(cls, values) -> "SlowSequence":
        return cls(kind="explicit", explicit_values=tuple(float(v) for v in values))

    def values(self, horizon: int) -> np.ndarray:
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        n = np.arange(1, horizon + 1, dtype=float)
        if self.kind == "power":
            a = (n + self.offset) ** (-self.exponent)
        elif self.kind == "log":
            a = 1.0 / np.log(n + 2.0)
        elif self.kind == "explicit":
            if self.explicit_values is None or len(self.explicit_values) < horizon:
                raise ValueError(f"explicit sequence shorter than horizon {horizon}")
            a = np.asarray(self.explicit_values[:horizon], dtype=float)
        else:
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        if not np.isfinite(a).all() or (a < 0).any():
            raise ValueError("sequence values must be finite and nonnegative")
        tail = a[horizon // 2:]
        if tail.size > 1 and (np.diff(tail) > 1e-12).any():
            raise ValueError("sequence must be nonincreasing on the tail of the horizon")
        return a


@dataclass(eq=False)
class SlowProbeResult:
    """Outcome of the finite-horizon slow-convergence construction."""

    x: np.ndarray
    trace: ConvergenceTrace
    success: bool
    achieved_horizon: int


def slow_vector_probe(angles, seq: SlowSequence, horizon: int, decay_floor: float = 0.1) -> SlowProbeResult:
    """Build a vector whose cyclic-iteration error dominates a_n up to the horizon.

    The family is the block-diagonal system of K tilted planes with angles
    theta_k; in block k the unit vector along the tilted line decays exactly
    like cos(theta_k)^(2n) per pass.  Blocks are assigned consecutive
    responsibility intervals, fastest-decaying first; block k keeps taking
    passes while its geometric factor stays above `decay_floor`, and its
    coefficient is the smallest one dominating a_n on its interval.  The
    result is verified by direct iteration, and `achieved_horizon` reports
    how far the domination actually holds.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if not 0.0 < decay_floor < 1.0:
        raise ValueError("decay_floor must lie strictly between 0 and 1")
    theta = np.asarray(angles, dtype=float).reshape(-1)
    system = tilted_pairs(len(theta), theta)
    tilted_basis = system.subspaces[1].basis
    a = seq.values(horizon)

    if a.max() <= 0.0:
        x = tilted_basis[:, 0].copy()
    else:
        rho = np.cos(theta) ** 2
        alpha = np.zeros(len(theta))
        n = 1
        for k in np.argsort(rho):
            if n > horizon:
                break
            if rho[k] <= 0.0 or rho[k] >= 1.0:
                continue  # no decay to trade on, or angle below float resolution
            cap = int(math.floor(math.log(decay_floor) / math.log(rho[k])))
            while n <= min(cap, horizon):
                alpha[k] = max(alpha[k], a[n - 1] / rho[k] ** n)
                n += 1
        alpha *= 1.0 + 1e-9  # strict domination under floating-point ties
        x = tilted_basis @ alpha

    trace = iterate_vector(system, x, IndexSchedule.cyclic(2), horizon)
    trace.bounds["target"] = a
    ok = trace.errors + 1e-12 >= a
    success = bool(ok.all())
    achieved = horizon if success else int(np.argmin(ok))
    return SlowProbeResult(x=x, trace=trace, success=success, achieved_horizon=achieved)
