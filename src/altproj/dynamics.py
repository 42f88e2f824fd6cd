"""Alternating-projection dynamics: schedules, iterations and error norms.

Covers vector iterations along cyclic, random or explicit index schedules, operator-power error norms
||T^n - P_M|| of the cyclic product T = P_N ... P_1, the reduced minimum modulus of I - T, norms of
arbitrary products of projections, and a finite-horizon slow-convergence probe built on block-diagonal
families of tilted planes.  As P_j = P_M + R_j R_j^T for the reduced bases R_j, every route reads the
Gram blocks R_i^T R_j that the system holds, and a vector iteration reads R_j^T x0 besides; no route
forms a d x d matrix, and the cyclic chain, the power traces and gamma(I - T) are computed once per
system.  The power traces walk the powers of K W in stacks of b = isqrt(n), each (K W)^b times the one before
(Paterson & Stockmeyer 1973), a vector trace's stack of rows in one product; other orders walk in 32-step chunks of
zero-padded Gram blocks, small ones by prefix products (Hillis & Steele 1986), larger ones along a flat list of
step blocks, one np.dot a step.  Every walk carries a power-of-two exponent, so unless a stack decays into the
subnormals by itself a 0.0 in a trace is a true error below 2^-1074.  Low-rank powers read norms from certified heads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .angles import friedrichs_number
from .corpus import tilted_pairs
from .numerics import _checked_range, _count, operator_norm
from .subspace import SubspaceSystem, _derived

_DEFLATED_ORDER = 8  # column count from which the operator trace may deflate; the routes tie near 6 or 7
_SCANNED_ORDER = 8  # block order up to which random and explicit walks scan prefix products; the routes tie at 9-10

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

    kind is "cyclic", "random" (the only kind with a seed, an integer >= 0, and a
    coverage window) or "explicit" (the only one with `indices`).  With a
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
        n = _count(self.n_subspaces, "n_subspaces")
        if self.kind == "explicit":
            if not self.indices:
                raise ValueError("an index list must be nonempty")
            for i in self.indices:
                _count(i, "indices", 1, n)
        elif self.indices is not None:
            raise ValueError(f"a {self.kind} schedule takes no index list")
        if self.kind != "random" and (self.seed, self.coverage_window) != (None, None):
            raise ValueError(f"a {self.kind} schedule takes no seed and no coverage window")
        if self.kind == "random":
            _count(self.seed, "seed", 0)
        if self.coverage_window is not None:
            _count(self.coverage_window, "coverage_window", n)

    @classmethod
    def cyclic(cls, n_subspaces: int) -> "IndexSchedule":
        return cls(kind="cyclic", n_subspaces=n_subspaces)

    @classmethod
    def random(cls, n_subspaces: int, seed: int, coverage_window: int | None = None) -> "IndexSchedule":
        return cls(kind="random", n_subspaces=n_subspaces, seed=seed, coverage_window=coverage_window)

    @classmethod
    def explicit(cls, indices, n_subspaces: int) -> "IndexSchedule":
        return cls(kind="explicit", n_subspaces=n_subspaces, indices=tuple(indices))

    def first(self, count: int) -> np.ndarray:
        """The first `count` indices of the stream (1-based values)."""
        count = _count(count, "count", 0)
        n = self.n_subspaces
        if self.kind == "cyclic":
            return np.arange(count) % n + 1
        if self.kind == "explicit":
            if count > len(self.indices):
                raise ValueError("explicit schedule exhausted")
            return np.asarray(self.indices[:count], dtype=int)
        rng = np.random.default_rng(self.seed)
        if self.coverage_window is None:
            return rng.integers(1, n + 1, size=count)
        if self.coverage_window < 2 * n - 1:
            return rng.permutation(np.arange(1, n + 1))[np.arange(count) % n]
        return rng.permuted(np.tile(np.arange(1, n + 1), (-(-count // n), 1)), axis=1).reshape(-1)[:count]


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


def iterate_vector(system: SubspaceSystem, x0, schedule: IndexSchedule, n_max: int) -> ConvergenceTrace:
    """Run the projection iteration from x0 and record the error to P_M x0.

    Cyclic schedules record one error per full pass; random and explicit
    schedules record one error per projection step.  After a step onto M_j
    the iterate is P_M x0 + R_j a and the error is ||a||; a cyclic pass maps
    a by K W (see `operator_error_norms`), a step from M_i to M_j by R_j^T R_i.
    """
    n_max = _count(n_max, "n_max")
    if schedule.n_subspaces != system.n_subspaces:
        raise ValueError("schedule and system disagree on the number of subspaces")
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape[0] != system.ambient_dim:
        raise ValueError("x0 must live in the ambient space")
    if not np.isfinite(x).all():
        raise ValueError("x0 must be finite")
    exp = -math.frexp(np.abs(x).max(initial=0.0))[1]  # x0 times 2^exp, exactly, has its top entry in [1/2, 1)
    x = np.ldexp(x, exp)
    if schedule.kind == "cyclic":
        k, kw = _cyclic_chain(system)
        walk = _power_blocks(kw, k @ (system.reduced[0].basis.T @ x), n_max)
    else:
        walk = _gram_chunks(system, schedule.first(n_max) - 1, x)
    return _scaled_trace(walk, _row_norms, n_max, exp)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """The `sizes` of a vector walk: the norm of each reduced error, a row of a stack of them.

    Squares of entries below 2^-537 underflow, so a stack whose last norm, its smallest, is below 2^-450 takes
    each norm again from its row shifted by the exact power of two that puts the row's top entry in [1/2, 1).
    """
    norms = np.sqrt(np.add.reduce(rows * rows, axis=-1))  # np.linalg.norm(rows, axis=-1), bit for bit
    if norms[-1] < 2.0 ** -450:
        exps = np.frexp(np.abs(rows).max(axis=-1, initial=0.0))[1]
        norms = np.ldexp(np.linalg.norm(np.ldexp(rows, -exps[:, None]), axis=-1), exps)
    return norms


def _scaled_trace(walk, sizes, n_max: int, exp: int = 0) -> ConvergenceTrace:
    """The trace of a walk: the `sizes` of each stack times 2^-exp, for the exponent exp it carries.

    A stack whose last size is below 2^-200 is rescaled in place, and the walk with it; no
    step makes an error larger, so the walk stops at the first stack ending in 0.0.
    """
    errors, shifts, start = np.zeros(n_max), np.zeros(n_max, dtype=int), 0
    for stack in walk:
        s = sizes(stack)
        errors[start:start + len(s)], shifts[start:start + len(s)] = s, exp
        start += len(s)
        if math.ldexp(s[-1], -exp) == 0.0:
            break
        if s[-1] < 2.0 ** -200:
            shift = min(-math.frexp(s[-1])[1], 1000 - math.frexp(s[0])[1])  # last ~1, first < 2^1000
            np.ldexp(stack, shift, out=stack)  # shift can pass 1023 when s[-1] is subnormal
            exp += shift
    with np.errstate(under="ignore"):  # the only subnormal arithmetic: errors below 2^-1022
        return ConvergenceTrace(steps=np.arange(1, n_max + 1), errors=np.ldexp(errors, -shifts))


def _power_blocks(kw: np.ndarray, first: np.ndarray, n_max: int):
    """Yield first, kw first, ..., kw^(n_max-1) first in stacks of b = isqrt(n_max).

    Each stack after the first is kw^b (formed only when due) times the one before: one product
    stack @ (kw^b)^T for a vector first, whose stacks are rows, and a batch of b for a matrix first.
    """
    b = math.isqrt(n_max)
    block = np.empty((b, *first.shape))
    block[0] = first
    for i in range(1, b):
        block[i] = kw @ block[i - 1]
    yield block
    if n_max > b:
        giant = np.linalg.matrix_power(kw, b)
        for start in range(b, n_max, b):
            block = block[:n_max - start] @ giant.T if first.ndim == 1 else giant @ block[:n_max - start]
            yield block


def _gram_chunks(system: SubspaceSystem, idx: np.ndarray, x: np.ndarray):
    """Yield the reduced errors of x's steps onto M_(idx[t]+1), 32 a chunk, from zero-padded Gram blocks.

    Up to block order _SCANNED_ORDER each span of 8 chunks gathers its step blocks in one index and forms every
    chunk's prefix products in five rounds (Hillis & Steele 1986): a chunk is one product with the row before it.
    """
    n, m = system.n_subspaces, max(r.dim for r in system.reduced)
    padded = np.zeros((n, n, m, m))
    for i, row in enumerate(system.gram_blocks):
        for j, block in enumerate(row):
            padded[i, j, :block.shape[0], :block.shape[1]] = block
    chunk = np.zeros((32, m))
    first = system.reduced[idx[0]].basis.T @ x
    chunk[[0, -1], :len(first)] = first  # row 0 of chunk 0 is the first error, and the row before it
    if m > _SCANNED_ORDER:  # each step one np.dot with a Gram block, step t's at idx[t] N + idx[t-1]
        flat, rows = list(padded.reshape(n * n, m, m)), list(chunk)
        blocks, prevs = [flat[k] for k in (idx[1:] * n + idx[:-1]).tolist()], rows[-1:] + rows[:-1]
        for start in range(0, len(idx), 32):
            skip = start == 0  # row 0 of chunk 0 holds the first error
            for block, prev, row in zip(blocks[start - 1 + skip:start + 31], prevs[skip:], rows[skip:]):
                np.dot(block, prev, out=row)
            yield chunk[:len(idx) - start]
        return
    for start in range(0, len(idx), 256):
        step = idx[start:start + 256]
        step = np.append(step, step[-1:].repeat(-len(step) % 32))  # whole chunks: the padding stays on one M_j
        span = padded[step, np.append(idx[max(start - 1, 0)], step[:-1])].reshape(len(step) // 32, 32, m, m)
        if start == 0:
            span[0, 0] = np.eye(m)  # step 0 keeps the first error
        for shift in (1, 2, 4, 8, 16):
            span[:, shift:] = span[:, shift:] @ span[:, :-shift]
        for offset, products in zip(range(start, len(idx), 32), span):
            yield np.matmul(products, chunk[-1], out=chunk)[:len(idx) - offset]  # chunk[-1] as _scaled_trace left it


def _reduced_chain(system: SubspaceSystem, indices) -> np.ndarray:
    """The reduced chain (R_{i_k}^T R_{i_(k-1)}) ... (R_{i_2}^T R_{i_1}) for 1-based indices, from the Gram blocks.

    P_{i_k} ... P_{i_1} - P_M = R_{i_k} (chain) R_{i_1}^T; one index gives the identity.
    """
    blocks = system.gram_blocks
    chain = np.eye(system.reduced[indices[0] - 1].dim)
    for prev, nxt in zip(indices, indices[1:]):
        chain = blocks[nxt - 1][prev - 1] @ chain
    return chain


@_derived
def _cyclic_chain(system: SubspaceSystem) -> tuple[np.ndarray, np.ndarray]:
    """(K, K W): K the reduced chain of 1..N and W = R_1^T R_N, the stored Gram block."""
    k = _reduced_chain(system, range(1, system.n_subspaces + 1))
    return k, k @ system.gram_blocks[0][-1]


@_derived
def operator_error_norms(system: SubspaceSystem, n_max: int) -> ConvergenceTrace:
    """e_n = ||T^n - P_M|| for n = 1..n_max, from the reduced Gram blocks.

    With K the reduced chain of 1..N and W = R_1^T R_N, T - P_M = R_N K R_1^T and e_n = ||(K W)^(n-1) K||:
    every step is an r x r product, and the trace keeps decaying below the round-off of subtracting P_M
    in R^d.  Each norm is a batched SVD's or a certified thin head's (`_top_singular_values`).
    """
    n_max = _count(n_max, "n_max")
    k, kw = _cyclic_chain(system)
    walk = _power_blocks(kw, k, n_max) if k.size else ()  # K empty: M_1 or M_N is M, so T = P_M and all 0
    return _scaled_trace(walk, _top_singular_values(k.shape[1]), n_max)


def _top_singular_values(order: int):
    """The `sizes` of the operator trace: the norm of each matrix B, of `order` columns, of a stack.

    For orthonormal [V_1 V_2], ||B V_1||^2 <= ||B||^2 <= ||B V_1||^2 + ||B V_2||_F^2, so a tail ||B V_2||_F^2 of
    at most eps/4 sigma_1(B V_1)^2 makes sigma_1(B V_1) ||B|| to rounding.  From order _DEFLATED_ORDER up, the last
    B of a stack of two or more seeds V_1 with the fewest top right singular vectors, at most order/2 and not all,
    that leave it such a tail; later stacks read the heads B V_1, the SVD of the last head trims V_1, and a stack
    with a failed tail takes the full SVD.
    """
    if order < _DEFLATED_ORDER:
        return lambda stack: np.linalg.svd(stack, compute_uv=False)[:, 0]
    basis, quarter = None, 2.0 ** -54  # eps / 4

    def sizes(stack):
        nonlocal basis
        if basis is not None:
            head = stack @ basis
            s, rest = np.linalg.svd(head, compute_uv=False), head @ basis.T
            rest -= stack  # B V_1 V_1^T - B = -B V_2 V_2^T
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # a 0 or inf ratio fails
                rest /= s[:, :1, None]
                tails = np.einsum("ijk,ijk->i", rest, rest)
        if basis is None or not (tails <= quarter).all():
            basis, s, head, tails = None, np.linalg.svd(stack, compute_uv=False), stack, (0.0,)
        if len(s) > 1 and s[-1, min(order // 2, s.shape[1] - 1)] < s[-1, 0] * 2.0 ** -27:  # 2^-27 = sqrt(eps/4)
            h = np.count_nonzero(np.cumsum(np.square(s[-1, ::-1] / s[-1, 0])) > quarter - tails[-1])
            if 2 * h <= order:
                frame = np.linalg.svd(head[-1], full_matrices=False)[2][:h].T
                basis = frame if basis is None else basis @ frame
        return s[:, 0]

    return sizes


@_derived
def reduced_min_modulus(system: SubspaceSystem) -> float:
    """gamma(I - T): the smallest ||y - T y|| over unit y orthogonal to M.

    The fixed space of T is exactly the intersection, so the infimum runs
    over the unit sphere of its orthogonal complement; undefined when the
    intersection is the whole space.  For a pair, I - T is [[s^2, 0], [-c s, 1]]
    on the plane of each pair of principal vectors (cosine c, sine s) and the
    identity off them; its smallest singular value s^2 / sigma_max decreases
    in c, so gamma is that value at the Friedrichs number c.  Otherwise
    T - P_M = R_N K R_1^T maps the span of [R_1 R_N] into itself and vanishes
    on the rest of M^perp.  With B = R_1^T R_N, one eigh of order dim R_N,
    R_N^T R_N - B^T B = V L V^T, gives Y = L^(1/2) V^T (L clipped at 0), and
    R_N has coordinates [B; Y] in an orthonormal basis of that span that starts
    with R_1, where T - P_M acts as [[B K, 0], [Y K, 0]].  So the value is the
    smallest singular value of I minus that matrix, as rows of Y with L = 0
    only add singular values 1, capped at 1, which gamma never exceeds: T y = 0
    for any unit y orthogonal to the first M_j that is not the whole space.
    """
    if system.intersection.dim == system.ambient_dim:
        raise ValueError("modulus undefined: the intersection is the whole space")
    if system.n_subspaces == 2:
        c = friedrichs_number(system)
        return float((1.0 - c * c) / np.sqrt((2.0 - c * c + c * np.sqrt(4.0 - 3.0 * c * c)) / 2.0))
    b, k = system.gram_blocks[0][-1], _cyclic_chain(system)[0]
    lam, v = np.linalg.eigh(system.gram_blocks[-1][-1] - b.T @ b)
    t = np.eye(len(b) + len(lam))
    t[:, :len(b)] -= np.vstack((b, np.sqrt(np.maximum(lam, 0.0))[:, None] * v.T)) @ k
    return float(np.linalg.svd(t, compute_uv=False).min(initial=1.0))


def random_product_norm(system: SubspaceSystem, indices) -> float:
    """||P_{i_k} ... P_{i_1} - P_M|| for an explicit index list (1-based), from its reduced chain."""
    idx = list(IndexSchedule.explicit(indices, system.n_subspaces).indices)
    cyclic = idx == list(range(1, system.n_subspaces + 1))  # ||K|| is then cached on the system
    value = (operator_error_norms(system, 1).errors[0] if cyclic
             else operator_norm(_reduced_chain(system, idx)))
    return _checked_range(value, 0.0, 1.0, system.tol.check_tol, "product-of-projections gap")


@dataclass(frozen=True)
class SlowSequence:
    """A nonnegative target sequence a_n that decreases to zero.

    Built-ins: power decay a_n = (n + 2)^(-p), log decay
    a_n = 1/log(n + 2), or an explicit list (which may be all zeros for
    degenerate probes), each checked when built; `values` checks finiteness,
    nonnegativity and a nonincreasing tail over the requested horizon.
    """

    kind: str
    exponent: float = 0.5
    explicit_values: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("power", "log", "explicit"):
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        if self.kind == "power" and not 0.0 < self.exponent < math.inf:
            raise ValueError(f"power decay needs a finite positive exponent, got {self.exponent!r}")
        if (self.kind == "explicit") != (self.explicit_values is not None):
            raise ValueError("an explicit sequence needs explicit_values, and no other kind takes them")

    @classmethod
    def power(cls, exponent: float) -> "SlowSequence":
        return cls(kind="power", exponent=exponent)

    @classmethod
    def log(cls) -> "SlowSequence":
        return cls(kind="log")

    @classmethod
    def explicit(cls, values) -> "SlowSequence":
        return cls(kind="explicit", explicit_values=tuple(float(v) for v in values))

    def values(self, horizon: int) -> np.ndarray:
        horizon = _count(horizon, "horizon")
        n = np.arange(1, horizon + 1, dtype=float)
        if self.kind == "power":
            a = (n + 2.0) ** (-self.exponent)
        elif self.kind == "log":
            a = 1.0 / np.log(n + 2.0)
        else:
            if len(self.explicit_values) < horizon:
                raise ValueError(f"explicit sequence shorter than horizon {horizon}")
            a = np.asarray(self.explicit_values[:horizon], dtype=float)
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


def slow_vector_probe(angles, seq: SlowSequence, horizon: int) -> SlowProbeResult:
    """Build a vector whose cyclic-iteration error dominates a_n up to the horizon.

    The family is the block-diagonal system of K tilted planes with angles
    theta_k; in block k the unit vector along the tilted line decays exactly
    like cos(theta_k)^(2n) per pass.  Blocks are assigned consecutive
    responsibility intervals, fastest-decaying first; block k keeps taking
    passes while its geometric factor stays above 0.1, and its
    coefficient is the smallest one dominating a_n on its interval.  The
    result is verified by direct iteration, and `achieved_horizon` reports
    how far the domination actually holds.
    """
    a = seq.values(horizon)
    theta = np.asarray(angles, dtype=float).reshape(-1)
    system = tilted_pairs(len(theta), theta)
    tilted_basis = system.subspaces[1].basis

    if a.max() <= 0.0:
        x = tilted_basis[:, 0].copy()
    else:
        rho = np.cos(theta) ** 2
        alpha = np.zeros(len(theta))
        n = 1
        for k in np.argsort(rho):
            if n > horizon:
                break
            if rho[k] >= 1.0:
                continue  # angle below float resolution: no decay to trade on
            cap = int(math.floor(math.log(0.1) / math.log(rho[k])))
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
