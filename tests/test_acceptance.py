"""Acceptance suite: one test per criterion, each echoing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v``; a summary block lists every
criterion at the end of the session (see conftest.py).
"""

import numpy as np

from altproj.angles import (
    configuration_constant,
    dixmier_number,
    friedrichs_number,
    inclination,
    pairwise_dixmier_reduced,
)
from altproj.corpus import example3, tilted_pairs, two_lines
from altproj.diagnostics import dehu_check, estimc_check
from altproj.dynamics import (
    IndexSchedule,
    SlowSequence,
    iterate_vector,
    operator_error_norms,
    random_product_norm,
    reduced_min_modulus,
    slow_vector_probe,
)
from altproj.subspace import SubspaceSystem, intersection_of
from cases import (
    common_core_batch,
    convergence_corpus,
    grid_corpus,
    random_pairs_r8,
    random_triples_r9,
)
from oracles import circle_min_modulus, grid_inclination, pairwise_friedrichs, product_space, projector

RESULTS = []


def record(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    RESULTS.append(f"criterion {num:2d} [{status}] {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def test_criterion_01_coordinate_example_reproduction():
    system = example3(12)
    kappa = configuration_constant(system)
    c = friedrichs_number(system)
    table = pairwise_dixmier_reduced(system)
    ok = abs(kappa - 2.0 / 3.0) <= 1e-9
    ok &= abs(c - 0.5) <= 1e-9
    ok &= bool(np.abs(table - 1.0).max() <= 1e-9)
    ok &= system.intersection.dim == 0
    for (i, j), axis in {(0, 1): 0, (1, 2): 1, (0, 2): 3}.items():
        meet = intersection_of([system.subspaces[i], system.subspaces[j]])
        target = np.zeros(12)
        target[axis] = 1.0
        ok &= meet.dim == 1
        ok &= min(np.linalg.norm(meet.basis[:, 0] - target),
                  np.linalg.norm(meet.basis[:, 0] + target)) <= 1e-9
    record(1, "benchmark example: kappa=2/3, c=1/2, unit pairwise table, single-axis meets",
           ok, f"kappa={kappa:.12f} c={c:.12f}")


def test_criterion_02_pair_error_equality():
    systems = random_pairs_r8(20) + [two_lines(np.pi / 3)]
    worst = 0.0
    for system in systems:
        c = friedrichs_number(system)
        errors = operator_error_norms(system, 10).errors
        expected = c ** (2.0 * np.arange(1, 11) - 1.0)
        worst = max(worst, float(np.max(np.abs(errors - expected))))
    record(2, "pair products obey the exact odd-power error law (n<=10)",
           worst <= 1e-8, f"max deviation {worst:.2e}")


def test_criterion_03_identity_web():
    systems = random_triples_r9(20) + common_core_batch(10)
    worst_affine = worst_product = worst_reduced = worst_range = 0.0
    core_ok = True
    for system in systems:
        n = system.n_subspaces
        kappa = configuration_constant(system)
        c = friedrichs_number(system)
        worst_affine = max(worst_affine, abs(c - (n * kappa - 1.0) / (n - 1.0)))
        pair = product_space(system)
        c_cd = pairwise_friedrichs(pair.C, pair.D)
        worst_product = max(worst_product, abs(kappa - c_cd ** 2))
        reduced = SubspaceSystem(system.reduced, tol=system.tol)
        c0_red, _ = dixmier_number(reduced)
        # the reduced system must meet in {0}; if not, the web is broken
        worst_reduced = max(worst_reduced, abs(c - c0_red) if reduced.intersection.dim == 0 else np.inf)
        worst_range = max(worst_range, max(1.0 / n - kappa, kappa - 1.0, 0.0))
        if system.intersection.dim >= 1:
            c0, _ = dixmier_number(system)
            core_ok &= c0 >= 1.0 - 1e-8
    ok = (worst_affine <= 1e-8 and worst_product <= 1e-8 and worst_reduced <= 1e-8
          and worst_range <= 1e-8 and core_ok)
    record(3, "identity web: affine link, product-space route, reduction invariance, ranges",
           ok, f"affine {worst_affine:.1e}, product {worst_product:.1e}, reduced {worst_reduced:.1e}")


def test_criterion_04_geometric_envelope():
    systems = [example3(12)] + random_triples_r9(20)
    worst = -np.inf
    for system in systems:
        n = system.n_subspaces
        c = friedrichs_number(system)
        errors = operator_error_norms(system, 300).errors
        bound = (1.0 - ((1.0 - c) / (4.0 * n)) ** 2) ** (np.arange(1, 301) / 2.0)
        worst = max(worst, float(np.max(errors - bound)))
    record(4, "operator powers stay under the geometric envelope for n<=300",
           worst <= 1e-9, f"worst excess {worst:.2e}")


def test_criterion_05_pairwise_and_prefix_bounds():
    systems = [example3(12)] + random_triples_r9(20)
    worst = np.inf
    for system in systems:
        worst = min(worst, dehu_check(system, n_max=300).margin)
        worst = min(worst, estimc_check(system).margin)
    system = example3(12)
    check = dehu_check(system, n_max=300)
    bound_is_one = bool(np.allclose(np.asarray(check.bound), 1.0))
    errors = np.asarray(check.measured)
    envelope = (1.0 - (1.0 / 24.0) ** 2) ** (np.arange(1, 301) / 2.0)
    measured_controlled = bool(np.all(errors <= envelope + 1e-12) and envelope.max() < 1.0)
    ok = worst >= -1e-8 and bound_is_one and measured_controlled
    record(5, "pairwise-product and prefix bounds hold; pairwise table is blind on the benchmark",
           ok, f"min margin {worst:.2e}")


def test_criterion_06_inclination_sandwich():
    worst_low = worst_high = worst_diff = -np.inf
    for name, system in grid_corpus():
        n = system.n_subspaces
        kappa = configuration_constant(system)
        ell = grid_inclination(system, resolution=0.01)
        est = inclination(system).estimate
        worst_low = max(worst_low, (1.0 - ell) - (np.sqrt(kappa) + 0.02))
        worst_high = max(worst_high, np.sqrt(kappa) - (1.0 - ell ** 2 / (2.0 * n) + 0.02))
        worst_diff = max(worst_diff, abs(est - ell) - 0.02)
    ok = worst_low <= 0 and worst_high <= 0 and worst_diff <= 0
    record(6, "grid inclination satisfies the root-kappa sandwich; optimizer tracks the grid",
           ok, f"excesses {worst_low:.1e}/{worst_high:.1e}/{worst_diff:.1e}")


def test_criterion_07_modulus_bounds():
    ok = True
    detail = []
    for name, system in grid_corpus():
        n = system.n_subspaces
        ell = grid_inclination(system, resolution=0.01)
        gamma = reduced_min_modulus(system)
        ok &= ell ** 2 / (2.0 * n ** 2) - 0.02 <= gamma <= (2.0 ** n - 1.0) * ell + 0.02
        if system.ambient_dim == 2:
            diff = abs(gamma - circle_min_modulus(system))
            ok &= diff <= 1e-6
            detail.append(diff)
    record(7, "modulus sits between the inclination bounds; matches the planar oracle",
           ok, f"max planar diff {max(detail):.1e}")


def test_criterion_08_random_product_bound():
    rng = np.random.default_rng(2024)
    worst = -np.inf
    for name, system in grid_corpus():
        n = system.n_subspaces
        ell = grid_inclination(system, resolution=0.01)
        for _ in range(10):
            k = int(rng.integers(n, 2 * n + 1))
            while True:
                idx = [int(i) for i in rng.integers(1, n + 1, size=k)]
                if set(idx) == set(range(1, n + 1)):
                    break
            value = random_product_norm(system, idx)
            bound = np.sqrt(max(0.0, 1.0 - ell ** 2 / k ** 2)) + 0.02
            worst = max(worst, value - bound)
    record(8, "covering products of projections respect the k-step inclination bound",
           worst <= 0, f"worst excess {worst:.1e}")


def test_criterion_09_slow_convergence_probe():
    angles = 1.0 / np.arange(1, 61)
    seq = SlowSequence.power(0.5)
    result = slow_vector_probe(angles, seq, 100)
    system = tilted_pairs(60)
    trace = iterate_vector(system, result.x, IndexSchedule.cyclic(2), 100)
    verified = bool((trace.errors + 1e-12 >= seq.values(100)).all())
    cs = [friedrichs_number(tilted_pairs(k)) for k in (1, 5, 20, 60)]
    monotone = all(b > a for a, b in zip(cs, cs[1:]))
    ok = result.success and verified and monotone and cs[-1] >= 0.999
    record(9, "60-block probe dominates the square-root decay; joint angle walks to 1",
           ok, f"c(60)={cs[-1]:.6f}")


def test_criterion_10_convergence_suites():
    ok = True
    worst_cyc = worst_rnd = 0.0
    for case_index, (name, system) in enumerate(convergence_corpus()):
        rng = np.random.default_rng(1000 + case_index)
        x0 = rng.standard_normal(system.ambient_dim)
        n = system.n_subspaces
        cyc = iterate_vector(system, x0, IndexSchedule.cyclic(n), 500).errors[-1]
        rnd = iterate_vector(system, x0, IndexSchedule.random(n, seed=23, coverage_window=n),
                             1000).errors[-1]
        worst_cyc = max(worst_cyc, cyc)
        worst_rnd = max(worst_rnd, rnd)
    ok &= worst_cyc <= 1e-6 and worst_rnd <= 1e-6

    systems = [s for _, s in convergence_corpus()]
    rng = np.random.default_rng(555)
    worst_slack = np.inf
    for draw in range(200):
        system = systems[draw % len(systems)]
        x = rng.standard_normal(system.ambient_dim)
        pmx = projector(system.intersection) @ x
        y = x.copy()
        for p in map(projector, system.subspaces):
            y = p @ y
        gap_sq = np.linalg.norm(y - pmx) ** 2
        u_prev = x - pmx
        z = x.copy()
        for p in map(projector, system.subspaces):
            z = p @ z
            u_next = z - pmx
            slack = (np.linalg.norm(u_prev) ** 2 - gap_sq) - np.linalg.norm(u_prev - u_next) ** 2
            worst_slack = min(worst_slack, slack)
            u_prev = u_next
    ok &= worst_slack >= -1e-8
    record(10, "cyclic and covering-random iterations converge; per-pass contraction chain holds",
           ok, f"cyc {worst_cyc:.1e}, rnd {worst_rnd:.1e}, chain slack {worst_slack:.1e}")
