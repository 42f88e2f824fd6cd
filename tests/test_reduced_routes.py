"""The Gram-block routes against their dense d x d counterparts.

Operator-power traces, covering-product norms, the configuration constant,
the reduced pairwise table, vector iterations and gamma(I - T) are computed
from the small blocks R_i^T R_j of the cached R^T R, and the intersection and
the prefix angles from the one SVD per step of the prefix chain at
construction; each is compared here with the route that forms the d x d
projectors, and the table also with the principal cosines of the input bases.
"""

import dataclasses
import math

import numpy as np
import pytest

from altproj import angles, diagnostics, dynamics, numerics, subspace
from altproj.angles import (
    angle_report,
    configuration_constant,
    friedrichs_number,
    inclination,
    pairwise_dixmier_reduced,
    prefix_friedrichs,
)
from altproj.corpus import common_core, example3, random_system, tilted_pairs, two_lines
from altproj.diagnostics import bound_report, dichotomy_report
from altproj.dynamics import (
    IndexSchedule,
    iterate_vector,
    operator_error_norms,
    random_product_norm,
    reduced_min_modulus,
)
from altproj.numerics import DEFAULT_TOL, operator_norm
from altproj.subspace import Subspace, SubspaceSystem, intersection_of
from cases import every_system
from oracles import (
    dense_error_norms,
    dense_intersection,
    dense_iterate,
    dense_min_modulus,
    dense_prefix_friedrichs,
    full_space,
    gram_kappa,
    pair_svd_min_modulus,
    projector,
    principal_cosine,
    reduced_span,
)

TOL = 1e-12

SYSTEMS = {
    "example3": lambda: example3(12),
    "lines(pi/3)": lambda: two_lines(np.pi / 3),
    "tilted12": lambda: tilted_pairs(12),
    **{f"triple9-{s}": (lambda s=s: random_system(9, (3, 3, 3), seed=s)) for s in range(5)},
    **{f"core8-{s}": (lambda s=s: common_core(8, (3, 4, 3), 1, seed=s)) for s in range(5)},
    "thin60": lambda: random_system(60, (3, 3, 3), seed=0),
}


@pytest.fixture(params=sorted(SYSTEMS), scope="module")
def system(request):
    return SYSTEMS[request.param]()


def test_power_trace_matches_dense(system):
    errors = operator_error_norms(system, 100).errors
    np.testing.assert_allclose(errors, dense_error_norms(system, 100), rtol=0.0, atol=TOL)


def test_configuration_constant_matches_dense(system):
    mean = sum(projector(s) for s in system.subspaces) / system.n_subspaces
    dense = operator_norm(mean - projector(system.intersection))
    assert abs(configuration_constant(system) - dense) <= TOL


def test_reduced_table_matches_dense(system):
    table = pairwise_dixmier_reduced(system)
    reduced = [projector(r) for r in system.reduced]
    n = system.n_subspaces
    for i in range(n):
        for j in range(n):
            if i != j:
                assert abs(table[i, j] - operator_norm(reduced[i] @ reduced[j])) <= TOL


def test_product_norm_matches_dense(system):
    n = system.n_subspaces
    for indices in ([1], [2, 1], list(range(1, n + 1)), [1, 2, 1, n, 2], list(range(n, 0, -1)) * 3):
        product = np.eye(system.ambient_dim)
        for i in indices:
            product = projector(system.subspaces[i - 1]) @ product
        dense = operator_norm(product - projector(system.intersection))
        assert abs(random_product_norm(system, indices) - dense) <= TOL


def test_bound_report_norms_stay_in_the_reduced_span(monkeypatch):
    # every norm is a singular-values-only SVD, batched or not (bases come from
    # full SVDs); each matrix of a stack is counted with its own shape
    system = random_system(60, (3, 3, 3), seed=0)
    reduced_dim = sum(r.dim for r in system.reduced)
    svd, shapes = np.linalg.svd, []

    def svd_spy(a, *args, **kwargs):
        if kwargs.get("compute_uv") is False:
            shape = np.shape(a)
            shapes.extend([shape[-2:]] * math.prod(shape[:-2]))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd_spy)
    bound_report(system, n_max=100)
    assert len(shapes) >= 100
    assert max(max(shape) for shape in shapes) <= reduced_dim < system.ambient_dim


def schedules(n):
    return [
        IndexSchedule.cyclic(n),
        IndexSchedule.random(n, seed=5, coverage_window=n),
        IndexSchedule.random(n, seed=6, coverage_window=2 * n - 1),
        IndexSchedule.random(n, seed=7),
        IndexSchedule.explicit([1, 1, 2, n, 1, n, n, 2] * 10, n),
    ]


def test_iteration_matches_dense(system):
    x0 = np.random.default_rng(11).standard_normal(system.ambient_dim)
    for schedule in schedules(system.n_subspaces):
        errors = iterate_vector(system, x0, schedule, 80).errors
        np.testing.assert_allclose(errors, dense_iterate(system, x0, schedule, 80),
                                   rtol=0.0, atol=TOL * np.linalg.norm(x0), err_msg=schedule.kind)


def line(direction, d):
    v = np.asarray(direction, dtype=float)
    return Subspace(d, (v / np.linalg.norm(v))[:, None])


ROTATION = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]


def planes_through_an_axis(theta):
    """Two planes of R^3 meeting in a line at angle theta, in general position.

    Before the fixed rotation the planes are span(e1, e3) and
    span((cos theta, sin theta, 0), e3).
    """
    tilted = np.array([[1.0, np.cos(theta)], [0.0, np.sin(theta)], [0.0, 0.0]])
    axis = np.array([[0.0], [0.0], [1.0]])
    return SubspaceSystem((Subspace(3, ROTATION @ np.hstack([tilted[:, :1], axis])),
                           Subspace(3, ROTATION @ np.hstack([tilted[:, 1:], axis]))))


@pytest.mark.parametrize("build, x0", [
    (lambda: two_lines(np.pi / 3), [1.0, 0.0]),
    # the limit P_M x0 is nonzero, so the dense route stops at its round-off
    (lambda: planes_through_an_axis(np.pi / 3), ROTATION @ [1.0, 0.0, 1.0]),
], ids=["two-lines", "planes-through-an-axis"])
def test_iteration_follows_odd_powers_below_roundoff(build, x0):
    system = build()
    n = np.arange(1, 101)
    errors = iterate_vector(system, x0, IndexSchedule.cyclic(2), 100).errors
    np.testing.assert_allclose(errors, np.cos(np.pi / 3) ** (2 * n - 1), rtol=1e-10, atol=0.0)


MODULUS_SYSTEMS = {
    **{f"pair6-11-{s}": (lambda s=s: random_system(6, (1, 1), seed=s)) for s in range(3)},
    "core5-22": lambda: common_core(5, (2, 2), 1, seed=4),
    "same-lines-in-R3": lambda: SubspaceSystem((line([1.0, 2.0, 0.0], 3), line([1.0, 2.0, 0.0], 3))),
    "line-in-plane": lambda: SubspaceSystem((Subspace(3, np.eye(3)[:, :2]), line([1.0, 1.0, 0.0], 3))),
}


@pytest.mark.parametrize("name", sorted(MODULUS_SYSTEMS))
def test_min_modulus_matches_dense_when_span_is_smaller(name):
    system = MODULUS_SYSTEMS[name]()
    assert reduced_span(system).dim < system.ambient_dim - system.intersection.dim
    assert abs(reduced_min_modulus(system) - dense_min_modulus(system)) <= TOL


def test_min_modulus_matches_dense(system):
    assert abs(reduced_min_modulus(system) - dense_min_modulus(system)) <= TOL


ROTATION4 = np.linalg.qr(np.random.default_rng(4).standard_normal((4, 4)))[0]


def three_subspaces(*bases):
    return SubspaceSystem(tuple(Subspace.from_vectors(np.atleast_2d(b)) for b in bases))


# gamma for N >= 3 reads C = L^(1/2) V^T from the eigenpairs of the Gram matrix of [R_1 R_N]
MODULUS_SYSTEMS_N3 = {
    # [R_1 R_N] = [e1 e2 e1 e4] has rank 3: one eigenvalue of its Gram matrix is 0
    "rank-deficient-ends": lambda: three_subspaces(np.eye(4)[[0, 1]], np.eye(4)[2], np.eye(4)[[0, 3]]),
    "rank-deficient-ends-rotated": lambda: three_subspaces(*(np.eye(4)[rows] @ ROTATION4.T
                                                             for rows in ([0, 1], [2], [0, 3]))),
    # M_1 = M, so R_1 = {0} and T = P_M
    "first-is-the-meet": lambda: three_subspaces(ROTATION[:, 0], ROTATION[:, :2].T,
                                                 [ROTATION[:, 0], ROTATION[:, 1] + ROTATION[:, 2]]),
    # M_1 = M_3 = M: [R_1 R_N] is empty
    "ends-are-the-meet": lambda: three_subspaces(ROTATION[:, 0], ROTATION[:, :2].T, ROTATION[:, 0]),
    # M_1 = R^3: R_1 spans the whole complement and the Gram matrix has two zero eigenvalues
    "first-is-the-space": lambda: three_subspaces(np.eye(3), [1.0, 2.0, 2.0], [[1.0, 0.0, 1.0], [0.0, 1.0, -1.0]]),
    # [R_1 R_N] spans 6 of the 40 dimensions of M^perp
    "span-smaller-than-complement": lambda: random_system(40, (3, 3, 3), seed=1),
}


@pytest.mark.parametrize("name", sorted(MODULUS_SYSTEMS_N3))
def test_min_modulus_for_three_subspaces_matches_dense(name):
    system = MODULUS_SYSTEMS_N3[name]()
    assert system.n_subspaces == 3
    assert abs(reduced_min_modulus(system) - dense_min_modulus(system)) <= TOL


@pytest.mark.parametrize("build", [pytest.param(build, id=name) for name, build in every_system()])
def test_table_and_modulus_on_every_corpus(build):
    # the table entry is the principal cosine of the input bases after the dim M
    # ones, since P_i P_j = P_M + P_i~ P_j~; gamma never exceeds 1
    system = build()
    table, n = pairwise_dixmier_reduced(system), system.n_subspaces
    for i in range(n):
        for j in range(i + 1, n):
            oracle = principal_cosine(system.subspaces[i], system.subspaces[j], system.intersection.dim)
            assert abs(table[i, j] - oracle) <= 2e-15
    if system.intersection.dim < system.ambient_dim:
        assert reduced_min_modulus(system) <= 1.0


BENCH_SYSTEMS = [
    pytest.param(lambda: random_system(192, (64, 64, 64), seed=0), id="dense0"),
    pytest.param(lambda: random_system(192, (64, 64, 64), seed=3), id="dense3"),
    pytest.param(lambda: random_system(400, (5, 5, 5), seed=2), id="thin2"),
    pytest.param(lambda: tilted_pairs(60), id="tilted60"),
]


@pytest.mark.parametrize("build", [pytest.param(build, id=name) for name, build in every_system()] + BENCH_SYSTEMS)
def test_kappa_and_c_match_the_eigvalsh_of_the_gram(build):
    # kappa comes from the eigh shared with the inclination, or a pair's cosine;
    # the top eigenvalue alone, by another LAPACK driver, agrees to round-off
    system = build()
    n, kappa = system.n_subspaces, gram_kappa(system)
    assert abs(configuration_constant(system) - kappa) <= 1e-14
    assert abs(friedrichs_number(system) - (n * kappa - 1.0) / (n - 1.0)) <= 1e-14


BLIND_SYSTEMS = {
    "triple9-0": lambda: random_system(9, (3, 3, 3), seed=0),
    "core8-0": lambda: common_core(8, (3, 4, 3), 1, seed=0),
    "quad12-3": lambda: random_system(12, (3, 2, 4, 3), seed=3),
    "example3": lambda: example3(12),
}


def floats(value):
    """Every number of a report, bools included, in field order as one float array."""
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, (list, tuple)):
        return np.concatenate([np.zeros(0), *(floats(part) for part in value)])
    if value is None or isinstance(value, str):
        return np.zeros(0)
    return np.asarray(value, dtype=float).ravel()


@pytest.mark.parametrize("name", sorted(BLIND_SYSTEMS))
def test_no_analysis_reads_a_basis_once_the_gram_exists(name):
    # the reports read R^T R and the prefix cosines stored at construction, never a basis
    intact, blind = BLIND_SYSTEMS[name](), BLIND_SYSTEMS[name]()
    angles._reduced_gram(blind)
    for sub in (*blind.subspaces, *blind.meets, *blind.reduced):
        nan = np.full(sub.basis.shape, np.nan)
        nan.setflags(write=False)
        object.__setattr__(sub, "basis", nan)
    analyses = {
        "table": pairwise_dixmier_reduced,
        "chain": lambda s: np.concatenate([part.ravel() for part in dynamics._cyclic_chain(s)]),
        "word": lambda s: random_product_norm(s, [3, 1, 2, 1, 3]),
        "trace": lambda s: operator_error_norms(s, 50).errors,
        "gamma": reduced_min_modulus,
        "angles": lambda s: floats(angle_report(s)),
        "bounds": lambda s: floats(bound_report(s, n_max=100)),
        "verdict": lambda s: floats(dichotomy_report(s)),
    }
    for label, analysis in analyses.items():
        want, got = np.asarray(analysis(intact)), np.asarray(analysis(blind))
        assert not np.isnan(got).any(), label
        assert want.tobytes() == got.tobytes(), label


PAIRS = {
    **MODULUS_SYSTEMS,
    "tilted60": lambda: tilted_pairs(60),
    **{f"lines({theta})": (lambda theta=theta: two_lines(theta)) for theta in (3e-4, 0.05, 1.0, np.pi / 2)},
    **{f"pair8-{dims}-{s}": (lambda dims=dims, s=s: random_system(8, dims, seed=s))
       for dims in ((3, 4), (2, 5), (4, 4)) for s in range(3)},
    **{f"core8-34-{s}": (lambda s=s: common_core(8, (3, 4), 1, seed=s)) for s in range(3)},
}


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_pair_min_modulus_closed_form_matches_the_svd_route(name):
    system = PAIRS[name]()
    assert system.n_subspaces == 2
    assert abs(reduced_min_modulus(system) - pair_svd_min_modulus(system)) <= 1e-13


def test_span_is_an_orthonormal_basis_of_the_reduced_subspaces(system):
    q = reduced_span(system).basis
    stacked = np.hstack([r.basis for r in system.reduced])
    assert q.shape[1] == np.linalg.matrix_rank(stacked)
    assert np.linalg.norm(q.T @ q - np.eye(q.shape[1])) <= DEFAULT_TOL.check_tol
    assert np.linalg.norm(system.intersection.basis.T @ q) <= DEFAULT_TOL.check_tol
    assert np.linalg.norm(stacked - q @ (q.T @ stacked)) <= DEFAULT_TOL.check_tol


@pytest.mark.parametrize("build", [lambda: common_core(8, (3, 4, 3), 1, seed=0),
                                   lambda: random_system(60, (3, 3, 3), seed=0)], ids=["core8", "thin60"])
def test_modulus_and_inclination_form_no_dense_matrix(build, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a d x d route was taken")

    for module in (numerics, subspace, angles, dynamics, diagnostics):
        for name in ("orthogonal_complement", "projector", "principal_eigenspace"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    system = build()
    assert 0.0 < reduced_min_modulus(system) <= 1.0
    assert inclination(system).certified
    angle_report(system)
    bound_report(system, n_max=20)
    dichotomy_report(system)


def assert_same_subspace(got, want):
    assert got.dim == want.dim
    assert operator_norm(projector(got) - projector(want)) <= TOL


def test_intersection_matches_dense(system):
    assert_same_subspace(intersection_of(system.subspaces), dense_intersection(system.subspaces))


@pytest.mark.parametrize("subspaces", [
    (Subspace(3, np.zeros((3, 0))), Subspace(3, np.zeros((3, 0)))),
    (full_space(3), full_space(3)),
    (Subspace(3, np.zeros((3, 0))), full_space(3)),
    (line([1.0, 2.0, 2.0], 3),),
    (line([1.0, 2.0, 2.0], 3), full_space(3)),
], ids=["zero-zero", "full-full", "zero-full", "line-in-R3", "line-and-R3"])
def test_intersection_edge_cases_match_dense(subspaces):
    assert_same_subspace(intersection_of(subspaces), dense_intersection(subspaces))


# rows of the fixed rotation: components in general position
E1, E2, E3 = ROTATION.T

PREFIX_EDGES = {
    "zero-component": lambda: three_subspaces(np.vstack([E1, E2]), np.zeros((0, 3)), E1 + E3),
    "prefix-becomes-zero": lambda: three_subspaces(E1, E1 + 2.0 * E2, np.vstack([E1 + E3, E2])),
    "whole-space-component": lambda: three_subspaces(np.vstack([E1, E2]), np.eye(3), E1 + E2 + E3),
    "prefix-inside-component": lambda: three_subspaces(E1 + E2, np.vstack([E1, E2]), np.vstack([E1 + E3, E2])),
}


@pytest.mark.parametrize("name", sorted(SYSTEMS) + sorted(PREFIX_EDGES))
def test_prefix_angles_match_dense(name):
    system = {**SYSTEMS, **PREFIX_EDGES}[name]()
    np.testing.assert_allclose(prefix_friedrichs(system), dense_prefix_friedrichs(system), rtol=0.0, atol=TOL)


@pytest.mark.parametrize("t", 10.0 ** -np.arange(3, 16))
def test_prefix_cosine_keeps_its_digits_at_large_angles(t):
    # the cosine is read as ||C v||, not as sqrt(1 - s^2), which is 0.0 from t = 1e-9 on
    tilted = np.array([t, np.sqrt(1.0 - t * t)])
    pair = SubspaceSystem((line([1.0, 0.0], 2), Subspace(2, tilted[:, None])))
    # the first meet is span(e1); the third component is the same line, lifted to R^3
    triple = SubspaceSystem((Subspace(3, np.eye(3)[:, :2]), Subspace(3, np.eye(3)[:, [0, 2]]),
                             Subspace(3, np.append(tilted, 0.0)[:, None])))
    assert triple.meets[1].dim == 1
    assert prefix_friedrichs(pair) == pytest.approx((t,), rel=1e-12, abs=0.0)
    assert prefix_friedrichs(triple) == pytest.approx((0.0, t), rel=1e-12, abs=0.0)


def test_prefix_angles_build_each_prefix_once(monkeypatch):
    system, pair = common_core(10, (4, 4, 4, 4), 1, seed=0), two_lines(0.7)
    calls, prefix_meets = [], subspace._prefix_meets

    def spy(subspaces, tol):
        calls.append(len(subspaces))
        return prefix_meets(subspaces, tol)

    monkeypatch.setattr(subspace, "_prefix_meets", spy)
    prefix_friedrichs(system)
    prefix_friedrichs(pair)
    # every prefix meet is stored at construction, so none is taken again
    assert calls == []
