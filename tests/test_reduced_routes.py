"""The Gram-block routes against their dense d x d counterparts.

Operator-power traces, covering-product norms, the configuration constant,
the reduced pairwise table, vector iterations and gamma(I - T) are computed
from the small blocks R_i^T R_j of the reduced bases and from their span Q,
and the intersection and the prefix angles from the stacked bases; each is
compared here with the route that forms the d x d projectors.
"""

import numpy as np
import pytest

from altproj import angles, diagnostics, dynamics, numerics, subspace
from altproj.angles import (
    angle_report,
    configuration_constant,
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
from altproj.subspace import Subspace, SubspaceSystem, intersection_of, projector
from oracles import (
    dense_error_norms,
    dense_intersection,
    dense_iterate,
    dense_min_modulus,
    dense_prefix_friedrichs,
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
    system = random_system(60, (3, 3, 3), seed=0)
    reduced_dim = sum(r.dim for r in system.reduced)
    shapes = []

    def recording_norm(a):
        shapes.append(np.shape(a))
        return operator_norm(a)

    monkeypatch.setattr(dynamics, "operator_norm", recording_norm)
    bound_report(system, n_max=100)
    assert len(shapes) >= 200
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
    assert system.span.dim < system.ambient_dim - system.intersection.dim
    assert abs(reduced_min_modulus(system) - dense_min_modulus(system)) <= TOL


def test_min_modulus_matches_dense(system):
    assert abs(reduced_min_modulus(system) - dense_min_modulus(system)) <= TOL


def test_span_is_an_orthonormal_basis_of_the_reduced_subspaces(system):
    q = system.span.basis
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
    (Subspace.zero(3), Subspace.zero(3)),
    (Subspace.full(3), Subspace.full(3)),
    (Subspace.zero(3), Subspace.full(3)),
    (line([1.0, 2.0, 2.0], 3),),
    (line([1.0, 2.0, 2.0], 3), Subspace.full(3)),
], ids=["zero-zero", "full-full", "zero-full", "line-in-R3", "line-and-R3"])
def test_intersection_edge_cases_match_dense(subspaces):
    assert_same_subspace(intersection_of(subspaces), dense_intersection(subspaces))


def test_prefix_angles_match_dense(system):
    np.testing.assert_allclose(prefix_friedrichs(system), dense_prefix_friedrichs(system), rtol=0.0, atol=TOL)


def test_prefix_angles_build_each_prefix_once(monkeypatch):
    system = common_core(10, (4, 4, 4, 4), 1, seed=0)
    calls = []

    def spy(subspaces, tol=DEFAULT_TOL):
        calls.append(len(subspaces))
        return intersection_of(subspaces, tol)

    for module in (subspace, angles):
        monkeypatch.setattr(module, "intersection_of", spy, raising=False)
    prefix_friedrichs(system)
    assert calls == [2] * (system.n_subspaces - 1)
