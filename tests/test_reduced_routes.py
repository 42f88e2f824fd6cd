"""The Gram-block routes against their dense d x d counterparts.

Operator-power traces, covering-product norms, the configuration constant
and the reduced pairwise table are computed from the small blocks R_i^T R_j
of the reduced bases; each is compared here with the route that forms the
d x d projectors.
"""

import numpy as np
import pytest

from altproj import dynamics
from altproj.angles import configuration_constant, pairwise_dixmier_reduced
from altproj.corpus import common_core, example3, random_system, tilted_pairs, two_lines
from altproj.diagnostics import bound_report
from altproj.dynamics import operator_error_norms, random_product_norm
from altproj.numerics import operator_norm
from altproj.subspace import projector
from oracles import dense_error_norms

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
    dense = operator_norm(system.mean_projector - system.intersection_projector)
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
            product = system.projectors[i - 1] @ product
        dense = operator_norm(product - system.intersection_projector)
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
