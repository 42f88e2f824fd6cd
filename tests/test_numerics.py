import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from altproj.cli import MAX_DIM, load_system
from altproj.corpus import common_core, example3, tilted_pairs, two_lines
from altproj.dynamics import IndexSchedule, SlowSequence, iterate_vector, operator_error_norms
from altproj.numerics import NumericalFailure, TolerancePolicy, _checked_range, as_matrix, operator_norm, orthonormalize
from altproj.subspace import Subspace
from oracles import gram_schmidt, min_singular_2x2, principal_eigenspace, projector, restricted_min_singular

finite_entries = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def small_matrices(max_dim=64):
    shapes = st.tuples(st.integers(1, max_dim), st.integers(1, max_dim))
    return shapes.flatmap(lambda s: arrays(np.float64, s, elements=finite_entries))


ROUND_TRIP = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 2)))[0]


class TestTolerancePolicy:
    def test_defaults(self):
        tol = TolerancePolicy()
        assert tol.check_tol == 1e-8

    @pytest.mark.parametrize("kwargs", [
        {"check_tol": 0.0},
        {"check_tol": 1.5},
        {"check_tol": -1e-3},
    ])
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            TolerancePolicy(**kwargs)


class TestOrthonormalize:
    def test_already_orthonormal_identity(self):
        b = orthonormalize([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(b, np.eye(2))

    def test_rank_one_span(self):
        b = orthonormalize([[1.0, 0.0], [2.0, 0.0]])
        assert b.shape == (2, 1)
        np.testing.assert_allclose(np.abs(b[:, 0]), [1.0, 0.0], atol=1e-12)

    def test_plane_matches_gram_schmidt(self):
        vectors = [np.array([1.0, 1.0, 0.0]), np.array([1.0, -1.0, 0.0])]
        b = orthonormalize(vectors)
        oracle = gram_schmidt(vectors)
        assert b.shape == (3, 2)
        np.testing.assert_allclose(b.T @ b, np.eye(2), atol=1e-12)
        # same span as the hand-rolled basis
        np.testing.assert_allclose(b @ b.T, oracle @ oracle.T, atol=1e-12)

    def test_empty_inputs(self):
        assert orthonormalize([], ambient_dim=5).shape == (5, 0)
        assert orthonormalize([[0.0, 0.0, 0.0]]).shape == (3, 0)
        with pytest.raises(ValueError):
            orthonormalize([])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            orthonormalize([[1.0, 0.0], [1.0, 0.0, 0.0]])

    def test_single_vector_spans_its_line(self):
        b = orthonormalize(np.array([3.0, 4.0]))
        assert b.shape == (2, 1)
        np.testing.assert_allclose(np.abs(b[:, 0]), [0.6, 0.8], atol=1e-12)

    def test_empty_array_takes_the_given_ambient_dim(self):
        assert orthonormalize(np.zeros((0, 0)), ambient_dim=4).shape == (4, 0)

    @pytest.mark.parametrize("d", [2.9, 2.0, True, 0, -1])
    @pytest.mark.parametrize("vectors", [[], np.zeros((0, 0))], ids=["empty-list", "empty-array"])
    def test_ambient_dim_is_an_integer_of_at_least_one(self, vectors, d):
        # an empty span used to take int(2.9) = 2 rows
        with pytest.raises(ValueError, match="ambient_dim must be >= 1 and an integer"):
            orthonormalize(vectors, ambient_dim=d)

    def test_a_numpy_integer_ambient_dim_is_accepted(self):
        assert orthonormalize([], ambient_dim=np.int64(2)).shape == (2, 0)
        assert orthonormalize(np.eye(3)[:2], ambient_dim=np.int32(3)).shape == (3, 2)

    def test_three_dimensional_array_rejected(self):
        with pytest.raises(ValueError, match="sequence of vectors or a 2-D array"):
            orthonormalize(np.ones((2, 2, 2)))

    def test_zero_length_vectors_rejected(self):
        with pytest.raises(ValueError, match="length >= 1"):
            orthonormalize(np.zeros((2, 0)))

    def test_orthonormal_input_round_trips_exactly(self):
        basis = orthonormalize(np.random.default_rng(3).standard_normal((2, 7)))
        again = orthonormalize(basis.T)
        assert np.array_equal(basis, again)

    # each spanning-set form, with and without an ambient_dim: the shape it spans, the basis it
    # returns unchanged, or the one error it raises; a 0 x 0 array, like [], has no length to read
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("make, ambient_dim, outcome", [
        (lambda: [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]], None, (3, 2)),
        (lambda: ((1.0, 1.0, 0.0), (0.0, 1.0, 1.0)), 3, (3, 2)),
        (lambda: (row for row in [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]), None, (3, 2)),
        (lambda: np.array([3.0, 4.0]), 2, (2, 1)),
        (lambda: [3.0, 4.0], None, (2, 1)),
        (lambda: np.zeros(0), None, "vectors must have length >= 1"),
        (lambda: np.array(5.0), None, "expected a sequence of vectors or a 2-D array"),
        (lambda: np.ones((2, 2, 2)), 2, "expected a sequence of vectors or a 2-D array"),
        (lambda: [], None, "an empty spanning set needs an explicit ambient_dim"),
        (lambda: [], 3, (3, 0)),
        (lambda: np.zeros((0, 0)), None, "an empty spanning set needs an explicit ambient_dim"),
        (lambda: np.zeros((0, 0)), 3, (3, 0)),
        (lambda: np.zeros((0, 3)), None, (3, 0)),
        (lambda: np.zeros((0, 3)), 2, "vectors have length 3, but ambient_dim is 2"),
        (lambda: np.zeros((2, 0)), None, "vectors must have length >= 1"),
        (lambda: [[]], 2, "vectors have length 0, but ambient_dim is 2"),
        (lambda: [[1.0, 0.0], [1.0, 0.0, 0.0]], None, "all vectors must share a common length"),
        (lambda: [[np.nan, 0.0, 0.0]], 2, "matrix entries must be finite"),
        (lambda: np.array([[np.inf, 0.0, 0.0]]), None, "matrix entries must be finite"),
        (lambda: [[1e308, 1e308, 0.0]], None, (3, 1)),
        (lambda: 1e200 * np.eye(2), 2, (2, 2)),
        (lambda: [[1, 0, 0], [0, 0, 2]], 3, (3, 2)),
        (lambda: ROUND_TRIP.T, 4, ROUND_TRIP),
    ], ids=["list", "tuple", "generator", "1-D", "1-D-list", "1-D-empty", "0-D", "3-D", "empty-list",
            "empty-list-ambient", "0x0", "0x0-ambient", "0xd", "0xd-contradicted", "nx0", "empty-row", "ragged",
            "nan", "inf", "near-1e308", "huge-orthogonal", "ints", "orthonormal-round-trip"])
    def test_each_spanning_set_form_has_one_outcome(self, make, ambient_dim, outcome):
        if isinstance(outcome, str):
            with pytest.raises(ValueError, match=f"^{re.escape(outcome)}$"):
                orthonormalize(make(), ambient_dim=ambient_dim)
            return
        basis = orthonormalize(make(), ambient_dim=ambient_dim)
        if isinstance(outcome, np.ndarray):
            assert np.array_equal(basis, outcome)
        else:
            assert basis.shape == outcome and basis.dtype == np.float64
            assert np.linalg.norm(basis.T @ basis - np.eye(basis.shape[1])) <= 1e-12

    @settings(deadline=None, max_examples=60)
    @given(small_matrices())
    def test_output_orthonormal(self, arr):
        b = orthonormalize(arr)
        k = b.shape[1]
        assert np.linalg.norm(b.T @ b - np.eye(k)) <= 1e-10
        # input vectors lie in the span
        residual = arr.T - b @ (b.T @ arr.T)
        assert np.linalg.norm(residual) <= 1e-8 * max(1.0, np.linalg.norm(arr))


def test_a_range_check_clamps_within_tolerance_and_raises_beyond_it():
    assert _checked_range(1.0 + 5e-11, 0.0, 1.0, 1e-10, "cosine") == 1.0
    assert _checked_range(-5e-11, 0.0, 1.0, 1e-10, "cosine") == 0.0
    assert _checked_range(0.25, 0.0, 1.0, 1e-10, "cosine") == 0.25
    for value in (1.0 + 2e-10, -2e-10):
        with pytest.raises(NumericalFailure, match=re.escape(f"cosine = {value!r} escapes [0.0, 1.0]")):
            _checked_range(value, 0.0, 1.0, 1e-10, "cosine")


def test_as_matrix_rejects_a_vector():
    with pytest.raises(ValueError, match="2-D matrix, got ndim=1"):
        as_matrix(np.ones(3))


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_zero(self):
        assert operator_norm(np.zeros((4, 2))) == 0.0

    def test_mean_projector_of_coordinate_example(self):
        system = example3(12)
        mean = sum(projector(s) for s in system.subspaces) / system.n_subspaces
        assert operator_norm(mean) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            operator_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @settings(deadline=None, max_examples=60)
    @given(small_matrices())
    def test_transpose_invariant(self, arr):
        assert abs(operator_norm(arr) - operator_norm(arr.T)) <= 1e-10

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10**6))
    def test_submultiplicative(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, size=(rng.integers(1, 33), rng.integers(1, 33)))
        b = rng.uniform(-1, 1, size=(a.shape[1], rng.integers(1, 33)))
        assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) + 1e-10


class TestRestrictedMinSingular:
    def test_identity_any_basis(self):
        basis = orthonormalize([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        assert restricted_min_singular(np.eye(3), basis) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_on_first_axis(self):
        a = np.diag([2.0, 0.0])
        basis = np.array([[1.0], [0.0]])
        assert restricted_min_singular(a, basis) == pytest.approx(2.0, abs=1e-12)

    def test_empty_basis_sentinel(self):
        assert restricted_min_singular(np.eye(2), np.zeros((2, 0))) == np.inf

    def test_two_lines_residual_matches_closed_form(self):
        # A = I - P2 P1 for lines at pi/3; closed-form 2x2 singular value
        theta = np.pi / 3
        u = np.array([np.cos(theta), np.sin(theta)])
        p1 = np.array([[1.0, 0.0], [0.0, 0.0]])
        p2 = np.outer(u, u)
        a = np.eye(2) - p2 @ p1
        assert restricted_min_singular(a, np.eye(2)) == pytest.approx(min_singular_2x2(a), abs=1e-10)

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(ValueError):
            restricted_min_singular(np.eye(2), np.array([[1.0], [1.0]]))

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10**6))
    def test_full_basis_is_global_minimum(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 20))
        a = rng.uniform(-1, 1, size=(d, d))
        smin = np.linalg.svd(a, compute_uv=False)[-1]
        assert abs(restricted_min_singular(a, np.eye(d)) - smin) <= 1e-10


class TestPrincipalEigenspace:
    def test_identity_full_space(self):
        basis = principal_eigenspace(np.eye(3), 1.0)
        assert basis.shape == (3, 3)

    def test_diagonal_selects_target(self):
        basis = principal_eigenspace(np.diag([1.0, 0.5, 0.0]), 1.0)
        assert basis.shape == (3, 1)
        np.testing.assert_allclose(np.abs(basis[:, 0]), [1.0, 0.0, 0.0], atol=1e-12)

    def test_mean_projector_has_no_unit_eigenvalue(self):
        system = example3(12)
        mean = sum(projector(s) for s in system.subspaces) / system.n_subspaces
        basis = principal_eigenspace(mean, 1.0)
        assert basis.shape == (12, 0)

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            principal_eigenspace(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)

    def test_eig_tol_widens_selection(self):
        basis = principal_eigenspace(np.diag([1.0, 0.9, 0.0]), 1.0, eig_tol=0.2)
        assert basis.shape == (3, 2)


LINES = {"subspaces": [{"vectors": [[1, 0, 0]]}, {"vectors": [[0, 1, 0]]}]}
# entry point -> (argument name, least, most, the call as a function of the value, a valid value)
COUNTS = {
    "Subspace": ("ambient_dim", 1, None, lambda v: Subspace(v, np.zeros((3, 0))), 3),
    "orthonormalize": ("ambient_dim", 1, None, lambda v: orthonormalize([], ambient_dim=v), 3),
    "schedule-n": ("n_subspaces", 1, None, lambda v: IndexSchedule.cyclic(v), 3),
    "schedule-index": ("indices", 1, 3, lambda v: IndexSchedule.explicit([1, v], 3), 2),
    "schedule-seed": ("seed", 0, None, lambda v: IndexSchedule.random(3, v), 0),
    "schedule-window": ("coverage_window", 3, None, lambda v: IndexSchedule.random(3, 0, v), 5),
    "schedule-first": ("count", 0, None, lambda v: IndexSchedule.cyclic(3).first(v), 4),
    "iterate_vector": ("n_max", 1, None, lambda v: iterate_vector(two_lines(1.0), [1.0, 1.0],
                                                                  IndexSchedule.cyclic(2), v), 3),
    "operator_error_norms": ("n_max", 1, None, lambda v: operator_error_norms(two_lines(1.0), v), 3),
    "SlowSequence.values": ("horizon", 1, None, lambda v: SlowSequence.log().values(v), 3),
    "example3": ("d", 4, None, example3, 6),
    "tilted_pairs": ("k", 1, None, tilted_pairs, 2),
    "common_core-d": ("d", 1, None, lambda v: common_core(v, (1, 1), 0), 3),
    "common_core-seed": ("seed", 0, None, lambda v: common_core(5, (2, 2), 0, v), 1),
    "common_core-dims": ("dims", 0, 5, lambda v: common_core(5, (2, v), 0), 3),
    "common_core-core": ("core_dim", 0, 2, lambda v: common_core(5, (2, 3), v), 1),
    # JSON has no numpy integers: json.dumps writes one through int()
    "load_system": ("dim", 1, MAX_DIM, lambda v: load_system(json.dumps({"dim": v, **LINES}, default=int)), 3),
}


@pytest.mark.parametrize("entry", COUNTS)
def test_every_count_index_dimension_and_seed_takes_one_rule(entry):
    name, least, most, call, valid = COUNTS[entry]
    bound = f">= {least}" if most is None else f"in {least}..{most}"
    outside = [least - 1] + ([] if most is None else [most + 1])
    for value in [2.5, True, "3", *outside]:
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value) == f"{name} must be {bound} and an integer, got {value!r}", value
    call(valid)
    call(np.int64(valid))
    call(np.uint8(valid))
