import numpy as np
import pytest

from altproj.corpus import common_core, example3, random_system, two_lines
from altproj.numerics import DEFAULT_TOL, NumericalFailure, TolerancePolicy
from altproj.subspace import (
    Subspace,
    SubspaceSystem,
    intersection_of,
    orthogonal_complement,
    projector,
    reduce_mod_intersection,
)


def line(direction, d=2, name=""):
    v = np.asarray(direction, dtype=float)
    return Subspace(d, (v / np.linalg.norm(v))[:, None], name)


class TestSubspace:
    def test_from_vectors_orthonormalizes(self):
        s = Subspace.from_vectors([[1.0, 1.0], [2.0, 2.0]])
        assert s.dim == 1

    def test_from_vectors_honours_a_loose_policy(self):
        # rows within the loose check_tol of orthonormal are still not a basis
        # that a Subspace accepts; they must be orthonormalized, not passed on
        s = Subspace.from_vectors([[1.0, 0.0, 0.0], [1e-6, 1.0, 0.0]],
                                  tol=TolerancePolicy(check_tol=1e-4))
        assert s.dim == 2
        assert np.linalg.norm(s.basis.T @ s.basis - np.eye(2)) <= 1e-12

    def test_raw_constructor_requires_orthonormal(self):
        with pytest.raises(ValueError):
            Subspace(2, np.array([[1.0], [1.0]]))

    def test_zero_and_full(self):
        assert Subspace.zero(4).dim == 0
        assert Subspace.full(4).dim == 4

    def test_basis_is_read_only(self):
        s = Subspace.full(2)
        with pytest.raises(ValueError):
            s.basis[0, 0] = 5.0

    def test_contains(self):
        s = line([1.0, 1.0])
        assert s.contains([2.0, 2.0])
        assert not s.contains([1.0, 0.0])


class TestProjector:
    def test_axis_in_plane(self):
        p = projector(line([1.0, 0.0]))
        np.testing.assert_allclose(p, [[1.0, 0.0], [0.0, 0.0]], atol=1e-14)

    def test_full_space_is_identity(self):
        np.testing.assert_allclose(projector(Subspace.full(3)), np.eye(3), atol=1e-14)

    def test_tilted_line_rank_one_outer_product(self):
        theta = np.pi / 3
        p = projector(line([np.cos(theta), np.sin(theta)]))
        c, s = np.cos(theta), np.sin(theta)
        np.testing.assert_allclose(p, [[c * c, c * s], [c * s, s * s]], atol=1e-14)
        np.testing.assert_allclose(p, [[0.25, 0.4330127018922193], [0.4330127018922193, 0.75]],
                                   atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetric_idempotent(self, seed):
        s = Subspace.from_vectors(np.random.default_rng(seed).standard_normal((3, 6)))
        p = projector(s)
        assert np.linalg.norm(p - p.T) <= 1e-12
        assert np.linalg.norm(p @ p - p) <= 1e-12
        assert np.linalg.matrix_rank(p) == s.dim


class TestIntersection:
    def test_identical_lines(self):
        sys2 = SubspaceSystem((line([1.0, 0.0]), line([1.0, 0.0])))
        m = sys2.intersection
        assert m.dim == 1
        np.testing.assert_allclose(np.abs(m.basis[:, 0]), [1.0, 0.0], atol=1e-12)

    def test_three_coordinate_axes_meet_trivially(self):
        eye = np.eye(3)
        sys3 = SubspaceSystem(tuple(Subspace(3, eye[:, [j]]) for j in range(3)))
        assert sys3.intersection.dim == 0

    def test_coordinate_example_trivial_intersection(self):
        assert example3(12).intersection.dim == 0

    def test_single_subspace_pass_through(self):
        s = line([1.0, 2.0, 0.0], d=3)
        assert intersection_of([s]) is s

    @pytest.mark.parametrize("theta", [1e-5, 1e-4])
    def test_near_coincident_lines_fail_loudly(self, theta):
        # below the policy's resolution the top eigenvalue is inside eig_tol
        # without true containment
        with pytest.raises(NumericalFailure):
            two_lines(theta)

    def test_lines_just_above_the_resolution_floor_meet_trivially(self):
        # 1 - cos(theta/2)^2 = theta^2/4 = 2.25e-8 clears eig_tol = 1e-8;
        # at theta = 2e-4 it equals eig_tol, the edge of the bucket
        assert two_lines(3e-4).intersection.dim == 0


class TestReduce:
    def test_trivial_intersection_keeps_system(self):
        system = random_system(6, (2, 3), seed=1)
        assert system.intersection.dim == 0
        red = reduce_mod_intersection(system)
        for a, b in zip(red.subspaces, system.subspaces):
            np.testing.assert_allclose(a.basis @ a.basis.T, b.basis @ b.basis.T, atol=1e-12)

    def test_identical_lines_reduce_to_zero(self):
        sys2 = SubspaceSystem((line([1.0, 0.0]), line([1.0, 0.0])))
        red = reduce_mod_intersection(sys2)
        assert red.dims == (0, 0)

    def test_plane_and_axis(self):
        sys2 = SubspaceSystem((Subspace.full(2, "plane"), line([1.0, 0.0], name="axis")))
        assert sys2.intersection.dim == 1
        red = sys2.reduced
        assert red[0].dim == 1 and red[1].dim == 0
        np.testing.assert_allclose(np.abs(red[0].basis[:, 0]), [0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_rank_identity(self, seed):
        system = common_core(8, (3, 4, 3), core_dim=2, seed=seed)
        m = system.intersection.dim
        for s, r in zip(system.subspaces, system.reduced):
            assert r.dim == s.dim - m

    @pytest.mark.parametrize("seed", range(4))
    def test_reduced_orthogonal_to_intersection(self, seed):
        system = common_core(6, (2, 3), core_dim=1, seed=seed)
        pm = projector(system.intersection)
        for r in system.reduced:
            if r.dim:
                assert np.linalg.norm(pm @ r.basis) <= 1e-10


class TestOrthogonalComplement:
    def test_axis_in_three_space(self):
        comp = orthogonal_complement(line([1.0, 0.0, 0.0], d=3))
        assert comp.dim == 2
        assert np.linalg.norm(comp.basis[0, :]) <= 1e-12

    def test_full_space(self):
        assert orthogonal_complement(Subspace.full(3)).dim == 0

    def test_diagonal_line(self):
        comp = orthogonal_complement(line([1.0, 1.0]))
        np.testing.assert_allclose(np.abs(comp.basis[:, 0]), [1.0 / np.sqrt(2)] * 2, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_projector_complement_identity(self, seed):
        s = Subspace.from_vectors(np.random.default_rng(seed).standard_normal((3, 7)))
        total = projector(s) + projector(orthogonal_complement(s))
        np.testing.assert_allclose(total, np.eye(7), atol=1e-10)


class TestSystemInvariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_intersection_projector_absorbed(self, seed):
        system = common_core(7, (3, 3, 4), core_dim=1, seed=seed)
        pm = projector(system.intersection)
        for p in map(projector, system.subspaces):
            assert np.linalg.norm(pm @ p - pm) <= 1e-10
            assert np.linalg.norm(p @ pm - pm) <= 1e-10

    def test_needs_two_subspaces(self):
        with pytest.raises(ValueError):
            SubspaceSystem((Subspace.full(2),))

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SubspaceSystem((Subspace.full(2), Subspace.full(3)))

    def test_degenerate_flag(self):
        sys2 = SubspaceSystem((line([1.0, 0.0]), line([1.0, 0.0])))
        assert sys2.degenerate
        assert not two_lines(0.5).degenerate
