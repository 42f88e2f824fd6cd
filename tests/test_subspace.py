import numpy as np
import pytest

import cases
from altproj.angles import friedrichs_number
from altproj.corpus import common_core, example3, random_system, two_lines
from altproj.diagnostics import dichotomy_report
from altproj.numerics import NumericalFailure, TolerancePolicy
from altproj.subspace import Subspace, SubspaceSystem, intersection_of
from oracles import contains, full_space, orthogonal_complement, projector


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

    @pytest.mark.parametrize("vectors", [[[1.0, 0.0, 0.0]], np.zeros((0, 3)), np.eye(3)],
                             ids=["row-list", "empty-rows", "array"])
    def test_from_vectors_rejects_a_conflicting_ambient_dim(self, vectors):
        with pytest.raises(ValueError, match="vectors have length 3, but ambient_dim is 5"):
            Subspace.from_vectors(vectors, ambient_dim=5)
        assert Subspace.from_vectors(vectors, ambient_dim=3).ambient_dim == 3

    def test_raw_constructor_requires_orthonormal(self):
        with pytest.raises(ValueError):
            Subspace(2, np.array([[1.0], [1.0]]))

    def test_raw_constructor_checks_its_shape(self):
        with pytest.raises(ValueError, match="ambient_dim must be >= 1"):
            Subspace(0, np.zeros((0, 0)))
        with pytest.raises(ValueError, match="basis has 3 rows, expected 2"):
            Subspace(2, np.eye(3)[:, :1])
        with pytest.raises(ValueError, match="basis columns must be orthonormal"):
            Subspace(2, np.ones((2, 3)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("d, basis", [(2, [[1e200], [0.0]]), (3, np.full((3, 2), 1e160))],
                             ids=["huge-column", "huge-block"])
    def test_raw_constructor_refuses_a_huge_basis_without_overflow(self, d, basis):
        # the Gram of such a basis overflows, so it must be refused before the Gram is formed
        with pytest.raises(ValueError, match="basis columns must be orthonormal"):
            Subspace(d, basis)

    @pytest.mark.parametrize("d", [2.7, 2.0, True, "2"])
    def test_raw_constructor_takes_an_integer_ambient_dim(self, d):
        # int() used to turn 2.7 into 2 and True into 1 without a word
        with pytest.raises(ValueError, match="ambient_dim must be >= 1 and an integer"):
            Subspace(d, np.eye(2)[:, :1])
        with pytest.raises(ValueError, match="ambient_dim must be >= 1 and an integer"):
            Subspace.from_vectors([[1.0, 0.0]], ambient_dim=d)

    def test_a_numpy_integer_ambient_dim_is_stored_as_an_int(self):
        s = Subspace(np.int64(2), np.eye(2)[:, :1])
        assert s.ambient_dim == 2 and type(s.ambient_dim) is int
        assert Subspace.from_vectors([[1.0, 0.0]], ambient_dim=np.int32(2)).ambient_dim == 2

    def test_zero_and_full(self):
        assert Subspace(4, np.zeros((4, 0))).dim == 0
        assert full_space(4).dim == 4

    def test_basis_is_read_only(self):
        s = full_space(2)
        with pytest.raises(ValueError):
            s.basis[0, 0] = 5.0

    def test_contains(self):
        s = line([1.0, 1.0])
        assert contains(s, [2.0, 2.0])
        assert not contains(s, [1.0, 0.0])


class TestProjector:
    def test_axis_in_plane(self):
        p = projector(line([1.0, 0.0]))
        np.testing.assert_allclose(p, [[1.0, 0.0], [0.0, 0.0]], atol=1e-14)

    def test_full_space_is_identity(self):
        np.testing.assert_allclose(projector(full_space(3)), np.eye(3), atol=1e-14)

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

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError, match="at least one subspace"):
            intersection_of(())

    @pytest.mark.parametrize("theta", [1e-9, 1e-8])
    def test_lines_at_the_resolution_floor_coincide(self, theta):
        # the principal sine sin(theta) is within check_tol = 1e-8, so the
        # second line passes the membership rule of the first
        system = two_lines(theta)
        assert system.intersection.dim == 1
        assert system.degenerate

    def test_near_coincident_lines_fail_loudly(self):
        # sin(1.03e-8) clears check_tol, so M = {0}; but below 2^-26.5 = 1.0537e-8
        # the table cosine cos(theta) rounds to 1, so c = 1 and the verdict's web breaks
        system = two_lines(1.03e-8)
        assert system.intersection.dim == 0
        with pytest.raises(NumericalFailure):
            dichotomy_report(system)

    def test_lines_just_above_the_resolution_floor_meet_trivially(self):
        # from 1.0537e-8 on, cos(theta) < 1 and a pair's c is that cosine itself;
        # 1 + cos(theta) still rounds to 2 at 1.2e-8, so c = 2 kappa - 1 would read 1
        for theta in (1.2e-8, 3e-8):
            system = two_lines(theta)
            assert system.intersection.dim == 0
            assert friedrichs_number(system) < 1.0
            assert dichotomy_report(system).verdict == "QUC"


class TestReduce:
    def test_trivial_intersection_keeps_system(self):
        system = random_system(6, (2, 3), seed=1)
        assert system.intersection.dim == 0
        red = SubspaceSystem(system.reduced, tol=system.tol)
        assert red.intersection.dim == 0
        for a, b in zip(red.subspaces, system.subspaces):
            np.testing.assert_allclose(a.basis @ a.basis.T, b.basis @ b.basis.T, atol=1e-12)

    def test_identical_lines_reduce_to_zero(self):
        sys2 = SubspaceSystem((line([1.0, 0.0]), line([1.0, 0.0])))
        red = SubspaceSystem(sys2.reduced, tol=sys2.tol)
        assert red.intersection.dim == 0
        assert red.dims == (0, 0)

    def test_plane_and_axis(self):
        sys2 = SubspaceSystem((full_space(2, "plane"), line([1.0, 0.0], name="axis")))
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
        assert orthogonal_complement(full_space(3)).dim == 0

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
            SubspaceSystem((full_space(2),))

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SubspaceSystem((full_space(2), full_space(3)))

    def test_degenerate_flag(self):
        sys2 = SubspaceSystem((line([1.0, 0.0]), line([1.0, 0.0])))
        assert sys2.degenerate
        assert not two_lines(0.5).degenerate


def stored_meet_cases():
    """Every corpus of `cases`, and two lines around the resolution floor, as builders."""
    return cases.every_system() + [(f"lines({theta:g})", lambda theta=theta: two_lines(theta))
                                   for theta in (1e-9, 1e-8, 1.2e-8, 3e-8, 1e-6)]


@pytest.mark.parametrize("build", [pytest.param(build, id=name) for name, build in stored_meet_cases()])
def test_every_stored_meet_lies_in_its_prefix(build):
    # the membership the construction promises: M_1 ∩ ... ∩ M_j passes
    # the membership test for each of M_1..M_j under the system's policy
    system = build()
    for j in range(system.n_subspaces):
        meet = intersection_of(system.subspaces[:j + 1], system.tol)
        for v in meet.basis.T:
            assert all(contains(s, v, system.tol) for s in system.subspaces[:j + 1])
    assert meet.basis.tobytes() == system.intersection.basis.tobytes()
    assert meet.basis.shape == system.intersection.basis.shape


@pytest.mark.parametrize("build", [lambda: random_system(9, (3, 3, 3), seed=0), lambda: two_lines(0.5),
                                   lambda: common_core(10, (4, 5, 4), 2, seed=1),
                                   lambda: common_core(8, (3, 4, 3), 1, seed=0)],
                         ids=["triple9", "lines", "core10", "core8"])
def test_the_system_holds_its_gram_matrix_and_blocks(build):
    system = build()
    stacked = np.hstack([r.basis for r in system.reduced])
    assert system.gram.tobytes() == (stacked.T @ stacked).tobytes()
    assert system.gram.shape == (stacked.shape[1],) * 2
    with pytest.raises(ValueError):
        system.gram[0, 0] = 0.0
    for i, ri in enumerate(system.reduced):
        for j, rj in enumerate(system.reduced):
            block = system.gram_blocks[i][j]
            assert block.shape == (ri.dim, rj.dim)
            assert np.shares_memory(block, system.gram) and not block.flags.writeable
            np.testing.assert_allclose(block, ri.basis.T @ rj.basis, rtol=0.0, atol=1e-14)
    # M_j ∩ M^perp = M_j when M = {0}: the components are their own reduced subspaces
    core = system.intersection.dim
    for s, r in zip(system.subspaces, system.reduced):
        assert (r is s) == (core == 0)
        assert r.dim == s.dim - core
