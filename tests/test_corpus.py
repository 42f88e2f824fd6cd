import numpy as np
import pytest

from altproj.angles import dixmier_number, friedrichs_number
from altproj.corpus import common_core, example3, random_system, tilted_pairs, two_lines
from altproj.subspace import intersection_of
from oracles import projector


class TestExample3:
    @pytest.mark.parametrize("d", [4, 5, 7, 12, 16])
    def test_projector_sum_is_diagonal_with_three_doubles(self, d):
        system = example3(d)
        total = sum(projector(s) for s in system.subspaces)
        expected = np.eye(d)
        for i in (0, 1, 3):
            expected[i, i] = 2.0
        np.testing.assert_allclose(total, expected, atol=1e-12)

    def test_dimensions_at_twelve(self):
        assert example3(12).dims == (4, 5, 6)

    def test_pairwise_meets_are_single_axes(self):
        system = example3(12)
        meets = {
            (0, 1): 0,
            (1, 2): 1,
            (0, 2): 3,
        }
        for (i, j), axis in meets.items():
            meet = intersection_of([system.subspaces[i], system.subspaces[j]])
            assert meet.dim == 1
            target = np.zeros(12)
            target[axis] = 1.0
            assert min(np.linalg.norm(meet.basis[:, 0] - target),
                       np.linalg.norm(meet.basis[:, 0] + target)) <= 1e-9

    def test_truncation_invariant_angle(self):
        assert abs(friedrichs_number(example3(4)) - friedrichs_number(example3(12))) <= 1e-10

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            example3(3)


class TestTwoLines:
    def test_orthogonal(self):
        assert friedrichs_number(two_lines(np.pi / 2)) == pytest.approx(0.0, abs=1e-12)

    def test_sixty_degrees(self):
        assert friedrichs_number(two_lines(np.pi / 3)) == pytest.approx(0.5, abs=1e-12)

    def test_shallow_angle(self):
        assert friedrichs_number(two_lines(0.01)) == pytest.approx(np.cos(0.01), abs=1e-10)

    @pytest.mark.parametrize("theta", [0.0, -0.5, np.pi, np.nan])
    def test_invalid_angles_rejected(self, theta):
        with pytest.raises(ValueError, match=r"angles must lie in \(0, pi/2\]"):
            two_lines(theta)


class TestTiltedPairs:
    def test_single_block_matches_two_lines(self):
        for theta in (1e-8, 0.3, 1.0, np.pi / 3, np.pi / 2):
            lines, block = two_lines(theta), tilted_pairs(1, [theta])
            assert [s.name for s in lines.subspaces] == [s.name for s in block.subspaces] == ["S1", "S2"]
            assert all(np.array_equal(a.basis, b.basis) for a, b in zip(lines.subspaces, block.subspaces))

    def test_block_norm_is_max_of_blocks(self):
        assert friedrichs_number(tilted_pairs(3)) == pytest.approx(np.cos(1.0 / 3.0), abs=1e-10)

    def test_joint_angle_approaches_one(self):
        values = [friedrichs_number(tilted_pairs(k)) for k in (1, 5, 20, 60)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] >= 0.999

    def test_custom_angles(self):
        system = tilted_pairs(2, [np.pi / 2, np.pi / 4])
        assert friedrichs_number(system) == pytest.approx(np.cos(np.pi / 4), abs=1e-10)

    def test_bad_angles_rejected(self):
        for angles in ([0.5, 0.0], [0.5, np.nan], [2.0, 0.5]):
            with pytest.raises(ValueError, match=r"angles must lie in \(0, pi/2\]"):
                tilted_pairs(2, angles)

    def test_block_count_checked(self):
        with pytest.raises(ValueError, match="k must be >= 1 and an integer, got 0"):
            tilted_pairs(0)
        with pytest.raises(ValueError, match="expected 2 angles, got 3"):
            tilted_pairs(2, [0.5, 0.6, 0.7])


class TestRandomSystem:
    def test_deterministic_per_seed(self):
        a = random_system(8, (3, 3, 3), seed=7)
        b = random_system(8, (3, 3, 3), seed=7)
        for s, t in zip(a.subspaces, b.subspaces):
            assert np.array_equal(s.basis, t.basis)

    def test_full_dimension_saturates_dixmier(self):
        system = random_system(4, (4, 2), seed=0)
        c0, _ = dixmier_number(system)
        assert c0 >= 1.0 - 1e-10

    @pytest.mark.parametrize("seed", range(20))
    def test_generic_position_has_trivial_intersection(self, seed):
        assert random_system(8, (3, 3, 3), seed=seed).intersection.dim == 0


class TestCommonCore:
    def test_core_contained_in_intersection(self):
        system = common_core(8, (3, 4, 3), core_dim=2, seed=1)
        assert system.intersection.dim >= 2

    def test_core_forces_dixmier_one(self):
        for seed in range(5):
            c0, _ = dixmier_number(common_core(6, (2, 3), core_dim=1, seed=seed))
            assert c0 >= 1.0 - 1e-8

    def test_all_equal_is_degenerate(self):
        system = common_core(5, (2, 2, 2), core_dim=2, seed=0)
        assert system.degenerate

    def test_invalid_core_rejected(self):
        with pytest.raises(ValueError):
            common_core(5, (2, 3), core_dim=3, seed=0)

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError, match="at least two subspaces"):
            common_core(5, (2,), core_dim=1, seed=0)
        with pytest.raises(ValueError, match=r"dims must be in 0\.\.5 and an integer, got 6"):
            common_core(5, (2, 6), core_dim=1, seed=0)



class TestIntegerArguments:
    @pytest.mark.parametrize("build", [
        lambda: random_system(9.0, (3, 3, 3)),
        lambda: random_system(9, (2.5, 3)),
        lambda: random_system(9, (3, True)),
        lambda: random_system(9, (3, 3, 3), 1.5),
        lambda: random_system(9, (3, 3, 3), None),
        lambda: common_core(8, (3, 4, 3), 1.0),
        lambda: example3(12.5),
        lambda: example3(12.0),
        lambda: tilted_pairs(2.0),
        lambda: tilted_pairs(True),
    ], ids=["d", "dims-float", "dims-bool", "seed-float", "seed-none", "core", "example3", "example3-whole",
            "tilted", "tilted-bool"])
    def test_a_non_integer_count_dimension_or_seed_is_refused(self, build):
        # each used to be rounded silently ((2.5, 3) built dims (2, 3)) or to leak a numpy TypeError
        with pytest.raises(ValueError, match="integer"):
            build()

    def test_numpy_integers_are_accepted(self):
        dims = np.array([3, 4, 3])
        a = common_core(np.int64(8), tuple(dims), np.int32(1), np.int64(2))
        b = common_core(8, (3, 4, 3), 1, 2)
        assert a.dims == b.dims == (3, 4, 3)
        assert all(np.array_equal(s.basis, t.basis) for s, t in zip(a.subspaces, b.subspaces))
        assert example3(np.int64(12)).dims == (4, 5, 6)
        assert tilted_pairs(np.int64(3)).ambient_dim == 6
