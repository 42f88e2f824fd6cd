import tracemalloc

import numpy as np
import pytest

from altproj import dynamics
from altproj.angles import friedrichs_number
from altproj.corpus import common_core, example3, random_system, tilted_pairs, two_lines
from altproj.diagnostics import bound_report
from altproj.dynamics import (
    IndexSchedule,
    SlowSequence,
    iterate_vector,
    operator_error_norms,
    random_product_norm,
    reduced_min_modulus,
    slow_vector_probe,
)
from altproj.numerics import operator_norm
from altproj.subspace import Subspace, SubspaceSystem
from cases import convergence_corpus, coordinate_axes
from oracles import block_stream, circle_min_modulus, cyclic_operator, full_space, projector, scaled_walk


def line(direction, d=2):
    v = np.asarray(direction, dtype=float)
    return Subspace(d, (v / np.linalg.norm(v))[:, None])


class TestIndexSchedule:
    def test_cyclic_is_exact(self):
        sched = IndexSchedule.cyclic(3)
        np.testing.assert_array_equal(sched.first(8), [1, 2, 3, 1, 2, 3, 1, 2])

    def test_explicit_validation(self):
        with pytest.raises(ValueError):
            IndexSchedule.explicit([], 3)
        with pytest.raises(ValueError):
            IndexSchedule.explicit([0, 1], 3)
        with pytest.raises(ValueError):
            IndexSchedule.explicit([1, 2], 3).first(5)

    def test_random_deterministic_prefix(self):
        a = IndexSchedule.random(4, seed=9)
        np.testing.assert_array_equal(a.first(10), a.first(20)[:10])

    @pytest.mark.parametrize("window", [3, 5])
    def test_coverage_window_property(self, window):
        sched = IndexSchedule.random(3, seed=5, coverage_window=window)
        idx = sched.first(200)
        for start in range(200 - window + 1):
            assert set(idx[start:start + window]) == {1, 2, 3}

    @pytest.mark.parametrize("window, stream", [
        (5, [2, 3, 1, 1, 3, 2, 3, 2, 1, 2, 1, 3]),  # fresh permutations: window >= 2N - 1
        (3, [2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1]),  # one permutation, tiled
    ])
    def test_covering_streams_are_pinned(self, window, stream):
        assert IndexSchedule.random(3, seed=5, coverage_window=window).first(12).tolist() == stream

    def test_window_shorter_than_alphabet_rejected(self):
        with pytest.raises(ValueError):
            IndexSchedule.random(3, seed=0, coverage_window=2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 12, 64])
    def test_streams_match_the_block_by_block_draw(self, n):
        # one permuted tile of the stream against one rng.permutation per block
        counts = (0, 1, n - 1, n, n + 1, 17, 1001)
        for count in counts:
            want = block_stream(IndexSchedule.cyclic(n), count)
            got = IndexSchedule.cyclic(n).first(count)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
        windows = dict.fromkeys(w for w in (None, n, 2 * n - 2, 2 * n - 1, 3 * n) if w is None or w >= n)
        for window in windows:
            for count in counts:
                for seed in range(5):
                    schedule = IndexSchedule.random(n, seed=seed, coverage_window=window)
                    want, got = block_stream(schedule, count), schedule.first(count)
                    assert got.dtype == want.dtype and got.tolist() == want.tolist(), (window, count, seed)

    def test_malformed_schedules_rejected(self):
        with pytest.raises(ValueError, match="unknown schedule kind 'zigzag'"):
            IndexSchedule(kind="zigzag", n_subspaces=3)
        with pytest.raises(ValueError, match="n_subspaces must be >= 1"):
            IndexSchedule.cyclic(0)
        with pytest.raises(ValueError, match="count must be >= 0 and an integer, got -1"):
            IndexSchedule.cyclic(3).first(-1)

    @pytest.mark.parametrize("seed", [None, 1.5, True, "7"])
    def test_random_schedule_needs_an_integer_seed(self, seed):
        # without a seed each call to first() would draw another stream
        with pytest.raises(ValueError, match="seed must be >= 0 and an integer"):
            IndexSchedule(kind="random", n_subspaces=3, seed=seed)
        assert IndexSchedule(kind="random", n_subspaces=3, seed=np.int64(7)).first(8).tolist() == \
            IndexSchedule.random(3, seed=7).first(8).tolist()

    def test_explicit_indices_must_be_integers(self):
        # int() used to truncate them: [1.5, 2.9] ran as [1, 2]
        with pytest.raises(ValueError, match=r"indices must be in 1\.\.3 and an integer"):
            IndexSchedule.explicit([1.5, 2.9], 3)
        with pytest.raises(ValueError, match=r"indices must be in 1\.\.3 and an integer"):
            IndexSchedule(kind="explicit", n_subspaces=3, indices=(1, True))
        assert IndexSchedule.explicit(np.array([3, 1, 2]), 3).first(3).tolist() == [3, 1, 2]

    @pytest.mark.parametrize("n", [2.5, 3.0, True])
    def test_n_subspaces_must_be_an_integer(self, n):
        # 2.5 used to give the stream [1. 2. 3. 1.5]
        with pytest.raises(ValueError, match="n_subspaces must be >= 1 and an integer"):
            IndexSchedule.cyclic(n)
        assert IndexSchedule.cyclic(np.int64(3)).first(4).tolist() == [1, 2, 3, 1]

    @pytest.mark.parametrize("count", [2.5, 3.0, True])
    @pytest.mark.parametrize("schedule", [IndexSchedule.cyclic(3), IndexSchedule.random(3, seed=5),
                                          IndexSchedule.explicit([1, 2, 3], 3)], ids=["cyclic", "random", "explicit"])
    def test_count_must_be_an_integer(self, schedule, count):
        # cyclic(3).first(2.5) used to give the float stream [1. 2. 3.], and first(True) the stream [1]
        with pytest.raises(ValueError, match="count must be >= 0 and an integer"):
            schedule.first(count)
        assert schedule.first(np.int64(3)).tolist() == schedule.first(3).tolist()

    @pytest.mark.parametrize("window", [4.5, 5.0, True])
    def test_coverage_window_must_be_an_integer(self, window):
        # 4.5 used to be taken as given
        with pytest.raises(ValueError, match="coverage_window must be >= 3 and an integer"):
            IndexSchedule.random(3, seed=5, coverage_window=window)
        assert IndexSchedule.random(3, seed=5, coverage_window=np.int64(5)).first(12).tolist() == \
            IndexSchedule.random(3, seed=5, coverage_window=5).first(12).tolist()

    @pytest.mark.parametrize("kind, extra", [("cyclic", {}), ("random", {"seed": 0})])
    def test_only_an_explicit_schedule_takes_indices(self, kind, extra):
        with pytest.raises(ValueError, match=f"a {kind} schedule takes no index list"):
            IndexSchedule(kind=kind, n_subspaces=3, indices=(5,), **extra)

    @pytest.mark.parametrize("kind, extra", [("cyclic", {}), ("explicit", {"indices": (1, 2)})])
    @pytest.mark.parametrize("given", [{"seed": 4}, {"coverage_window": 5}, {"seed": 4, "coverage_window": 5}])
    def test_only_a_random_schedule_takes_a_seed_and_a_window(self, kind, extra, given):
        # either would change nothing in the stream of a cyclic or explicit schedule
        with pytest.raises(ValueError, match=f"a {kind} schedule takes no seed and no coverage window"):
            IndexSchedule(kind=kind, n_subspaces=3, **extra, **given)


class TestCyclicOperator:
    def test_orthogonal_lines_annihilate(self):
        system = two_lines(np.pi / 2)
        np.testing.assert_allclose(cyclic_operator(system), np.zeros((2, 2)), atol=1e-14)

    def test_identical_subspaces_give_projector(self):
        s = line([1.0, 0.0])
        system = SubspaceSystem((s, s))
        np.testing.assert_allclose(cyclic_operator(system), projector(s), atol=1e-14)

    def test_application_order(self):
        # first component applied first: T e2 = P2 P1 e2 = 0 for these lines
        system = two_lines(np.pi / 3)
        t = cyclic_operator(system)
        np.testing.assert_allclose(t @ np.array([0.0, 1.0]), [0.0, 0.0], atol=1e-14)
        reversed_t = projector(system.subspaces[0]) @ projector(system.subspaces[1])
        assert np.linalg.norm(t - reversed_t.T) <= 1e-14

    def test_coordinate_example_contracts(self):
        system = example3(12)
        gap = operator_error_norms(system, 1).errors[0]
        assert gap < 1.0


class TestIterateVector:
    def test_fixed_point_in_intersection(self):
        system = SubspaceSystem((line([1.0, 0.0]), line([1.0, 0.0])))
        trace = iterate_vector(system, [2.0, 0.0], IndexSchedule.cyclic(2), 5)
        np.testing.assert_allclose(trace.errors, np.zeros(5), atol=1e-14)

    def test_two_lines_error_pattern(self):
        theta = np.pi / 3
        system = two_lines(theta)
        c = np.cos(theta)
        # start on the first line: per-pass error is exactly c^(2n-1)
        trace = iterate_vector(system, [1.0, 0.0], IndexSchedule.cyclic(2), 6)
        np.testing.assert_allclose(trace.errors, c ** (2 * np.arange(1, 7) - 1), atol=1e-12)
        # start on the tilted line: per-pass error is exactly c^(2n)
        u = np.array([np.cos(theta), np.sin(theta)])
        trace_u = iterate_vector(system, u, IndexSchedule.cyclic(2), 6)
        np.testing.assert_allclose(trace_u.errors, c ** (2 * np.arange(1, 7)), atol=1e-12)
        # the operator rate is an upper envelope for unit starts
        envelope = operator_error_norms(system, 6).errors
        assert (trace.errors <= envelope + 1e-12).all()
        assert (trace_u.errors <= envelope + 1e-12).all()

    def test_cyclic_error_bounded_by_operator_gap(self):
        system = random_system(9, (3, 3, 3), seed=11)
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal(9)
        n = 7
        trace = iterate_vector(system, x0, IndexSchedule.cyclic(3), n)
        gap = operator_error_norms(system, n).errors[-1]
        assert trace.errors[-1] <= gap * np.linalg.norm(x0) + 1e-8

    def test_random_schedule_converges_on_coordinate_example(self):
        system = example3(12)
        rng = np.random.default_rng(4)
        sched = IndexSchedule.random(3, seed=8, coverage_window=3)
        trace = iterate_vector(system, rng.standard_normal(12), sched, 500)
        assert trace.errors[-1] <= 1e-6

    def test_errors_nonincreasing_for_any_schedule(self):
        system = random_system(6, (2, 3), seed=2)
        rng = np.random.default_rng(1)
        for sched in (IndexSchedule.cyclic(2), IndexSchedule.random(2, seed=3),
                      IndexSchedule.explicit([1, 2, 2, 1, 2, 1, 1, 2], 2)):
            trace = iterate_vector(system, rng.standard_normal(6), sched, 8)
            assert (np.diff(trace.errors) <= 1e-8).all()

    def test_bad_inputs(self):
        system = two_lines(0.5)
        with pytest.raises(ValueError):
            iterate_vector(system, [1.0, 0.0, 0.0], IndexSchedule.cyclic(2), 5)
        with pytest.raises(ValueError):
            iterate_vector(system, [1.0, 0.0], IndexSchedule.cyclic(3), 5)
        with pytest.raises(ValueError):
            iterate_vector(system, [1.0, 0.0], IndexSchedule.cyclic(2), 0)
        with pytest.raises(ValueError, match="x0 must be finite"):
            iterate_vector(system, [np.inf, 0.0], IndexSchedule.cyclic(2), 5)

    @pytest.mark.parametrize("n_max", [2.5, True])
    def test_a_step_count_must_be_an_integer(self, n_max):
        with pytest.raises(ValueError, match=f"n_max must be >= 1 and an integer, got {n_max!r}"):
            iterate_vector(two_lines(0.5), [1.0, 0.0], IndexSchedule.cyclic(2), n_max)


class TestOperatorErrorNorms:
    @pytest.mark.parametrize("seed", range(8))
    def test_pair_errors_follow_odd_powers(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 11))
        system = random_system(d, (int(rng.integers(1, d)), int(rng.integers(1, d))), seed=seed + 50)
        c = friedrichs_number(system)
        errors = operator_error_norms(system, 10).errors
        expected = c ** (2 * np.arange(1, 11) - 1)
        assert np.max(np.abs(errors - expected)) <= 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_pair_errors_follow_odd_powers_deep_tail(self, seed):
        # a pair with a common line: the law must hold far below the ~1e-14
        # round-off of subtracting P_M in the ambient space
        system = common_core(8, (3, 4), 1, seed=seed)
        assert system.intersection.dim == 1
        c = friedrichs_number(system)
        errors = operator_error_norms(system, 100).errors
        expected = c ** (2 * np.arange(1, 101) - 1)
        np.testing.assert_allclose(errors, expected, rtol=1e-10, atol=0.0)

    def test_orthogonal_system_converges_in_one_pass(self):
        assert operator_error_norms(coordinate_axes(3), 1).errors[0] == pytest.approx(0.0, abs=1e-12)

    def test_empty_horizon_rejected(self):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            operator_error_norms(two_lines(0.5), 0)

    @pytest.mark.parametrize("n_max", [2.5, True])
    def test_a_horizon_must_be_an_integer(self, n_max):
        # a ValueError that names the argument, not numpy's TypeError from deep in the walk;
        # bound_report passes its n_max on to these traces.  Each call gets a fresh system,
        # as a trace kept under the key 1 would answer for True.
        for run in (lambda s: operator_error_norms(s, n_max), lambda s: bound_report(s, n_max=n_max)):
            with pytest.raises(ValueError, match=f"n_max must be >= 1 and an integer, got {n_max!r}"):
                run(two_lines(0.5))

    def test_monotone(self):
        for _, system in convergence_corpus()[:6]:
            errors = operator_error_norms(system, 30).errors
            assert (np.diff(errors) <= 1e-10).all()

    @pytest.mark.parametrize("seed", range(5))
    def test_reduced_product_identity(self, seed):
        # T^n - P_M equals the n-th power of the product of reduced projectors
        system = random_system(7, (3, 2, 3), seed=seed)
        t = cyclic_operator(system)
        pm = projector(system.intersection)
        q = np.eye(7)
        for r in system.reduced:
            q = projector(r) @ q
        np.testing.assert_allclose(t - pm, q, atol=1e-10)
        np.testing.assert_allclose(t @ t - pm, q @ q, atol=1e-10)


POWER_SYSTEMS = {
    "tilted6": lambda: tilted_pairs(6),
    "triple9": lambda: random_system(9, (3, 3, 3), seed=1),
    "core8": lambda: common_core(8, (3, 4, 3), 1, seed=0),
    "example3": lambda: example3(12),
}
POWER_COUNTS = [1, 2, 3, 4, 5, 15, 16, 17, 99, 100, 101, 300]
# systems whose operator trace deflates: the powers' rank falls below half their column count
DEFLATED_SYSTEMS = {
    "dense0": lambda: random_system(192, (64, 64, 64), seed=0),
    "dense3": lambda: random_system(192, (64, 64, 64), seed=3),
    "triple60": lambda: random_system(60, (20, 20, 20), seed=0),
    "uneven150": lambda: random_system(150, (30, 50, 40), seed=0),
}


def svd_calls(monkeypatch):
    """Record (input shape, compute_uv) of every np.linalg.svd call from here on."""
    calls, svd = [], np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append((a.shape, kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


class TestPowerBlocks:
    """The sqrt(n)-blocked power walk against a plain walk of one power per step."""

    @staticmethod
    def reduced_product(system):
        """Q = (P_N - P_M) ... (P_1 - P_M), so T^n - P_M = Q^n with no P_M to subtract."""
        q = np.eye(system.ambient_dim)
        for r in system.reduced:
            q = projector(r) @ q
        return q

    @classmethod
    def per_power_norms(cls, system, n_max):
        q = cls.reduced_product(system)
        power, norms = q, []
        for _ in range(n_max):
            norms.append(operator_norm(power))
            power = q @ power
        return norms

    @pytest.mark.parametrize("n_max", POWER_COUNTS)
    @pytest.mark.parametrize("name", sorted(POWER_SYSTEMS))
    def test_operator_errors_match_a_per_power_loop(self, name, n_max):
        system = POWER_SYSTEMS[name]()
        expected = self.per_power_norms(system, n_max)
        np.testing.assert_allclose(operator_error_norms(system, n_max).errors, expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("name", sorted(DEFLATED_SYSTEMS))
    def test_deflated_operator_errors_match_a_per_power_loop(self, name, monkeypatch):
        system = DEFLATED_SYSTEMS[name]()
        expected = self.per_power_norms(system, 100)
        calls = svd_calls(monkeypatch)
        errors = operator_error_norms(system, 100).errors
        assert any(uv and shape[-1] < system.reduced[0].dim for shape, uv in calls)  # a head was trimmed
        np.testing.assert_allclose(errors, expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_deflated_norms_match_the_stacked_svd(self, seed, monkeypatch):
        deflated = operator_error_norms(random_system(192, (64, 64, 64), seed), 100).errors
        monkeypatch.setattr(dynamics, "_DEFLATED_ORDER", np.inf)
        stacked = operator_error_norms(random_system(192, (64, 64, 64), seed), 100).errors
        np.testing.assert_allclose(deflated, stacked, rtol=4e-15, atol=0)

    @pytest.mark.parametrize("build", [lambda: tilted_pairs(60), lambda: random_system(400, (5, 5, 5), 2),
                                       lambda: common_core(400, (6, 6, 6), 1, 0)], ids=["tilted60", "thin", "core"])
    def test_traces_that_do_not_deflate_keep_the_stacked_svd(self, build, monkeypatch):
        # tilted_pairs(60) keeps rank >= 58 of 60; the thin systems have 5 columns
        system, fresh = build(), build()
        dynamics._cyclic_chain(system)
        calls = svd_calls(monkeypatch)
        routed = operator_error_norms(system, 300).errors
        assert all(not uv for _, uv in calls)
        monkeypatch.setattr(dynamics, "_DEFLATED_ORDER", np.inf)
        np.testing.assert_array_equal(operator_error_norms(fresh, 300).errors, routed)

    def test_failed_tail_tests_give_the_stacked_svd(self, monkeypatch):
        system, fresh = random_system(192, (64, 64, 64), 0), random_system(192, (64, 64, 64), 0)
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "_DEFLATED_ORDER", np.inf)
            stacked = operator_error_norms(fresh, 100).errors
        dynamics._cyclic_chain(system)
        einsum = np.einsum
        monkeypatch.setattr(np, "einsum", lambda *args: np.full(einsum(*args).shape, np.inf))  # every tail fails
        calls = svd_calls(monkeypatch)
        np.testing.assert_array_equal(operator_error_norms(system, 100).errors, stacked)
        # each of the 10 stacks takes the batched SVD, and each of the 9 after the first tried its heads first
        assert calls.count(((10, 64, 64), False)) == 10
        assert sum(not uv and shape[-1] < 64 for shape, uv in calls) == 9

    def test_a_single_power_takes_one_svd(self, monkeypatch):
        # K has rank 5 of 40 columns, but no later stack would read a basis seeded from it
        system = random_system(120, (40, 5, 40), seed=0)
        dynamics._cyclic_chain(system)
        calls = svd_calls(monkeypatch)
        operator_error_norms(system, 1)
        assert calls == [((1, 40, 40), False)]

    def test_only_the_first_stack_and_the_seed_see_full_order(self, monkeypatch):
        system = random_system(192, (64, 64, 64), seed=0)
        dynamics._cyclic_chain(system)
        calls = svd_calls(monkeypatch)
        operator_error_norms(system, 100)
        assert [call for call in calls if call[0][-2:] == (64, 64)] == [((10, 64, 64), False), ((64, 64), True)]
        assert len(calls) > 2

    @pytest.mark.parametrize("n_max", POWER_COUNTS)
    @pytest.mark.parametrize("name", sorted(POWER_SYSTEMS))
    def test_cyclic_trace_matches_a_per_pass_loop(self, name, n_max):
        system = POWER_SYSTEMS[name]()
        x0 = np.random.default_rng(n_max).standard_normal(system.ambient_dim)
        q, v, expected = self.reduced_product(system), x0, []
        for _ in range(n_max):
            v = q @ v
            expected.append(np.linalg.norm(v))
        got = iterate_vector(system, x0, IndexSchedule.cyclic(system.n_subspaces), n_max).errors
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14 * np.linalg.norm(x0))

    @pytest.mark.parametrize("name", sorted(POWER_SYSTEMS))
    def test_a_shorter_walk_is_a_prefix_of_a_longer_one(self, name):
        # a seeded Gaussian x0 is the core of core8, whose vector walk would compare round-off with
        # round-off; (1, 1/2, ..., 1/d) lies in no subspace of these systems
        system = POWER_SYSTEMS[name]()
        x0 = 1.0 / np.arange(1, system.ambient_dim + 1)
        schedule = IndexSchedule.cyclic(system.n_subspaces)
        ops = operator_error_norms(system, 300).errors
        vecs = iterate_vector(system, x0, schedule, 300).errors
        if name != "example3":  # there T = P_M, so every error is 0
            assert vecs[0] >= 1e-3 * np.linalg.norm(x0)
        for m in (1, 2, 3, 8, 15, 16, 17, 50, 120, 299):
            np.testing.assert_allclose(operator_error_norms(system, m).errors, ops[:m], rtol=0, atol=1e-14)
            np.testing.assert_allclose(iterate_vector(system, x0, schedule, m).errors, vecs[:m],
                                       rtol=0, atol=1e-14 * np.linalg.norm(x0))

    def test_subspaces_equal_to_the_intersection_give_zero_traces(self):
        system = SubspaceSystem((line([1.0, 0.0]), line([1.0, 0.0])))
        assert operator_error_norms(system, 7).errors.tolist() == [0.0] * 7
        for schedule in (IndexSchedule.cyclic(2), IndexSchedule.random(2, seed=0),
                         IndexSchedule.explicit([2, 1, 1, 2, 1, 2, 2], 2)):
            assert iterate_vector(system, [3.0, 4.0], schedule, 7).errors.tolist() == [0.0] * 7

    def test_one_power_forms_no_giant_step(self, monkeypatch):
        calls = []
        matrix_power = np.linalg.matrix_power

        def spy(a, n):
            calls.append(n)
            return matrix_power(a, n)

        monkeypatch.setattr(np.linalg, "matrix_power", spy)
        system = tilted_pairs(6)
        operator_error_norms(system, 1)
        iterate_vector(system, np.ones(12), IndexSchedule.cyclic(2), 1)
        assert calls == []
        operator_error_norms(system, 5)
        assert calls == [2]

    @pytest.mark.parametrize("build", [lambda: tilted_pairs(60), lambda: random_system(120, (40, 40, 40), 0)],
                             ids=["tilted60", "deflated120"])
    def test_only_one_block_of_powers_is_held(self, build):
        # a full (n_max, r, r) stack of the 400 powers of a 60 x 60 chain is 11.5 MB; the
        # 40 x 40 chain deflates, and its heads, tails and basis add at most one stack of b = 20
        system = build()
        r = system.reduced[0].dim
        operator_error_norms(system, 1)  # the chain K, K W is derived once, outside the window
        full_stack = 400 * r * r * 8
        tracemalloc.start()
        try:
            operator_error_norms(system, 400)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < full_stack / 4
        assert peak < 3 * full_stack / 20  # the walk's old and new stack in a giant step, and one more


TINY = 2.0 ** -1074  # the smallest subnormal: only a true error below it may read 0.0


class TestScaledWalks:
    """Every walk stays in the normal float range and stops at true zero."""

    @staticmethod
    def agree(got, want):
        assert not ((got == 0.0) & (want >= TINY)).any()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=2 * TINY)

    @staticmethod
    def stack_shapes(monkeypatch) -> list:
        """The shape of each stack that `_power_blocks` yields from here on, appended as it comes."""
        shapes, power_blocks = [], dynamics._power_blocks

        def spy(kw, first, n_max):
            for block in power_blocks(kw, first, n_max):
                shapes.append(block.shape)
                yield block

        monkeypatch.setattr(dynamics, "_power_blocks", spy)
        return shapes

    def test_dense_cyclic_trace_holds_no_zero(self):
        # unscaled norms read e_546 = 4.97e-162 here, then 0.0 from n = 547 on
        system = random_system(192, (64, 64, 64), seed=3)
        x0 = np.random.default_rng(0).standard_normal(192)
        got = iterate_vector(system, x0, IndexSchedule.cyclic(3), 1000).errors
        assert (got > 0.0).all()
        self.agree(got, scaled_walk(system, x0, IndexSchedule.cyclic(3), 1000))

    def test_thin_traces_read_zero_only_below_the_float_range(self):
        system = random_system(400, (5, 5, 5), seed=2)
        x0 = np.random.default_rng(0).standard_normal(400)
        schedule = IndexSchedule.cyclic(3)
        self.agree(iterate_vector(system, x0, schedule, 300).errors, scaled_walk(system, x0, schedule, 300))
        self.agree(operator_error_norms(system, 300).errors,
                   scaled_walk(system, system.reduced[0].basis, schedule, 300))

    @pytest.mark.parametrize("build, n_max", [(lambda: two_lines(1.57), 1000),
                                              (lambda: random_system(400, (5, 5, 5), seed=2), 2916)],
                             ids=["lines", "thin"])
    def test_a_stack_decaying_past_its_squares_holds_no_false_zero(self, build, n_max):
        # the first stack decays past 2^-537, where the squares of a row's entries underflow:
        # plain row norms read 26 (lines, from pass 27) and 53 (thin) false zeros here
        system = build()
        x0 = np.ones(system.ambient_dim)
        got = iterate_vector(system, x0, IndexSchedule.cyclic(system.n_subspaces), n_max).errors
        want = scaled_walk(system, x0, IndexSchedule.cyclic(system.n_subspaces), n_max)
        assert not ((got == 0.0) & (want != 0.0)).any()
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=2 * TINY)

    @pytest.mark.parametrize("window", [None, 5])
    def test_random_trace_holds_no_false_zero(self, window):
        # unscaled norms read 149 (window None) and 374 (window 5) false zeros here
        system = common_core(8, (3, 4, 3), 1, seed=7)
        x0 = np.random.default_rng(0).standard_normal(8)
        schedule = IndexSchedule.random(3, seed=5, coverage_window=window)
        got = iterate_vector(system, x0, schedule, 1000).errors
        assert (got > 0.0).all()
        self.agree(got, scaled_walk(system, x0, schedule, 1000))

    @pytest.mark.parametrize("size", [1e-300, 1e-320, 1e300])
    def test_start_far_from_unit_size(self, size):
        # x0 enters the walk shifted by an exact power of two, so neither its squares
        # underflow nor its norm overflows
        system = random_system(9, (3, 3, 3), seed=0)
        x0 = size * np.random.default_rng(0).standard_normal(9)
        for schedule in (IndexSchedule.cyclic(3), IndexSchedule.random(3, seed=2, coverage_window=5)):
            self.agree(iterate_vector(system, x0, schedule, 1000).errors, scaled_walk(system, x0, schedule, 1000))

    @pytest.mark.parametrize("seed", [0, 3])
    def test_no_step_turns_subnormal(self, seed):
        # only the final conversion of an error below 2^-1022 may underflow; the desk-size system's
        # random walk forms the prefix products of its steps, and the dense one steps by np.dot
        for system in (random_system(192, (64, 64, 64), seed=seed), random_system(400, (5, 5, 5), seed=2),
                       common_core(8, (3, 4, 3), 1, seed=7)):
            x0 = np.random.default_rng(seed).standard_normal(system.ambient_dim)
            with np.errstate(under="raise"):
                iterate_vector(system, x0, IndexSchedule.cyclic(3), 1000)
                iterate_vector(system, x0, IndexSchedule.random(3, seed=5, coverage_window=5), 1000)

    def test_walk_forms_no_stack_after_its_errors_reach_zero(self, monkeypatch):
        shapes = self.stack_shapes(monkeypatch)
        system = random_system(400, (5, 5, 5), seed=2)
        errors = iterate_vector(system, np.ones(400), IndexSchedule.cyclic(3), 1000).errors
        first_zero = int(np.argmax(errors == 0.0))
        assert 0 < first_zero < 150 and not errors[first_zero:].any()
        assert shapes == [(31, 5)] * (first_zero // 31 + 1)  # the stack holding the first 0.0 is the last

    def test_a_vector_walk_stacks_rows_and_the_operator_trace_matrices(self, monkeypatch):
        # each later stack of a vector walk is one (rows x m)(m x m) product; the operator trace's
        # stacks of b matrices feed the batched SVD
        shapes = self.stack_shapes(monkeypatch)
        system = random_system(192, (64, 64, 64), seed=3)
        x0 = np.random.default_rng(0).standard_normal(192)
        iterate_vector(system, x0, IndexSchedule.cyclic(3), 1000)
        assert shapes == [(31, 64)] * 32 + [(8, 64)]
        shapes.clear()
        operator_error_norms(system, 100)
        assert shapes == [(10, 64, 64)] * 10

    @pytest.mark.parametrize("build, words", [(lambda: tilted_pairs(60), 15),
                                              (lambda: tilted_pairs(3, (0.01, 0.02, 0.03)), 8)],
                             ids=["stepped60", "scanned3"])
    def test_random_walk_holds_no_row_per_step(self, build, words):
        # both decay slowly enough to run to the end; the trace's own arrays (errors, exponents,
        # steps, the index stream) take 5 to 6 words a step, and one row per step would add
        # 60 words (48 MB) or 3, the prefix products of every step at once 9
        system = build()
        d = system.ambient_dim
        schedule = IndexSchedule.random(2, seed=0)
        iterate_vector(system, np.ones(d), schedule, 1)  # R^T R is derived once, outside the window
        tracemalloc.start()
        try:
            errors = iterate_vector(system, np.ones(d), schedule, 10**5).errors
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert errors[-1] > 0.0
        assert peak < 10**5 * words * 8

    @pytest.mark.parametrize("order", [1, dynamics._SCANNED_ORDER, dynamics._SCANNED_ORDER + 1])
    def test_random_and_explicit_walks_match_the_scaled_walk(self, order):
        # blocks of order up to the crossover scan prefix products, larger ones step by np.dot;
        # 1000 and 700 steps end inside a chunk and inside a span of 256
        system = random_system(max(4 * order, 6), (order,) * 3, seed=0)
        x0 = np.random.default_rng(0).standard_normal(system.ambient_dim)
        schedules = [(IndexSchedule.random(3, seed=5, coverage_window=w), 1000) for w in (None, 3, 5)]
        schedules.append((IndexSchedule.explicit(IndexSchedule.random(3, seed=6).first(700), 3), 700))
        for schedule, n_max in schedules:
            self.agree(iterate_vector(system, x0, schedule, n_max).errors, scaled_walk(system, x0, schedule, n_max))

    def test_only_orders_above_the_crossover_step_by_np_dot(self, monkeypatch):
        calls, dot = [], np.dot
        monkeypatch.setattr(np, "dot", lambda *args, **kwargs: calls.append(args[0].shape) or dot(*args, **kwargs))
        for order, steps in ((dynamics._SCANNED_ORDER, 0), (dynamics._SCANNED_ORDER + 1, 999)):
            system = random_system(4 * order, (order,) * 3, seed=0)
            calls.clear()
            errors = iterate_vector(system, np.ones(4 * order), IndexSchedule.random(3, seed=5), 1000).errors
            assert errors[-1] > 0.0
            assert calls == [(order, order)] * steps  # one per step after the first


class TestReducedMinModulus:
    def test_orthogonal_axes_unit_modulus(self):
        assert reduced_min_modulus(coordinate_axes(3)) == pytest.approx(1.0, abs=1e-12)

    def test_identical_lines_modulus_one(self):
        system = SubspaceSystem((line([1.0, 0.0]), line([1.0, 0.0])))
        assert reduced_min_modulus(system) == pytest.approx(1.0, abs=1e-12)

    def test_matches_circle_oracle(self):
        for theta in (0.3, np.pi / 3, 1.2):
            system = two_lines(theta)
            assert abs(reduced_min_modulus(system) - circle_min_modulus(system)) <= 1e-6

    def test_whole_space_rejected(self):
        system = SubspaceSystem((full_space(2), full_space(2)))
        with pytest.raises(ValueError):
            reduced_min_modulus(system)


class TestRandomProductNorm:
    def test_full_cycle_equals_operator_gap(self):
        system = example3(12)
        assert random_product_norm(system, [1, 2, 3]) == pytest.approx(
            operator_error_norms(system, 1).errors[0], abs=1e-12)

    def test_single_component_equal_to_intersection(self):
        system = SubspaceSystem((line([1.0, 0.0]), line([1.0, 0.0])))
        assert random_product_norm(system, [1]) == pytest.approx(0.0, abs=1e-12)

    def test_longer_products_contract(self):
        system = random_system(9, (3, 3, 3), seed=3)
        short = random_product_norm(system, [1, 2, 3])
        long = random_product_norm(system, [1, 2, 3, 1, 2, 3])
        assert long <= short + 1e-10

    def test_validation(self):
        system = two_lines(0.5)
        with pytest.raises(ValueError):
            random_product_norm(system, [])
        with pytest.raises(ValueError):
            random_product_norm(system, [3])
        with pytest.raises(ValueError, match=r"indices must be in 1\.\.2 and an integer, got 1\.5"):
            random_product_norm(system, [1.5, 2])


class TestSlowSequence:
    def test_power_decay_values(self):
        np.testing.assert_allclose(SlowSequence.power(0.5).values(3),
                                   [(n + 2.0) ** -0.5 for n in (1, 2, 3)])

    def test_log_decay_values(self):
        np.testing.assert_allclose(SlowSequence.log().values(2),
                                   [1.0 / np.log(3.0), 1.0 / np.log(4.0)])

    def test_explicit_validation(self):
        assert SlowSequence.explicit([0.0, 0.0]).values(2).tolist() == [0.0, 0.0]
        with pytest.raises(ValueError):
            SlowSequence.explicit([1.0]).values(2)
        with pytest.raises(ValueError):
            SlowSequence.explicit([1.0, -0.1]).values(2)
        with pytest.raises(ValueError):
            SlowSequence.explicit([0.5, 0.1, 0.2, 0.3]).values(4)
        with pytest.raises(ValueError):
            SlowSequence.power(0.0)

    def test_horizon_and_kind_checked(self):
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            SlowSequence.power(0.5).values(0)
        with pytest.raises(ValueError, match="unknown sequence kind 'cubic'"):
            SlowSequence(kind="cubic").values(2)

    @pytest.mark.parametrize("horizon", [2.5, True])
    def test_a_horizon_must_be_an_integer(self, horizon):
        with pytest.raises(ValueError, match=f"horizon must be >= 1 and an integer, got {horizon!r}"):
            SlowSequence.power(0.5).values(horizon)

    @pytest.mark.parametrize("fields, message", [
        ({"kind": "cubic"}, "unknown sequence kind 'cubic'"),
        *[({"kind": "power", "exponent": p}, "power decay needs a finite positive exponent")
          for p in (0.0, -0.5, np.inf, np.nan)],
        ({"kind": "explicit"}, "an explicit sequence needs explicit_values"),
        ({"kind": "log", "explicit_values": (1.0, 0.5)}, "no other kind takes them"),
        ({"kind": "power", "explicit_values": (1.0, 0.5)}, "no other kind takes them"),
    ], ids=["cubic", "pow0", "pow-neg", "pow-inf", "pow-nan", "explicit-no-list", "log-list", "power-list"])
    def test_a_sequence_is_checked_when_built(self, fields, message):
        with pytest.raises(ValueError, match=message):
            SlowSequence(**fields)


class TestSlowVectorProbe:
    def test_zero_target_trivially_succeeds(self):
        result = slow_vector_probe([0.7], SlowSequence.explicit([0.0] * 5), 5)
        assert result.success and result.achieved_horizon == 5
        assert np.linalg.norm(result.x) == pytest.approx(1.0, abs=1e-12)

    def test_many_blocks_dominate_power_decay(self):
        angles = 1.0 / np.arange(1, 61)
        result = slow_vector_probe(angles, SlowSequence.power(0.5), 100)
        assert result.success
        # verify by an independent direct iteration of the returned vector
        system = tilted_pairs(60)
        trace = iterate_vector(system, result.x, IndexSchedule.cyclic(2), 100)
        target = SlowSequence.power(0.5).values(100)
        assert (trace.errors + 1e-12 >= target).all()

    def test_single_block_cannot_dominate_log_decay(self):
        result = slow_vector_probe([1.0], SlowSequence.log(), 100)
        assert not result.success
        assert 0 <= result.achieved_horizon < 100

    def test_an_angle_whose_cosine_rounds_to_one_gets_no_weight(self):
        # cos(1e-9)^2 rounds to 1: that block cannot decay, so the probe leaves it out
        result = slow_vector_probe([1e-9, 0.5], SlowSequence.power(0.5), 20)
        assert (result.x[:2] == 0.0).all()
        assert (result.x[2:] != 0.0).any()

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            slow_vector_probe([0.5], SlowSequence.log(), 0)


class TestConvergenceSuites:
    @pytest.mark.parametrize("case_index,name,system",
                             [(i, n, s) for i, (n, s) in enumerate(convergence_corpus())])
    def test_cyclic_and_random_convergence(self, case_index, name, system):
        rng = np.random.default_rng(1000 + case_index)
        x0 = rng.standard_normal(system.ambient_dim)
        n = system.n_subspaces
        cyc = iterate_vector(system, x0, IndexSchedule.cyclic(n), 500)
        assert cyc.errors[-1] <= 1e-6, name
        rnd = iterate_vector(system, x0, IndexSchedule.random(n, seed=17, coverage_window=n), 1000)
        assert rnd.errors[-1] <= 1e-6, name

    def test_per_vector_contraction_chain(self):
        # ||u_{j-1} - u_j||^2 <= ||u_{j-1}||^2 - ||Tx - P_M x||^2 per component
        rng = np.random.default_rng(123)
        systems = [s for _, s in convergence_corpus()]
        for draw in range(50):
            system = systems[draw % len(systems)]
            x = rng.standard_normal(system.ambient_dim)
            pmx = projector(system.intersection) @ x
            u_prev = x - pmx
            y = x.copy()
            for p in map(projector, system.subspaces):
                y = p @ y
            t_gap_sq = np.linalg.norm(y - pmx) ** 2
            z = x.copy()
            for p in map(projector, system.subspaces):
                z_next = p @ z
                u_next = z_next - pmx
                lhs = np.linalg.norm(u_prev - u_next) ** 2
                rhs = np.linalg.norm(u_prev) ** 2 - t_gap_sq
                assert lhs <= rhs + 1e-8
                u_prev = u_next
                z = z_next
