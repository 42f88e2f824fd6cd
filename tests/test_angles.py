import numpy as np
import pytest

import altproj.angles as angles
from altproj.angles import (
    angle_report,
    configuration_constant,
    dixmier_number,
    friedrichs_number,
    inclination,
    inclination_bounds,
    pairwise_dixmier_reduced,
    prefix_friedrichs,
)
from altproj.corpus import common_core, example3, random_system, tilted_pairs, two_lines
from altproj.numerics import operator_norm
from altproj.subspace import Subspace, SubspaceSystem
from cases import (common_core_batch, coordinate_axes, grid_corpus, inclination_corpus, large_pencil_corpus,
                   random_triples_r9)
from oracles import (
    extended_rayleigh_quotient,
    full_space,
    gramian_sample,
    grid_dual_inclination,
    grid_inclination,
    optimal_gram_vectors,
    pairwise_friedrichs,
    product_space,
    projector,
)


def line(direction, d=2, name=""):
    v = np.asarray(direction, dtype=float)
    return Subspace(d, (v / np.linalg.norm(v))[:, None], name)


def identical_lines():
    return SubspaceSystem((line([1.0, 0.0]), line([1.0, 0.0])))


class TestConfigurationConstant:
    def test_coordinate_axes_attain_lower_bound(self):
        assert configuration_constant(coordinate_axes(3)) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_coordinate_example(self):
        assert configuration_constant(example3(12)) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_degenerate_convention(self):
        system = identical_lines()
        assert system.degenerate
        assert configuration_constant(system) == pytest.approx(0.5, abs=0.0)


class TestFriedrichsNumber:
    def test_orthogonal_axes(self):
        assert friedrichs_number(coordinate_axes(3)) == pytest.approx(0.0, abs=1e-12)

    def test_coordinate_example(self):
        assert friedrichs_number(example3(12)) == pytest.approx(0.5, abs=1e-12)

    def test_two_lines_cosine(self):
        assert friedrichs_number(two_lines(np.pi / 3)) == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_convention(self):
        assert friedrichs_number(identical_lines()) == 0.0


class TestDixmierNumber:
    def test_nontrivial_intersection_saturates(self):
        for system in common_core_batch(4):
            c0, _ = dixmier_number(system)
            assert c0 >= 1.0 - 1e-8

    def test_orthogonal_axes(self):
        c0, kappa0 = dixmier_number(coordinate_axes(3))
        assert c0 == pytest.approx(0.0, abs=1e-10)
        assert kappa0 == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_equals_friedrichs_for_trivial_intersection(self):
        system = example3(12)
        c0, _ = dixmier_number(system)
        assert c0 == pytest.approx(0.5, abs=1e-10)
        assert abs(c0 - friedrichs_number(system)) <= 1e-10


def _dixmier_cases():
    zero = Subspace(3, np.zeros((3, 0)))
    cases = [("axes3", coordinate_axes(3)), ("example3", example3(12)),
             ("full2", SubspaceSystem((full_space(2), full_space(2)))),
             ("identical_lines", identical_lines()),
             ("all_zero", SubspaceSystem((zero, zero, zero)))]
    cases += [(f"r9_{i}", s) for i, s in enumerate(random_triples_r9(20))]
    cases += [(f"core_{i}", s) for i, s in enumerate(common_core_batch(10))]
    return [pytest.param(system, id=label) for label, system in cases]


@pytest.mark.parametrize("system", _dixmier_cases())
def test_dixmier_closed_form_matches_product_space(system):
    c0, kappa0 = dixmier_number(system)
    n = system.n_subspaces
    if all(s.dim == 0 for s in system.subspaces):
        # empty admissible set: the convention, not the norm of a zero operator
        assert (c0, kappa0) == (0.0, 1.0 / n)
        return
    pair = product_space(system)
    oracle = operator_norm(projector(pair.D) @ projector(pair.C)) ** 2
    assert abs(kappa0 - oracle) <= 1e-10
    assert abs(c0 - (n * oracle - 1.0) / (n - 1.0)) <= 1e-10


class TestInclinationBounds:
    def test_closed_form_values(self):
        assert inclination_bounds(2.0 / 3.0, 3) == pytest.approx((1.0 - np.sqrt(2.0 / 3.0), 1.0), abs=1e-15)
        assert inclination_bounds(1.0, 3) == (0.0, 0.0)
        assert inclination_bounds(0.25, 2) == (0.5, 1.0)
        assert inclination_bounds(0.81, 2) == pytest.approx((0.1, np.sqrt(0.4)), abs=1e-15)


class TestProductSpace:
    def test_two_full_lines(self):
        system = SubspaceSystem((full_space(1), full_space(1)))
        pair = product_space(system)
        assert pair.C.dim == 2 and pair.D.dim == 1 and pair.CD.dim == 1
        np.testing.assert_allclose(projector(pair.CD), projector(pair.D), atol=1e-12)

    def test_axes_dimension_count(self):
        pair = product_space(coordinate_axes(3))
        assert pair.C.dim == 3 and pair.D.dim == 3 and pair.CD.dim == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_projector_formulas(self, seed):
        # block formulas for P_C, P_D and P_{C&D} against the generic route
        system = common_core(5, (2, 3), core_dim=1, seed=seed)
        pair = product_space(system)
        d, n = system.ambient_dim, system.n_subspaces
        block = np.zeros((n * d, n * d))
        for j, s in enumerate(system.subspaces):
            block[j * d:(j + 1) * d, j * d:(j + 1) * d] = projector(s)
        np.testing.assert_allclose(projector(pair.C), block, atol=1e-10)
        np.testing.assert_allclose(projector(pair.D), np.tile(np.eye(d), (n, n)) / n, atol=1e-10)
        np.testing.assert_allclose(projector(pair.CD),
                                   np.tile(projector(system.intersection), (n, n)) / n, atol=1e-10)

    def test_coordinate_example_product_route(self):
        system = example3(12)
        pair = product_space(system)
        c_cd = pairwise_friedrichs(pair.C, pair.D)
        assert c_cd ** 2 == pytest.approx(2.0 / 3.0, abs=1e-9)


class TestPairwiseFriedrichs:
    def test_orthogonal_lines(self):
        assert pairwise_friedrichs(line([1, 0]), line([0, 1])) == pytest.approx(0.0, abs=1e-12)

    def test_identical_lines(self):
        assert pairwise_friedrichs(line([1, 0]), line([1, 0])) == pytest.approx(0.0, abs=1e-12)

    def test_tilted_lines(self):
        theta = np.pi / 3
        assert pairwise_friedrichs(line([1, 0]), line([np.cos(theta), np.sin(theta)])) == \
            pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("seed", range(100))
    def test_two_routes_agree(self, seed):
        # product-of-projectors norm versus the affine formula through kappa
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 7))
        dims = (int(rng.integers(1, d)), int(rng.integers(1, d)))
        system = random_system(d, dims, seed=seed + 1000)
        via_product = pairwise_friedrichs(*system.subspaces)
        via_affine = friedrichs_number(system)
        assert abs(via_product - via_affine) <= 1e-8


class TestPairwiseDixmierReduced:
    def test_coordinate_example_all_ones(self):
        table = pairwise_dixmier_reduced(example3(12))
        np.testing.assert_allclose(table, np.ones((3, 3)), atol=1e-9)

    def test_orthogonal_axes_all_zero_off_diagonal(self):
        table = pairwise_dixmier_reduced(coordinate_axes(3))
        np.testing.assert_allclose(table, np.eye(3), atol=1e-12)

    def test_two_lines_entry_is_cosine(self):
        table = pairwise_dixmier_reduced(two_lines(np.pi / 3))
        assert table[0, 1] == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(table, table.T)


class TestPrefixFriedrichs:
    def test_orthogonal_axes(self):
        assert prefix_friedrichs(coordinate_axes(3)) == pytest.approx((0.0, 0.0), abs=1e-12)

    @pytest.mark.parametrize("build", [lambda: two_lines(0.7), lambda: tilted_pairs(5),
                                       lambda: common_core(4, (2, 2), 1, seed=0)],
                             ids=["two_lines", "tilted5", "core4"])
    def test_pair_collapses_to_pairwise(self, build):
        system = build()
        (value,) = prefix_friedrichs(system)
        # the table reads the Gram block R_1^T R_2, the prefix route B_1^T B_2
        assert abs(value - pairwise_dixmier_reduced(system)[0, 1]) <= 2 * np.finfo(float).eps
        assert value == pytest.approx(pairwise_friedrichs(*system.subspaces), abs=1e-12)

    def test_coordinate_example_against_explicit_prefixes(self):
        # prefix intersections of the coordinate example are known index sets
        system = example3(12)
        values = prefix_friedrichs(system)
        first_meet = Subspace(12, np.eye(12)[:, [0]])  # axes of S1 and S2 share only index 0
        expected = (
            pairwise_friedrichs(system.subspaces[0], system.subspaces[1]),
            pairwise_friedrichs(first_meet, system.subspaces[2]),
        )
        assert values == pytest.approx(expected, abs=1e-10)


class TestGramianSample:
    def test_orthonormal_tuple_identity_gramian(self):
        system = coordinate_axes(3)
        value = gramian_sample(system, [np.eye(3)[:, j] for j in range(3)])
        assert value == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_duplicated_direction_all_ones_block(self):
        # two components sharing a direction give the rank-one all-ones block
        e1, e2 = np.eye(2)[:, 0], np.eye(2)[:, 1]
        system = SubspaceSystem((line([1, 0]), line([1, 0]), line([0, 1])))
        value = gramian_sample(system, [e1, e1, e2])
        gram = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert value == pytest.approx(operator_norm(gram) / 3.0, abs=1e-12)
        assert value == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_rejects_zero_reduced(self):
        with pytest.raises(ValueError):
            gramian_sample(identical_lines(), [np.eye(2)[:, 0]] * 2)

    def test_rejects_non_member(self):
        system = two_lines(np.pi / 3)
        with pytest.raises(ValueError):
            gramian_sample(system, [np.eye(2)[:, 0], np.eye(2)[:, 1]])

    def test_rejects_malformed_tuples(self):
        system = coordinate_axes(3)
        e = [np.eye(3)[:, j] for j in range(3)]
        with pytest.raises(ValueError, match="expected 3 vectors, got 2"):
            gramian_sample(system, e[:2])
        with pytest.raises(ValueError, match="vectors must live in the ambient space"):
            gramian_sample(system, [e[0], e[1], np.ones(4) / 2.0])
        with pytest.raises(ValueError, match="vectors must have unit norm"):
            gramian_sample(system, [e[0], e[1], 2.0 * e[2]])

    @pytest.mark.parametrize("seed", range(20))
    def test_samples_bounded_by_kappa(self, seed):
        system = example3(12)
        kappa = configuration_constant(system)
        rng = np.random.default_rng(seed)
        vs = []
        for r in system.reduced:
            coeff = rng.standard_normal(r.dim)
            v = r.basis @ coeff
            vs.append(v / np.linalg.norm(v))
        assert gramian_sample(system, vs) <= kappa + 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_supremum_attained_at_eigenvector_tuple(self, seed):
        system = random_system(16, (5, 6, 4), seed=seed)
        vectors = optimal_gram_vectors(system)
        assert vectors is not None
        kappa = configuration_constant(system)
        assert gramian_sample(system, vectors) >= kappa - 1e-3


# systems whose certificate meets the estimate: l equals its Lagrangian dual bound
STRONG_DUALITY = {
    "thin-random400": lambda: random_system(400, (5, 5, 5), seed=2),
    "thin-core400": lambda: common_core(400, (6, 6, 6), 1, seed=0),
    "triple9-29": lambda: random_system(9, (3, 3, 3), seed=29),
    **{f"quad12-{s}": (lambda s=s: random_system(12, (3, 3, 3, 3), seed=s)) for s in (6, 12, 21, 37, 39, 49)},
    **{f"triple6-{s}": (lambda s=s: random_system(6, (2, 2, 2), seed=s)) for s in (104, 107)},
    **{f"triple9-{s}": (lambda s=s: random_system(9, (3, 3, 3), seed=s)) for s in range(10)},
    **{f"core8-{s}": (lambda s=s: common_core(8, (3, 4, 3), 1, seed=s)) for s in range(10)},
}


class TestInclination:
    @pytest.mark.parametrize("build, kappa", [(lambda: coordinate_axes(3), 1.0 / 3.0),
                                              (lambda: example3(12), 2.0 / 3.0)], ids=["axes", "example3"])
    def test_orthogonal_axes_bounds(self, build, kappa):
        est = inclination(build())
        assert est.lower == pytest.approx(1.0 - np.sqrt(kappa), abs=1e-12)
        assert est.lower - 1e-12 <= est.estimate <= est.upper + 1e-12
        assert est.certified
        # the symmetric direction, (1,1,1)/sqrt(3) for the axes, realizes the
        # minimum: the top eigenspace of the dual is 3-dimensional, and its
        # zero-gap point meets the bound sqrt(1 - kappa) of uniform weights
        assert est.estimate == pytest.approx(np.sqrt(1.0 - kappa), abs=1e-12)
        assert est.dual_lower == pytest.approx(np.sqrt(1.0 - kappa), abs=1e-12)

    @pytest.mark.parametrize("theta", [0.3, 0.8, 1.2])
    def test_two_lines_sandwich(self, theta):
        system = two_lines(theta)
        est = inclination(system)
        kappa = configuration_constant(system)
        assert 1.0 - est.estimate <= np.sqrt(kappa) + 1e-8
        assert np.sqrt(kappa) <= 1.0 - est.estimate ** 2 / 4.0 + 1e-8
        # bisector direction realizes the minimum for a pair of lines
        assert est.estimate == pytest.approx(np.sin(theta / 2.0), abs=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("dims", [(1, 2), (2, 3), (3, 3), (1, 4), (2, 5)])
    def test_pairs_take_the_closed_form(self, dims, seed):
        system = random_system(7, dims, seed=seed)
        est = inclination(system)
        assert est.estimate == est.dual_lower == np.sqrt(1.0 - configuration_constant(system))

    def test_a_zero_reduced_subspace_gives_exactly_one(self):
        axis = line([1.0, 0.0, 0.0], d=3)
        planes = (Subspace(3, np.eye(3)[:, :2]), Subspace(3, np.eye(3)[:, [0, 2]]))
        for system in (SubspaceSystem((axis, planes[0])), SubspaceSystem((axis, *planes))):
            assert system.reduced[0].dim == 0
            est = inclination(system)
            assert est.estimate == est.dual_lower == 1.0

    def test_three_lines_at_120_degrees_keep_a_duality_gap(self):
        angles = (0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0)
        est = inclination(SubspaceSystem(tuple(line([np.cos(a), np.sin(a)]) for a in angles)))
        assert est.estimate == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-5)
        assert est.dual_lower == pytest.approx(np.sqrt(0.5), abs=1e-12)

    @pytest.mark.parametrize("name", sorted(STRONG_DUALITY))
    def test_certificate_meets_the_estimate_where_duality_is_strong(self, name):
        system = STRONG_DUALITY[name]()
        est = inclination(system)
        assert est.estimate - est.dual_lower <= system.tol.check_tol

    @staticmethod
    def _spy_inclination(monkeypatch, system):
        """The inclination of the system, (name, shape) of each eigh, cholesky and solve it takes, and its exp calls."""
        solves, exps = [], []

        def spy(log, name, fn):
            def call(a, *args, **kwargs):
                log.append((name, np.shape(a)))
                return fn(a, *args, **kwargs)
            return call

        for name in ("eigh", "cholesky", "solve"):
            monkeypatch.setattr(np.linalg, name, spy(solves, name, getattr(np.linalg, name)))
        monkeypatch.setattr(np, "exp", spy(exps, "exp", np.exp))
        return inclination(system), solves, exps

    def test_a_met_certificate_stops_the_loop_before_its_cap(self, monkeypatch):
        system = random_system(400, (5, 5, 5), seed=2)
        est, solves, exps = self._spy_inclination(monkeypatch, system)
        # the eigh of G gives kappa, S and the uniform dual start, and two Newton
        # steps, one eigh each, settle d(lam); the top eigenvector at the third
        # step's weights, predicted to first order, then closes the primal side
        # without that step's eigh, and no multiplicative-weight power step (the
        # only caller of np.exp) runs
        assert len(solves) == 3 and not exps
        assert est.estimate - est.dual_lower <= system.tol.check_tol

    def test_the_predicted_primal_point_saves_a_dense_eigensolve(self, monkeypatch):
        # the bases span R^192: G and every pencil S D(lam) S are 192 x 192, above the
        # order where Newton's trials take no eigh.  Each trial takes Rayleigh-quotient
        # solves and the Cholesky that proves its bound on d; one more solve gives the
        # next Hessian, and the second trial's predicted top eigenvector closes the gap
        system = random_system(192, (64, 64, 64), seed=0)
        est, solves, exps = self._spy_inclination(monkeypatch, system)
        trial = [("solve", (192, 192))] * 2 + [("cholesky", (192, 192)), ("solve", (192, 192))]
        assert solves == [("eigh", (192, 192))] + trial + trial[1:] and not exps
        assert est.estimate - est.dual_lower <= system.tol.check_tol

    @pytest.mark.parametrize("name, build, closes", large_pencil_corpus(),
                             ids=[name for name, _, _ in large_pencil_corpus()])
    def test_the_certified_trials_keep_the_eigh_answers(self, monkeypatch, name, build, closes):
        system = build()
        order = system.gram.shape[0]
        monkeypatch.setattr(angles, "_CERTIFIED_ORDER", order + 1)
        by_eigh = inclination(system)
        certified_top, bounds = angles._certified_top, []

        def spy(pencil, x, spread):
            found = certified_top(pencil, x, spread)
            bounds.append((found[0], np.linalg.eigvalsh(pencil)[-1]))
            return found

        monkeypatch.setattr(angles, "_certified_top", spy)
        monkeypatch.setattr(angles, "_CERTIFIED_ORDER", order)
        est = inclination(system)
        # every certified bound lies above the top eigenvalue of the pencil it bounds
        assert all(bound >= top for bound, top in bounds)
        if closes:
            assert min(bounds)[0] < np.inf and est.estimate - est.dual_lower <= system.tol.check_tol
            assert abs(est.estimate - by_eigh.estimate) <= 1e-12
            assert -1e-11 <= est.dual_lower - by_eigh.dual_lower <= 1e-14
        else:
            # each of these fails its first certificate, and an eigh takes that trial: the eigh
            # trials then run as they would have from the start
            assert (est.estimate, est.dual_lower) == (by_eigh.estimate, by_eigh.dual_lower)

    def test_a_failed_certificate_hands_its_trial_to_an_eigh(self, monkeypatch):
        system = random_system(192, (64, 64, 64), seed=0)
        monkeypatch.setattr(angles, "_CERTIFIED_ORDER", system.gram.shape[0] + 1)
        by_eigh = inclination(system)
        monkeypatch.setattr(angles, "_CERTIFIED_ORDER", system.gram.shape[0])
        certified_top, calls = angles._certified_top, []

        def fail_second(pencil, x, spread):
            calls.append(spread)
            found = certified_top(pencil, x, spread)
            return (np.inf, *found[1:]) if len(calls) == 2 else found

        monkeypatch.setattr(angles, "_certified_top", fail_second)
        est, solves, _ = self._spy_inclination(monkeypatch, random_system(192, (64, 64, 64), seed=0))
        # the eigh of G, then one eigh for the trial whose certificate failed: the first
        # trial's certified progress is kept, and the gap closes from that eigh's step
        assert [name for name, _ in solves].count("eigh") == 2 and len(calls) == 2
        assert abs(est.estimate - by_eigh.estimate) <= 1e-12
        assert -1e-11 <= est.dual_lower - by_eigh.dual_lower <= 1e-14

    @pytest.mark.parametrize("seed", range(40))
    def test_an_eigh_bound_keeps_its_rounding_margin(self, seed):
        # eigh's top value can lie below the Rayleigh quotient of its own top vector, so
        # below the pencil's top eigenvalue (23 of these 40 pencils, by up to 6.5e-16);
        # the margin the loop's dual_lower adds to it keeps the bound one-sided
        system = random_system(9, (3, 3, 3), seed=seed)
        g, v = np.linalg.eigh(system.gram)
        root = (v * np.sqrt(np.maximum(g, 0.0))) @ v.T
        weights = np.repeat(np.random.default_rng(seed).dirichlet(np.ones(3)), 3)
        pencil = (root * weights) @ root
        mu, vecs = np.linalg.eigh(pencil)
        assert mu[-1] + angles._eigh_margin(mu[-1], 9) >= extended_rayleigh_quotient(pencil, vecs[:, -1])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 10, 19])
    def test_a_rank_deficient_gram_keeps_the_estimate_above_l(self, seed):
        # four lines in R^3: N exceeds rank R = 3, so S = G^(1/2) has a null space and
        # a predicted top eigenvector may leave range(S); y = R S^+ u then has norm
        # below 1 and each q_j only understates, so the estimate stays above l.  On
        # seeds 5, 10 and 19 the predicted point is the one that closes the gap.
        system = random_system(3, (1, 1, 1, 1), seed=seed)
        assert np.linalg.matrix_rank(system.gram) < system.gram.shape[0]
        est = inclination(system)
        assert est.dual_lower <= est.estimate
        # the grid's minimum lies within its covering radius, resolution / sqrt(2), of l
        assert est.estimate >= grid_inclination(system, resolution=0.01) - 0.01 / np.sqrt(2.0)
        assert est.estimate >= grid_dual_inclination(system) - 1e-12

    @pytest.mark.parametrize("name, build", inclination_corpus(),
                             ids=[name for name, _ in inclination_corpus()])
    def test_the_dual_bound_and_the_estimate_bracket_l(self, name, build):
        system = build()
        est = inclination(system)
        floor = np.sqrt(1.0 - configuration_constant(system))
        assert floor - 1e-12 <= est.dual_lower <= est.estimate <= est.upper + system.tol.check_tol

    @pytest.mark.parametrize("name, system", grid_corpus(), ids=[name for name, _ in grid_corpus()])
    def test_certificate_lies_below_the_estimate_and_the_grid_oracle(self, name, system):
        est = inclination(system)
        floor = np.sqrt(1.0 - configuration_constant(system))
        assert floor - 1e-12 <= est.dual_lower <= min(est.estimate, grid_inclination(system)) + 1e-12

    def test_matches_grid_oracle_on_small_systems(self):
        for name, system in grid_corpus()[:6]:
            est = inclination(system)
            assert abs(est.estimate - grid_inclination(system)) <= 0.02, name

    def test_interval_is_ordered(self):
        for seed in range(8):
            est = inclination(random_system(6, (2, 2, 3), seed=seed))
            assert est.lower <= est.upper + 1e-8

    def test_whole_space_intersection_rejected(self):
        system = SubspaceSystem((full_space(2), full_space(2)))
        with pytest.raises(ValueError):
            inclination(system)

    def test_is_deterministic(self):
        for dims in ((2, 2), (2, 2, 2)):
            a = inclination(random_system(5, dims, seed=3))
            b = inclination(random_system(5, dims, seed=3))
            assert (a.estimate, a.dual_lower) == (b.estimate, b.dual_lower)

    def test_estimate_does_not_depend_on_the_input_basis(self):
        # M = {0}, so the reduced bases are the input bases bit for bit; l is
        # 0.5627587447 and the dual closes its gap there from either basis
        system = random_system(9, (3, 3, 3), seed=29)
        first = system.subspaces[0]
        reversed_first = Subspace(first.ambient_dim, first.basis[:, ::-1], first.name)
        other = SubspaceSystem((reversed_first, *system.subspaces[1:]))
        assert abs(inclination(system).estimate - inclination(other).estimate) <= system.tol.check_tol


class TestIdentityWeb:
    """Range and cross-route identities on generated systems."""

    @pytest.mark.parametrize("seed", range(10))
    def test_affine_identity_and_ranges(self, seed):
        system = random_triples_r9()[seed]
        n = system.n_subspaces
        kappa = configuration_constant(system)
        c = friedrichs_number(system)
        assert abs(c - (n * kappa - 1.0) / (n - 1.0)) <= 1e-8
        assert 1.0 / n - 1e-8 <= kappa <= 1.0 + 1e-8
        assert -1e-8 <= c <= 1.0 + 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_kappa_equals_product_space_angle_squared(self, seed):
        system = common_core(7, (2, 3, 3), core_dim=1, seed=seed)
        pair = product_space(system)
        c_cd = pairwise_friedrichs(pair.C, pair.D)
        assert abs(configuration_constant(system) - c_cd ** 2) <= 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_reduction_invariance(self, seed):
        system = common_core(8, (3, 4, 3), core_dim=2, seed=seed)
        reduced = SubspaceSystem(system.reduced, tol=system.tol)
        assert reduced.intersection.dim == 0
        c0_red, _ = dixmier_number(reduced)
        assert abs(friedrichs_number(system) - c0_red) <= 1e-8

    def test_report_assembly(self):
        report = angle_report(example3(12))
        assert report.c == pytest.approx(0.5, abs=1e-9)
        assert report.kappa == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert not report.degenerate
        assert report.inclination is not None and report.inclination.certified

    def test_report_degenerate_full_space(self):
        system = SubspaceSystem((full_space(2), full_space(2)))
        report = angle_report(system)
        assert report.degenerate
        assert report.inclination is None
        assert report.c == 0.0 and report.kappa == 0.5
        assert report.c0 == pytest.approx(1.0, abs=1e-10)
