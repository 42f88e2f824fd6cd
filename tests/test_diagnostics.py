import numpy as np
import pytest

from altproj import angles, diagnostics
from altproj.angles import friedrichs_number, inclination, prefix_friedrichs
from altproj.corpus import common_core, example3, random_system, tilted_pairs, two_lines
from altproj.diagnostics import (
    NEAR_ASC_MARGIN,
    bound_report,
    cor_main_check,
    dehu_check,
    dichotomy_report,
    eq_norm_check,
    eq_qua_check,
    estimc_check,
    kw_check,
    remark_product_check,
)
from altproj.dynamics import operator_error_norms, reduced_min_modulus
from altproj.numerics import NumericalFailure
from altproj.subspace import Subspace, SubspaceSystem
from cases import coordinate_axes, every_system, random_triples_r9


def identical_lines():
    s = Subspace(2, np.array([[1.0], [0.0]]))
    return SubspaceSystem((s, s))


class TestKwCheck:
    def test_sixty_degree_pair_is_an_equality(self):
        check = kw_check(two_lines(np.pi / 3), n_max=10)
        assert check.max_abs_deviation <= 1e-8
        assert check.satisfied

    def test_orthogonal_pair_vanishes(self):
        check = kw_check(two_lines(np.pi / 2), n_max=5)
        assert np.allclose(check.measured, 0.0) and np.allclose(check.bound, 0.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_pairs(self, seed):
        system = random_system(10, (4, 5), seed=seed)
        assert kw_check(system, n_max=10).max_abs_deviation <= 1e-8

    def test_rejects_triples(self):
        with pytest.raises(ValueError):
            kw_check(example3(12))

    def test_is_dehu_on_every_corpus_pair(self):
        # KW is DeHu's pair case, checked over the report's horizon
        pairs = [(name, system) for name, build in every_system() if (system := build()).n_subspaces == 2]
        assert len(pairs) > 30
        for name, system in pairs:
            report = bound_report(system, n_max=30)
            kw, dehu = report.entry("KW"), report.entry("DeHu")
            assert (kw.margin, kw.max_abs_deviation, kw.note) == (dehu.margin, dehu.max_abs_deviation, dehu.note), name
            assert np.array_equal(kw.bound, dehu.bound) and np.array_equal(kw.measured, dehu.measured), name
            assert len(kw.bound) == 30, name


class TestCorMainCheck:
    def test_coordinate_example_long_horizon(self):
        check = cor_main_check(example3(12), n_max=300)
        assert check.satisfied and check.margin > 0

    def test_orthogonal_axes(self):
        check = cor_main_check(coordinate_axes(3), n_max=5)
        assert check.satisfied

    @pytest.mark.parametrize("seed", range(8))
    def test_random_triples(self, seed):
        check = cor_main_check(random_system(9, (3, 3, 3), seed=seed), n_max=50)
        assert check.satisfied

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            cor_main_check(identical_lines())


class TestDehuCheck:
    def test_coordinate_example_is_uninformative(self):
        check = dehu_check(example3(12), n_max=50)
        assert np.allclose(np.asarray(check.bound), 1.0)
        measured = np.asarray(check.measured)
        assert measured.max() < 1.0
        assert check.satisfied and "uninformative" in check.note

    def test_orthogonal_axes_bound_vanishes(self):
        check = dehu_check(coordinate_axes(3), n_max=5)
        assert np.allclose(np.asarray(check.bound), 0.0)
        assert np.allclose(np.asarray(check.measured), 0.0)
        assert check.satisfied

    @pytest.mark.parametrize("seed", range(8))
    def test_random_triples(self, seed):
        assert dehu_check(random_system(9, (3, 3, 3), seed=seed), n_max=50).satisfied

    @pytest.mark.parametrize("build", [lambda: common_core(4, (3, 2), 1, seed=3), lambda: two_lines(1.0)],
                             ids=["core4-32-3", "lines(1.0)"])
    def test_pair_is_the_kw_equality(self, build):
        # c^(n-1) c^n = c^(2n-1) equals the trace, so the margin is round-off
        # of either sign and the deviation is what the entry reports
        system = build()
        check = dehu_check(system, n_max=100)
        bound, measured = np.asarray(check.bound), np.asarray(check.measured)
        assert check.note == kw_check(system).note == "equality expected"
        assert check.max_abs_deviation == float(np.max(np.abs(measured - bound))) <= 1e-12
        assert check.margin == float(np.min(bound - measured))
        assert check.satisfied
        assert [e.note for e in bound_report(system).entries if e.name == "DeHu"] == ["equality expected"]


class TestEstimcCheck:
    def test_orthogonal_axes_closed_form(self):
        check = estimc_check(coordinate_axes(3))
        tight = float(np.asarray(check.bound)[0])
        expected = 1.0 - (1.0 - np.sqrt(0.5)) ** 4 / 2.0
        assert tight == pytest.approx(expected, abs=1e-12)
        assert check.satisfied

    @pytest.mark.parametrize("seed", range(8))
    def test_bound_formula_and_chain(self, seed):
        system = random_system(9, (3, 3, 3), seed=seed)
        check = estimc_check(system)
        prefix = np.asarray(prefix_friedrichs(system))
        n = 3
        tight = 1.0 - np.prod((1.0 - np.sqrt((prefix + 1.0) / 2.0)) ** 2) / (n - 1.0)
        loose = 1.0 - np.prod((1.0 - prefix) ** 2) / ((n - 1.0) * 4.0 ** (n - 1))
        np.testing.assert_allclose(np.asarray(check.bound), [tight, loose], atol=1e-12)
        # the two bounds are not ordered pointwise; the joint angle must clear both
        assert check.satisfied


class TestEndpointSubstitutedChecks:
    @pytest.mark.parametrize("seed", range(6))
    def test_eq_norm(self, seed):
        assert eq_norm_check(random_system(9, (3, 3, 3), seed=seed)).satisfied

    @pytest.mark.parametrize("seed", range(6))
    def test_eq_qua_both_sides(self, seed):
        low, high = eq_qua_check(random_system(9, (3, 3, 3), seed=seed))
        assert low.satisfied and high.satisfied

    @pytest.mark.parametrize("seed", range(6))
    def test_remark_product(self, seed):
        system = random_system(9, (3, 3, 3), seed=seed)
        rng = np.random.default_rng(seed)
        idx = [1, 2, 3] + list(rng.integers(1, 4, size=3))
        assert remark_product_check(system, idx).satisfied

    def test_remark_needs_covering_list(self):
        with pytest.raises(ValueError):
            remark_product_check(random_system(9, (3, 3, 3), seed=0), [1, 1, 2])

    def test_remark_rejects_non_integer_indices(self):
        # int() used to truncate them: [1.5, 2, 3] ran as the covering list [1, 2, 3]
        system = random_system(9, (3, 3, 3), seed=0)
        for idx in ([1.5, 2, 3, 1], [1.0, 2.0, 3.0]):
            with pytest.raises(ValueError):
                remark_product_check(system, idx)


class TestDichotomyReport:
    def test_coordinate_example(self):
        verdict = dichotomy_report(example3(12))
        assert verdict.verdict == "QUC"
        assert verdict.margin == pytest.approx(0.5, abs=1e-9)
        assert not verdict.near_asc

    def test_shallow_pair_is_near_boundary(self):
        verdict = dichotomy_report(two_lines(0.01))
        assert verdict.margin == pytest.approx(1.0 - np.cos(0.01), abs=1e-9)
        assert verdict.near_asc and verdict.margin < NEAR_ASC_MARGIN

    def test_orthogonal_axes_full_margin(self):
        verdict = dichotomy_report(coordinate_axes(3))
        assert verdict.margin == pytest.approx(1.0, abs=1e-10)
        assert verdict.product_gap == pytest.approx(0.0, abs=1e-12)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            dichotomy_report(identical_lines())

    @pytest.mark.parametrize("seed", range(6))
    def test_consistency_web(self, seed):
        system = random_triples_r9()[seed]
        n = system.n_subspaces
        verdict = dichotomy_report(system)
        root = np.sqrt(verdict.kappa)
        assert verdict.c < 1.0
        assert verdict.product_gap <= np.sqrt(1.0 - (1.0 - root) ** 2 / n ** 2) + 1e-10
        assert verdict.modulus >= (1.0 - root) ** 2 / (2.0 * n ** 2) - 1e-10

    @pytest.mark.parametrize("system", [example3(12)] + random_triples_r9(6))
    def test_inclination_interval_equals_the_inclination_sandwich(self, system):
        est = inclination(system)
        assert dichotomy_report(system).inclination_interval == (est.lower, est.upper)

    def test_verdict_runs_no_inclination_optimizer(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the verdict must not compute the inclination")

        monkeypatch.setattr(angles, "inclination", refuse)
        monkeypatch.setattr(diagnostics, "inclination", refuse, raising=False)
        verdict = dichotomy_report(example3(12))
        assert verdict.inclination_interval == (pytest.approx(1.0 - np.sqrt(2.0 / 3.0), abs=1e-12), 1.0)

    def test_broken_web_is_a_numerical_failure(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "reduced_min_modulus", lambda system: 0.0)
        with pytest.raises(NumericalFailure):
            dichotomy_report(example3(12))

    def test_tilted_family_walks_to_the_boundary(self):
        cs, gaps, moduli = [], [], []
        for k in (1, 5, 20, 60):
            system = tilted_pairs(k)
            cs.append(friedrichs_number(system))
            gaps.append(operator_error_norms(system, 1).errors[0])
            moduli.append(reduced_min_modulus(system))
        assert all(b > a for a, b in zip(cs, cs[1:]))
        assert all(b > a for a, b in zip(gaps, gaps[1:]))
        assert all(b < a for a, b in zip(moduli, moduli[1:]))
        assert cs[-1] >= 0.999 and gaps[-1] >= 0.999 and moduli[-1] <= 0.05


class TestBoundReport:
    def test_pair_report_contains_kw(self):
        report = bound_report(two_lines(np.pi / 3), n_max=10)
        names = [e.name for e in report.entries]
        assert "KW" in names and "corMain" in names
        assert not report.degenerate

    def test_triple_report_has_no_kw(self):
        report = bound_report(example3(12), n_max=20)
        names = [e.name for e in report.entries]
        assert "KW" not in names
        assert {"corMain", "DeHu", "estimC", "eqNorm", "eqQuaLower", "eqQuaUpper", "remarkK"} <= set(names)
        assert all(e.satisfied for e in report.entries)

    def test_degenerate_partial_report(self):
        report = bound_report(identical_lines(), n_max=5)
        assert report.degenerate
        names = [e.name for e in report.entries]
        assert "corMain" not in names and "KW" in names and "estimC" in names
        assert report.entry("KW").satisfied

    def test_unknown_entry_raises_key_error(self):
        with pytest.raises(KeyError, match="nope"):
            bound_report(two_lines(np.pi / 3), n_max=5).entry("nope")
