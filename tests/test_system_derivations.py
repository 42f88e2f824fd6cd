"""A system is the single home of its tolerance policy and of what is derived from it.

Every analysis reads `system.tol`.  The intersection, the prefix cosines
and the Gram matrix R^T R of the stacked reduced bases with its blocks
R_i^T R_j are stored at construction, and the eigh of R^T R, kappa, the
pairwise table, the cyclic chain (K, K W), the power traces and gamma(I - T)
are computed once per system and then shared, read-only, by every later
call; no analysis builds a second system.
"""

import dataclasses
import inspect

import numpy as np
import pytest

from altproj import angles, diagnostics, dynamics, subspace
from altproj.angles import angle_report, configuration_constant, pairwise_dixmier_reduced
from altproj.corpus import common_core, random_system, tilted_pairs, two_lines
from altproj.diagnostics import bound_report, dichotomy_report
from altproj.dynamics import operator_error_norms, reduced_min_modulus
from altproj.numerics import TolerancePolicy
from altproj.subspace import SubspaceSystem


def test_analyses_honour_the_policy_of_the_system():
    # under check_tol = 1e-3 two lines at 1e-3 coincide: their sine is sin(1e-3) <= 1e-3
    loose = TolerancePolicy(check_tol=1e-3)
    system = SubspaceSystem(two_lines(1e-3).subspaces, tol=loose)
    assert system.intersection.dim == 1
    assert system.degenerate
    report = angle_report(system)
    assert report.prefix_friedrichs == (0.0,)
    assert report.c0 == report.kappa0 == 1.0


@pytest.mark.parametrize("module", [angles, diagnostics, dynamics], ids=lambda m: m.__name__)
def test_no_analysis_of_a_system_takes_a_policy(module):
    for name in module.__all__:
        fn = getattr(module, name)
        if not inspect.isfunction(fn):
            continue
        params = list(inspect.signature(fn).parameters)
        if params[0] == "system":
            assert not {"tol", "ell_lower", "ell_upper"} & set(params), name


def count_derivations(monkeypatch, fn):
    """Record the arguments of every call that misses a system's cache."""
    calls = []
    inner = fn.__wrapped__

    def spy(*args, **kwargs):
        calls.append(args + tuple(kwargs.values()))
        return inner(*args, **kwargs)

    monkeypatch.setattr(fn, "__wrapped__", spy)
    return calls


def spy_eigensolves(monkeypatch):
    """Record the matrix of every np.linalg.eigh and eigvalsh call, by name."""
    solves = {"eigh": [], "eigvalsh": []}
    for name, calls in solves.items():
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *args, calls=calls, solve=solve, **kwargs:
                            calls.append(np.array(a)) or solve(a, *args, **kwargs))
    return solves


def test_reports_derive_each_quantity_once(monkeypatch):
    system = random_system(9, (3, 3, 3), seed=0)
    solves = spy_eigensolves(monkeypatch)
    chains = []
    reduced_chain = dynamics._reduced_chain

    def chain_spy(system, indices):
        chains.append(tuple(indices))
        return reduced_chain(system, indices)

    monkeypatch.setattr(dynamics, "_reduced_chain", chain_spy)
    meets, prefix_meets = [], subspace._prefix_meets

    def spy(subspaces, tol):
        meets.append(len(subspaces))
        return prefix_meets(subspaces, tol)

    monkeypatch.setattr(subspace, "_prefix_meets", spy)
    kappa = count_derivations(monkeypatch, configuration_constant)
    table = count_derivations(monkeypatch, pairwise_dixmier_reduced)
    traces = count_derivations(monkeypatch, operator_error_norms)
    gamma = count_derivations(monkeypatch, reduced_min_modulus)
    chain = count_derivations(monkeypatch, dynamics._cyclic_chain)
    spectrum = count_derivations(monkeypatch, angles._gram_eigh)

    angle_report(system)
    bound_report(system, n_max=100)
    dichotomy_report(system)

    # one eigh of the unweighted Gram matrix of the stacked reduced bases gives
    # kappa, S = G^(1/2) and the uniform dual start; the inclination's Newton
    # steps solve weighted pencils, and gamma R_N^T R_N - B^T B for B = R_1^T R_N
    stacked = np.hstack([r.basis for r in system.reduced])
    assert sum(np.array_equal(a, stacked.T @ stacked) for a in solves["eigh"]) == 1
    assert solves["eigvalsh"] == []
    # K is built once, for the cyclic chain; W = R_1^T R_N is the stored Gram block
    assert chains == [(1, 2, 3)]
    # the eigh of R^T R is shared by kappa and the inclination loop
    assert kappa == gamma == chain == spectrum == [(system,)]
    # the intersection and the prefix cosines are stored at construction; no analysis takes a meet
    assert meets == []
    assert table == [(system,)]
    assert sorted(call[1] for call in traces) == [1, 100]
    assert all(call[0] is system for call in traces)


PAIRS = pytest.mark.parametrize("build", [lambda: two_lines(np.pi / 3), lambda: tilted_pairs(5),
                                          *[lambda s=s: random_system(8, (3, 4), seed=s) for s in range(3)]],
                                ids=["lines", "tilted5", *[f"random8-{s}" for s in range(3)]])


@PAIRS
def test_a_pair_walks_its_operator_trace_once(monkeypatch, build):
    # KW is DeHu's pair case over the report's horizon: no second, shorter trace
    system = build()
    traces = count_derivations(monkeypatch, operator_error_norms)
    bound_report(system, n_max=100)
    dichotomy_report(system)
    assert sorted(call[1] for call in traces) == [1, 100]


def test_kw_shares_the_default_horizon_of_dehu_and_the_report(monkeypatch):
    # kw_check used to default to n_max = 10, a third trace beside the report's n = 1 and 100
    system = two_lines(1.0)
    traces = count_derivations(monkeypatch, operator_error_norms)
    diagnostics.kw_check(system)
    diagnostics.dehu_check(system)
    bound_report(system)
    assert sorted(call[1] for call in traces) == [1, 100]


@PAIRS
def test_a_pair_reads_kappa_from_its_cosine(monkeypatch, build):
    # lambda_max([[I, B], [B^T, I]]) = 1 + sigma_max(B), B = R_1^T R_2: no report
    # of a pair solves an eigenproblem of G
    system = build()
    solves = spy_eigensolves(monkeypatch)
    spectrum = count_derivations(monkeypatch, angles._gram_eigh)
    angle_report(system)
    bound_report(system, n_max=100)
    dichotomy_report(system)
    assert not any(np.array_equal(a, system.gram) for a in solves["eigh"] + solves["eigvalsh"])
    assert spectrum == []
    assert configuration_constant(system) == (1.0 + pairwise_dixmier_reduced(system)[0, 1]) / 2.0


@pytest.mark.parametrize("build", [lambda: common_core(10, (4, 4, 4, 4), 1, seed=0),
                                   lambda: random_system(9, (3, 3, 3), seed=0),
                                   lambda: tilted_pairs(5)],
                         ids=["core10", "random9", "tilted5"])
def test_reports_build_no_system(monkeypatch, build):
    system = build()
    built = []
    post_init = SubspaceSystem.__post_init__

    def spy(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(SubspaceSystem, "__post_init__", spy)
    angle_report(system)
    bound_report(system, n_max=100)
    dichotomy_report(system)
    assert built == []


def test_the_system_and_its_cached_values_refuse_writes():
    system = random_system(9, (3, 3, 3), seed=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        system.tol = TolerancePolicy(check_tol=1e-3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        system.subspaces = system.subspaces[:2]
    table = angle_report(system).pairwise_dixmier_reduced
    assert table is pairwise_dixmier_reduced(system)
    with pytest.raises(ValueError):
        table[0, 1] = 0.5
    trace = operator_error_norms(system, 5)
    with pytest.raises(ValueError):
        trace.errors[0] = 0.0
    with pytest.raises(ValueError):
        trace.steps[0] = 0
    for block in dynamics._cyclic_chain(system):
        with pytest.raises(ValueError):
            block[0, 0] = 0.0


def test_derived_functions_take_at_most_one_argument_after_the_system():
    # the memo keys a call as made, so a second argument could be keyed two ways
    derived = {fn for module in (angles, dynamics) for fn in vars(module).values()
               if getattr(getattr(fn, "__code__", None), "co_name", "") == "once"}
    assert len(derived) == 6
    for fn in derived:
        assert list(inspect.signature(fn).parameters)[0] == "system", fn.__name__
        assert len(inspect.signature(fn).parameters) <= 2, fn.__name__


def test_the_memo_keys_each_argument_by_its_type():
    # 2.0 and True equal 2 and 1, and hash alike, but are no integer counts
    system = two_lines(0.5)
    operator_error_norms(system, 2)
    operator_error_norms(system, 1)
    with pytest.raises(ValueError):
        operator_error_norms(system, 2.0)
    with pytest.raises(ValueError):
        operator_error_norms(system, True)
    assert operator_error_norms(system, 1) is operator_error_norms(system, n_max=1)


def test_keyword_and_positional_calls_share_one_entry():
    system = random_system(9, (3, 3, 3), seed=2)
    by_keyword = operator_error_norms(system, n_max=3)
    assert operator_error_norms(system, 3) is by_keyword
    assert operator_error_norms(system=system, n_max=3) is by_keyword
    assert configuration_constant(system=system) is configuration_constant(system)
    fresh = random_system(9, (3, 3, 3), seed=2)
    np.testing.assert_array_equal(by_keyword.errors, operator_error_norms(fresh, 3).errors)
    # the wrapper keeps the name, module and signature that callers bind by name
    assert list(inspect.signature(operator_error_norms).parameters) == ["system", "n_max"]
    assert operator_error_norms.__module__ == "altproj.dynamics"
    assert operator_error_norms.__name__ == "operator_error_norms"
