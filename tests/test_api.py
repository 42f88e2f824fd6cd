"""The public surface: every exported name resolves, and the package exports a pinned set.

`perfbench/tracing.py` wraps each `__all__` entry of every module with
`getattr`, so a stale entry would break the traced benchmark.
"""

import importlib
import inspect
import pkgutil

import pytest

import altproj

MODULES = [importlib.import_module(f"altproj.{info.name}") for info in pkgutil.iter_modules(altproj.__path__)]

PUBLIC = {
    # angles
    "AngleReport", "InclinationEstimate", "angle_report", "configuration_constant", "dixmier_number",
    "friedrichs_number", "inclination", "inclination_bounds", "pairwise_dixmier_reduced", "prefix_friedrichs",
    # corpus
    "common_core", "example3", "random_system", "tilted_pairs", "two_lines",
    # diagnostics
    "BoundCheck", "BoundReport", "DichotomyVerdict", "bound_report", "cor_main_check", "dehu_check",
    "dichotomy_report", "eq_norm_check", "eq_qua_check", "estimc_check", "kw_check", "remark_product_check",
    # dynamics
    "ConvergenceTrace", "IndexSchedule", "SlowProbeResult", "SlowSequence", "iterate_vector",
    "operator_error_norms", "random_product_norm", "reduced_min_modulus", "slow_vector_probe",
    # numerics
    "DEFAULT_TOL", "NumericalFailure", "TolerancePolicy", "operator_norm", "orthonormalize",
    # subspace
    "Subspace", "SubspaceSystem", "intersection_of",
}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert hasattr(module, name), f"{module.__name__}.{name}"


def test_the_package_exports_a_pinned_set():
    exported = {name for name, value in vars(altproj).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == PUBLIC
    # each one is exported by the module that holds it
    assert all(any(name in module.__all__ for module in MODULES) for name in exported)
