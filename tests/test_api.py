"""The public surface: every exported name resolves, and the package exports a pinned set.

`perfbench/tracing.py` wraps each `__all__` entry of every module with
`getattr`, so a stale entry would break the traced benchmark.  The package
re-exports the `__all__` of each library module, every module but the CLI.
"""

import importlib
import inspect
import pkgutil
import subprocess
import sys

import pytest

import altproj

MODULES = [importlib.import_module(f"altproj.{info.name}") for info in pkgutil.iter_modules(altproj.__path__)]
LIBRARY = [module for module in MODULES if module.__name__ != "altproj.cli"]
EXPORTED = {name for name, value in vars(altproj).items() if not name.startswith("_") and not inspect.ismodule(value)}

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
    assert EXPORTED == PUBLIC
    # each one is exported by the module that holds it
    assert all(any(name in module.__all__ for module in MODULES) for name in EXPORTED)


def test_the_package_re_exports_the_library_modules_disjoint_lists():
    assert sorted(module.__name__ for module in LIBRARY) == [
        f"altproj.{name}" for name in ("angles", "corpus", "diagnostics", "dynamics", "numerics", "subspace")]
    lists = [module.__all__ for module in LIBRARY]
    union = set().union(*lists)
    assert len(union) == sum(map(len, lists))
    assert EXPORTED == union


def test_importing_the_package_leaves_the_cli_unimported():
    probe = "import sys, altproj; print('altproj.cli' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert run.stdout == "False\n"
