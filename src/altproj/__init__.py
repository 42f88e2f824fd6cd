"""Joint subspace angles and the dynamics of alternating projections."""

from .angles import (
    AngleReport,
    InclinationEstimate,
    angle_report,
    configuration_constant,
    dixmier_number,
    friedrichs_number,
    inclination,
    inclination_bounds,
    pairwise_dixmier_reduced,
    prefix_friedrichs,
)
from .corpus import common_core, example3, random_system, tilted_pairs, two_lines
from .diagnostics import (
    BoundCheck,
    BoundReport,
    DichotomyVerdict,
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
from .dynamics import (
    ConvergenceTrace,
    IndexSchedule,
    SlowProbeResult,
    SlowSequence,
    iterate_vector,
    operator_error_norms,
    random_product_norm,
    reduced_min_modulus,
    slow_vector_probe,
)
from .numerics import (
    DEFAULT_TOL,
    NumericalFailure,
    TolerancePolicy,
    operator_norm,
    orthonormalize,
)
from .subspace import Subspace, SubspaceSystem, intersection_of

__version__ = "0.1.0"
