"""sncdegen: exact classes of simple-normal-crossing hyperplane
arrangements and the toric resolution of t*y = z_1*...*z_n.

The package certifies, with integer-exact computations, the bookkeeping
behind degenerating a smooth hypersurface to a hyperplane arrangement:

* `grothring`    — arithmetic in Z[L] and the arrangement class P(r, n)
  by three independent derivations, with reduction modulo L;
* `toriclat`     — cones, fans, duality, unimodularity, the slab
  subdivision resolving the model singularity, semistability of the
  central fiber, orbit-cone class counting, and blow-up chart replay;
* `degeneration` — local normal forms on arrangement strata and
  machine-checkable verification reports;
* `cli`          — the `sncdegen` command-line driver.
"""

from .degeneration import (
    CheckResult,
    DegenerationSpec,
    LocalModelSpec,
    VerificationReport,
    affine_coordinate_arrangement_class,
    central_fiber_arrangement_class,
    full_degeneration_report,
    resolve_local_model,
)
from .grothring import (
    GrothClass,
    L,
    ONE,
    ZERO,
    arrangement_class_closed,
    arrangement_class_inclusion_exclusion,
    arrangement_class_recursive,
    binomial_congruence_check,
    proj_space_class,
    reduce_mod_L,
)
from .toriclat import (
    ChartPresentation,
    Cone,
    Coordinate,
    Fan,
    FiberCheck,
    blowup_chart_sequence,
    dual_cone,
    dual_generators,
    fiber_class,
    greedy_decompose,
    is_smooth,
    model_cone,
    resolution_fan,
    semistable_fiber_check,
    sigma_subcone,
    singular_model_chart,
    toric_class,
    unit_vector,
    verify_partition,
)

__version__ = "0.1.0"

__all__ = [
    "GrothClass", "L", "ONE", "ZERO", "proj_space_class", "reduce_mod_L",
    "arrangement_class_closed", "arrangement_class_recursive",
    "arrangement_class_inclusion_exclusion", "binomial_congruence_check",
    "Cone", "Fan", "Coordinate", "ChartPresentation",
    "FiberCheck", "unit_vector", "dual_cone", "greedy_decompose",
    "is_smooth", "model_cone", "sigma_subcone", "resolution_fan",
    "dual_generators", "verify_partition", "semistable_fiber_check",
    "toric_class", "fiber_class", "blowup_chart_sequence",
    "singular_model_chart",
    "LocalModelSpec", "DegenerationSpec", "CheckResult", "VerificationReport",
    "affine_coordinate_arrangement_class", "resolve_local_model",
    "central_fiber_arrangement_class", "full_degeneration_report",
    "__version__",
]
