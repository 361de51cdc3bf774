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

The namespace is lazy (PEP 562): `import sncdegen` imports no submodule,
and the first use of an exported name imports only the submodule that
defines it (and what that submodule imports), so a cold process compiles
no more of the package than it uses.  `cli` still imports every module
when it loads: the benchmark's tracer imports `sncdegen.cli` and then
expects every traced module in `sys.modules`, so per-subcommand imports
wait until the tracer imports what it wraps itself.
"""

import importlib

__version__ = "0.1.0"

#: The exported names of each submodule, in the order of `__all__`: the
#: package's one list of public names.  The submodules keep none of their
#: own, and names such as `degeneration.render_checks` that only `cli`
#: imports are not exported.
_EXPORTS = {
    "grothring": (
        "GrothClass", "L", "ONE", "ZERO", "proj_space_class", "reduce_mod_L",
        "arrangement_class_closed", "arrangement_class_recursive",
        "arrangement_class_inclusion_exclusion",
    ),
    "toriclat": (
        "Cone", "Fan", "Coordinate", "ChartPresentation",
        "FiberCheck", "unit_vector", "dual_cone", "greedy_decompose",
        "is_smooth", "model_cone", "sigma_subcone", "resolution_fan",
        "dual_generators", "verify_partition", "semistable_fiber_check",
        "toric_class", "fiber_class", "blowup_chart_sequence",
        "singular_model_chart",
    ),
    "degeneration": (
        "LocalModelSpec", "DegenerationSpec", "CheckResult", "VerificationReport",
        "affine_coordinate_arrangement_class", "resolve_local_model",
        "full_degeneration_report",
    ),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name: str):
    """Import the submodule that defines an exported name on its first
    use, and bind the name here so that later uses skip this hook.  Any
    other name raises AttributeError, which lets `from sncdegen import cli`
    fall through to importing the submodule."""
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
