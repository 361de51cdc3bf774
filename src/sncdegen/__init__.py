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
* `checks`       — the pass/fail row of every report and its text table;
* `cli`          — the `sncdegen` command-line driver.

The namespace is lazy (PEP 562): `import sncdegen` imports no submodule,
and the first use of an exported name imports only the submodule that
defines it (and what that submodule imports), so a cold process compiles
no more of the package than it uses.  A submodule read as an attribute of
the package (`from . import toriclat`, `sncdegen.toriclat`) is lazy too:
it is registered in `sys.modules` at once, and its body runs on the first
use of one of its attributes.  So `cli`, which reads every other module
that way, compiles only what the command it runs uses: `class` and
`verify --scope lemma-arrangement` compile no toric code.
"""

import importlib
import sys

__version__ = "0.1.0"

#: The exported names of each submodule, in the order of `__all__`: the
#: package's one list of public names.  The submodules keep none of their
#: own, and names such as `checks.render_checks` that only the package
#: itself uses are not exported.  `CheckResult` is listed where it has
#: always been exported from, `degeneration`, which binds it from `checks`.
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
    use, or lazily load a submodule that `name` itself names, and bind
    the value here so that later uses skip this hook.  Any other name
    raises AttributeError."""
    module = _SOURCE.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    else:
        value = _lazy_submodule(name)
    globals()[name] = value
    return value


def _lazy_submodule(name: str):
    """The submodule `name` of this package, registered in `sys.modules`
    but not yet executed: `importlib.util.LazyLoader` runs its body on the
    first attribute access, `vars()` and `import` statements included.
    A submodule already in `sys.modules` is returned as it is, since a
    name has one module object.  Dunder names are never submodules here,
    so that `__main__`, the entry point of `python -m sncdegen`, is only
    ever run by `runpy`."""
    from importlib.util import LazyLoader, find_spec, module_from_spec
    fullname = f"{__name__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    submodule = name.isidentifier() and not name.startswith("__")
    spec = find_spec(fullname) if submodule else None
    if spec is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
