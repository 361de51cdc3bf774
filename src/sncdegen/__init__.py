"""sncdegen: exact classes of simple-normal-crossing hyperplane
arrangements and the toric resolution of t*y = z_1*...*z_n.

The package certifies, with integer-exact computations, the bookkeeping
behind degenerating a smooth hypersurface to a hyperplane arrangement:

* `grothring`    — arithmetic in Z[L] and the arrangement class P(r, n)
  by three independent derivations, with reduction modulo L;
* `toriclat`     — cones, fans, the dual cone, unimodularity, the slab
  subdivision resolving the model singularity, semistability of the
  central fiber, orbit-cone class counting, and blow-up chart replay;
* `duality`      — the dual side of the model: the canonical dual
  generators and the decomposition of their lattice points, the duality
  rows of a cone, and the chart records that the replay builds;
* `degeneration` — local normal forms on arrangement strata and
  machine-checkable verification reports;
* `checks`       — the pass/fail row of every report and its text table;
* `cli`          — the `sncdegen` command line: its parser, option table
  and JSON writer;
* `cmd_class`, `cmd_dual`, `cmd_resolve`, `cmd_verify`, `cmd_report` —
  one module per subcommand, which `cli` imports only to run it;
* `__main__`     — the program entry `run` of `python -m sncdegen` and
  of the `sncdegen` script.

The namespace is lazy (PEP 562), and a submodule loads in one of two
ways.  `from .x import y` runs `x` at once.  `from . import x` and
`sncdegen.<name>`, for a submodule `x` or for a name that `x` exports,
register `x` in `sys.modules` and run its body on first use.  So
`import sncdegen` runs no submodule, and a command, whose module reads
every other module the lazy way, runs only the modules it uses;
`tests/test_imports.py` pins which command runs which module.
"""

import sys

__version__ = "0.1.0"

#: The exported names, in the order of `__all__`, each under the submodule
#: that defines it: the package's one list of public names.  A submodule
#: may head several groups, so that each name keeps its place in `__all__`:
#: `CheckResult`, from `checks`, among the names of `degeneration`, and the
#: names of `duality` among those of `toriclat`.  The submodules keep no
#: lists of their own, and names that only the package itself uses, such
#: as `checks.render_checks`, are not exported.
_EXPORTS = (
    ("grothring", (
        "GrothClass", "L", "ONE", "ZERO", "proj_space_class", "reduce_mod_L",
        "arrangement_class_closed", "arrangement_class_recursive",
        "arrangement_class_inclusion_exclusion",
    )),
    ("toriclat", ("Cone", "Fan")),
    ("duality", ("Coordinate", "ChartPresentation")),
    ("toriclat", ("FiberCheck", "unit_vector", "dual_cone")),
    ("duality", ("greedy_decompose",)),
    ("toriclat", ("is_smooth", "model_cone", "sigma_subcone", "resolution_fan")),
    ("duality", ("dual_generators",)),
    ("toriclat", (
        "verify_partition", "semistable_fiber_check", "toric_class", "fiber_class",
        "blowup_chart_sequence",
    )),
    ("duality", ("singular_model_chart",)),
    ("degeneration", ("LocalModelSpec", "DegenerationSpec")),
    ("checks", ("CheckResult",)),
    ("degeneration", (
        "VerificationReport", "affine_coordinate_arrangement_class",
        "resolve_local_model", "full_degeneration_report",
    )),
)

_SOURCE = {name: module for module, names in _EXPORTS for name in names}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name: str):
    """The exported value `name`, read off the lazy submodule that
    defines it, or the lazy submodule `name` itself, bound here so that
    later uses skip this hook.  Any other name raises AttributeError."""
    module = _SOURCE.get(name)
    value = (_lazy_submodule(name) if module is None
             else getattr(_lazy_submodule(module), name))
    globals()[name] = value
    return value


def _lazy_submodule(name: str):
    """The submodule `name`, registered in `sys.modules` with an
    `importlib.util.LazyLoader` that runs its body on the first attribute
    access, or the module already there, since a name has one module
    object.  Dunder names are never submodules here, so a probe such as
    `getattr(sncdegen, "__main__", None)` raises no import.  `__main__`
    holds the program entry, which `python -m sncdegen` runs and the
    console script imports; importing it is harmless, since it runs a
    command only behind its `__name__ == "__main__"` guard."""
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
