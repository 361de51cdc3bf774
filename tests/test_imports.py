"""Every module of the package references each name it imports and reads
no private name of another, the command line runs without `dataclasses`,
`inspect`, `argparse` or `json`, the package namespace imports a submodule
only when one of its names is used, and a command executes only its own
module and the modules it uses: a refusal, only those that hold its
bound, and `--help` or a malformed command line no command module."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sncdegen"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that `source` imports and never references."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "import os\nfrom typing import Optional, Sequence\nos.sep\nx: Optional[int]\n"
    assert unused_imports(source) == ["Sequence"]


#: The package's modules, then the tests' and the demos' own files.
LINTED = MODULES + [path for folder in ("tests", "demos")
                    for path in sorted((ROOT / folder).glob("*.py"))]


@pytest.mark.parametrize("path", LINTED, ids=lambda p: p.name if p.parent == SRC
                         else f"{p.parent.name}/{p.name}")
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []


def test_no_module_imports_dataclasses():
    """The records are NamedTuples: `dataclasses` would bring `inspect`,
    `ast`, `dis` and `tokenize` into every cold run of the command line."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                assert "dataclasses" not in {a.name.split(".")[0] for a in node.names}, path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name


def private_reads(source: str) -> list[tuple[int, str]]:
    """The reads, in a module of the package, of an underscore-prefixed
    name of a sibling module: `from .x import _y`, or `x._y` where `x` is
    bound to a sibling module.  Names of submodules, such as `_intmat`, and
    dunder names are not private names."""
    siblings = {p.stem for p in MODULES}

    def private(name: str) -> bool:
        return name.startswith("_") and not name.startswith("__") and name not in siblings

    tree = ast.parse(source)
    modules, reads = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module if node.level == 0 else ".".join(
                filter(None, [SRC.name, node.module]))
            if module == SRC.name:
                modules |= {a.asname or a.name for a in node.names}
            elif module and module.startswith(SRC.name + "."):
                reads += [(a.lineno, f"{module.split('.')[1]}.{a.name}")
                          for a in node.names if private(a.name)]
    reads += [(node.lineno, f"{node.value.id}.{node.attr}") for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and private(node.attr)]
    return sorted(reads)


def test_private_reads_are_found():
    source = ("from . import _intmat, toriclat\nfrom .toriclat import Fan, _exchange\n"
              "toriclat._sweep_box, toriclat.__name__, _intmat.dot, Fan._store\n")
    assert private_reads(source) == [(2, "toriclat._exchange"), (3, "toriclat._sweep_box")]


def test_no_module_reads_a_private_name_of_another():
    """A module reaches another only through its public names, so that a
    private helper can change without a second module changing with it."""
    assert [f"{path.name}:{line} {name}" for path in MODULES
            for line, name in private_reads(path.read_text())] == []


def test_command_line_import_adds_no_dataclasses_or_inspect():
    probe = "import sys{}; print(' '.join(sorted(sys.modules)))"

    def modules(statement: str) -> set[str]:
        out = subprocess.run([sys.executable, "-c", probe.format(statement)], env=src_env(),
                             capture_output=True, text=True, check=True).stdout
        return set(out.split())

    added = modules(", sncdegen.cli") - modules("")
    assert "sncdegen.cli" in added
    assert not added & {"dataclasses", "inspect", "argparse", "gettext", "locale", "json"}


@pytest.mark.parametrize("argv", [["report", "--n", "4", "--d", "5", "--format", "json"],
                                  ["resolve", "--n", "5", "--format", "json"]], ids=" ".join)
def test_json_commands_run_without_json(argv):
    # the payload goes to stdout; the last line says whether `json` was loaded
    code = ("import sys\nfrom sncdegen.cli import main\n"
            f"code = main({argv!r})\nprint(code, 'json' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=src_env(),
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "0 False"


# -- the lazy package namespace -----------------------------------------

# The public names of the package, in order, as they were when
# `__init__.py` imported every submodule eagerly.
PUBLIC = [
    "GrothClass", "L", "ONE", "ZERO", "proj_space_class", "reduce_mod_L",
    "arrangement_class_closed", "arrangement_class_recursive",
    "arrangement_class_inclusion_exclusion",
    "Cone", "Fan", "Coordinate", "ChartPresentation",
    "FiberCheck", "unit_vector", "dual_cone", "greedy_decompose",
    "is_smooth", "model_cone", "sigma_subcone", "resolution_fan",
    "dual_generators", "verify_partition", "semistable_fiber_check",
    "toric_class", "fiber_class", "blowup_chart_sequence",
    "singular_model_chart",
    "LocalModelSpec", "DegenerationSpec", "CheckResult", "VerificationReport",
    "affine_coordinate_arrangement_class", "resolve_local_model",
    "full_degeneration_report",
    "__version__",
]


def run_fresh(code: str):
    """Run `code` in a fresh interpreter and return the JSON value of the
    last line it prints."""
    out = subprocess.run([sys.executable, "-c", code], env=src_env(),
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def package_modules_after(statement: str) -> list[str]:
    """The `sncdegen` submodules loaded after `statement` runs in a fresh
    interpreter."""
    return run_fresh(f"import json, sys\n{statement}\nprint(json.dumps(sorted("
                     "m for m in sys.modules if m.startswith('sncdegen.'))))")


def package_modules_executed(statement: str) -> list[str]:
    """The `sncdegen` submodules whose bodies have run after `statement`
    runs in a fresh interpreter.  A lazy submodule is registered in
    `sys.modules` before it runs; `type` reads no attribute of a module,
    so it tells an unexecuted (lazy) module from an executed one without
    running it."""
    return run_fresh(f"import json, sys, types\n{statement}\nprint(json.dumps(sorted("
                     "m for m, module in sys.modules.items() if m.startswith('sncdegen.')"
                     " and type(module) is types.ModuleType)))")


def test_package_import_loads_no_submodule():
    assert package_modules_after("import sncdegen") == []


def test_arrangement_class_loads_only_grothring():
    assert package_modules_after(
        "import sncdegen; sncdegen.arrangement_class_closed") == ["sncdegen.grothring"]


def test_resolution_fan_does_not_load_degeneration():
    loaded = package_modules_after("import sncdegen; sncdegen.resolution_fan")
    assert "sncdegen.fans" in loaded
    assert "sncdegen.degeneration" not in loaded and "sncdegen.cli" not in loaded
    # the orbit API counts classes in Z[L], and certifies nothing
    assert package_modules_executed(
        "import sncdegen\n"
        "sncdegen.fiber_class(sncdegen.resolution_fan(4), sncdegen.unit_vector(5, 4))"
    ) == ["sncdegen._intmat", "sncdegen.fans", "sncdegen.grothring"]


def test_dual_generators_execute_no_toric_code():
    # the canonical generators are closed-form: no cone, no certificate
    assert package_modules_executed(
        "import sncdegen; sncdegen.dual_generators(3)"
    ) == ["sncdegen._intmat", "sncdegen.duality"]


def test_check_result_executes_only_checks():
    assert package_modules_executed(
        "import sncdegen; sncdegen.CheckResult") == ["sncdegen.checks"]


def test_public_names_are_the_defining_modules_objects():
    names, mismatched = run_fresh("""
import json, sys, sncdegen
names = list(sncdegen.__all__)
# a value's __module__ is that of its class for the GrothClass constants
bad = [name for name in names if name != "__version__"
       and getattr(sncdegen, name) is not getattr(
           sys.modules[getattr(sncdegen, name).__module__], name)]
print(json.dumps([names, bad]))
""")
    assert names == PUBLIC
    assert mismatched == []


def test_star_import_and_unknown_names():
    bound, unknown, submodules = run_fresh("""
import json, sncdegen
namespace = {}
exec("from sncdegen import *", namespace)
try:
    sncdegen.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
from sncdegen import cli, degeneration
print(json.dumps([sorted(set(namespace) - {"__builtins__"}), unknown,
                  [cli.__name__, degeneration.__name__]]))
""")
    assert bound == sorted(PUBLIC)
    assert unknown == "module 'sncdegen' has no attribute 'no_such_name'"
    assert submodules == ["sncdegen.cli", "sncdegen.degeneration"]


# -- the command line's lazy submodules ---------------------------------

TORIC = ["sncdegen._intmat", "sncdegen.checks", "sncdegen.fans", "sncdegen.toriclat"]


#: Command lines, their exit codes and the package modules they execute
#: besides `cli`: the module of the command that runs, and the modules it
#: uses.  `--help` and a malformed command line execute no command module.
LAZY_CASES = [
    (["class", "--r", "18", "--n", "17"], 0, ["sncdegen.cmd_class", "sncdegen.grothring"]),
    (["verify", "--scope", "lemma-arrangement", "--max-n", "3"], 0,
     ["sncdegen.checks", "sncdegen.cmd_verify", "sncdegen.grothring"]),
    (["--help"], 0, []),
    (["report", "--help"], 0, []),
    (["class", "--r", "x", "--n", "1"], 1, []),
    (["report", "--n", "3"], 1, []),
    (["verify", "--scope", "nope"], 1, []),
    (["report", "--n", "3", "--d", "4"], 0,
     [*TORIC, "sncdegen.cmd_report", "sncdegen.degeneration", "sncdegen.grothring"]),
    # the charts and the duality rows run `duality`; `report` does not
    (["resolve", "--n", "3"], 0, [*TORIC, "sncdegen.cmd_resolve", "sncdegen.duality"]),
    # `dual` reads its cones from `fans` and runs no certificate
    (["dual", "--n", "3"], 0, ["sncdegen._intmat", "sncdegen.checks", "sncdegen.cmd_dual",
                               "sncdegen.duality", "sncdegen.fans"]),
    # the toric suite prints the rows of `dual` and the charts of `resolve`
    (["verify", "--scope", "lemma-toric", "--max-n", "3"], 0,
     [*TORIC, "sncdegen.cmd_dual", "sncdegen.cmd_resolve", "sncdegen.cmd_verify",
      "sncdegen.duality"]),
]


@pytest.mark.parametrize("argv, code, executed", LAZY_CASES,
                         ids=[" ".join(argv) for argv, _, _ in LAZY_CASES])
def test_command_executes_only_the_modules_it_uses(argv, code, executed):
    # `cli` imports the module of the command that runs, if any, and that
    # module registers every submodule it reads and runs only those it uses
    assert package_modules_executed(f"""
import contextlib, io
from sncdegen.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert main({argv!r}) == {code}
""") == sorted(["sncdegen.cli", *executed])


#: Out-of-range values, each refused by its command before any work, with
#: the refusal and the package modules it executes besides `cli`: the
#: command's own module, and for `class` `grothring`, which holds its cap on r.
REFUSALS = [
    (["class", "--r", "0", "--n", "0"], "need r >= 1, got r=0",
     ["sncdegen.cmd_class", "sncdegen.grothring"]),
    (["class", "--r", "27", "--n", "3"], "class is limited to r <= 26, got r=27",
     ["sncdegen.cmd_class", "sncdegen.grothring"]),
    (["class", "--r", "2", "--n", "-1"], "need n >= 0, got n=-1",
     ["sncdegen.cmd_class", "sncdegen.grothring"]),
    (["class", "--r", "2", "--n", "10001"], "class is limited to n <= 10000, got n=10001",
     ["sncdegen.cmd_class", "sncdegen.grothring"]),
    (["dual", "--n", "0"], "need n >= 1, got n=0", ["sncdegen.cmd_dual"]),
    (["dual", "--n", "193"], "dual is limited to n <= 192, got n=193", ["sncdegen.cmd_dual"]),
    (["resolve", "--n", "0"], "need n >= 1, got n=0", ["sncdegen.cmd_resolve"]),
    (["resolve", "--n", "43"], "resolve is limited to n <= 42, got n=43",
     ["sncdegen.cmd_resolve"]),
    (["verify", "--max-n", "-1"], "need max-n >= 0, got max-n=-1", ["sncdegen.cmd_verify"]),
    (["report", "--n", "10001", "--d", "3"], "report is limited to n <= 10000, got n=10001",
     ["sncdegen.cmd_report"]),
]


@pytest.mark.parametrize("argv, refusal, executed", REFUSALS,
                         ids=[" ".join(argv) for argv, _, _ in REFUSALS])
def test_refusal_is_one_line_and_executes_only_what_it_reads(argv, refusal, executed):
    assert package_modules_executed(f"""
import contextlib, io
from sncdegen.cli import main
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    assert main({argv!r}) == 1
assert out.getvalue() == "", out.getvalue()
assert err.getvalue() == "sncdegen: error: {refusal}\\n", err.getvalue()
""") == sorted(["sncdegen.cli", *executed])
