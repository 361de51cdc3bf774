"""Every module of the package references each name it imports, the
command line runs without `dataclasses`, `inspect`, `argparse` or `json`,
the package namespace imports a submodule only when one of its names is
used, and a command executes only the modules it uses."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

SRC = Path(__file__).resolve().parent.parent / "src" / "sncdegen"
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
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


def test_package_import_loads_no_submodule():
    assert package_modules_after("import sncdegen") == []


def test_arrangement_class_loads_only_grothring():
    assert package_modules_after(
        "import sncdegen; sncdegen.arrangement_class_closed") == ["sncdegen.grothring"]


def test_resolution_fan_does_not_load_degeneration():
    loaded = package_modules_after("import sncdegen; sncdegen.resolution_fan")
    assert "sncdegen.toriclat" in loaded
    assert "sncdegen.degeneration" not in loaded and "sncdegen.cli" not in loaded


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

TORIC = ["sncdegen._intmat", "sncdegen.degeneration", "sncdegen.toriclat"]


LAZY_CASES = [
    (["class", "--r", "18", "--n", "17"], 0, []),
    (["verify", "--scope", "lemma-arrangement", "--max-n", "3"], 0, []),
    (["--help"], 0, []),
    (["class", "--r", "x", "--n", "1"], 1, []),
    (["report", "--n", "3", "--d", "4"], 0, TORIC),
    (["resolve", "--n", "3"], 0, TORIC),
]


@pytest.mark.parametrize("argv, code, executed", LAZY_CASES,
                         ids=[" ".join(argv) for argv, _, _ in LAZY_CASES])
def test_command_executes_only_the_modules_it_uses(argv, code, executed):
    # `cli` registers every submodule it reads, unexecuted; `type` reads no
    # attribute of a module, so it tells an unexecuted (lazy) module from
    # an executed one without running it
    assert run_fresh(f"""
import contextlib, io, json, sys
from sncdegen.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main({argv!r})
print(json.dumps([code, [m for m in {TORIC!r} if type(sys.modules.get(m)) is type(sys)]]))
""") == [code, executed]
