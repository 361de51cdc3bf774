"""Every module of the package references each name it imports, and
importing the command line stays free of `dataclasses` and `inspect`."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

SRC = Path(__file__).resolve().parent.parent / "src" / "sncdegen"
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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
    assert not added & {"dataclasses", "inspect"}
