"""The benchmark's tracer (perfbench/traced.py) wraps library functions by
name.  Each name it lists must still resolve in the package, so that a
rename or a deletion fails here and not only in a traced benchmark run.
traced.py is read as text, never imported or changed."""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

from conftest import src_env

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def traced_constant(name: str):
    """The literal value of the top-level assignment `name = ...` in traced.py."""
    tree = ast.parse(TRACED.read_text())
    node = next(n for n in tree.body if isinstance(n, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name for t in n.targets))
    return ast.literal_eval(node.value)


def test_every_traced_span_resolves():
    # the tracer rebinds a function where modules bind it and a method in
    # its class's own namespace
    missing = []
    for module_name, qualname in traced_constant("SPANS"):
        owner = importlib.import_module(f"sncdegen.{module_name}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        found = vars(owner).get(attr) if owner is not None else None
        if not callable(found):
            missing.append(f"{module_name}.{qualname}")
    assert missing == []


def test_tracer_imports_load_every_traced_module():
    # the tracer runs `import sncdegen, sncdegen.cli`, then reads
    # sys.modules["sncdegen.<module>"] for every span before the target
    # runs: the command line must still load each traced module
    modules = sorted({f"sncdegen.{module}" for module, _ in traced_constant("SPANS")})
    code = ("import sys, sncdegen, sncdegen.cli\n"
            f"print([m for m in {modules!r} if m not in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=src_env(),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_every_traced_groth_operation_resolves():
    from sncdegen.grothring import GrothClass
    ops = traced_constant("GROTH_OPS")
    assert [op for op in ops if not callable(vars(GrothClass).get(op))] == []


def test_partition_counter_reads_parameters_of_verify_partition():
    # the counter of toriclat.verify_partition.points reads the bound
    # call's arguments by name: args.arguments["..."]
    tree = ast.parse(TRACED.read_text())
    counter = next(n for n in tree.body
                   if isinstance(n, ast.FunctionDef) and n.name == "_partition_points")
    keys = {node.slice.value for node in ast.walk(counter)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute) and node.value.attr == "arguments"
            and isinstance(node.slice, ast.Constant)}
    from sncdegen.toriclat import verify_partition
    assert keys and keys <= set(inspect.signature(verify_partition).parameters)
