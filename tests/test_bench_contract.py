"""The benchmark's tracer (perfbench/traced.py) wraps library functions by
name.  Each name it lists must still resolve in the package, so that a
rename or a deletion fails here and not only in a traced benchmark run.
traced.py is read as text, never imported or changed.  The benchmark's
operations (perfbench/workloads.py) run here once each and must pass its
own judge, so that an output change it would count as a failed operation
fails here first; workloads.py is compiled from its text, so no bytecode
is written next to it.  One `report` runs under traced.py as a child and
must reach every layer that perfbench/selftest.py, also read as text,
requires of it; another must certify one fan.  The orbit API and `dual`,
which run `fans` and not `toriclat`, run under traced.py and must count
the calls inside `fans`.  `class` and the
arrangement suite, which leave the toric modules unexecuted, run under
traced.py too, and must print what they print untraced with every span
installed."""

import ast
import importlib
import inspect
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

from conftest import src_env
from sncdegen.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACED = PERFBENCH / "traced.py"
SELFTEST = PERFBENCH / "selftest.py"


def load_workloads() -> types.ModuleType:
    """perfbench/workloads.py as a module of a name of its own."""
    path = PERFBENCH / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # its dataclass looks itself up there
    exec(compile(path.read_text(), str(path), "exec"), vars(module))
    return module


WORKLOADS = load_workloads()


@pytest.mark.parametrize("op", [op for _, ops in WORKLOADS.WORKLOADS.values() for op in ops],
                         ids=lambda op: op.name)
def test_benchmark_operation_passes_its_judge(capsys, op):
    # the CLI operations run in process, `perfbench/orbit.py` as a child
    if op.args[:2] == ("-m", "sncdegen"):
        code = main(list(op.args[2:]))
        stdout = capsys.readouterr().out.encode()
    else:
        proc = subprocess.run([sys.executable, *op.args], cwd=PERFBENCH.parent,
                              env=src_env(), capture_output=True)
        code, stdout = proc.returncode, proc.stdout
    assert WORKLOADS.judge(op, code, stdout) is None


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


def selftest_reach_counters() -> list[str]:
    """The counter names that selftest.py's test_counts_repeat requires to
    be > 0 on `report`: the string tuple its `for name in (...)` loop walks."""
    tree = ast.parse(SELFTEST.read_text())
    test = next(n for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name == "test_counts_repeat")
    loop = next(n for n in ast.walk(test) if isinstance(n, ast.For))
    return list(ast.literal_eval(loop.iter))


def test_traced_report_reaches_every_layer_the_selftest_needs():
    # a change that zeroes one of these layers on `report` (say, a model
    # cone with no double description) fails the self-test; this catches it
    # in the tier-1 suite.  _common_face has no caller in the package (the
    # partition certificate proves the fan axiom): its reading of 0 is the
    # self-test's known failure, which ROADMAP item 1 retires.
    counters = selftest_reach_counters()
    assert "cli.main.calls" in counters and "intmat.mat_rank.calls" in counters
    proc = subprocess.run(
        [sys.executable, str(TRACED), "-m", "sncdegen", "report", "--n", "3", "--d", "4",
         "--format", "json"],
        cwd=PERFBENCH.parent, env=src_env(), capture_output=True, text=True, check=True)
    layers = json.loads(proc.stdout.splitlines()[-1])["layers"]
    exempt = {"toriclat._common_face.calls"}
    assert [name for name in counters
            if name not in exempt and not layers.get(name, 0) > 0] == []


def test_traced_report_certifies_one_fan():
    # report certifies its deepest stratum once and restricts it to every
    # lower one: two double descriptions (the model cone and the first slab)
    # and one partition certificate at any depth, where certifying each
    # stratum would take 16 and 8 here.  A work count, so no timer
    proc = subprocess.run(
        [sys.executable, str(TRACED), "-m", "sncdegen", "report", "--n", "8", "--d", "9",
         "--format", "json"],
        cwd=PERFBENCH.parent, env=src_env(), capture_output=True, text=True, check=True)
    layers = json.loads(proc.stdout.splitlines()[-1])["layers"]
    assert layers["intmat.extreme_rays.calls"] == 2
    assert layers["toriclat.verify_partition.calls"] == 1


@pytest.mark.parametrize("argv, counts", [
    (("perfbench/orbit.py", "fiber", "4"),
     {"toriclat.resolution_fan.calls": 1, "toriclat.fiber_class.calls": 1,
      "intmat.extreme_rays.calls": 1, "toriclat.is_smooth.calls": 4}),
    (("-m", "sncdegen", "dual", "--n", "4"),
     {"toriclat.dual_cone.calls": 1, "intmat.extreme_rays.calls": 2}),
], ids=["orbit", "dual"])
def test_tracer_sees_every_span_that_fans_binds(argv, counts):
    # the orbit API and `dual` run `fans` and not `toriclat`, where the
    # tracer looks the spans up; it replaces them only in the modules
    # registered before it runs, so a call inside `fans` (is_smooth in the
    # orbit count, extreme_rays in Cone) is counted only if `cli` registers
    # `fans`.  A work count, so no timer
    proc = subprocess.run([sys.executable, str(TRACED), *argv], cwd=PERFBENCH.parent,
                          env=src_env(), capture_output=True, text=True, check=True)
    layers = json.loads(proc.stdout.splitlines()[-1])["layers"]
    assert {name: layers[name] for name in counts} == counts


@pytest.mark.parametrize("argv", [
    ("class", "--r", "4", "--n", "3", "--format", "json"),
    ("verify", "--scope", "lemma-arrangement", "--max-n", "3", "--format", "json"),
], ids=lambda argv: argv[0])
def test_tracer_wraps_the_commands_that_load_no_toric_code(capsys, argv):
    # these commands leave the toric modules unexecuted; the tracer's own
    # reads of them execute them, and every span is still installed
    proc = subprocess.run([sys.executable, str(TRACED), "-m", "sncdegen", *argv],
                          cwd=PERFBENCH.parent, env=src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    envelope = json.loads(proc.stdout.splitlines()[-1])
    assert main(list(argv)) == 0
    assert envelope["stdout"] == capsys.readouterr().out
    layers = envelope["layers"]
    assert layers["cli.main.calls"] == 1
    assert [f"{module}.{qualname}" for module, qualname in traced_constant("SPANS")
            if f"{module.lstrip('_')}.{qualname}.calls" not in layers] == []
