"""The caches of the package: `conftest.clear_caches` empties every one that
the source declares, and the classes of a stratum that depend on its depth
alone are computed once per depth."""

import ast
import contextlib
import importlib
import io
from functools import reduce
from pathlib import Path

from conftest import clear_caches
from sncdegen import degeneration
from sncdegen.cli import EXIT_OK, main

SRC = Path(__file__).resolve().parent.parent / "src" / "sncdegen"


def is_cache(decorator: ast.expr) -> bool:
    """True for `functools.lru_cache`, `functools.cache` and their bare
    names, called or not."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name in ("lru_cache", "cache")


def cached_functions() -> list[str]:
    """The dotted name, module first, of every function or method of the
    package that a `functools` cache decorates, read from its source."""
    found = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, ast.FunctionDef) and any(map(is_cache, node.decorator_list)):
                found.append(prefix + node.name)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()).body, f"{path.stem}.")
    return found


def run(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(argv))


def test_clear_caches_empties_every_cache_of_the_source():
    names = cached_functions()
    assert {"degeneration._depth_classes", "grothring._subset_sizes",
            "toriclat.slab_certificate"} <= set(names)
    caches = [reduce(getattr, rest, importlib.import_module(f"sncdegen.{module}"))
              for module, *rest in (name.split(".") for name in names)]
    assert run("verify", "--scope", "all", "--max-n", "3") == EXIT_OK
    assert all(cached.cache_info().currsize > 0 for cached in caches)
    clear_caches()
    assert [cached.cache_info().currsize for cached in caches] == [0] * len(caches)


def test_the_recursion_runs_once_per_depth(monkeypatch, cold_caches):
    # the 25 reports of n <= 6 resolve 75 strata of 6 depths; one report
    # from cold caches resolves each of its depths once
    depths = []
    recursion = degeneration.affine_coordinate_arrangement_class
    monkeypatch.setattr(degeneration, "affine_coordinate_arrangement_class",
                        lambda k: depths.append(k) or recursion(k))
    assert run("verify", "--scope", "degeneration", "--max-n", "6") == EXIT_OK
    assert sorted(depths) == list(range(1, 7))
    clear_caches()
    depths.clear()
    assert run("report", "--n", "8", "--d", "9") == EXIT_OK
    assert sorted(depths) == list(range(1, 9))
