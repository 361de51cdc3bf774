"""Shared test plumbing: collects acceptance-criterion outcomes and prints
one pass/fail line per criterion at the end of the run, empties the
package's caches around the tests that patch it or count work, counts Z[L]
additions for the work-count tests, certifies mutant slab data for the
command-line tests, and sets up child Python processes."""

import importlib
import os
import pkgutil
from pathlib import Path

import pytest

import sncdegen
from sncdegen import toriclat
from sncdegen._intmat import unit
from sncdegen.grothring import GrothClass

ACCEPTANCE_RESULTS: list[tuple[int, str, bool, str]] = []

SRC = Path(__file__).resolve().parent.parent / "src"


def src_env() -> dict:
    """The environment for a child Python process that imports the
    package from src/, ahead of any PYTHONPATH already set."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def _package_caches() -> tuple:
    """Every `functools.lru_cache` function that a module of the package
    defines, gathered once, before any test patches a module."""
    modules = [importlib.import_module(f"sncdegen.{info.name}")
               for info in pkgutil.iter_modules(sncdegen.__path__)]
    return tuple(value for module in modules for value in vars(module).values()
                 if hasattr(value, "cache_info") and value.__module__ == module.__name__)


PACKAGE_CACHES = _package_caches()


def clear_caches() -> None:
    """Empty every cache of the package, so that a test builds all that it
    counts, and a mutant that it patches in reaches no other test."""
    for cached in PACKAGE_CACHES:
        cached.cache_clear()


@pytest.fixture
def cold_caches():
    """Every cache of the package empty on both sides of the test: for a
    test that patches a package function or counts work."""
    clear_caches()
    yield
    clear_caches()


@pytest.fixture
def slab_mutant(monkeypatch, cold_caches):
    """`slab_mutant(fan=..., direction=...)` makes `toriclat.slab_certificate(k)`,
    the one seam through which `resolve`, `verify` and `report` read a
    certificate, run `certify_local(fan(k), model_cone(k), direction(k))`
    uncached; each defaults to the slab data.  The caches are cleared on
    both sides of the test."""
    def patch(fan=toriclat.resolution_fan, direction=lambda k: unit(k + 1, k)):
        monkeypatch.setattr(toriclat, "slab_certificate", lambda k: toriclat.certify_local(
            fan(k), toriclat.model_cone(k), direction(k)))

    return patch


def record_acceptance(num: int, description: str, ok: bool, detail: str = "") -> str:
    """Record an acceptance-criterion outcome; returns the report line."""
    ACCEPTANCE_RESULTS.append((num, description, ok, detail))
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    return f"ACCEPTANCE {num}: {verdict} - {description}{suffix}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, description, ok, detail in sorted(ACCEPTANCE_RESULTS):
        verdict = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        terminalreporter.write_line(
            f"ACCEPTANCE {num}: {verdict} - {description}{suffix}")


@pytest.fixture
def groth_additions(monkeypatch, cold_caches):
    """The list of right operands of every `GrothClass.__add__` call made
    while the test runs (subtraction adds too), from cold caches: a work
    count that does not depend on the machine."""
    calls = []
    add = GrothClass.__add__

    def counted_add(self, other):
        calls.append(other)
        return add(self, other)

    monkeypatch.setattr(GrothClass, "__add__", counted_add)
    return calls
