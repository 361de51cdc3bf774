"""Shared test plumbing: collects acceptance-criterion outcomes and prints
one pass/fail line per criterion at the end of the run, counts Z[L]
additions for the work-count tests, and sets up child Python processes."""

import os
from pathlib import Path

import pytest

from sncdegen import degeneration
from sncdegen.grothring import GrothClass

ACCEPTANCE_RESULTS: list[tuple[int, str, bool, str]] = []

SRC = Path(__file__).resolve().parent.parent / "src"


def src_env() -> dict:
    """The environment for a child Python process that imports the
    package from src/, ahead of any PYTHONPATH already set."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def clear_certificates() -> None:
    """Empty the caches of certified local cores and of resolved fiber
    classes, so that a mutant a test patches in reaches no other test."""
    degeneration._certified_local_core.cache_clear()
    degeneration._resolved_fiber_class.cache_clear()


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
def groth_additions(monkeypatch):
    """The list of right operands of every `GrothClass.__add__` call made
    while the test runs (subtraction adds too): a work count that does not
    depend on the machine."""
    calls = []
    add = GrothClass.__add__

    def counted_add(self, other):
        calls.append(other)
        return add(self, other)

    monkeypatch.setattr(GrothClass, "__add__", counted_add)
    return calls
