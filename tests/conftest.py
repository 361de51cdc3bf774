"""Shared test plumbing: collects acceptance-criterion outcomes and prints
one pass/fail line per criterion at the end of the run, counts Z[L]
additions for the work-count tests, certifies mutant slab data for the
command-line tests, and sets up child Python processes."""

import os
from pathlib import Path

import pytest

from sncdegen import degeneration, toriclat
from sncdegen._intmat import unit
from sncdegen.grothring import GrothClass

ACCEPTANCE_RESULTS: list[tuple[int, str, bool, str]] = []

SRC = Path(__file__).resolve().parent.parent / "src"


def src_env() -> dict:
    """The environment for a child Python process that imports the
    package from src/, ahead of any PYTHONPATH already set."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def clear_certificates() -> None:
    """Empty the caches of slab certificates, of the certificates
    restricted from them and of the fiber classes counted on their fans,
    so that a mutant a test patches in reaches no other test."""
    toriclat.slab_certificate.cache_clear()
    toriclat.restrict_certificate.cache_clear()
    degeneration._resolved_fiber.cache_clear()


@pytest.fixture
def slab_mutant(monkeypatch):
    """`slab_mutant(fan=..., direction=...)` makes `toriclat.slab_certificate(k)`,
    the one seam through which `resolve`, `verify` and `report` read a
    certificate, run `certify_local(fan(k), model_cone(k), direction(k))`
    uncached; each defaults to the slab data.  The certificate caches are
    cleared on both sides of the test."""
    def patch(fan=toriclat.resolution_fan, direction=lambda k: unit(k + 1, k)):
        monkeypatch.setattr(toriclat, "slab_certificate", lambda k: toriclat.certify_local(
            fan(k), toriclat.model_cone(k), direction(k)))

    clear_certificates()
    yield patch
    monkeypatch.undo()
    clear_certificates()


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
