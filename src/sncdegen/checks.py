"""The pass/fail row that every verification prints, its text table, and
`failed_premise`, the one rule for a row whose premise row failed.

Kept apart from the toric code, so that the suites which check only Z[L]
arithmetic (`class`, `verify --scope lemma-arrangement`) load none of it.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence


class CheckResult(NamedTuple):
    """One named verification step with its outcome and a short detail."""

    name: str
    passed: bool
    detail: str

    def to_json_dict(self) -> dict:
        return {"name": self.name, "pass": self.passed, "detail": self.detail}


def render_checks(checks: Sequence[CheckResult]) -> list[str]:
    """One fixed-width line per check: `  [PASS] name  detail`, with the
    names padded to the longest."""
    width = max((len(c.name) for c in checks), default=0)
    return [f"  [{'PASS' if c.passed else 'FAIL'}] {c.name.ljust(width)}  {c.detail}"
            for c in checks]


def failed_premise(premises: Iterable[CheckResult]) -> Optional[str]:
    """The detail of a row whose premise, an earlier row that it needs,
    failed: "premise '<name>' fails" for the first of `premises` that
    failed, or None when all passed.  Such a row fails and computes nothing."""
    return next((f"premise {row.name!r} fails" for row in premises if not row.passed), None)
