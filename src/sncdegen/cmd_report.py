"""``sncdegen report``: the end-to-end degeneration certificate for (n, d)."""

from __future__ import annotations

from . import cli, degeneration


def run(n: int, d: int) -> cli.Output:
    cli.refuse("report", "n", n, hi=cli.CLASS_MAX_N)
    try:  # the spec refuses what the report cannot certify; nothing else is usage
        spec = degeneration.DegenerationSpec(n=n, d=d)
    except ValueError as exc:
        raise cli.UsageError(str(exc))
    report = degeneration.full_degeneration_report(spec)
    return report.passed, report.to_json_dict, lambda: [report.render_table()]
