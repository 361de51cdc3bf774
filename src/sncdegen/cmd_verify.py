"""``sncdegen verify``: the invariant suites of `cli.SCOPES` as one
pass/fail table, each up to its own cap on n."""

from __future__ import annotations

from . import (_intmat, checks, cli, cmd_dual, cmd_resolve, degeneration, fans, grothring,
               toriclat)

#: Largest n of the toric and degeneration suites, whatever --max-n asks:
#: `verify --scope all --max-n 16` takes 0.21-0.34 s cold (10 runs, 2 vCPUs).
TORIC_MAX_N = 16

#: Largest n of the arrangement suite, whatever --max-n asks: it tallies
#: the subsets of each r <= n once, cached across n, and takes
#: 0.11-0.17 s cold at 16.
ARRANGEMENT_MAX_N = 16

# Each suite returns (top, rows): the largest n it ran, and its rows.


def _rows_arrangement(max_n: int) -> tuple[int, list[checks.CheckResult]]:
    rows = []
    top = min(max_n, ARRANGEMENT_MAX_N)
    max_r = max(1, top)
    for n in range(0, top + 1):
        bad = next((r for r in range(1, max_r + 1)
                    if not (grothring.arrangement_class_closed(r, n)
                            == grothring.arrangement_class_recursive(r, n)
                            == grothring.arrangement_class_inclusion_exclusion(r, n))),
                   None)
        rows.append(checks.CheckResult(
            f"triple agreement n={n}", bad is None,
            f"r=1..{max_r} all agree" if bad is None
            else f"first disagreement at r={bad}"))
    for n in range(0, top + 1):
        bad = next((r for r in range(1, n + 2)
                    if grothring.reduce_mod_L(grothring.arrangement_class_closed(r, n)) != 1),
                   None)
        rows.append(checks.CheckResult(
            f"residue 1 for r <= n+1, n={n}", bad is None,
            "congruence holds" if bad is None else f"fails at r={bad}"))
        residue = grothring.reduce_mod_L(grothring.arrangement_class_closed(n + 2, n))
        rows.append(checks.CheckResult(
            f"boundary residue r=n+2, n={n}", residue == 1 + (-1) ** n,
            f"residue {residue}, expected {1 + (-1) ** n}"))
    return top, rows


def _rows_toric(max_n: int) -> tuple[int, list[checks.CheckResult]]:
    rows = []
    top = min(max_n, TORIC_MAX_N)
    for n in range(1, top + 1):
        local = [*cmd_dual.duality_rows(n)[1], *toriclat.slab_certificate(n).rows]
        if n >= 2:
            # a cone's stored facets are primitive, sorted and irredundant:
            # exactly the rays of its dual, with no second double description
            charts, detail = cmd_resolve.charts(n)
            differences = ((k, _intmat.first_difference(
                chart.monomial_cone().rays, fans.sigma_subcone(n, k).inequalities))
                for k, chart in enumerate(charts, start=1))
            bad = next(((k, diff) for k, diff in differences if diff is not None), None)
            if bad is not None:
                k, (ray, in_chart) = bad
                detail = (f"mismatch at chart {k}: ray {list(ray)} only in the "
                          f"{'chart' if in_chart else 'dual'} cone")
            local.append(checks.CheckResult("charts match dual cones", detail is None,
                                            detail or "all charts"))
        rows += [row._replace(name=f"{row.name} n={n}") for row in local]
    return top, rows


def _rows_degeneration(max_n: int) -> tuple[int, list[checks.CheckResult]]:
    rows = []
    top = min(max_n, TORIC_MAX_N)
    for n in range(2, top + 1):
        for d in range(1, n + 2):
            report = degeneration.full_degeneration_report(
                degeneration.DegenerationSpec(n=n, d=d))
            failing = [c.name for c in report.checks if not c.passed]
            rows.append(checks.CheckResult(
                f"degeneration n={n} d={d}", report.passed,
                "all checks pass" if report.passed
                else "failing: " + "; ".join(failing)))
    return top, rows


#: The suite of each name of `cli.SCOPES`.
SUITES = dict(zip(cli.SCOPES, (_rows_arrangement, _rows_toric, _rows_degeneration),
                  strict=True))


def run(scope: str, max_n: int) -> cli.Output:
    cli.refuse("verify", "max-n", max_n, 0)
    covered: dict[str, int] = {}
    rows: list[checks.CheckResult] = []
    for name, suite in SUITES.items():
        if scope in (name, "all"):
            top, suite_rows = suite(max_n)
            if suite_rows:  # a suite that ran no row covers nothing
                covered[name] = top
                rows += suite_rows
    if not rows:
        raise cli.UsageError(f"scope {scope} checks nothing at max-n {max_n}")
    ok = all(row.passed for row in rows)
    return ok, lambda: {"scope": scope, "max_n": max_n, "covered_max_n": covered,
                        "checks": [row.to_json_dict() for row in rows], "pass": ok}, lambda: [
        f"verification suite: scope={scope}, max-n={max_n}",
        "covered: " + ", ".join(f"{name} n<={top}" for name, top in covered.items()),
        *checks.render_checks(rows),
        f"  {sum(1 for row in rows if row.passed)}/{len(rows)} checks passed"]
