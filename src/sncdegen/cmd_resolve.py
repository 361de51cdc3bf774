"""``sncdegen resolve``: the subdivision fan and blow-up charts of
t*y = z_1*...*z_n, with the certificate rows that `report` and `verify`
print for it."""

from __future__ import annotations

from typing import Optional

from . import checks, cli, duality, toriclat

#: Largest n of `resolve`, a resource limit: `resolve --n 42` takes
#: 0.10-0.11 s cold (10 runs, 2 vCPUs).
RESOLVE_MAX_N = 42


def charts(n: int) -> tuple[list[duality.ChartPresentation], Optional[str]]:
    """The blow-up charts of the model of dimension n >= 2 and None, or no
    charts and why one of them could not be built."""
    try:
        return toriclat.blowup_chart_sequence(n), None
    except ValueError as exc:
        return [], f"a chart could not be built: {exc}"


def run(n: int) -> cli.Output:
    cli.refuse("resolve", "n", n, 1, RESOLVE_MAX_N)
    certificate = toriclat.slab_certificate(n)
    presentations, broken = charts(n) if n >= 2 else ([], None)
    rows = certificate.rows
    if broken is not None:
        rows += (checks.CheckResult("blow-up charts", False, broken),)

    def lines():
        product = "*".join(f"z{i}" for i in range(1, n + 1)) if n <= 3 else f"z1*...*z{n}"
        yield (f"resolution of t*y = {product} (fan of {len(certificate.fan)} maximal "
               f"cones, rank {certificate.fan.rank})")
        for k, cone in enumerate(certificate.fan, start=1):
            yield f"  sigma_{k}: rays {[list(r) for r in cone.rays]}"
        for k, chart in enumerate(presentations, start=1):
            coords = ", ".join(f"{c.name}={list(c.monomial)}" for c in chart.coordinates)
            yield f"  chart U_{k}: {coords}"
            yield f"    relation: {chart.render_relation()}"
        yield from checks.render_checks(rows)

    return all(row.passed for row in rows), lambda: {
        "n": n,
        "fan": certificate.fan.to_json_dict(),
        "charts": [c.to_json_dict() for c in presentations],
        "semistable": certificate.fiber.to_json_dict(),
        "checks": [row.to_json_dict() for row in rows],
    }, lines
