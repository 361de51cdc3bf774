"""``sncdegen dual``: the generators of the dual of the model cone, with
the "dual generators" and "duality involution" rows that `verify` runs.
It reads its cones from `fans` and runs no certificate code of
`toriclat`."""

from __future__ import annotations

from . import checks, cli, duality, fans

#: Largest n of `dual`, a resource limit: `dual --n 192` takes 0.35-0.57 s
#: cold (10 runs, 2 vCPUs).
DUAL_MAX_N = 192


def duality_rows(n: int) -> tuple[fans.Cone, list[checks.CheckResult]]:
    """The dual of the model cone, built once, and `duality.certify_duality`
    on the two, with the canonical generators of `duality.dual_generators`
    for n >= 2: at n = 1 the dual has fewer rays than the list.  The toric
    suite of `verify` prints these rows too."""
    sigma = fans.model_cone(n)
    dual = fans.dual_cone(sigma)
    return dual, duality.certify_duality(sigma, dual,
                                         duality.dual_generators(n) if n >= 2 else None)


def run(n: int) -> cli.Output:
    cli.refuse("dual", "n", n, 1, DUAL_MAX_N)
    dual, rows = duality_rows(n)
    *generators, involution = rows
    ok = all(row.passed for row in rows)
    return ok, lambda: {
        "n": n,
        "rank": dual.rank,
        "rays": [list(r) for r in dual.rays],
        "involution": involution.passed,
        # null at n = 1, where no "dual generators" row runs
        "canonical_generators": all(row.passed for row in generators) if generators else None,
        "checks": [row.to_json_dict() for row in rows],
        "pass": ok,
    }, lambda: [f"dual of the model cone, n={n} (rank {dual.rank})",
                *(f"  {list(r)}" for r in dual.rays), *checks.render_checks(rows)]
