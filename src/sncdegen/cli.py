"""Command-line driver.

Subcommands:

* ``class``    — the three derivations of the hyperplane-arrangement class
  P(r, n) with an agreement verdict and the residue modulo L.
* ``dual``     — generators of the dual of the model cone, with the
  "dual generators" and "duality involution" rows that `verify` runs.
* ``resolve``  — the subdivision fan and blow-up charts of t*y = z_1*...*z_n,
  with the certificate rows that `report` and `verify` print for it.
* ``verify``   — invariant suites (scopes: lemma-arrangement, lemma-toric,
  degeneration, all) as a pass/fail table.
* ``report``   — the end-to-end degeneration certificate for (n, d).

Exit codes: 0 success, 1 usage error, 2 verification failure.  Output goes
to stdout (text or JSON via --format); diagnostics go to stderr.  JSON
output is a single document that re-serializes byte-for-byte under
``json.dumps(..., indent=2)``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from typing import Iterable, Optional, Sequence

from ._intmat import Vec
from .degeneration import (
    CheckResult,
    DegenerationSpec,
    _certified_local_core,
    affine_coordinate_arrangement_class,
    full_degeneration_report,
    render_checks,
)
from .grothring import (
    L,
    ONE,
    arrangement_class_closed,
    arrangement_class_inclusion_exclusion,
    arrangement_class_recursive,
    binomial_congruence_check,
    reduce_mod_L,
)
from .toriclat import (
    blowup_chart_sequence,
    dual_cone,
    dual_generators,
    model_cone,
    sigma_subcone,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILED = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sncdegen", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default: text)")

    p = sub.add_parser("class", help="arrangement class P(r, n) three ways")
    p.add_argument("--r", type=int, required=True, help="number of hyperplanes")
    p.add_argument("--n", type=int, required=True, help="dimension of each hyperplane")
    add_format(p)
    p.set_defaults(run=lambda a: cmd_class(a.r, a.n, a.format))

    p = sub.add_parser("dual", help="dual of the model cone")
    p.add_argument("--n", type=int, required=True, help="model dimension")
    add_format(p)
    p.set_defaults(run=lambda a: cmd_dual(a.n, a.format))

    p = sub.add_parser("resolve", help="fan, charts and semistability of the model")
    p.add_argument("--n", type=int, required=True, help="model dimension")
    add_format(p)
    p.set_defaults(run=lambda a: cmd_resolve(a.n, a.format))

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("--scope", choices=(*SUITES, "all"), default="all")
    p.add_argument("--max-n", type=int, default=12, dest="max_n",
                   help="largest n to sweep (default: 12)")
    add_format(p)
    p.set_defaults(run=lambda a: cmd_verify(a.scope, a.max_n, a.format))

    p = sub.add_parser("report", help="end-to-end degeneration certificate")
    p.add_argument("--n", type=int, required=True, help="fiber dimension")
    p.add_argument("--d", type=int, required=True, help="degree")
    add_format(p)
    p.set_defaults(run=lambda a: cmd_report(a.n, a.d, a.format))

    return parser


def _emit(payload, fmt: str, text_lines: Iterable[str]) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


# -- subcommands --------------------------------------------------------


#: Largest n of `class` and `report`, whose classes have degree about n;
#: the recursion memoises about r^2 * n coefficients.  A resource limit:
#: `class --r 26 --n 10000` takes about 7 s and 47 MB.
CLASS_MAX_N = 10**4

#: Largest n of `resolve` and of `dual`: resource limits.  Cold, on 2 shared
#: vCPUs, `resolve --n 42` takes 0.33-0.43 s: the slab cones, the fan
#: axiom's separating facets, and 0.04 s for the certificate rows;
#: `dual --n 192` takes 1.1-1.2 s, mostly pairing inserted rows in the
#: double description.
RESOLVE_MAX_N = 42
DUAL_MAX_N = 192


def _refuse_over_cap(what: str, n: int, cap: int) -> None:
    if n > cap:
        raise _UsageError(f"{what} is limited to n <= {cap}, got n={n}")


def cmd_class(r: int, n: int, fmt: str) -> int:
    if r < 1 or n < 0:
        raise _UsageError(f"need r >= 1 and n >= 0, got r={r}, n={n}")
    _refuse_over_cap("class", n, CLASS_MAX_N)
    try:  # first, so an oversized r is refused before any other work
        inclexcl = arrangement_class_inclusion_exclusion(r, n)
    except ValueError as exc:  # subset enumeration is capped
        raise _UsageError(str(exc))
    closed = arrangement_class_closed(r, n)
    recursive = arrangement_class_recursive(r, n)
    agree = closed == recursive == inclexcl
    residue = reduce_mod_L(closed)
    payload = {
        "r": r,
        "n": n,
        "closed": closed.to_json_dict(),
        "recursive": recursive.to_json_dict(),
        "inclusion_exclusion": inclexcl.to_json_dict(),
        "agree": agree,
        "residue_mod_L": residue,
    }
    lines = [
        f"arrangement class P(r={r}, n={n}) of {r} hyperplanes in P^{n + 1}",
        f"  closed formula:       {closed.render()}",
        f"  recursion:            {recursive.render()}",
        f"  inclusion-exclusion:  {inclexcl.render()}",
        f"  residue mod L:        {residue}",
        f"  verdict:              {'AGREE' if agree else 'DISAGREE'}",
    ]
    _emit(payload, fmt, lines)
    return EXIT_OK if agree else EXIT_FAILED

def cmd_dual(n: int, fmt: str) -> int:
    if n < 1:
        raise _UsageError(f"need n >= 1, got n={n}")
    _refuse_over_cap("dual", n, DUAL_MAX_N)
    dual = dual_cone(model_cone(n))
    rows = _duality_rows(n)
    *generators, involution = rows
    ok = all(row.passed for row in rows)
    payload = {
        "n": n,
        "rank": dual.rank,
        "rays": [list(r) for r in dual.rays],
        "involution": involution.passed,
        # null at n = 1, where no "dual generators" row runs
        "canonical_generators": all(row.passed for row in generators) if generators else None,
        "checks": [row.to_json_dict() for row in rows],
        "pass": ok,
    }
    lines = [f"dual of the model cone, n={n} (rank {dual.rank})"]
    lines += [f"  {list(r)}" for r in dual.rays]
    lines += render_checks(rows)
    _emit(payload, fmt, lines)
    return EXIT_OK if ok else EXIT_FAILED


def cmd_resolve(n: int, fmt: str) -> int:
    if n < 1:
        raise _UsageError(f"need n >= 1, got n={n}")
    _refuse_over_cap("resolve", n, RESOLVE_MAX_N)
    certificate = _certified_local_core(n)
    charts = blowup_chart_sequence(n) if n >= 2 else []
    payload = {
        "n": n,
        "fan": certificate.fan.to_json_dict(),
        "charts": [c.to_json_dict() for c in charts],
        "semistable": certificate.fiber.to_json_dict(),
        "checks": [row.to_json_dict() for row in certificate.rows],
    }

    def lines():  # a generator: JSON output formats none of them
        product = "*".join(f"z{i}" for i in range(1, n + 1)) if n <= 3 else f"z1*...*z{n}"
        yield (f"resolution of t*y = {product} (fan of {len(certificate.fan)} maximal "
               f"cones, rank {certificate.fan.rank})")
        for k, cone in enumerate(certificate.fan, start=1):
            yield f"  sigma_{k}: rays {[list(r) for r in cone.rays]}"
        for k, chart in enumerate(charts, start=1):
            coords = ", ".join(f"{c.name}={list(c.monomial)}" for c in chart.coordinates)
            yield f"  chart U_{k}: {coords}"
            yield f"    relation: {chart.render_relation()}"
        yield from render_checks(certificate.rows)

    _emit(payload, fmt, lines())
    return EXIT_OK if all(row.passed for row in certificate.rows) else EXIT_FAILED


# -- verify suites ------------------------------------------------------


#: Largest n of the toric and degeneration suites, whatever --max-n asks:
#: `verify --scope all --max-n 16` takes 0.7-1.0 s cold.
TORIC_MAX_N = 16

#: Largest n of the arrangement suite, whatever --max-n asks: it runs
#: about n^2 subset enumerations of up to 2^n masks, about 0.2 s at 16.
ARRANGEMENT_MAX_N = 16

# Each suite returns (top, rows): the largest n it ran, and its rows.


def _first_difference(ours: Sequence[Vec], theirs: Sequence[Vec]) -> tuple[Vec, bool]:
    """The least vector on which two lists differ as multisets, and
    whether it is surplus in `ours` (else in `theirs`)."""
    surplus = Counter(ours) - Counter(theirs)
    first = min(surplus + (Counter(theirs) - Counter(ours)))
    return first, first in surplus


def _rows_arrangement(max_n: int) -> tuple[int, list[CheckResult]]:
    rows = []
    top = min(max_n, ARRANGEMENT_MAX_N)
    max_r = max(1, top)
    for n in range(0, top + 1):
        bad = next((r for r in range(1, max_r + 1)
                    if not (arrangement_class_closed(r, n)
                            == arrangement_class_recursive(r, n)
                            == arrangement_class_inclusion_exclusion(r, n))), None)
        rows.append(CheckResult(
            f"triple agreement n={n}", bad is None,
            f"r=1..{max_r} all agree" if bad is None
            else f"first disagreement at r={bad}"))
    for n in range(0, top + 1):
        bad = next((r for r in range(1, n + 2)
                    if reduce_mod_L(arrangement_class_closed(r, n)) != 1), None)
        rows.append(CheckResult(
            f"residue 1 for r <= n+1, n={n}", bad is None,
            "congruence holds" if bad is None else f"fails at r={bad}"))
        residue = reduce_mod_L(arrangement_class_closed(n + 2, n))
        rows.append(CheckResult(
            f"boundary residue r=n+2, n={n}", residue == 1 + (-1) ** n,
            f"residue {residue}, expected {1 + (-1) ** n}"))
        bad = next((r for r in range(1, n + 2)
                    if binomial_congruence_check(r, n) != 1), None)
        rows.append(CheckResult(
            f"alternating binomial identity n={n}", bad is None,
            "sum is 1 for all r" if bad is None else f"fails at r={bad}"))
    return top, rows


def _duality_rows(n: int) -> list[CheckResult]:
    """The duality rows of the model cone, with no ` n=` suffix: "dual
    generators" for n >= 2 (at n = 1 the dual has fewer rays than the
    canonical list) and "duality involution"."""
    sigma = model_cone(n)
    rows = []
    if n >= 2:
        rays, canonical = dual_cone(sigma).rays, dual_generators(n)
        ok = sorted(rays) == sorted(canonical)
        if ok:
            detail = f"{n + 2} canonical generators"
        else:
            ray, extra = _first_difference(rays, canonical)
            detail = (f"ray {list(ray)} of the dual cone is not a canonical generator"
                      if extra else
                      f"canonical generator {list(ray)} is not a ray of the dual cone")
        rows.append(CheckResult("dual generators", ok, detail))
    rows.append(CheckResult("duality involution", dual_cone(dual_cone(sigma)) == sigma,
                            "dual(dual(sigma)) == sigma"))
    return rows


def _rows_toric(max_n: int) -> tuple[int, list[CheckResult]]:
    rows = []
    top = min(max_n, TORIC_MAX_N)
    for n in range(1, top + 1):
        local = [*_duality_rows(n), *_certified_local_core(n).rows]
        if n >= 2:
            pairs = ((k, chart.monomial_cone(), dual_cone(sigma_subcone(n, k)))
                     for k, chart in enumerate(blowup_chart_sequence(n), start=1))
            bad = next(((k, mine, dual) for k, mine, dual in pairs if mine != dual), None)
            if bad is None:
                detail = "all charts"
            else:
                k, mine, dual = bad
                ray, in_chart = _first_difference(mine.rays, dual.rays)
                detail = (f"mismatch at chart {k}: ray {list(ray)} only in the "
                          f"{'chart' if in_chart else 'dual'} cone")
            local.append(CheckResult("charts match dual cones", bad is None, detail))
        rows += [CheckResult(f"{row.name} n={n}", row.passed, row.detail) for row in local]
    return top, rows


def _rows_degeneration(max_n: int) -> tuple[int, list[CheckResult]]:
    rows = []
    top = min(max_n, TORIC_MAX_N)
    bad = next((k for k in range(1, 11)
                if affine_coordinate_arrangement_class(k) != L**k - (L - ONE) ** k),
               None)
    rows.append(CheckResult(
        "scissor oracle k<=10", bad is None,
        "matches L^k - (L-1)^k" if bad is None else f"mismatch at k={bad}"))
    for n in range(2, top + 1):
        for d in range(1, n + 2):
            report = full_degeneration_report(DegenerationSpec(n=n, d=d))
            failing = [c.name for c in report.checks if not c.passed]
            rows.append(CheckResult(
                f"degeneration n={n} d={d}", report.passed,
                "all checks pass" if report.passed
                else "failing: " + "; ".join(failing)))
    return top, rows


#: The suites of `verify --scope`, in the order that `--scope all` runs them.
SUITES = {"lemma-arrangement": _rows_arrangement,
          "lemma-toric": _rows_toric,
          "degeneration": _rows_degeneration}


def cmd_verify(scope: str, max_n: int, fmt: str) -> int:
    if max_n < 0:
        raise _UsageError(f"need max-n >= 0, got {max_n}")
    covered: dict[str, int] = {}
    rows: list[CheckResult] = []
    for name, suite in SUITES.items():
        if scope in (name, "all"):
            covered[name], suite_rows = suite(max_n)
            rows += suite_rows
    ok = all(row.passed for row in rows)
    payload = {"scope": scope, "max_n": max_n, "covered_max_n": covered,
               "checks": [row.to_json_dict() for row in rows], "pass": ok}
    ran = ", ".join(f"{name} n<={top}" for name, top in covered.items())
    lines = [f"verification suite: scope={scope}, max-n={max_n}",
             f"covered: {ran}", *render_checks(rows)]
    passed = sum(1 for row in rows if row.passed)
    lines.append(f"  {passed}/{len(rows)} checks passed")
    _emit(payload, fmt, lines)
    return EXIT_OK if ok else EXIT_FAILED


def cmd_report(n: int, d: int, fmt: str) -> int:
    _refuse_over_cap("report", n, CLASS_MAX_N)
    try:
        report = full_degeneration_report(DegenerationSpec(n=n, d=d))
    except ValueError as exc:
        raise _UsageError(str(exc))
    _emit(report.to_json_dict(), fmt, [report.render_table()])
    return EXIT_OK if report.passed else EXIT_FAILED


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe raises here rather than at exit
        return code
    except _UsageError as exc:
        print(f"sncdegen: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader went away (``| head``).  Point stdout at devnull so
        # the interpreter's final flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
