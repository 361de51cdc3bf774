"""Command-line driver.

Subcommands:

* ``class``    — the three derivations of the hyperplane-arrangement class
  P(r, n) with an agreement verdict and the residue modulo L.
* ``dual``     — generators of the dual of the model cone, with the
  duality-involution and canonical-generator checks.
* ``resolve``  — the subdivision fan, the blow-up charts, and the
  semistability verdict for the model t*y = z_1*...*z_n.
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
from typing import Optional, Sequence

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
    resolution_fan,
    semistable_fiber_check,
    sigma_subcone,
    unit_vector,
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

    p = sub.add_parser("dual", help="dual of the model cone")
    p.add_argument("--n", type=int, required=True, help="model dimension")
    add_format(p)

    p = sub.add_parser("resolve", help="fan, charts and semistability of the model")
    p.add_argument("--n", type=int, required=True, help="model dimension")
    add_format(p)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("--scope",
                   choices=("lemma-arrangement", "lemma-toric", "degeneration", "all"),
                   default="all")
    p.add_argument("--max-n", type=int, default=12, dest="max_n",
                   help="largest n to sweep (default: 12)")
    add_format(p)

    p = sub.add_parser("report", help="end-to-end degeneration certificate")
    p.add_argument("--n", type=int, required=True, help="fiber dimension")
    p.add_argument("--d", type=int, required=True, help="degree")
    add_format(p)

    return parser


def _emit(payload, fmt: str, text_lines: Sequence[str]) -> None:
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

#: Largest n of `resolve` and of `dual`: resource limits of about 10 s
#: each (`resolve` checks the fan axiom on n(n-1)/2 pairs of slabs).
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
    sigma = model_cone(n)
    dual = dual_cone(sigma)
    involution_ok = dual_cone(dual) == sigma
    canonical = sorted(dual_generators(n))
    canonical_ok = sorted(dual.rays) == canonical if n >= 2 else True
    ok = involution_ok and canonical_ok
    payload = {
        "n": n,
        "rank": dual.rank,
        "rays": [list(r) for r in dual.rays],
        "involution": involution_ok,
        "canonical_generators": canonical_ok,
        "pass": ok,
    }
    lines = [f"dual of the model cone, n={n} (rank {dual.rank})"]
    lines += [f"  {list(r)}" for r in dual.rays]
    lines.append(f"  involution dual(dual) == original: {'ok' if involution_ok else 'FAIL'}")
    lines.append(f"  canonical generator list:          {'ok' if canonical_ok else 'FAIL'}")
    _emit(payload, fmt, lines)
    return EXIT_OK if ok else EXIT_FAILED


def cmd_resolve(n: int, fmt: str) -> int:
    if n < 1:
        raise _UsageError(f"need n >= 1, got n={n}")
    _refuse_over_cap("resolve", n, RESOLVE_MAX_N)
    fan = resolution_fan(n)
    charts = blowup_chart_sequence(n) if n >= 2 else []
    check = semistable_fiber_check(fan, unit_vector(n + 1, n))
    payload = {
        "n": n,
        "fan": fan.to_json_dict(),
        "charts": [c.to_json_dict() for c in charts],
        "semistable": check.to_json_dict(),
    }
    product = "*".join(f"z{i}" for i in range(1, n + 1)) if n <= 3 else f"z1*...*z{n}"
    lines = [f"resolution of t*y = {product} (fan of {len(fan)} maximal cones, "
             f"rank {fan.rank})"]
    for k, cone in enumerate(fan, start=1):
        lines.append(f"  sigma_{k}: rays {[list(r) for r in cone.rays]}")
    for k, chart in enumerate(charts, start=1):
        coords = ", ".join(f"{c.name}={list(c.monomial)}" for c in chart.coordinates)
        lines.append(f"  chart U_{k}: {coords}")
        lines.append(f"    relation: {chart.render_relation()}")
    lines.append(f"  fiber check: reduced={check.reduced}, smooth={check.smooth}, "
                 f"snc={check.snc}")
    _emit(payload, fmt, lines)
    return EXIT_OK if check.snc else EXIT_FAILED


# -- verify suites ------------------------------------------------------


#: Largest n of the toric and degeneration suites, whatever --max-n asks.
TORIC_MAX_N = 8

#: Largest n of the arrangement suite, whatever --max-n asks: it runs
#: about n^2 subset enumerations of up to 2^n masks, about 0.2 s at 16.
ARRANGEMENT_MAX_N = 16

# Each suite returns (top, rows): the largest n it ran, and its rows.


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


def _rows_toric(max_n: int) -> tuple[int, list[CheckResult]]:
    rows = []
    top = min(max_n, TORIC_MAX_N)
    for n in range(1, top + 1):
        sigma = model_cone(n)
        if n >= 2:
            ok = sorted(dual_cone(sigma).rays) == sorted(dual_generators(n))
            rows.append(CheckResult(f"dual generators n={n}", ok,
                                    f"{n + 2} canonical generators"))
        ok = dual_cone(dual_cone(sigma)) == sigma
        rows.append(CheckResult(f"duality involution n={n}", ok,
                                "dual(dual(sigma)) == sigma"))
        fan, smooth_ok, partition, semistable, _ = _certified_local_core(n)
        rows += [CheckResult(f"cones unimodular n={n}", smooth_ok,
                             f"{len(fan)} maximal cones"),
                 CheckResult(f"partition n={n}", partition.passed, partition.detail),
                 CheckResult(f"semistable fiber n={n}", semistable.passed,
                             semistable.detail)]
        if n >= 2:
            bad = next((k for k, chart in enumerate(blowup_chart_sequence(n), start=1)
                        if chart.monomial_cone() != dual_cone(sigma_subcone(n, k))),
                       None)
            rows.append(CheckResult(
                f"charts match dual cones n={n}", bad is None,
                "all charts" if bad is None else f"mismatch at chart {bad}"))
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


def cmd_verify(scope: str, max_n: int, fmt: str) -> int:
    if max_n < 0:
        raise _UsageError(f"need max-n >= 0, got {max_n}")
    suites = {"lemma-arrangement": _rows_arrangement,
              "lemma-toric": _rows_toric,
              "degeneration": _rows_degeneration}
    covered: dict[str, int] = {}
    rows: list[CheckResult] = []
    for name, suite in suites.items():
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


def _dispatch(args: argparse.Namespace) -> int:
    if args.subcommand == "class":
        return cmd_class(args.r, args.n, args.format)
    if args.subcommand == "dual":
        return cmd_dual(args.n, args.format)
    if args.subcommand == "resolve":
        return cmd_resolve(args.n, args.format)
    if args.subcommand == "verify":
        return cmd_verify(args.scope, args.max_n, args.format)
    if args.subcommand == "report":
        return cmd_report(args.n, args.d, args.format)
    raise _UsageError(f"unknown subcommand {args.subcommand!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        code = _dispatch(parser.parse_args(argv))
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
