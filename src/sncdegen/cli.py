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

The options of every subcommand live in one table, `COMMANDS`, which both
the argument parser and ``--help`` read.  A flag takes its value as
``--flag value`` or ``--flag=value``, is spelled in full and, if repeated,
keeps its last value.  Exit codes: 0 success (``--help`` included), 1 usage
error, 2 verification failure.  Output goes to stdout (text or JSON via
--format); a usage error is one ``sncdegen: error:`` line on stderr.  JSON
output is a single document that re-serializes byte-for-byte under
``json.dumps(..., indent=2)``.  The module imports neither `argparse` nor
`json`, whose loading and parser set-up cost a cold run about 14 ms.  It
reads the other modules of the package as lazy submodules (see
`sncdegen.__getattr__`) and calls each function through its module, so a
command executes only the modules it uses: `class`, the arrangement suite,
``--help`` and a usage error compile no toric code.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from typing import Callable, Iterable, Optional, Sequence

from . import _intmat, checks, degeneration, grothring, toriclat

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILED = 2


class _UsageError(Exception):
    pass


def _emit(fmt: str, payload: Callable[[], dict], lines: Callable[[], Iterable[str]]) -> None:
    """Print the JSON document or the text lines, building only the one printed."""
    if fmt == "json":
        print(_json(payload()))
    else:
        for line in lines():
            print(line)


def _json_str(s: str) -> str:
    """A JSON string literal, as json.dumps writes it with ensure_ascii."""
    if s.isascii() and s.isprintable():  # every string the commands print
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'
    from json.encoder import encode_basestring_ascii
    return encode_basestring_ascii(s)


#: The writer of each JSON leaf, by exact type; a dict or a list reaches
#: this table only when it is empty.
_JSON_LEAF = {int: str, str: _json_str, bool: lambda b: "true" if b else "false",
              type(None): lambda _: "null", dict: lambda _: "{}", list: lambda _: "[]"}


def _json(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2) for str-keyed documents of dicts, lists,
    ints, strs, bools and None, written directly: json's indent-2 encoder is
    pure Python.  Any other type raises TypeError."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = [f"{_json_str(k)}: {_json(v, inner)}" for k, v in value.items()]
    elif isinstance(value, list) and value:
        items = (map(str, value) if set(map(type, value)) == {int}  # bool is not int here
                 else [_json(v, inner) for v in value])
    else:
        leaf = _JSON_LEAF.get(type(value))
        if leaf is None:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        return leaf(value)
    brackets = "{}" if isinstance(value, dict) else "[]"
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


# -- subcommands --------------------------------------------------------


#: Largest n of `class` and `report`, whose classes have degree about n;
#: the recursion memoises about r^2 * n coefficients.  A resource limit:
#: `class --r 26 --n 10000` takes 2.1-3.6 s cold and 46 MB.
CLASS_MAX_N = 10**4

#: Largest n of `resolve` and of `dual`: resource limits.  Cold, on 2 shared
#: vCPUs, `resolve --n 42` takes 0.16-0.28 s, about 0.02-0.03 s of it the
#: partition certificate and 0.01-0.02 s each the model cone and the slabs;
#: `dual --n 192` takes 0.39-0.44 s, mostly pairing inserted rows in its
#: two double descriptions.
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
        inclexcl = grothring.arrangement_class_inclusion_exclusion(r, n)
    except ValueError as exc:  # subset enumeration is capped
        raise _UsageError(str(exc))
    closed = grothring.arrangement_class_closed(r, n)
    recursive = grothring.arrangement_class_recursive(r, n)
    agree = closed == recursive == inclexcl
    residue = grothring.reduce_mod_L(closed)
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
    _emit(fmt, lambda: payload, lambda: lines)
    return EXIT_OK if agree else EXIT_FAILED

def cmd_dual(n: int, fmt: str) -> int:
    if n < 1:
        raise _UsageError(f"need n >= 1, got n={n}")
    _refuse_over_cap("dual", n, DUAL_MAX_N)
    dual = toriclat.dual_cone(toriclat.model_cone(n))
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
    lines += checks.render_checks(rows)
    _emit(fmt, lambda: payload, lambda: lines)
    return EXIT_OK if ok else EXIT_FAILED


def cmd_resolve(n: int, fmt: str) -> int:
    if n < 1:
        raise _UsageError(f"need n >= 1, got n={n}")
    _refuse_over_cap("resolve", n, RESOLVE_MAX_N)
    certificate = degeneration._certified_local_core(n)
    charts = toriclat.blowup_chart_sequence(n) if n >= 2 else []

    def lines():
        product = "*".join(f"z{i}" for i in range(1, n + 1)) if n <= 3 else f"z1*...*z{n}"
        yield (f"resolution of t*y = {product} (fan of {len(certificate.fan)} maximal "
               f"cones, rank {certificate.fan.rank})")
        for k, cone in enumerate(certificate.fan, start=1):
            yield f"  sigma_{k}: rays {[list(r) for r in cone.rays]}"
        for k, chart in enumerate(charts, start=1):
            coords = ", ".join(f"{c.name}={list(c.monomial)}" for c in chart.coordinates)
            yield f"  chart U_{k}: {coords}"
            yield f"    relation: {chart.render_relation()}"
        yield from checks.render_checks(certificate.rows)

    _emit(fmt, lambda: {
        "n": n,
        "fan": certificate.fan.to_json_dict(),
        "charts": [c.to_json_dict() for c in charts],
        "semistable": certificate.fiber.to_json_dict(),
        "checks": [row.to_json_dict() for row in certificate.rows],
    }, lines)
    return EXIT_OK if all(row.passed for row in certificate.rows) else EXIT_FAILED


# -- verify suites ------------------------------------------------------


#: Largest n of the toric and degeneration suites, whatever --max-n asks:
#: `verify --scope all --max-n 16` takes 0.39-0.58 s cold.
TORIC_MAX_N = 16

#: Largest n of the arrangement suite, whatever --max-n asks: it tallies
#: the subsets of each r <= n once, cached across n, and takes
#: 0.11-0.17 s cold at 16.
ARRANGEMENT_MAX_N = 16

# Each suite returns (top, rows): the largest n it ran, and its rows.


def _first_difference(ours: Sequence[_intmat.Vec],
                      theirs: Sequence[_intmat.Vec]) -> tuple[_intmat.Vec, bool]:
    """The least vector on which two lists differ as multisets, and
    whether it is surplus in `ours` (else in `theirs`)."""
    surplus = Counter(ours) - Counter(theirs)
    first = min(surplus + (Counter(theirs) - Counter(ours)))
    return first, first in surplus


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


def _duality_rows(n: int) -> list[checks.CheckResult]:
    """The duality rows of the model cone, with no ` n=` suffix: "dual
    generators" for n >= 2 (at n = 1 the dual has fewer rays than the
    canonical list) and "duality involution".  The involution is decided
    by exchange: the dual's rays must be the cone's facets, and the dual's
    facets, which are the rays of dual(dual(sigma)), the cone's rays.  So
    it builds no third cone, and a redundant facet of the cone, which the
    dual drops from its rays, fails the row."""
    sigma = toriclat.model_cone(n)
    dual = toriclat.dual_cone(sigma)
    rows = []
    if n >= 2:
        rays, canonical = dual.rays, toriclat.dual_generators(n)
        ok = sorted(rays) == sorted(canonical)
        if ok:
            detail = f"{n + 2} canonical generators"
        else:
            ray, extra = _first_difference(rays, canonical)
            detail = (f"ray {list(ray)} of the dual cone is not a canonical generator"
                      if extra else
                      f"canonical generator {list(ray)} is not a ray of the dual cone")
        rows.append(checks.CheckResult("dual generators", ok, detail))
    involution = dual.rays == sigma.inequalities and dual.inequalities == sigma.rays
    rows.append(checks.CheckResult("duality involution", involution,
                                   "dual(dual(sigma)) == sigma"))
    return rows


def _rows_toric(max_n: int) -> tuple[int, list[checks.CheckResult]]:
    rows = []
    top = min(max_n, TORIC_MAX_N)
    for n in range(1, top + 1):
        local = [*_duality_rows(n), *degeneration._certified_local_core(n).rows]
        if n >= 2:
            pairs = ((k, chart.monomial_cone(),
                      toriclat.dual_cone(toriclat.sigma_subcone(n, k)))
                     for k, chart in enumerate(toriclat.blowup_chart_sequence(n), start=1))
            bad = next(((k, mine, dual) for k, mine, dual in pairs if mine != dual), None)
            if bad is None:
                detail = "all charts"
            else:
                k, mine, dual = bad
                ray, in_chart = _first_difference(mine.rays, dual.rays)
                detail = (f"mismatch at chart {k}: ray {list(ray)} only in the "
                          f"{'chart' if in_chart else 'dual'} cone")
            local.append(checks.CheckResult("charts match dual cones", bad is None, detail))
        rows += [checks.CheckResult(f"{row.name} n={n}", row.passed, row.detail)
                 for row in local]
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


#: The suites of `verify --scope`, in the order that `--scope all` runs them.
SUITES = {"lemma-arrangement": _rows_arrangement,
          "lemma-toric": _rows_toric,
          "degeneration": _rows_degeneration}


def cmd_verify(scope: str, max_n: int, fmt: str) -> int:
    if max_n < 0:
        raise _UsageError(f"need max-n >= 0, got {max_n}")
    covered: dict[str, int] = {}
    rows: list[checks.CheckResult] = []
    for name, suite in SUITES.items():
        if scope in (name, "all"):
            covered[name], suite_rows = suite(max_n)
            rows += suite_rows
    if not rows:
        raise _UsageError(f"scope {scope} checks nothing at max-n {max_n}")
    ok = all(row.passed for row in rows)
    payload = {"scope": scope, "max_n": max_n, "covered_max_n": covered,
               "checks": [row.to_json_dict() for row in rows], "pass": ok}
    ran = ", ".join(f"{name} n<={top}" for name, top in covered.items())
    lines = [f"verification suite: scope={scope}, max-n={max_n}",
             f"covered: {ran}", *checks.render_checks(rows)]
    passed = sum(1 for row in rows if row.passed)
    lines.append(f"  {passed}/{len(rows)} checks passed")
    _emit(fmt, lambda: payload, lambda: lines)
    return EXIT_OK if ok else EXIT_FAILED


def cmd_report(n: int, d: int, fmt: str) -> int:
    _refuse_over_cap("report", n, CLASS_MAX_N)
    try:
        report = degeneration.full_degeneration_report(
            degeneration.DegenerationSpec(n=n, d=d))
    except ValueError as exc:
        raise _UsageError(str(exc))
    _emit(fmt, report.to_json_dict, lambda: [report.render_table()])
    return EXIT_OK if report.passed else EXIT_FAILED


# -- the command line ---------------------------------------------------


_FORMAT = {"--format": (("text", "json"), "text", "output format")}

#: The subcommands: name -> (run function, summary, options).  The options
#: map each flag to (int or the tuple of its allowed values, its default or
#: None when it is required, help text), in the order that the run function
#: takes their values.
COMMANDS = {
    "class": (cmd_class, "arrangement class P(r, n) three ways",
              {"--r": (int, None, "number of hyperplanes"),
               "--n": (int, None, "dimension of each hyperplane"), **_FORMAT}),
    "dual": (cmd_dual, "dual of the model cone",
             {"--n": (int, None, "model dimension"), **_FORMAT}),
    "resolve": (cmd_resolve, "fan, charts and semistability of the model",
                {"--n": (int, None, "model dimension"), **_FORMAT}),
    "verify": (cmd_verify, "run invariant suites",
               {"--scope": ((*SUITES, "all"), "all", "suites to run"),
                "--max-n": (int, 12, "largest n to sweep"), **_FORMAT}),
    "report": (cmd_report, "end-to-end degeneration certificate",
               {"--n": (int, None, "fiber dimension"),
                "--d": (int, None, "degree"), **_FORMAT}),
}


def _help(name: Optional[str]) -> int:
    """Print the usage of one subcommand, or with None of the program."""
    if name is None:
        lines = [f"usage: sncdegen {{{','.join(COMMANDS)}}} [--flag value | --flag=value ...]",
                 "", __doc__.splitlines()[0], "", "subcommands:"]
        lines += [f"  {cmd:<9}{summary}" for cmd, (_, summary, _) in COMMANDS.items()]
        lines += ["", "'sncdegen SUBCOMMAND --help' lists the options of one subcommand."]
    else:
        _, summary, options = COMMANDS[name]
        lines = [f"usage: sncdegen {name} [--flag value | --flag=value ...]", "", summary,
                 "", "options (flags are spelled in full):"]
        for flag, (kind, default, text) in options.items():
            values = "an integer" if kind is int else "one of " + ", ".join(kind)
            lines.append(f"  {flag:<10}{text}: {values}; "
                         + ("required" if default is None else f"default {default}"))
    print("\n".join(lines))
    return EXIT_OK


def _parse(argv: Sequence[str]) -> tuple[Callable[..., int], list]:
    """The function that `argv` asks to run and its arguments: a
    subcommand's run function and its option values, or `_help`."""
    if not argv:
        raise _UsageError(f"missing subcommand (choose from {', '.join(COMMANDS)})")
    name, *rest = argv
    if name in ("-h", "--help"):
        return _help, [None]
    if name not in COMMANDS:
        raise _UsageError(f"invalid subcommand {name!r} (choose from {', '.join(COMMANDS)})")
    if "-h" in rest or "--help" in rest:
        return _help, [name]
    run, _, options = COMMANDS[name]
    given = {}
    tokens = iter(rest)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in options:
            raise _UsageError(f"{name}: unrecognized argument {token!r}")
        value = value if eq else next(tokens, None)
        if value is None:
            raise _UsageError(f"argument {flag}: expected a value")
        kind = options[flag][0]
        if kind is int:
            try:
                value = int(value)
            except ValueError:  # also past the interpreter's digit limit
                raise _UsageError(f"argument {flag}: invalid int value: {value!r}") from None
        elif value not in kind:
            raise _UsageError(f"argument {flag}: invalid choice: {value!r} "
                              f"(choose from {', '.join(kind)})")
        given[flag] = value
    missing = [flag for flag, (_, default, _) in options.items()
               if default is None and flag not in given]
    if missing:
        raise _UsageError(f"{name}: the following arguments are required: {', '.join(missing)}")
    return run, [given.get(flag, default) for flag, (_, default, _) in options.items()]


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        run, args = _parse(sys.argv[1:] if argv is None else argv)
        code = run(*args)
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
