"""Operations, workloads and output checks for the sncdegen benchmark.

An operation is one cold run of a public entry point: a child interpreter
given an argv, whose exit code and JSON output are checked against values
derived here.  The expected values come from closed formulas that share no
code and no algorithm with sncdegen:

* the class of r <= m+1 hyperplanes in general position in P^m is
  [P^m] minus the class of the complement, which is (L-1)^(r-1) * L^(m-r+1)
  (choose coordinates so the hyperplanes are x_0 = 0, ..., x_{r-1} = 0);
* the faces of the slab fan sigma_k = cone(f_1..f_k, e_k..e_n) are the
  ray sets {f_i : i in F} + {e_i : i in E} with max(F) <= min(E), counted
  by binomials rather than enumerated;
* the dual rays, fan rays, slab cones and chart count are written down
  from their definitions.

Checks read chosen fields of the output, never whole-output bytes, so
fields added later do not count as failures.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

# A check takes the parsed JSON output and returns None when it is right,
# else a one-line reason.
Check = Callable[[dict], Optional[str]]


@dataclass(frozen=True)
class Op:
    """One operation: the program arguments after the interpreter, and the
    check its output must pass."""

    name: str
    args: tuple[str, ...]
    check: Check


def judge(op: Op, exit_code: int, stdout: bytes) -> Optional[str]:
    """None when the operation succeeded, else why it failed."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    if not isinstance(payload, dict):
        return "output is not a JSON object"
    try:
        return op.check(payload)
    except (KeyError, TypeError, IndexError) as exc:
        return f"output lacks an expected field: {exc!r}"


# -- polynomials in L, as coefficient lists ------------------------------


def _trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _add(p: list[int], q: list[int], sign: int = 1) -> list[int]:
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += sign * c
    return _trim(out)


def _mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def _l_minus_1_power(e: int) -> list[int]:
    """(L - 1)^e by the binomial theorem."""
    return [math.comb(e, i) * (-1) ** (e - i) for i in range(e + 1)]


def _evaluate(p: list[int], x: int) -> int:
    return sum(c * x**i for i, c in enumerate(p))


# -- expected values -----------------------------------------------------


def arrangement_coeffs(r: int, n: int) -> list[int]:
    """Class of r hyperplanes in general position in P^(n+1), each a P^n,
    for 1 <= r <= n+2, via the class of the complement."""
    m = n + 1
    if not 1 <= r <= m + 1:
        raise ValueError(f"complement formula needs 1 <= r <= {m + 1}, got {r}")
    proj = [1] * (m + 1)
    complement = _mul(_l_minus_1_power(r - 1), [0] * (m - r + 1) + [1])
    return _add(proj, complement, sign=-1)


def slab_face_counts(n: int, fiber_only: bool) -> list[int]:
    """count[j] = number of j-ray faces of the slab fan of rank n+1; with
    fiber_only, only faces holding some f_i (the rays that pair to 1 with
    the fiber direction e_{n+1}*)."""
    counts = [0] * (n + 2)
    if not fiber_only:  # F empty: E is any subset of the n e-rays
        for e in range(n + 1):
            counts[e] += math.comb(n, e)
    for a in range(1, n + 1):  # max(F) = a, E a subset of {e_a..e_n}
        for p in range(1, a + 1):
            for e in range(n - a + 2):
                counts[p + e] += math.comb(a - 1, p - 1) * math.comb(n - a + 1, e)
    return counts


def orbit_coeffs(n: int, fiber_only: bool) -> list[int]:
    """Orbit-cone sum over the slab fan: sum_j count[j] * (L-1)^(n+1-j)."""
    total: list[int] = []
    for j, count in enumerate(slab_face_counts(n, fiber_only)):
        total = _add(total, [count * c for c in _l_minus_1_power(n + 1 - j)])
    return total


def _unit(rank: int, i: int) -> list[int]:
    return [int(j == i) for j in range(rank)]


def _f(rank: int, i: int) -> list[int]:
    v = _unit(rank, i)
    v[rank - 1] = 1
    return v


def dual_rays(n: int) -> list[list[int]]:
    """The n+2 generators e_1*, ..., e_{n+1}*, e_1* + ... + e_n* - e_{n+1}*."""
    return [_unit(n + 1, i) for i in range(n + 1)] + [[1] * n + [-1]]


def slab_cones(n: int) -> set[frozenset[tuple[int, ...]]]:
    """Ray sets of the slabs sigma_k = cone(f_1..f_k, e_k..e_n), k = 1..n."""
    rank = n + 1
    return {frozenset(tuple(v) for v in [_f(rank, i) for i in range(k)]
                      + [_unit(rank, i) for i in range(k - 1, n)])
            for k in range(1, n + 1)}


# -- checks --------------------------------------------------------------


def _differ(label: str, got, want) -> Optional[str]:
    return None if got == want else f"{label}: got {got!r}, expected {want!r}"


def _first(*reasons: Optional[str]) -> Optional[str]:
    return next((r for r in reasons if r is not None), None)


def _failing_rows(rows: list[dict]) -> Optional[str]:
    bad = [row["name"] for row in rows if row["pass"] is not True]
    return f"failing checks: {bad[:3]}" if bad else None


def report_op(n: int) -> Op:
    d = n + 1
    want = arrangement_coeffs(d, n)

    def check(out: dict) -> Optional[str]:
        return _first(
            _differ("model", (out["model"]["n"], out["model"]["d"]), (n, d)),
            _failing_rows(out["checks"]),
            _differ("number of checks", len(out["checks"]), 1 + 6 * min(d - 1, n)),
            _differ("mod_L_invariant", out["mod_L_invariant"], True),
            _differ("fiber_class_before", out["fiber_class_before"]["coeffs"], want),
            _differ("fiber_class_after", out["fiber_class_after"]["coeffs"], want),
        )

    return Op(f"report-n{n}", ("-m", "sncdegen", "report", "--n", str(n),
                               "--d", str(d), "--format", "json"), check)


def resolve_op(n: int) -> Op:
    def check(out: dict) -> Optional[str]:
        fan = out["fan"]
        rays = [tuple(r) for r in fan["rays"]]
        cones = {frozenset(rays[i] for i in idxs) for idxs in fan["max_cones"]}
        rank = n + 1
        want_rays = {tuple(_unit(rank, i)) for i in range(n)} | {
            tuple(_f(rank, i)) for i in range(n)}
        return _first(
            _differ("fan rank", fan["rank"], rank),
            _differ("maximal cones", len(fan["max_cones"]), n),
            _differ("charts", len(out["charts"]), n),
            _differ("fan rays", set(rays), want_rays),
            None if cones == slab_cones(n) else "maximal cones are not the slabs",
            _differ("semistable", out["semistable"]["snc"], True),
        )

    return Op(f"resolve-n{n}", ("-m", "sncdegen", "resolve", "--n", str(n),
                                "--format", "json"), check)


def dual_op(n: int) -> Op:
    def check(out: dict) -> Optional[str]:
        return _first(
            _differ("rank", out["rank"], n + 1),
            _differ("dual rays", sorted(out["rays"]), sorted(dual_rays(n))),
            _differ("involution", out["involution"], True),
            _differ("pass", out["pass"], True),
        )

    return Op(f"dual-n{n}", ("-m", "sncdegen", "dual", "--n", str(n),
                             "--format", "json"), check)


def class_op(r: int, n: int) -> Op:
    want = arrangement_coeffs(r, n)

    def check(out: dict) -> Optional[str]:
        return _first(
            *(_differ(key, out[key]["coeffs"], want)
              for key in ("closed", "recursive", "inclusion_exclusion")),
            _differ("agree", out["agree"], True),
            _differ("residue_mod_L", out["residue_mod_L"], want[0]),
        )

    return Op(f"class-r{r}-n{n}", ("-m", "sncdegen", "class", "--r", str(r),
                                   "--n", str(n), "--format", "json"), check)


def verify_op(scope: str, max_n: int) -> Op:
    def check(out: dict) -> Optional[str]:
        return _first(
            _differ("scope", (out["scope"], out["max_n"]), (scope, max_n)),
            None if out["checks"] else "no checks ran",
            _failing_rows(out["checks"]),
            _differ("pass", out["pass"], True),
        )

    return Op(f"verify-{scope}-{max_n}", ("-m", "sncdegen", "verify", "--scope", scope,
                                          "--max-n", str(max_n), "--format", "json"),
              check)


def orbit_op(function: str, n: int) -> Op:
    """fiber_class or toric_class of resolution_fan(n), through orbit.py."""
    fiber_only = function == "fiber"
    want = orbit_coeffs(n, fiber_only)

    def check(out: dict) -> Optional[str]:
        got = out["coeffs"]
        # At L=1 only the maximal cones count: the n slabs, one fiber
        # component (or one chart) each.
        return _first(
            _differ("n", out["n"], n),
            _differ("class at L=1", _evaluate(got, 1), n),
            _differ(f"{function} class", got, want),
        )

    return Op(f"{function}-n{n}", ("perfbench/orbit.py", function, str(n)), check)


WORKLOADS: dict[str, tuple[str, list[Op]]] = {
    "report": (
        "headline CLI certificate; the bounded partition sweep dominates",
        [report_op(6), report_op(7), report_op(8)]),
    "resolve-wide": (
        "large rank: double description and the fan axiom, no sweep or orbit count",
        [resolve_op(20), dual_op(24)]),
    "orbit": (
        "orbit counting over about n*2^n faces at n=12, through the public API",
        [orbit_op("fiber", 12), orbit_op("toric", 12)]),
    "arrangement": (
        "pure Z[L] arithmetic; the control for every toric change",
        [class_op(18, 17), verify_op("lemma-arrangement", 12)]),
}
