"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. Small instances of every operation pass their output checks, untraced
   and traced.
2. With a wrong expected value planted in each oracle of workloads.py, the
   operations that read it fail, so the fail ratio rises above 0.
3. Two traced runs of the same workload and seed give identical work
   counts (calls, rays_out, points), and the traced run sees every layer
   the workload is meant to reach.

Exits 0 when every test holds, 1 otherwise.  Takes about half a minute.
"""

from __future__ import annotations

import contextlib
import json
import subprocess
import sys

import run
import workloads
from workloads import class_op, dual_op, orbit_op, report_op, resolve_op, verify_op

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def small_ops() -> list[workloads.Op]:
    return [report_op(3), resolve_op(4), dual_op(5), class_op(4, 3),
            verify_op("lemma-arrangement", 3), orbit_op("fiber", 4), orbit_op("toric", 4)]


def _bump(coeffs: list[int]) -> list[int]:
    return [coeffs[0] + 1] + coeffs[1:]


# oracle name -> wrapper that makes it return a wrong expected value
PLANTS = {
    "arrangement_coeffs": lambda f: lambda r, n: _bump(f(r, n)),
    "orbit_coeffs": lambda f: lambda n, fiber_only: _bump(f(n, fiber_only)),
    "dual_rays": lambda f: lambda n: f(n)[:-1] + [[1] * (n + 1)],
    "slab_cones": lambda f: lambda n: set(sorted(f(n), key=sorted)[1:]),
}


@contextlib.contextmanager
def planted():
    originals = {name: getattr(workloads, name) for name in PLANTS}
    try:
        for name, plant in PLANTS.items():
            setattr(workloads, name, plant(originals[name]))
        yield
    finally:
        for name, f in originals.items():
            setattr(workloads, name, f)


def fail_ratio(results: list[run.Result]) -> float:
    return sum(r.failure is not None for r in results) / len(results)


def test_checks_pass(env) -> None:
    for traced in (False, True):
        results = run.run_pass(small_ops(), traced, env)
        for r in results:
            expect(r.failure is None, f"{r.op.name}{' traced' if traced else ''} passes "
                                      f"its check ({r.failure})")


def test_planted_values_fail(env) -> None:
    print("planted values (the FAILED lines on stderr are expected):")
    with planted():
        results = run.run_pass(small_ops(), False, env)
    expect(fail_ratio(results) > 0, f"fail ratio with planted values is "
                                    f"{fail_ratio(results):.2f} > 0")
    for r in results:
        # verify reads no oracle: its expected values are the verdicts.
        should_fail = not r.op.name.startswith("verify")
        expect((r.failure is not None) == should_fail,
               f"{r.op.name} {'fails' if should_fail else 'passes'} with planted values")


def traced_counts(seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report", "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    result = json.loads(proc.stdout.splitlines()[-1])
    expect(proc.returncode == 0 and result["correct"], "traced report run is correct")
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.endswith((".calls", ".rays_out", ".points"))}


def test_counts_repeat() -> None:
    first, second = traced_counts(7), traced_counts(7)
    expect(first == second, "work counts repeat exactly on the same seed")
    for name in ("cli.main.calls", "degeneration.resolve_local_model.calls",
                 "toriclat.Fan.__init__.calls", "toriclat._common_face.calls",
                 "toriclat.verify_partition.points", "toriclat.fiber_class.calls",
                 "intmat.extreme_rays.rays_out", "intmat.mat_rank.calls",
                 "grothring.GrothClass.pow.calls"):
        expect(first.get(name, 0) > 0, f"{name} = {first.get(name)} > 0 on report")


def main() -> int:
    env = run.child_env()
    test_checks_pass(env)
    test_planted_values_fail(env)
    test_counts_repeat()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
