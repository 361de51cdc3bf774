"""sncdegen benchmark: cold certification runs of the public entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout root is the parent of this directory, and
the package is imported from its src/.  Each operation runs in a fresh
interpreter, so every lru_cache starts empty, as it does for a CLI user.
One client runs operations in a closed loop: the next starts when the
previous one has exited, and no two children run at once.  A pass runs
every operation of the workload once, in an order drawn from --seed;
passes repeat until --seconds have elapsed, and only whole passes count.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced passes with passes run under perfbench/traced.py and
reports the per-layer metrics.  Every output, traced or not, is checked
(see workloads.py).  The last line of stdout is the result as one JSON
object; the lines before it record the machine and per-operation figures.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

from workloads import WORKLOADS, Op, judge

ROOT = Path(__file__).resolve().parent.parent
OP_TIMEOUT_S = 60.0

# Fixed reference work, timed in fresh interpreters just before every pass.
# The speed of a shared machine drifts (by 20-40% within minutes on the
# 2-vCPU host the bounds were set on), and the drift moves the program and
# the references alike.  Each pass's times are therefore scaled by
# REFERENCE_S / (the reference's time before that pass): seconds at the
# reference speed, with the drift cancelled.
SETUP_CODE = "import sncdegen"
REFERENCE_CODE = {
    "import": "import numpy",
    "compute": """
from fractions import Fraction
for t in range(120):
    rows = [[(i * 7 + j * 13 + t) % 11 - 5 for j in range(9)] for i in range(9)]
    for c in range(9):
        p = next((i for i in range(c, 9) if rows[i][c]), None)
        if p is not None:
            rows[c], rows[p] = rows[p], rows[c]
            for i in range(c + 1, 9):
                f = Fraction(rows[i][c], rows[c][c])
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    assert len({tuple(r) for r in rows}) == 9
""",
}
REFERENCE_S = {"import": 0.20, "compute": 0.25}


@dataclass
class Result:
    """One finished operation."""

    op: Op
    wall_s: float
    cpu_s: float
    rss_mb: float
    failure: Optional[str]
    layers: dict


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(argv: list[str], env: dict[str, str]):
    """Run one child to completion; return (exit code, stdout, stderr,
    wall seconds, rusage).  Pipes are drained while it runs, and a child
    that outlives OP_TIMEOUT_S is killed."""
    start = perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        chunks: dict[int, list[bytes]] = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
        with selectors.DefaultSelector() as sel:
            for stream in (proc.stdout, proc.stderr):
                sel.register(stream, selectors.EVENT_READ)
            while sel.get_map():
                left = start + OP_TIMEOUT_S - perf_counter()
                if left <= 0:
                    proc.kill()
                    break
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fileobj)
        # wait4 rather than proc.wait(), for this child's own rusage.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = perf_counter() - start
        out, err = (b"".join(chunks[s.fileno()]) for s in (proc.stdout, proc.stderr))
    return proc.returncode, out, err, wall, usage


def run_op(op: Op, traced: bool, env: dict[str, str]) -> Result:
    tracer = ["perfbench/traced.py"] if traced else []
    argv = [sys.executable, *tracer, *op.args]
    code, out, err, wall, usage = spawn(argv, env)
    layers: dict = {}
    if traced and code == 0:
        try:
            envelope = json.loads(out.splitlines()[-1])
            out, layers = envelope["stdout"].encode(), envelope["layers"]
        except (ValueError, IndexError, KeyError) as exc:
            out = b""
            err += f"\nno trace envelope: {exc!r}".encode()
    failure = judge(op, code, out)
    if failure is not None:
        tail = err.decode(errors="replace").strip().splitlines()[-1:]
        print(f"FAILED {op.name}{' (traced)' if traced else ''}: {failure}"
              f"{' | ' + tail[0] if tail else ''}", file=sys.stderr)
    return Result(op, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                  failure, layers)


def run_pass(ops: list[Op], traced: bool, env: dict[str, str]) -> list[Result]:
    return [run_op(op, traced, env) for op in ops]


def time_child(code: str, env: dict[str, str]) -> tuple[float, float]:
    """Wall and CPU seconds of a fresh interpreter running `code`."""
    exit_code, _, err, wall, usage = spawn([sys.executable, "-c", code], env)
    if exit_code != 0:
        raise SystemExit(f"run.py: {code.strip().splitlines()[0]!r} failed:\n"
                         + err.decode(errors="replace"))
    return wall, usage.ru_utime + usage.ru_stime


def environment() -> dict[str, str]:
    """Machine, interpreter and source revision, recorded with the results."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "not installed"
    return {"nproc": str(len(os.sched_getaffinity(0))), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy,
            "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def by_op(passes: list[list[Result]]) -> dict[str, list[Result]]:
    grouped: dict[str, list[Result]] = {}
    for r in (r for p in passes for r in p):
        grouped.setdefault(r.op.name, []).append(r)
    return grouped


def time_metrics(timed: list[dict[str, tuple[float, float]]],
                 passes: list[list[Result]], scaled: bool) -> dict[str, float]:
    """setup_s, wall_s, op_s.p50 and cpu_s.  With `scaled`, each pass's
    times are first multiplied by REFERENCE_S / the reference timed just
    before that pass (wall time by wall time, CPU by CPU)."""
    def factor(t: dict[str, tuple[float, float]], kind: str, column: int) -> float:
        return REFERENCE_S[kind] / t[kind][column] if scaled else 1.0

    op_walls: dict[str, list[float]] = {}
    for p, t in zip(passes, timed):
        for r in p:
            op_walls.setdefault(r.op.name, []).append(r.wall_s * factor(t, "compute", 0))
    return {
        "setup_s": statistics.median(t["setup"][0] * factor(t, "import", 0) for t in timed),
        "wall_s": statistics.median(sum(r.wall_s for r in p) * factor(t, "compute", 0)
                                    for p, t in zip(passes, timed)),
        "op_s.p50": statistics.median(statistics.median(w) for w in op_walls.values()),
        "cpu_s": statistics.median(sum(r.cpu_s for r in p) * factor(t, "compute", 1)
                                   for p, t in zip(passes, timed)),
    }


def end_to_end(timed: list[dict[str, tuple[float, float]]],
               passes: list[list[Result]]) -> tuple[dict[str, float], dict[str, float]]:
    """The end-to-end metrics, and the time metrics before scaling."""
    results = [r for p in passes for r in p]
    metrics = time_metrics(timed, passes, scaled=True)
    metrics["peak_rss_mb"] = statistics.median(max(r.rss_mb for r in p) for p in passes)
    metrics["ok_ratio"] = sum(r.failure is None for r in results) / len(results)
    return metrics, time_metrics(timed, passes, scaled=False)


def per_layer(plain: list[list[Result]], traced: list[list[Result]]):
    """Median over traced passes of each layer metric summed over a pass,
    unscaled; the second value is empty, as there is nothing to unscale."""
    sums = []
    for p in traced:
        total: Counter = Counter()
        for r in p:
            total.update(r.layers)
        sums.append(total)
    names = set().union(*sums)
    out = {name: statistics.median(s[name] for s in sums) for name in names}
    out["trace.overhead_s"] = (
        statistics.median(sum(r.wall_s for r in p) for p in traced)
        - statistics.median(sum(r.wall_s for r in p) for p in plain))
    return out, {}


def run(workload: str, seed: int, seconds: float, trace: bool):
    """Run whole passes until `seconds` have elapsed; with `trace`, each
    untraced pass is followed by a traced one.  Set-up and the references
    are timed just before every untraced pass."""
    ops = WORKLOADS[workload][1]
    rng = random.Random(seed)
    env = child_env()
    time_child(SETUP_CODE, env)  # writes the bytecode cache of a fresh checkout
    timed: list[dict[str, tuple[float, float]]] = []  # one entry per untraced pass
    plain: list[list[Result]] = []
    traced: list[list[Result]] = []
    deadline = perf_counter() + seconds
    while not plain or perf_counter() < deadline:
        timed.append({"setup": time_child(SETUP_CODE, env),
                      **{kind: time_child(code, env) for kind, code in REFERENCE_CODE.items()}})
        plain.append(run_pass(rng.sample(ops, len(ops)), False, env))
        if trace:
            traced.append(run_pass(rng.sample(ops, len(ops)), True, env))
    return timed, plain, traced


def summary_lines(passes: list[list[Result]], traced: bool) -> list[str]:
    kind = "traced" if traced else "untraced"
    return [f"# {kind} {name}: n={len(rs)} wall_s.p50={statistics.median(r.wall_s for r in rs):.4f} "
            f"cpu_s.p50={statistics.median(r.cpu_s for r in rs):.4f} "
            f"rss_mb.max={max(r.rss_mb for r in rs):.1f} "
            f"failed={sum(r.failure is not None for r in rs)}"
            for name, rs in by_op(passes).items()]


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sncdegen").is_dir():
        print(f"run.py: no sncdegen sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    timed, plain, traced = run(args.workload, args.seed, args.seconds, bool(args.trace))
    values, raw = per_layer(plain, traced) if args.trace else end_to_end(timed, plain)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"run.py: metrics not measured: {missing}", file=sys.stderr)
        return 1

    print("# env " + json.dumps(environment()))
    print(f"# workload {args.workload}: {WORKLOADS[args.workload][0]}; "
          f"seed={args.seed} passes={len(plain)} traced_passes={len(traced)}")
    print("# median child wall s " + json.dumps(
        {key: statistics.median(t[key][0] for t in timed) for key in timed[0]}))
    if raw:
        print("# unscaled " + json.dumps(raw))
    for line in summary_lines(plain, False) + (summary_lines(traced, True) if traced else []):
        print(line)
    results = [r for p in plain + traced for r in p]
    failed = sum(r.failure is not None for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
