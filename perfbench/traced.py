"""Run one benchmark operation with its layers traced, in this interpreter.

    python perfbench/traced.py -m sncdegen ARGS...
    python perfbench/traced.py perfbench/orbit.py ARGS...
    python perfbench/traced.py -c CODE

with the repository's src/ on PYTHONPATH.  The target runs as it would
untraced, except that the functions listed in SPANS and the arithmetic of
GrothClass are wrapped first.  The last line of stdout is one JSON object:
{"stdout": <the target's own stdout>, "layers": {metric: value}}.  The
exit code is the target's.

A span's self time is its duration minus the time its child spans cover.
GrothClass arithmetic is too hot for one span per call: it keeps a count
per operation and one busy time, summed over outermost calls only (a power
calls multiply), and is not subtracted from the enclosing span's self time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import runpy
import sys
from collections import Counter
from time import perf_counter

import sncdegen
import sncdegen.cli  # not imported by the package itself

# (module, function or Class.method) pairs that get one span per call.
SPANS = [
    ("cli", "main"),
    ("degeneration", "full_degeneration_report"),
    ("degeneration", "resolve_local_model"),
    ("degeneration", "affine_coordinate_arrangement_class"),
    ("toriclat", "Cone.__init__"),
    ("toriclat", "Fan.__init__"),
    ("toriclat", "_common_face"),
    ("toriclat", "dual_cone"),
    ("toriclat", "is_smooth"),
    ("toriclat", "resolution_fan"),
    ("toriclat", "verify_partition"),
    ("toriclat", "fiber_class"),
    ("toriclat", "toric_class"),
    ("toriclat", "blowup_chart_sequence"),
    ("_intmat", "extreme_rays"),
    ("_intmat", "mat_rank"),
    ("_intmat", "invariant_factors"),
    ("grothring", "arrangement_class_inclusion_exclusion"),
]

GROTH_OPS = {"__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
             "__neg__": "neg", "__mul__": "mul", "__rmul__": "mul", "__pow__": "pow"}


def _partition_points(args: inspect.BoundArguments, _) -> int:
    """Points the bounded sweep visits, computed from the arguments the way
    toriclat._sweep_covered does: (bound - lo + 1)^rank."""
    parent, bound = args.arguments["parent"], args.arguments["bound"]
    lo = 0 if all(c >= 0 for r in parent.rays for c in r) else -bound
    return (bound - lo + 1) ** parent.rank


class Tracer:
    """Aggregated spans and counters, kept in memory for one process."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.counters: Counter = Counter()
        self.op_calls: Counter = Counter()
        self.op_busy = [0.0, 0]  # seconds, current nesting depth
        self._open: list[float] = []  # child time of each open span

    def span(self, name, fn, counter=None):
        """Wrap fn in a span; `counter` is (metric, f(bound arguments,
        result)) for a work count taken on each call."""
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        open_spans, counters = self._open, self.counters
        if counter:
            counters[counter[0]] = 0
            signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                child = open_spans.pop()
                stats[0] += 1
                stats[1] += duration - child
                stats[2] += duration
                if open_spans:
                    open_spans[-1] += duration
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counters[counter[0]] += counter[1](bound, result)
            return result

        return wrapper

    def counted_op(self, key, fn):
        calls, busy = self.op_calls, self.op_busy

        @functools.wraps(fn)
        def wrapper(*args):
            calls[key] += 1
            if busy[1]:
                return fn(*args)
            busy[1] = 1
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                busy[0] += perf_counter() - start
                busy[1] = 0

        return wrapper

    def install(self) -> None:
        """Wrap every SPANS entry where it is bound.  Functions are replaced
        in every sncdegen module namespace that binds them, since modules
        import each other's functions by name; methods are replaced on
        their class."""
        counted = {
            "verify_partition": ("toriclat.verify_partition.points", _partition_points),
            "extreme_rays": ("intmat.extreme_rays.rays_out", lambda _, rays: len(rays)),
        }
        modules = [m for name, m in sys.modules.items()
                   if name == "sncdegen" or name.startswith("sncdegen.")]
        for module_name, qualname in SPANS:
            module = sys.modules[f"sncdegen.{module_name}"]
            name = f"{module_name.lstrip('_')}.{qualname}"
            owner, _, attr = qualname.rpartition(".")
            if owner:
                cls = getattr(module, owner)
                setattr(cls, attr, self.span(name, cls.__dict__[attr]))
                continue
            original = getattr(module, attr)
            wrapper = self.span(name, original, counted.get(attr))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
        groth = sncdegen.grothring.GrothClass
        for attr, key in GROTH_OPS.items():
            setattr(groth, attr, self.counted_op(key, groth.__dict__[attr]))

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (calls, self_s, total_s) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.total_s"] = total_s
        out.update(self.counters)
        for key in sorted(set(GROTH_OPS.values())):
            out[f"grothring.GrothClass.{key}.calls"] = self.op_calls[key]
        out["grothring.GrothClass.ops_s"] = self.op_busy[0]
        return out


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    captured = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(captured):
        try:
            if argv[0] == "-m":
                sys.argv = argv[1:]
                runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
            elif argv[0] == "-c":
                sys.argv = ["-c", *argv[2:]]
                exec(compile(argv[1], "<string>", "exec"), {"__name__": "__main__"})
            else:
                sys.argv = argv
                runpy.run_path(argv[0], run_name="__main__")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    print(json.dumps({"stdout": captured.getvalue(), "layers": tracer.metrics()}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
