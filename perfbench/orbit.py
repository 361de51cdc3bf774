"""Orbit-counting operation: print the class of the resolved model's toric
variety, or of its central fiber, as JSON.

    python perfbench/orbit.py {fiber,toric} N

with the repository's src/ on PYTHONPATH.  The CLI never reaches this size
(verify caps n at 8, and report is dominated by the partition sweep), so
the benchmark calls the public API directly.
"""

import json
import sys

import sncdegen


def main(argv: list[str]) -> int:
    function, n = argv[0], int(argv[1])
    fan = sncdegen.resolution_fan(n)
    if function == "fiber":
        cls = sncdegen.fiber_class(fan, sncdegen.unit_vector(n + 1, n))
    elif function == "toric":
        cls = sncdegen.toric_class(fan)
    else:
        print(f"orbit.py: unknown function {function!r}", file=sys.stderr)
        return 1
    print(json.dumps({"function": function, "n": n, "coeffs": list(cls.coeffs)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
