"""The program entry: ``python -m sncdegen`` and the ``sncdegen`` console
script both call `run`.

`run` is `cli.main` and then the process exit.  Between the two it calls
`gc.freeze()`: every object the collector tracks moves into the permanent
generation, and the collections at shutdown skip that generation.  Those
collections walk every live object, mostly ones that `site` and the
imports made, and free none, so a cold run exits about 4 ms sooner
without them.  By the freeze `cli.main` has printed and flushed the
output, or handled a stdout that cannot be written; `atexit` handlers,
the final flush of the standard streams and module teardown still run.
No class of the package defines `__del__`.

`cli.main` itself never freezes, so tests and library callers that run a
command in process keep the collector as it was.  Importing this module
runs no command.
"""

import gc
import sys

from .cli import main


def run() -> None:
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
