"""Command-line driver.

Each subcommand, ``class``, ``dual``, ``resolve``, ``verify`` and
``report``, is the `run` of a module of its own, `cmd_<name>`, whose
docstring says what it prints.

This module is the command line alone: the option table `COMMANDS`, which
both the argument parser and ``--help`` read, the refusal check of
out-of-range values and the JSON writer.  A flag takes its value as
``--flag value`` or ``--flag=value``, is spelled in full and, if repeated,
keeps its last value.  Exit codes: 0 success (``--help`` included), 1 usage
error or output that cannot be written, 2 verification failure.  Output goes
to stdout (text or JSON via --format); a usage error, or a write to stdout
that fails other than on a closed pipe, is one ``sncdegen: error:`` line on
stderr.  JSON output is a single document that re-serializes byte-for-byte
under ``json.dumps(..., indent=2)``.  The module imports neither `argparse` nor
`json`, whose loading and parser set-up cost a cold run about 14 ms.

A cold run compiles each module it executes, so only the module of the
command that runs is imported, once its command line has parsed: ``--help``
and a malformed command line import none.  The command modules read the
others by `from . import x`, which runs `x` on first use, and call each
function through its module, so a command runs only the modules it uses;
`tests/test_imports.py` pins which.
"""

from __future__ import annotations

import os
import sys
from importlib import import_module
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

# perfbench/traced.py wraps functions of these modules, which it looks up
# in sys.modules after `import sncdegen.cli` and before a command runs.
# `from . import` registers each one there without running its body; the
# command modules bind the same module objects.
from . import _intmat, checks, degeneration, fans, grothring, toriclat

#: The modules that perfbench/traced.py finds registered: see the import.
#: `fans` is among them though the tracer names none of its functions: it
#: looks them up in `toriclat`, which binds them, and replaces them in
#: every registered module, so a call inside `fans` is traced only if
#: `fans` is registered before the tracer runs.
TRACED = (_intmat, checks, degeneration, fans, grothring, toriclat)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILED = 2

if TYPE_CHECKING:  # a subscripted Callable costs a cold run about 0.1 ms
    #: What a command's `run` returns: whether every check passed, then the
    #: JSON document and the text lines, each built only when printed.
    Output = tuple[bool, Callable[[], dict], Callable[[], Iterable[str]]]


class UsageError(Exception):
    """A command line, or a value on it, that the program refuses."""


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


#: Largest n of `class` and `report`, whose classes have degree about n;
#: the recursion memoises about r^2 * n coefficients.  A resource limit:
#: `class --r 26 --n 10000` takes 1.41-1.70 s cold and 43 MB (10 runs, 2 vCPUs).
CLASS_MAX_N = 10**4


def refuse(command: str, flag: str, value: int, lo: Optional[int] = None,
           hi: Optional[int] = None) -> None:
    """Refuse `value` of `flag` below `lo` or above `hi`, a usage error."""
    if lo is not None and value < lo:
        raise UsageError(f"need {flag} >= {lo}, got {flag}={value}")
    if hi is not None and value > hi:
        raise UsageError(f"{command} is limited to {flag} <= {hi}, got {flag}={value}")


# -- the command line ---------------------------------------------------


_FORMAT = {"--format": (("text", "json"), "text", "output format")}

#: The suites of `verify --scope`, in the order that `--scope all` runs them.
SCOPES = ("lemma-arrangement", "lemma-toric", "degeneration")

#: The subcommands: name -> (the module whose `run` runs it, summary,
#: options).  The options map each flag to (int or the tuple of its allowed
#: values, its default or None when it is required, help text); `run` takes
#: their values in this order, all but that of --format, which `cli` reads.
COMMANDS = {
    "class": ("cmd_class", "arrangement class P(r, n) three ways",
              {"--r": (int, None, "number of hyperplanes"),
               "--n": (int, None, "dimension of each hyperplane"), **_FORMAT}),
    "dual": ("cmd_dual", "dual of the model cone",
             {"--n": (int, None, "model dimension"), **_FORMAT}),
    "resolve": ("cmd_resolve", "fan, charts and semistability of the model",
                {"--n": (int, None, "model dimension"), **_FORMAT}),
    "verify": ("cmd_verify", "run invariant suites",
               {"--scope": ((*SCOPES, "all"), "all", "suites to run"),
                "--max-n": (int, 12, "largest n to sweep"), **_FORMAT}),
    "report": ("cmd_report", "end-to-end degeneration certificate",
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


def _run(module: str, fmt: str, *values) -> int:
    """Import the command module `module`, run it on its option values and
    print the JSON document or the text lines that it returns, building
    only the one printed."""
    passed, payload, lines = import_module(f".{module}", __package__).run(*values)
    if fmt == "json":
        print(_json(payload()))
    else:
        for line in lines():
            print(line)
    return EXIT_OK if passed else EXIT_FAILED


def _parse(argv: Sequence[str]) -> tuple[Callable[..., int], list]:
    """The function that `argv` asks to run and its arguments: `_run` and
    a subcommand's module, format and option values, or `_help`."""
    if not argv:
        raise UsageError(f"missing subcommand (choose from {', '.join(COMMANDS)})")
    name, *rest = argv
    if name in ("-h", "--help"):
        return _help, [None]
    if name not in COMMANDS:
        raise UsageError(f"invalid subcommand {name!r} (choose from {', '.join(COMMANDS)})")
    if "-h" in rest or "--help" in rest:
        return _help, [name]
    module, _, options = COMMANDS[name]
    given = {}
    tokens = iter(rest)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in options:
            raise UsageError(f"{name}: unrecognized argument {token!r}")
        value = value if eq else next(tokens, None)
        if value is None:
            raise UsageError(f"argument {flag}: expected a value")
        kind = options[flag][0]
        if kind is int:
            try:
                value = int(value)
            except ValueError:  # also past the interpreter's digit limit
                raise UsageError(f"argument {flag}: invalid int value: {value!r}") from None
        elif value not in kind:
            raise UsageError(f"argument {flag}: invalid choice: {value!r} "
                             f"(choose from {', '.join(kind)})")
        given[flag] = value
    missing = [flag for flag, (_, default, _) in options.items()
               if default is None and flag not in given]
    if missing:
        raise UsageError(f"{name}: the following arguments are required: {', '.join(missing)}")
    values = {flag: given.get(flag, default) for flag, (_, default, _) in options.items()}
    return _run, [module, values.pop("--format"), *values.values()]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the command line `argv`, by default `sys.argv[1:]`, and return
    its exit code.  The program's entry, `sncdegen.__main__.run`, exits
    with it."""
    try:
        run, args = _parse(sys.argv[1:] if argv is None else argv)
        code = run(*args)
        sys.stdout.flush()  # a closed pipe raises here rather than at exit
        return code
    except UsageError as exc:
        print(f"sncdegen: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        # The reader went away (``| head``), silently, or stdout cannot be
        # written (a full device), with one error line.  Point stdout at
        # devnull so the interpreter's final flush does not raise again.
        if not isinstance(exc, BrokenPipeError):
            print(f"sncdegen: error: cannot write the output: {exc.strerror or exc}",
                  file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
