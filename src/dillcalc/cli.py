"""Command line front end.

Subcommands: eval, fmt, compose, curry, diff, check-laws.  Results go to
stdout, diagnostics to stderr.  Exit codes: 0 on success, 1 on user errors
(unreadable input, malformed terms, failing laws), 2 on internal errors.
With --timings, one more stderr line gives the wall time of the command's
import, read, compute and write stages.

A subcommand imports what it computes with when it runs, and nothing is
imported before: fmt, and eval of a program that does not parse, load only
the standard-library reader (dillcalc.syntax); eval then loads the evaluator
and numpy, and so do compose, curry and diff, which apply the term language's
op of the same name to series JSON files; check-laws loads the law harness.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import sys
import time
from contextlib import contextmanager
from typing import List, Optional

_STAGES = ("import", "read", "compute", "write")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; that slot is reserved for
    # internal failures here, so downgrade usage problems to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


class _Run:
    """The stages of one command: their wall times, and the imports."""

    def __init__(self, freeze: bool):
        self.freeze = freeze
        self.seconds = dict.fromkeys(_STAGES, 0.0)

    @contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - start

    def load(self, *names: str) -> list:
        """The named dillcalc modules.  On the process entry path the objects
        made so far, numpy's and the package's included, then move into the
        permanent generation: no collection scans them again, the final one
        at interpreter exit included, which otherwise takes tens of
        milliseconds of every short command."""
        with self.stage("import"):
            modules = [importlib.import_module(f"{__package__}.{name}") for name in names]
        if self.freeze:
            gc.freeze()
        return modules

    def report(self) -> str:
        return "timings_ms " + " ".join(f"{k}={1000 * v:.1f}" for k, v in self.seconds.items())


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_out(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _cmd_eval(args, run: _Run) -> int:
    # the program is read before the evaluator is imported, so a program
    # that does not parse never loads numpy
    (syntax,) = run.load("syntax")
    with run.stage("read"):
        forms = syntax.parse_program(_read_text(args.file))
    (dsl,) = run.load("dsl")
    with run.stage("compute"):
        _, last = dsl.evaluate_program(forms)
    if last is not None:
        with run.stage("write"):
            _write_out(dsl.value_to_json(last), args.output)
    return 0


def _cmd_fmt(args, run: _Run) -> int:
    (syntax,) = run.load("syntax")
    with run.stage("read"):
        forms = syntax.parse_program(_read_text(args.file))
    with run.stage("write"):
        sys.stdout.write(syntax.format_program(forms))
    return 0


def _cmd_series(args, run: _Run) -> int:
    """compose, curry and diff: the term language's op of the same name on
    the series JSON files, with the --split or --coord integer after them."""
    (dsl,) = run.load("dsl")
    with run.stage("read"):
        values = [dsl.TruncatedSeries.from_json(_read_text(path)) for path in args.series]
    if args.index is not None:
        values.append(args.index)
    kwargs = {"outer_polynomial": True} if args.poly else {}
    with run.stage("compute"):
        result = dsl.apply_op(args.command, *values, **kwargs)
    with run.stage("write"):
        _write_out(result.to_json(), args.output)
    return 0


def _cmd_check_laws(args, run: _Run) -> int:
    (laws_mod,) = run.load("laws")
    with run.stage("read"):
        seed = {} if args.seed is None else {"seed": args.seed}
        config = laws_mod.LawConfig(dim=args.dim, degree=args.deg, **seed)
        names = args.law if args.law else None
        for name in names or ():
            if name not in laws_mod.LAWS:
                raise ValueError(f"unknown law {name!r}")
    with run.stage("compute"):
        reports = laws_mod.run_suite(config, names)
    with run.stage("write"):
        if args.json:
            sys.stdout.write(
                json.dumps([r.to_json_dict() for r in reports], allow_nan=False) + "\n"
            )
        else:
            for r in reports:
                status = "PASS" if r.passed else "FAIL"
                sys.stdout.write(
                    f"{status} {r.name:40s} max_error={r.max_error:.3e} "
                    f"tolerance={r.tolerance:.0e} ({r.runtime_ms:.1f} ms)\n"
                )
            failed = sum(1 for r in reports if not r.passed)
            sys.stdout.write(f"{len(reports) - failed}/{len(reports)} laws passed\n")
    return 0 if all(r.passed for r in reports) else 1


def _series_command(sub, name: str, about: str, files, flag: str, **option) -> None:
    """A subcommand that applies the term-language op `name` to the series
    JSON files named by the positionals `files`: one option of its own, then -o."""
    p = sub.add_parser(name, help=about)
    for metavar in files:
        p.add_argument("series", action="append", metavar=metavar)
    p.add_argument(flag, **option)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_series, index=None, poly=False)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dillcalc", description=__doc__)
    parser.add_argument(
        "--timings", action="store_true", help="write the wall time of each stage to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a term file and print the last value")
    p.add_argument("file", help="term file, or - for stdin")
    p.add_argument("-o", "--output", default=None, help="write result here instead of stdout")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("fmt", help="reprint a term file in canonical form")
    p.add_argument("file", help="term file, or - for stdin")
    p.set_defaults(func=_cmd_fmt)

    _series_command(
        sub, "compose", "compose two series given as JSON files (outer inner)", ("outer", "inner"),
        "--poly", action="store_true", help="allow a constant term in the inner series",
    )
    _series_command(
        sub, "curry", "curry a series JSON file at a domain split", ("series",),
        "--split", type=int, required=True, dest="index", metavar="SPLIT",
        help="leading coordinates to pull out",
    )
    _series_command(
        sub, "diff", "differentiate a series JSON file", ("series",),
        "--coord", type=int, dest="index", metavar="COORD", help="single coordinate instead of all",
    )

    p = sub.add_parser("check-laws", help="run the law suite")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--deg", type=int, default=4)
    p.add_argument("--seed", type=int, default=None, help="default: the LawConfig seed")
    p.add_argument("--law", action="append", default=None, help="run only this law (repeatable)")
    p.add_argument("--json", action="store_true", help="machine readable reports")
    p.set_defaults(func=_cmd_check_laws)

    return parser


def main(argv: Optional[List[str]] = None, *, freeze: bool = False) -> int:
    """Run one command.  With `freeze`, as on the process entry path, the
    heap is frozen after the command's imports; otherwise the caller's
    collector is left alone."""
    parser = build_parser()
    args = parser.parse_args(argv)
    run = _Run(freeze)
    try:
        return args.func(args, run)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.timings:
            print(run.report(), file=sys.stderr)


def entry() -> int:
    """Process entry point of `python -m dillcalc` and the `dillcalc` script."""
    return main(freeze=True)


if __name__ == "__main__":
    sys.exit(entry())
