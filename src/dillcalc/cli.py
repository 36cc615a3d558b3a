"""Command line front end.

Subcommands: eval, fmt, compose, curry, diff, check-laws.  Results go to
stdout, diagnostics to stderr.  Exit codes: 0 on success, 1 on user errors
(unreadable input, malformed terms, failing laws), 2 on internal errors.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from typing import List, Optional

import numpy as np

from . import calculus as ca
from .series import TruncatedSeries


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; that slot is reserved for
    # internal failures here, so downgrade usage problems to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _read_series(path: str) -> TruncatedSeries:
    return TruncatedSeries.from_json(_read_text(path))


def _write_out(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _finite(command: str, compute):
    """compute(), with an overflow reported as one error line naming the
    command (the term language's rule), not as numpy warnings followed by a
    JSON error."""
    with np.errstate(over="ignore", invalid="ignore"):
        return ca._finite_result(command, compute())


def _cmd_eval(args) -> int:
    from . import dsl

    forms = dsl.parse_program(_read_text(args.file))
    _, last = dsl.evaluate_program(forms)
    if last is not None:
        _write_out(dsl.value_to_json(last), args.output)
    return 0


def _cmd_fmt(args) -> int:
    from . import dsl

    forms = dsl.parse_program(_read_text(args.file))
    sys.stdout.write(dsl.format_program(forms))
    return 0


def _cmd_compose(args) -> int:
    f = _read_series(args.outer)
    g = _read_series(args.inner)
    h = _finite("compose", lambda: ca.compose(f, g, outer_polynomial=args.poly))
    _write_out(h.to_json(), args.output)
    return 0


def _cmd_curry(args) -> int:
    f = _read_series(args.series)
    c = _finite("curry", lambda: ca.curry(f, args.split))
    _write_out(json.dumps(c.to_json_dict(), allow_nan=False), args.output)
    return 0


def _cmd_diff(args) -> int:
    f = _read_series(args.series)
    if args.coord is not None:
        d = _finite("diff", lambda: f.partial_derivative(args.coord))
    else:
        d = _finite("diff", lambda: ca.derivative_series(f))
    _write_out(d.to_json(), args.output)
    return 0


def _cmd_check_laws(args) -> int:
    from . import laws as laws_mod

    seed = {} if args.seed is None else {"seed": args.seed}
    config = laws_mod.LawConfig(dim=args.dim, degree=args.deg, **seed)
    names = args.law if args.law else None
    for name in names or ():
        if name not in laws_mod.LAWS:
            raise ValueError(f"unknown law {name!r}")
    reports = laws_mod.run_suite(config, names)
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dillcalc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a term file and print the last value")
    p.add_argument("file", help="term file, or - for stdin")
    p.add_argument("-o", "--output", default=None, help="write result here instead of stdout")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("fmt", help="reprint a term file in canonical form")
    p.add_argument("file", help="term file, or - for stdin")
    p.set_defaults(func=_cmd_fmt)

    p = sub.add_parser("compose", help="compose two series given as JSON files (outer inner)")
    p.add_argument("outer")
    p.add_argument("inner")
    p.add_argument("--poly", action="store_true", help="allow a constant term in the inner series")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("curry", help="curry a series JSON file at a domain split")
    p.add_argument("series")
    p.add_argument("--split", type=int, required=True, help="leading coordinates to pull out")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_curry)

    p = sub.add_parser("diff", help="differentiate a series JSON file")
    p.add_argument("series")
    p.add_argument("--coord", type=int, default=None, help="single coordinate instead of all")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("check-laws", help="run the law suite")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--deg", type=int, default=4)
    p.add_argument("--seed", type=int, default=None, help="default: the LawConfig seed")
    p.add_argument("--law", action="append", default=None, help="run only this law (repeatable)")
    p.add_argument("--json", action="store_true", help="machine readable reports")
    p.set_defaults(func=_cmd_check_laws)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry() -> int:
    """Process entry point of `python -m dillcalc` and the `dillcalc` script.

    Moves the objects made by importing numpy and the package into the
    permanent generation before running `main`: no collection scans them
    again, the final one at interpreter exit included, which otherwise takes
    tens of milliseconds of every short command.  An in-process `main(argv)`
    call leaves the caller's collector alone.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
