"""Traced `dillcalc` process: install the span wrappers, then run the CLI.

    python3 perfbench/child.py SPANS_OUT REQUEST_ID -- dillcalc arguments...

Behaves like `python3 -m dillcalc arguments...` (same stdout, stderr and exit
code) and writes its spans, counters and import time to SPANS_OUT at exit.
The parent sets PYTHONPATH to the checkout's `src`.
"""

import sys
import time


def main() -> int:
    out_path, request = sys.argv[1], sys.argv[2]
    if sys.argv[3] != "--":
        raise SystemExit("usage: child.py SPANS_OUT REQUEST_ID -- ARGS...")
    argv = sys.argv[4:]

    start = time.perf_counter()
    import dillcalc.cli  # noqa: F401

    import_s = time.perf_counter() - start

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.begin(request)
    code = 2
    try:
        code = dillcalc.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors exit through here
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.end()
        sys.stdout.flush()
        tracer.dump(out_path, import_s=import_s, exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(main())
