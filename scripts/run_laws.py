#!/usr/bin/env python3
"""Sweep the law suite over a grid of dimensions and degrees.

Usage:
    python3 scripts/run_laws.py --dims 1 2 3 --degrees 2 4 6
    python3 scripts/run_laws.py --json sweep.json

Prints one summary row per configuration, followed by its three slowest laws
by runtime_ms, and a final verdict; exits 1 if any law fails anywhere in the
sweep.  Useful for catching tolerance drift after touching the composition or
convolution kernels.
"""

import argparse
import json
import sys
import time

import numpy as np

from dillcalc import laws


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--degrees", type=int, nargs="+", default=[2, 4, 6])
    ap.add_argument("--seed", type=int, default=laws.LawConfig().seed)
    ap.add_argument("--json", default=None, help="dump every report here")
    args = ap.parse_args()

    all_reports = []
    any_failed = False
    for dim in args.dims:
        for degree in args.degrees:
            config = laws.LawConfig(dim=dim, degree=degree, seed=args.seed)
            start = time.perf_counter()
            reports = laws.run_suite(config)
            elapsed = time.perf_counter() - start
            failed = [r.name for r in reports if not r.passed]
            # np.max, not max: a NaN ratio is the worst, wherever it stands
            worst = np.max([r.max_error / max(r.tolerance, 1e-300) for r in reports])
            status = "ok" if not failed else "FAIL " + ",".join(failed)
            print(
                f"dim {dim} degree {degree}: {len(reports) - len(failed)}/{len(reports)} "
                f"laws, worst error at {worst:.2e} of tolerance, {elapsed:.2f}s  {status}"
            )
            slowest = sorted(reports, key=lambda r: r.runtime_ms, reverse=True)[:3]
            print("  slowest: " + ", ".join(f"{r.name} {r.runtime_ms:.1f} ms" for r in slowest))
            any_failed = any_failed or bool(failed)
            all_reports.extend(
                dict(r.to_json_dict(), dim=dim, degree=degree) for r in reports
            )

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(all_reports, handle, indent=2)
        print(f"wrote {len(all_reports)} reports to {args.json}")

    print("sweep failed" if any_failed else "sweep clean")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
