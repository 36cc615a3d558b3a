#!/usr/bin/env python3
"""Composition sanity demo against a classical generating function.

Substituting g(x) = x + x^2 into the geometric series f(y) = sum_k y^k gives
h(x) = 1 / (1 - x - x^2), whose coefficients are the Fibonacci numbers.  The
composite is computed by `compose`, which multiplies the coefficients of f by
the power table of g, and checked against the recurrence exactly, so any drift
in the composition kernel shows up as an integer mismatch rather than a float
tolerance question.  The test suite runs it at degree 8.

    python3 scripts/fibonacci_compose.py --degree 8
"""

import argparse
import sys

from dillcalc import calculus as ca
from dillcalc.series import TruncatedSeries


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--degree", type=int, default=8)
    args = ap.parse_args()
    deg = args.degree

    geometric = TruncatedSeries.from_terms(
        1, 1, deg, {(0, (k,)): 1.0 for k in range(deg + 1)}
    )
    g = TruncatedSeries.from_terms(1, 1, deg, {(0, (1,)): 1.0, (0, (2,)): 1.0})
    h = ca.compose(geometric, g)

    fib = [1, 1]
    while len(fib) <= deg:
        fib.append(fib[-1] + fib[-2])

    print(f"coefficients of 1/(1 - x - x^2) up to degree {deg}:")
    exact = True
    for k in range(deg + 1):
        got = h.coefficient(0, (k,)).real
        ok = got == fib[k]
        exact = exact and ok
        print(f"  x^{k:<2d}  computed {got:12.1f}   fibonacci {fib[k]:8d}   {'ok' if ok else 'MISMATCH'}")
    print("all coefficients exact" if exact else "composition drifted")
    return 0 if exact else 1


if __name__ == "__main__":
    sys.exit(main())
