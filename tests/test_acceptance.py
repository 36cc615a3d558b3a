"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single PASS/FAIL line for
it, and enforces both the tolerance and the runtime budget.  The criteria
stress the public surface only: polarization, composition against the naive
oracle, currying, extractor distributions, the structural law suite, the
adjunction, derivatives, coefficient bounds and the CLI.
"""

import itertools
import json
import math
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from dillcalc import calculus as ca
from dillcalc import exponential as xp
from dillcalc import laws
from dillcalc import multiindex as mi
from dillcalc import multilinear as ml
from dillcalc.series import TruncatedSeries

_SUITE_START = time.perf_counter()
EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "dsl_examples"


def _report(number: int, label: str, budget_s: float, body, capsys):
    start = time.perf_counter()
    try:
        detail = body()
        elapsed = time.perf_counter() - start
        ok = elapsed < budget_s
        note = detail if ok else f"{detail}; exceeded {budget_s}s budget"
    except AssertionError as exc:
        elapsed = time.perf_counter() - start
        ok = False
        note = str(exc).splitlines()[0] if str(exc) else "assertion failed"
    line = (
        f"criterion {number}: {'PASS' if ok else 'FAIL'} "
        f"[{label}] {note} ({elapsed:.2f}s)"
    )
    with capsys.disabled():
        print("\n" + line)
    assert ok, line


def _rand_series(rng, dom, cod, degree, zero_constant=False):
    return laws.random_series(rng, dom, cod, degree, zero_constant=zero_constant)


def test_criterion_01_polarization_fidelity(capsys):
    def body():
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(200):
            m = int(rng.integers(1, 4))
            k = int(rng.integers(1, 5))
            alpha = tuple(rng.multinomial(k, np.ones(m) / m))
            c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            f = TruncatedSeries.from_terms(m, 1, k, {(0, alpha): c})
            via_limit = ml.polarize(f, k)
            direct = ml.from_monomial(f, k)
            for t in itertools.combinations_with_replacement(range(m), k):
                worst = max(worst, abs(via_limit.entry(0, t) - direct.entry(0, t)))
        assert worst <= 1e-9, f"polarization mismatch {worst:.3e}"
        return f"200 monomials, max entry gap {worst:.2e} <= 1e-9"

    _report(1, "polarization fidelity", 5.0, body, capsys)


def test_criterion_02_composition_oracle(capsys):
    def body():
        rng = np.random.default_rng(102)
        worst = 0.0
        for _ in range(200):
            m = int(rng.integers(1, 3))
            p = int(rng.integers(1, 3))
            cod = int(rng.integers(1, 3))
            deg = int(rng.integers(1, 5))
            f = _rand_series(rng, p, cod, deg)
            g = _rand_series(rng, m, p, deg, zero_constant=True)
            fast = ca.compose(f, g)
            slow = ca.compose_naive(f, g)
            worst = max(worst, float(np.max(np.abs(fast.coeffs - slow.coeffs))))
        assert worst <= 1e-9, f"compose vs naive gap {worst:.3e}"
        return f"200 pairs, max gap {worst:.2e} <= 1e-9"

    _report(2, "composition matches naive substitution", 10.0, body, capsys)


def test_criterion_03_cartesian_closedness(capsys):
    def body():
        rng = np.random.default_rng(103)
        for trial in range(100):
            m1 = int(rng.integers(1, 4))
            m2 = int(rng.integers(1, 5 - m1))
            deg = int(rng.integers(1, 6))
            cod = int(rng.integers(1, 3))
            f = _rand_series(rng, m1 + m2, cod, deg)
            c = ca.curry(f, m1)
            back = ca.uncurry(c)
            assert np.array_equal(back.coeffs, f.coeffs), f"uncurry(curry) trial {trial}"
            again = ca.curry(back, m1)
            assert all(
                np.array_equal(a.coeffs, b.coeffs) for a, b in zip(again.inner, c.inner)
            ), f"curry(uncurry) trial {trial}"
        return "100 random splits, both roundtrips bit exact"

    _report(3, "currying is a bijection", 5.0, body, capsys)


def test_criterion_04_theta_extraction(capsys):
    def body():
        rng = np.random.default_rng(104)
        worst = 0.0
        for _ in range(100):
            m = int(rng.integers(1, 4))
            deg = int(rng.integers(1, 7))
            f = _rand_series(rng, m, 2, deg)
            x = laws.random_vector(rng, m)
            for order in range(deg + 1):
                got = xp.theta(order, x, deg).apply(f)
                want = math.factorial(order) * f.homogeneous_part(order).evaluate(x)
                worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst <= 1e-12, f"theta extraction error {worst:.3e}"
        return f"100 series, all orders, max error {worst:.2e} <= 1e-12"

    _report(4, "theta extracts scaled homogeneous parts", 2.0, body, capsys)


def test_criterion_05_dirac_taylor(capsys):
    def body():
        rng = np.random.default_rng(105)
        worst = 0.0
        for trial in range(100):
            m = int(rng.integers(1, 4))
            deg = int(rng.integers(1, 7))
            seed = int(rng.integers(0, 2**31))
            report = laws.run_law("delta-taylor", laws.LawConfig(m, deg, seed))
            assert report.max_error <= 1e-12, f"trial {trial}: {report.max_error:.3e}"
            worst = max(worst, report.max_error)
        return f"dirac == sum theta_n/n! within {worst:.2e} <= 1e-12 in 100 random configs"

    _report(5, "Taylor expansion of the Dirac functional", 2.0, body, capsys)


STRUCTURAL_LAWS = [
    "theta-convolution-induction",
    "convolution-monoid",
    "cocontraction-matches-convolve",
    "comonad-counit-laws",
    "comonad-coassociativity",
    "bialgebra-contraction-laws",
    "bialgebra-cocontraction-laws",
    "bialgebra-compatibility",
    "monoidality-bijection",
    "monoidality-strength",
    "codereliction-identity",
    "codereliction-finite-difference",
    "codereliction-digging",
    "bang-functoriality",
]


def test_criterion_06_structural_law_suite(capsys):
    def body():
        config = laws.LawConfig(dim=3, degree=5)
        reports = laws.run_suite(config, STRUCTURAL_LAWS)
        failed = [r.name for r in reports if not r.passed]
        assert not failed, f"failing laws: {failed}"
        exact = [r for r in reports if r.tolerance <= 1e-12]
        worst = max(r.max_error for r in exact)
        assert worst <= 1e-12, f"exact-law error {worst:.3e}"
        # the level-two laws must have restricted themselves to small spaces
        capped = {r.name: r.params for r in reports}
        assert capped["comonad-coassociativity"]["dim"] <= 2
        assert capped["comonad-coassociativity"]["degree"] <= 2
        return (
            f"{len(reports)} laws pass at dim 3 degree 5, "
            f"{len(exact)} exact ones within 1e-12 (worst {worst:.2e})"
        )

    _report(6, "comonad, bialgebra and codereliction laws", 30.0, body, capsys)


def test_criterion_07_adjunction(capsys):
    def body():
        rng = np.random.default_rng(107)
        worst = 0.0
        for _ in range(40):
            m = int(rng.integers(1, 3))
            n = int(rng.integers(1, 3))
            deg = int(rng.integers(1, 5))
            f = _rand_series(rng, m, n, deg)
            op = xp.series_to_operator(f)
            assert np.array_equal(xp.operator_to_series(op).coeffs, f.coeffs)
            size = mi.count_indices(m, deg)
            g = xp.LinearOperator(
                xp.DistBasis(m, deg),
                xp.VectorBasis(n),
                rng.uniform(-1, 1, (n, size)) + 1j * rng.uniform(-1, 1, (n, size)),
            )
            back = xp.operator_to_series(g)
            assert np.array_equal(xp.series_to_operator(back).matrix, g.matrix)
            # column alpha of check(g) is g(theta_|alpha| term at alpha)/|alpha|!,
            # i.e. g applied to the bare extractor once the k! cancels
            for pos, alpha in enumerate(mi.enumerate_indices(m, deg)):
                k = sum(alpha)
                column = g(xp.Distribution.extractor(alpha, deg).scale(math.factorial(k)))
                claim = column / math.factorial(k)
                worst = max(worst, float(np.max(np.abs(back.coeffs[:, pos] - claim))))
        assert worst <= 1e-12, f"extractor expansion gap {worst:.3e}"
        return f"roundtrips bit exact; theta expansion within {worst:.2e} <= 1e-12"

    _report(7, "linear-map adjunction", 2.0, body, capsys)


def test_criterion_08_derivative_consistency(capsys):
    def body():
        rng = np.random.default_rng(108)
        worst_fd = 0.0
        for _ in range(100):
            m = int(rng.integers(1, 4))
            deg = int(rng.integers(2, 5))
            f = _rand_series(rng, m, 2, deg)
            x = laws.random_vector(rng, m, scale=0.3)
            v = laws.random_vector(rng, m, scale=1.0)
            got = f.directional_derivative(x, v)
            t = 1e-5
            fd = (f.evaluate(x + t * v) - f.evaluate(x - t * v)) / (2 * t)
            rel = float(np.max(np.abs(got - fd)) / max(1.0, float(np.max(np.abs(got)))))
            worst_fd = max(worst_fd, rel)
        assert worst_fd <= 1e-6, f"finite difference gap {worst_fd:.3e}"

        worst_chain = 0.0
        for _ in range(25):
            m = int(rng.integers(1, 3))
            p = int(rng.integers(1, 3))
            deg = int(rng.integers(2, 5))
            f = _rand_series(rng, p, 1, deg)
            g = _rand_series(rng, m, p, deg, zero_constant=True)
            h = ca.compose(f, g)
            for i in range(m):
                lhs = h.partial_derivative(i)
                rhs = TruncatedSeries.zero(m, 1, deg - 1)
                for j in range(p):
                    dfj = ca.compose(f.partial_derivative(j), g.truncate(deg - 1))
                    rhs = rhs.add(dfj.pointwise_multiply(g.component(j).partial_derivative(i)))
                worst_chain = max(
                    worst_chain, float(np.max(np.abs(lhs.coeffs - rhs.coeffs)))
                )
        assert worst_chain <= 1e-8, f"chain rule gap {worst_chain:.3e}"

        worst_coder = 0.0
        for _ in range(50):
            m = int(rng.integers(1, 4))
            f = _rand_series(rng, m, 2, 3)
            v = laws.random_vector(rng, m, scale=1.0)
            got = xp.codereliction(v, 3).apply(f)
            want = f.directional_derivative(np.zeros(m), v)
            worst_coder = max(worst_coder, float(np.max(np.abs(got - want))))
        assert worst_coder <= 1e-12, f"codereliction gap {worst_coder:.3e}"
        return (
            f"FD {worst_fd:.2e} <= 1e-6, chain {worst_chain:.2e} <= 1e-8, "
            f"coder {worst_coder:.2e} <= 1e-12"
        )

    _report(8, "derivatives agree with finite differences and the chain rule", 5.0, body, capsys)


def test_criterion_09_cauchy_bound(capsys):
    def body():
        rng = np.random.default_rng(109)
        r = 0.7
        worst = 0.0
        for _ in range(100):
            m = int(rng.integers(1, 3))
            deg = int(rng.integers(1, 5))
            f = _rand_series(rng, m, 1, deg)
            pts = deg + 1
            angles = 2 * np.pi * np.arange(pts) / pts
            sample_max = 0.0
            for combo in np.ndindex(*(pts,) * m):
                x = r * np.exp(1j * angles[list(combo)])
                sample_max = max(sample_max, float(np.abs(f.evaluate(x))[0]))
            degs = mi.degree_vector(m, deg).astype(float)
            bound = float(np.max(np.abs(f.coeffs[0]) * r**degs))
            worst = max(worst, max(0.0, bound - sample_max) / (1.0 + sample_max))
        assert worst <= 1e-9, f"Cauchy bound violated by {worst:.3e}"
        return f"100 scalar series, max normalized excess {worst:.2e}"

    _report(9, "sampled Cauchy coefficient bound", 2.0, body, capsys)


def test_criterion_10_cli_end_to_end(capsys):
    def body():
        proc = subprocess.run(
            [sys.executable, "-m", "dillcalc", "check-laws", "--json"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        reports = json.loads(proc.stdout)
        assert [r["name"] for r in reports] == laws.law_names(), "incomplete report set"
        assert all(r["passed"] for r in reports)

        expected = {
            "theta.dsl": {"kind": "vector", "values": [[6.0, 0.0]]},
            "compose.dsl": None,  # checked structurally below
            "convolution.dsl": None,
        }
        outputs = {}
        for name in expected:
            proc = subprocess.run(
                [sys.executable, "-m", "dillcalc", "eval", str(EXAMPLES / name)],
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert proc.returncode == 0, (name, proc.stderr)
            outputs[name] = json.loads(proc.stdout)
        assert outputs["theta.dsl"] == expected["theta.dsl"]
        comp = {tuple(e["alpha"]): e["re"] for e in outputs["compose.dsl"]["coeffs"]}
        assert comp == {(2,): 1.0, (3,): 2.0, (4,): 1.0}, "compose example drifted"
        conv = {tuple(e["alpha"]): e["re"] for e in outputs["convolution.dsl"]["coeffs"]}
        assert conv == {(0,): 1.0, (1,): 2.0, (2,): 4.0, (3,): 8.0}
        total = time.perf_counter() - _SUITE_START
        assert total < 60.0, f"acceptance suite took {total:.1f}s"
        return (
            f"{len(reports)} laws green over the CLI, 3 examples verified, "
            f"suite at {total:.1f}s"
        )

    _report(10, "command line end to end", 60.0, body, capsys)
