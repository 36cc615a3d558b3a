import dataclasses
import importlib.util
import inspect
import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from dillcalc import exponential as xp
from dillcalc import laws

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "run_laws.py"

EXPECTED_LAWS = [
    "multiindex-count",
    "multiindex-binom-symmetry",
    "series-homogeneous-reconstruction",
    "series-homogeneity-scaling",
    "series-directional-finite-difference",
    "series-cauchy-sampled",
    "series-partial-sum-monotone",
    "polarize-matches-from-monomial",
    "multilinear-apply-symmetry",
    "multilinear-apply-slot-linearity",
    "multilinear-diagonal-roundtrip",
    "compose-matches-naive",
    "compose-associativity",
    "compose-identity",
    "curry-uncurry-roundtrip",
    "curry-evaluation",
    "curry-split-slot-reference",
    "chain-rule",
    "dirac-evaluates",
    "theta-extracts",
    "theta-convolution-induction",
    "convolution-monoid",
    "cocontraction-matches-convolve",
    "delta-taylor",
    "dirac-spanning",
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
    "adjunction-roundtrip",
    "adjunction-extractor-expansion",
]


def test_registry_is_complete():
    assert laws.law_names() == EXPECTED_LAWS
    assert len(set(EXPECTED_LAWS)) == len(EXPECTED_LAWS)
    # a law yields its sides; only the harness measures them
    assert all(inspect.isgeneratorfunction(fn) for fn, _ in laws.LAWS.values())


def test_default_suite_passes():
    reports = laws.run_suite(laws.LawConfig())
    assert len(reports) == len(EXPECTED_LAWS)
    failed = [r.name for r in reports if not r.passed]
    assert failed == []
    for r in reports:
        assert r.max_error <= r.tolerance
        assert r.runtime_ms >= 0.0


def test_suite_is_deterministic():
    cfg = laws.LawConfig(dim=2, degree=3, seed=99)
    a = laws.run_suite(cfg)
    b = laws.run_suite(cfg)
    for ra, rb in zip(a, b):
        assert ra.name == rb.name
        assert ra.max_error == rb.max_error  # bit for bit
        assert ra.params == rb.params


def test_seed_change_keeps_verdicts():
    base = {r.name: r.passed for r in laws.run_suite(laws.LawConfig(seed=1))}
    other = {r.name: r.passed for r in laws.run_suite(laws.LawConfig(seed=2))}
    assert base == other
    assert all(base.values())


STRUCTURE_LAWS = [
    "bialgebra-contraction-laws",
    "bialgebra-cocontraction-laws",
    "bialgebra-compatibility",
    "monoidality-bijection",
]


def test_structure_laws_exact_at_largest_config():
    reports = laws.run_suite(laws.LawConfig(dim=3, degree=6), STRUCTURE_LAWS)
    assert [(r.name, r.passed, r.max_error) for r in reports] == [
        (name, True, 0.0) for name in STRUCTURE_LAWS
    ]


def test_small_configs_pass():
    for cfg in (laws.LawConfig(dim=1, degree=1), laws.LawConfig(dim=3, degree=2)):
        failed = [r.name for r in laws.run_suite(cfg) if not r.passed]
        assert failed == []


def test_config_validation():
    with pytest.raises(ValueError, match="dimension"):
        laws.LawConfig(dim=0)
    with pytest.raises(ValueError, match="dimension"):
        laws.LawConfig(dim=4)
    with pytest.raises(ValueError, match="degree"):
        laws.LawConfig(degree=0)
    with pytest.raises(ValueError, match="degree"):
        laws.LawConfig(degree=7)
    for bad in (True, 2.0, "2"):
        # int() would read each of these
        with pytest.raises(ValueError, match=f"dimension must be an integer .*, got {bad!r}"):
            laws.LawConfig(dim=bad)
        with pytest.raises(ValueError, match=f"degree must be an integer .*, got {bad!r}"):
            laws.LawConfig(degree=bad)
    for seed in (-1, 1.5, "7", True):
        # random.Random seeds -1 and 1 alike, so the config refuses -1 itself
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed!r}"):
            laws.LawConfig(seed=seed)
    assert laws.run_law("multilinear-apply-symmetry", laws.LawConfig(seed=10**30)).passed
    with pytest.raises(dataclasses.FrozenInstanceError):
        laws.LawConfig().dim = 3


def test_unknown_law():
    with pytest.raises(KeyError, match="unknown law"):
        laws.run_law("definitely-not-a-law", laws.LawConfig())


def test_run_suite_subset_keeps_given_order():
    cfg = laws.LawConfig(dim=1, degree=2)
    picked = ["compose-identity", "multiindex-count"]
    reports = laws.run_suite(cfg, names=picked)
    assert [r.name for r in reports] == picked


def test_report_json_shape():
    r = laws.run_law("multiindex-count", laws.LawConfig())
    d = r.to_json_dict()
    assert set(d) == {"name", "params", "max_error", "tolerance", "passed", "runtime_ms"}
    assert d["name"] == "multiindex-count"
    assert d["passed"] is True
    assert isinstance(d["params"], dict)


def test_expensive_laws_report_capped_params():
    # level-two checks shrink their instance size and must say so
    cfg = laws.LawConfig(dim=3, degree=6)
    r = laws.run_law("comonad-coassociativity", cfg)
    assert r.passed
    assert r.params["dim"] <= 2 and r.params["degree"] <= 2
    assert "restriction" in r.params
    r = laws.run_law("monoidality-strength", cfg)
    assert r.passed
    assert max(r.params["dims"]) <= 1 and r.params["degree"] <= 2


def test_digging_cap_respects_bound():
    from dillcalc import multiindex as mi

    for dim in (1, 2, 3):
        for degree in range(1, 7):
            d, k = laws._digging_cap(dim, degree)
            assert d <= 2 and k <= degree
            n1 = mi.count_indices(d, k)
            assert mi.count_indices(n1, k) <= laws._LEVEL_TWO_LAW_SIZE


def test_random_series_constant_flag():
    rng = np.random.default_rng(0)
    f = laws.random_series(rng, 2, 2, 3, zero_constant=True)
    np.testing.assert_array_equal(f.constant_term(), [0.0, 0.0])
    g = laws.random_series(rng, 2, 2, 3)
    assert g.degree == 3 and g.coeffs.shape == (2, 10)


def test_run_laws_script_sweeps_clean(tmp_path):
    out = tmp_path / "sweep.json"
    proc = subprocess.run(
        [
            sys.executable,
            str(SCRIPT),
            *("--dims", "1", "2", "--degrees", "2", "3", "--json", str(out)),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("sweep clean")
    # each summary row is followed by the three slowest laws of its configuration
    lines = proc.stdout.splitlines()
    summaries = [k for k, line in enumerate(lines) if line.startswith("dim ")]
    assert len(summaries) == 4
    for k in summaries:
        slowest = lines[k + 1].removeprefix("  slowest: ").split(", ")
        assert lines[k + 1].startswith("  slowest: ") and len(slowest) == 3
        times = [float(entry.split()[1]) for entry in slowest]
        assert all(entry.split()[0] in EXPECTED_LAWS for entry in slowest)
        assert times == sorted(times, reverse=True)
    reports = json.loads(out.read_text())
    per_config = {}
    for r in reports:
        assert r["passed"], r
        per_config[(r["dim"], r["degree"])] = per_config.get((r["dim"], r["degree"]), 0) + 1
    assert per_config == {(d, k): len(EXPECTED_LAWS) for d in (1, 2) for k in (2, 3)}


# -- the harness: a toy law put into the registry yields the given pairs


def _toy_law(monkeypatch, *pairs):
    def sides(config, rng):
        yield from pairs

    monkeypatch.setitem(laws.LAWS, "toy", (sides, 1e-12))
    return laws.run_law("toy", laws.LawConfig())


_PAIR = xp.VectorBasis(2)
_IDENT = xp.LinearOperator.identity(_PAIR)
_CROOKED = xp.LinearOperator.from_entries(_PAIR, _PAIR, [0, 1], [0, 1], [1.0, np.nan])


@pytest.mark.parametrize(
    "pairs",
    [
        [(np.nan, 0.0), (5.0, 0.0)],
        [(5.0, 0.0), (np.nan, 0.0)],
        [(0.0, 0.0), (np.zeros(3), np.array([0.0, np.nan, 1.0]))],
        [(np.array([1.0, np.nan]), np.ones(2)), (1.0, 1.0)],
        [(_IDENT, _IDENT), (_CROOKED, _IDENT)],
        [(_IDENT, _CROOKED)],
    ],
    ids=["first-pair", "later-pair", "right-side", "left-side", "operator", "operator-right"],
)
def test_a_nan_fails_wherever_it_appears(monkeypatch, pairs):
    # np.max keeps a NaN wherever it stands; max(worst, x) keeps it only first
    report = _toy_law(monkeypatch, *pairs)
    assert report.passed is False
    assert math.isnan(report.max_error)
    assert report.to_json_dict()["max_error"] is None


def test_the_harness_folds_every_pair(monkeypatch):
    report = _toy_law(monkeypatch, (_IDENT, _IDENT), (np.ones(2), np.array([1.0, 1.5])), (2, 2))
    assert (report.max_error, report.passed) == (0.5, False)
    assert report.params == {"dim": 2, "degree": 4}
    assert _toy_law(monkeypatch, (_IDENT, _IDENT)).max_error == 0.0


def test_a_law_that_compares_nothing_raises(monkeypatch):
    with pytest.raises(RuntimeError, match="law 'toy' compared no sides"):
        _toy_law(monkeypatch)


def test_report_json_writes_a_non_finite_error_as_null():
    for error in (math.nan, math.inf, -math.inf):
        report = laws.LawReport("toy", {}, error, 1e-12, False, 1.0)
        assert report.to_json_dict()["max_error"] is None
        assert report.max_error is error


def test_run_laws_script_keeps_a_nan_ratio(monkeypatch, capsys):
    # the worst-error column folds ratios with np.max, so a NaN after a
    # finite ratio is not dropped
    reports = [
        laws.LawReport("clean", {}, 1e-13, 1e-12, True, 2.0),
        laws.LawReport("broken", {}, math.nan, 1e-12, False, 1.0),
    ]
    spec = importlib.util.spec_from_file_location("run_laws", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(laws, "run_suite", lambda config: reports)
    monkeypatch.setattr(sys, "argv", ["run_laws.py", "--dims", "1", "--degrees", "1"])
    assert script.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert "worst error at nan of tolerance" in lines[0]
    assert lines[0].endswith("FAIL broken")
    assert lines[-1] == "sweep failed"
