import gc
import json
import os
import pathlib
import resource
import subprocess
import sys

import numpy as np
import pytest

from dillcalc import calculus as ca
from dillcalc import dsl
from dillcalc import multiindex as mi
from dillcalc.cli import main
from dillcalc.laws import law_names
from dillcalc.series import TruncatedSeries

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "dsl_examples"


def run_cli(*argv, stdin=None, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "dillcalc", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def series_file(tmp_path, name, dom, cod, deg, terms):
    f = TruncatedSeries.from_terms(dom, cod, deg, terms)
    path = tmp_path / name
    path.write_text(f.to_json())
    return path


# -- end to end through the module entry point --------------------------------


def test_eval_theta_example_subprocess():
    proc = run_cli("eval", str(EXAMPLES / "theta.dsl"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"kind": "vector", "values": [[6.0, 0.0]]}


def test_eval_reads_stdin():
    proc = run_cli("eval", "-", stdin="(scale 3 [1 0])")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["values"] == [[3.0, 0.0]]


def test_degree_cap_is_fixed():
    # the cap is a constant: the variable that once raised it is ignored
    for env_extra in (None, {"DILL_SERIES_MAX_DEGREE": "12"}):
        proc = run_cli(
            "eval",
            "-",
            stdin="(series :dom 1 :cod 1 :deg 9 {(1) -> 1.0})",
            env_extra=env_extra,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: line 1, col 1: truncation degree 9 exceeds the global cap 8"
        ]


def test_check_laws_subset_subprocess():
    proc = run_cli(
        "check-laws", "--dim", "1", "--deg", "2",
        "--law", "compose-identity", "--law", "multiindex-count",
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS compose-identity" in proc.stdout
    assert proc.stdout.strip().endswith("2/2 laws passed")


def test_unknown_subcommand_exits_1():
    proc = run_cli("frobnicate")
    assert proc.returncode == 1
    assert "error" in proc.stderr


def test_no_arguments_exits_1():
    proc = run_cli()
    assert proc.returncode == 1


def test_module_entry_writes_whole_output(tmp_path, capsys):
    # the entry freezes the import heap and returns normally, so the output
    # file and stdout are flushed in full
    out = tmp_path / "result.json"
    example = str(EXAMPLES / "compose.dsl")
    to_file = run_cli("eval", example, "-o", str(out))
    to_stdout = run_cli("eval", example)
    assert (to_file.returncode, to_file.stdout, to_file.stderr) == (0, "", "")
    assert (to_stdout.returncode, to_stdout.stderr) == (0, "")
    assert main(["eval", example]) == 0
    in_process = capsys.readouterr().out
    assert out.read_text() == to_stdout.stdout == in_process
    assert json.loads(in_process)["kind"] == "series"


def test_in_process_main_leaves_the_collector_alone(capsys):
    assert gc.get_freeze_count() == 0
    assert main(["check-laws", "--dim", "1", "--deg", "1", "--law", "multiindex-count"]) == 0
    assert main(["eval", str(EXAMPLES / "theta.dsl")]) == 0
    assert gc.get_freeze_count() == 0


# -- in-process coverage of the subcommands -----------------------------------


def test_eval_output_file(tmp_path, capsys):
    out = tmp_path / "result.json"
    src = tmp_path / "term.dsl"
    src.write_text("(add [1 0] [0 1])\n")
    assert main(["eval", str(src), "-o", str(out)]) == 0
    assert json.loads(out.read_text())["values"] == [[1.0, 1.0]]
    assert capsys.readouterr().out == ""


def test_eval_missing_file(capsys):
    assert main(["eval", "/nonexistent/term.dsl"]) == 1
    assert "error:" in capsys.readouterr().err


def test_eval_parse_error_location(capsys):
    with _stdin_text("(add 1"):
        code = main(["eval", "-"])
    assert code == 1
    assert "line 1, col 1" in capsys.readouterr().err


def test_eval_name_error(tmp_path, capsys):
    src = tmp_path / "bad.dsl"
    src.write_text("(hat nobody)\n")
    assert main(["eval", str(src)]) == 1
    assert "unknown name 'nobody'" in capsys.readouterr().err


def test_fmt_canonicalizes(tmp_path, capsys):
    src = tmp_path / "messy.dsl"
    src.write_text("(add,  [1 0],[0 1]) ; comment\n")
    assert main(["fmt", str(src)]) == 0
    assert capsys.readouterr().out == "(add [1 0] [0 1])\n"


def test_compose_subcommand(tmp_path, capsys):
    f = series_file(tmp_path, "f.json", 1, 1, 4, {(0, (2,)): 1.0})
    g = series_file(tmp_path, "g.json", 1, 1, 4, {(0, (1,)): 1.0, (0, (2,)): 1.0})
    assert main(["compose", str(f), str(g)]) == 0
    data = json.loads(capsys.readouterr().out)
    got = {tuple(e["alpha"]): e["re"] for e in data["coeffs"]}
    assert got == {(2,): 1.0, (3,): 2.0, (4,): 1.0}


def test_compose_dimension_mismatch(tmp_path, capsys):
    f = series_file(tmp_path, "f.json", 2, 1, 3, {(0, (1, 0)): 1.0})
    g = series_file(tmp_path, "g.json", 1, 3, 3, {(0, (1,)): 1.0})
    assert main(["compose", str(f), str(g)]) == 1
    err = capsys.readouterr().err
    assert "2" in err and "3" in err  # names both dimensions


def test_compose_poly_flag(tmp_path, capsys):
    f = series_file(tmp_path, "f.json", 1, 1, 2, {(0, (1,)): 1.0})
    g = series_file(tmp_path, "g.json", 1, 1, 2, {(0, (0,)): 5.0})
    assert main(["compose", str(f), str(g)]) == 1
    capsys.readouterr()
    assert main(["compose", str(f), str(g), "--poly"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["coeffs"] == [{"out": 0, "alpha": [0], "re": 5.0, "im": 0.0}]


def test_curry_subcommand(tmp_path, capsys):
    f = series_file(tmp_path, "f.json", 2, 1, 2, {(0, (1, 1)): 4.0})
    assert main(["curry", str(f), "--split", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["outer_dim"] == 1 and data["inner_dim"] == 1
    by_alpha = {tuple(e["alpha"]): e["series"] for e in data["outer"]}
    assert by_alpha[(1,)]["coeffs"] == [{"out": 0, "alpha": [1], "re": 4.0, "im": 0.0}]


def test_curry_requires_split(tmp_path, capsys):
    f = series_file(tmp_path, "f.json", 2, 1, 2, {(0, (1, 1)): 4.0})
    with pytest.raises(SystemExit) as exc:
        main(["curry", str(f)])
    assert exc.value.code == 1


def test_diff_subcommand(tmp_path, capsys):
    f = series_file(tmp_path, "f.json", 1, 1, 4, {(0, (2,)): 1.0, (0, (3,)): 2.0, (0, (4,)): 1.0})
    assert main(["diff", str(f), "--coord", "0"]) == 0
    data = json.loads(capsys.readouterr().out)
    got = {tuple(e["alpha"]): e["re"] for e in data["coeffs"]}
    assert got == {(1,): 2.0, (2,): 6.0, (3,): 4.0}
    assert data["degree"] == 3


def test_diff_full_jacobian(tmp_path, capsys):
    f = series_file(tmp_path, "f.json", 2, 1, 2, {(0, (1, 1)): 1.0})
    assert main(["diff", str(f)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["codomain_dim"] == 2
    got = {(e["out"], tuple(e["alpha"])): e["re"] for e in data["coeffs"]}
    assert got == {(0, (0, 1)): 1.0, (1, (1, 0)): 1.0}


def test_check_laws_json(capsys):
    assert main(["check-laws", "--dim", "1", "--deg", "2", "--json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in reports] == law_names()
    assert all(r["passed"] for r in reports)
    assert {"name", "params", "max_error", "tolerance", "passed", "runtime_ms"} <= set(reports[0])


def test_check_laws_default_table(capsys):
    assert main(["check-laws"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith("PASS") or l.startswith("FAIL")]
    count = len(law_names())
    assert len(lines) == count
    assert all(l.startswith("PASS") for l in lines)
    assert out.strip().endswith(f"{count}/{count} laws passed")


def test_check_laws_bad_dim(capsys):
    assert main(["check-laws", "--dim", "9"]) == 1
    assert "dimension" in capsys.readouterr().err


def test_check_laws_negative_seed(capsys):
    assert main(["check-laws", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: law seed must be a non-negative integer, got -1\n"


def test_check_laws_unknown_law(capsys):
    assert main(["check-laws", "--law", "no-such-law"]) == 1
    assert "unknown law" in capsys.readouterr().err


def test_check_laws_unknown_law_runs_none(capsys):
    # the known law once ran first, and the name was printed in doubled quotes
    assert main(["check-laws", "--law", "multiindex-count", "--law", "nope"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown law 'nope'\n"


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


def test_check_laws_json_writes_a_nan_error_as_null(monkeypatch, capsys):
    # one NaN coefficient in every composite: chain-rule's error is NaN, and
    # the reports are still printed, as strict JSON
    compose = ca.compose

    def crooked(*args, **kwargs):
        h = compose(*args, **kwargs)
        coeffs = np.array(h.coeffs)
        coeffs.reshape(-1)[-1] = np.nan
        return TruncatedSeries(h.domain, h.codomain, h.degree, coeffs)

    monkeypatch.setattr(ca, "compose", crooked)
    assert main(["check-laws", "--dim", "1", "--deg", "2", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    reports = {r["name"]: r for r in _strict_json(captured.out)}
    assert list(reports) == law_names()
    assert reports["chain-rule"]["max_error"] is None
    assert reports["chain-rule"]["passed"] is False


def test_series_json_shape_is_stable(tmp_path, capsys):
    # the on-disk format: flat coeffs list with out/alpha/re/im entries
    f = series_file(tmp_path, "f.json", 2, 1, 2, {(0, (1, 1)): 1.5})
    data = json.loads(f.read_text())
    assert set(data) == {"domain_dim", "codomain_dim", "degree", "coeffs"}
    assert data["coeffs"] == [{"out": 0, "alpha": [1, 1], "re": 1.5, "im": 0.0}]


def test_diff_high_dimension_does_not_recurse(tmp_path, capsys):
    # the graded enumeration once recursed once per coordinate
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "domain_dim": 900, "codomain_dim": 1, "degree": 1,
        "coeffs": [{"out": 0, "alpha": [0] * 899 + [1], "re": 3.0, "im": 0.0}],
    }))
    assert main(["diff", str(path), "--coord", "899"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["coeffs"] == [{"out": 0, "alpha": [0] * 900, "re": 3.0, "im": 0.0}]
    assert main(["diff", str(path), "--coord", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["coeffs"] == []


def test_oversized_tables_are_one_error(tmp_path, capsys):
    # each of these once ran for over 10 s, and under an address-space limit
    # exited 2 with a MemoryError; the size budget refuses them up front
    literal = tmp_path / "wide.dsl"
    literal.write_text("(series :dom 40 :cod 1 :deg 8 {})\n")
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"domain_dim": 30, "codomain_dim": 1, "degree": 8, "coeffs": []}))
    for argv in (["eval", str(literal)], ["diff", str(wide)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert "exceeds the size budget" in lines[0]


def test_oversized_derivative_is_refused_before_its_table(tmp_path, capsys, monkeypatch):
    # the 20 x 888030 derivative of a dimension-20 degree-8 series is over the
    # budget; it was once refused only after 10 s of building its index tables
    def unbuilt(*args):
        raise AssertionError("derivative table built before the size check")

    monkeypatch.setattr(mi, "derivative_table", unbuilt)
    literal = tmp_path / "wide.dsl"
    literal.write_text("(diff (series :dom 20 :cod 1 :deg 8 {}))\n")
    one_coord = tmp_path / "one_coord.dsl"
    one_coord.write_text("(diff (series :dom 20 :cod 1 :deg 8 {}) 0)\n")
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"domain_dim": 20, "codomain_dim": 1, "degree": 8, "coeffs": []}))
    for argv in (
        ["eval", str(literal)],
        ["diff", str(wide)],
        # one coordinate's derivative reads the table of every coordinate
        ["eval", str(one_coord)],
        ["diff", str(wide), "--coord", "0"],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert lines[0].endswith(
            "a table of 20 x 888030 coefficients (dimension 20, degree 7) "
            "exceeds the size budget of 4194304"
        )


def _bang_program(dim, degree):
    """(bang g degree) for the identity g of C^dim."""
    units = (" ".join("1" if k == i else "0" for k in range(dim)) for i in range(dim))
    maps = " ".join(f"{{({u}) -> 1}}" for u in units)
    return f"(bang (series :dom {dim} :cod {dim} :deg {degree} {maps}) {degree})\n"


def test_oversized_promotion_is_one_error(tmp_path):
    # the 3003 x 3003 promotion matrix of a dimension-6 degree-8 series once
    # ran for 12 s under a 2 GiB address-space limit and wrote 108 MB of JSON
    program = tmp_path / "bang.dsl"
    program.write_text(_bang_program(6, 8))
    limit = 2 * 2**30
    proc = subprocess.run(
        [sys.executable, "-m", "dillcalc", "eval", str(program)],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "error: line 1, col 1: a table of 3003 x 3003 coefficients (dimension 6, degree 8) "
        "exceeds the size budget of 4194304\n"
    )


def test_promotion_under_the_budget_builds(tmp_path, capsys):
    program = tmp_path / "bang.dsl"
    program.write_text(_bang_program(4, 8))
    assert main(["eval", str(program)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["matrix"]) == len(data["matrix"][0]) == mi.count_indices(4, 8)


def test_wide_distribution_json_unranks_only_its_nonzero_positions(tmp_path):
    # 30001 coefficients are under the size budget; the JSON writer once
    # built the whole 30001 x 30000 exponent table to print one of them
    dim = 30000
    pairs = ["0 0"] * dim
    pairs[dim - 2] = "3 0"
    program = tmp_path / "coder.dsl"
    program.write_text(f"(coder [{' '.join(pairs)}] 1)\n")
    limit = 2 * 2**30
    proc = subprocess.run(
        [sys.executable, "-m", "dillcalc", "eval", str(program)],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    data = json.loads(proc.stdout)
    unit = [0] * dim
    unit[dim - 2] = 1
    assert (data["dim"], data["degree"]) == (dim, 1)
    assert data["coeffs"] == [{"alpha": unit, "re": 3.0, "im": 0.0}]


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


_X0_ON_C20 = "(series :dom 20 :cod 1 :deg 8 {(" + " ".join(["1"] + ["0"] * 19) + ") -> 1})"


@pytest.mark.parametrize(
    "program,want",
    [
        (f"(mul {_X0_ON_C20} {_X0_ON_C20})", {2: 1.0}),
        (
            f"(compose (series :dom 1 :cod 1 :deg 8 {{(1) -> 1 (2) -> 3}}) {_X0_ON_C20})",
            {1: 1.0, 2: 3.0},
        ),
    ],
    ids=["mul", "compose"],
)
def test_wide_products_pair_only_the_degrees_their_operands_reach(tmp_path, program, want):
    # x_0 on C^20 at degree 8: the full pair table, 377 348 994 pairs, once
    # made both exit 2 with a MemoryError; the operands reach degree 1 only
    path = tmp_path / "wide.dsl"
    path.write_text(program + "\n")
    limit = 2 * 2**30
    proc = subprocess.run(
        [sys.executable, "-m", "dillcalc", "eval", str(path)],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    data = json.loads(proc.stdout, parse_constant=_refuse_constant)
    assert (data["domain_dim"], data["degree"]) == (20, 8)
    got = {}
    for term in data["coeffs"]:
        assert term["alpha"][1:] == [0] * 19 and term["im"] == 0.0
        got[term["alpha"][0]] = term["re"]
    assert got == want


def test_diff_checks_the_coordinate_at_degree_zero(tmp_path, capsys):
    # a degree-0 series once gave a zero derivative for any coordinate
    f = series_file(tmp_path, "c.json", 2, 1, 0, {(0, (0, 0)): 1.0})
    for coord in ("7", "-1"):
        assert main(["diff", str(f), "--coord", coord]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: coordinate {coord} out of range for dimension 2\n"
    literal = tmp_path / "c.dsl"
    literal.write_text("(diff (series :dom 2 :cod 1 :deg 0 {(0 0) -> 1}) 5)\n")
    assert main(["eval", str(literal)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "coordinate 5 out of range for dimension 2" in captured.err


def test_series_json_repeated_entry_rejected(tmp_path, capsys):
    path = tmp_path / "twice.json"
    entry = {"out": 0, "alpha": [1], "re": 1.0, "im": 0.0}
    path.write_text(json.dumps({
        "domain_dim": 1, "codomain_dim": 1, "degree": 2,
        "coeffs": [entry, dict(entry, re=2.0)],
    }))
    assert main(["diff", str(path), "--coord", "0"]) == 1
    assert "repeated entry" in capsys.readouterr().err


def test_eval_repeated_coefficient_key_rejected(capsys):
    # the two values were once summed, printing coefficient 3.0 with exit 0
    with _stdin_text("(series :dom 1 :cod 1 :deg 2\n  {(1) -> 1 (1) -> 2})"):
        code = main(["eval", "-"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 2, col 3: repeated multi-index (1,) in a coefficient map\n"


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"out": 0, "alpha": [1, -1]}, "negative exponent in multi-index (1, -1)"),
        ({"out": 0, "alpha": [3, 0]}, "multi-index (3, 0) exceeds degree 2"),
        ({"out": 0, "alpha": [10**30, 0]}, f"multi-index ({10**30}, 0) exceeds degree 2"),
        ({"out": 0, "alpha": [1, 0, 0]}, "multi-index (1, 0, 0) has dimension 3, expected 2"),
        ({"out": 1, "alpha": [1, 0]}, "output component 1 out of range"),
        ({"out": -1, "alpha": [1, 0]}, "output component -1 out of range"),
    ],
    ids=["negative", "over-degree", "past-int64", "length", "component", "negative-component"],
)
def test_series_json_bad_term_wording(tmp_path, capsys, entry, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "domain_dim": 2, "codomain_dim": 1, "degree": 2,
        "coeffs": [{"out": 0, "alpha": [0, 1], "re": 1.0, "im": 0.0}, dict(entry, re=2.0)],
    }))
    assert main(["diff", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "header", [{"domain_dim": -1}, {"codomain_dim": -1}], ids=["domain", "codomain"]
)
def test_series_json_negative_dimension_wording(tmp_path, capsys, header):
    # these once reached numpy and printed its reshape or allocation error
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict({"domain_dim": 2, "codomain_dim": 1, "degree": 2}, **header)))
    assert main(["diff", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: empty space: dimension must be at least 1\n"


@pytest.mark.parametrize(
    "cmap, message",
    [
        ("{(0 1) -> 1 (1 -1) -> 2}", "negative exponent in multi-index (1, -1)"),
        ("{(0 1) -> 1 (3 0) -> 2}", "multi-index (3, 0) exceeds degree 2"),
        ("{(0 1) -> 1 (1 0 0) -> 2}", "multi-index (1, 0, 0) has 3 entries, domain dimension is 2"),
    ],
    ids=["negative", "over-degree", "length"],
)
def test_series_literal_bad_term_wording(capsys, cmap, message):
    with _stdin_text("(series :dom 2 :cod 1 :deg 2\n  " + cmap + ")"):
        code = main(["eval", "-"])
    assert code == 1
    captured = capsys.readouterr()
    where = "line 2, col 3" if "entries" in message else "line 1, col 1"
    assert captured.out == ""
    assert captured.err == f"error: {where}: {message}\n"


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-1e999"])
def test_series_json_non_finite_rejected(tmp_path, capsys, value):
    path = tmp_path / "nan.json"
    path.write_text(
        '{"domain_dim": 1, "codomain_dim": 1, "degree": 2, '
        f'"coeffs": [{{"out": 0, "alpha": [1], "re": 1.0, "im": {value}}}]}}'
    )
    assert main(["diff", str(path), "--coord", "0"]) == 1
    assert "non-finite coefficient" in capsys.readouterr().err


@pytest.mark.parametrize(
    "coeffs, message",
    [
        ('[{"out": 0, "alpha": [1e400, 0], "re": 1.0}]', "alpha [inf, 0] is not a list of integers"),
        ('[{"out": 0, "alpha": 5, "re": 1.0}]', "alpha must be a list, got 5"),
        ("5", "coeffs must be a list, got 5"),
        ("[5]", "coeffs item 5 is not an object"),
        ('[{"out": 0, "alpha": [1.5, 0], "re": 1.0}]', "alpha [1.5, 0] is not a list of integers"),
        ('[{"out": 0, "alpha": ["0", "1"]}]', "alpha ['0', '1'] is not a list of integers"),
        ('[{"out": 0, "alpha": [true, 0]}]', "alpha [True, 0] is not a list of integers"),
        ('[{"out": 0.9, "alpha": [1, 0]}]', "out at alpha=[1, 0] is not an integer"),
        ('[{"out": 0, "alpha": [1, 0], "re": "2"}]', "coefficient at alpha=[1, 0] is not a number"),
        (
            '[{"out": 0, "alpha": [1, 0], "im": true}]',
            "coefficient at alpha=[1, 0] is not a number",
        ),
        # json.loads keeps the last of a repeated key, so these override the header
        ('[], "domain_dim": 2.7', "domain_dim must be an integer, got 2.7"),
        ('[], "degree": "2"', "degree must be an integer, got '2'"),
    ],
    ids=[
        "infinite-exponent", "alpha-not-a-list", "coeffs-not-a-list", "item-not-an-object",
        "fractional-exponent", "string-exponent", "bool-exponent", "fractional-out", "string-re",
        "bool-im", "fractional-domain-dim", "string-degree",
    ],
)
def test_series_json_malformed_item_exits_1(tmp_path, capsys, coeffs, message):
    # each of these once escaped as an internal error with exit 2, or was
    # read through int() or float() as a different series with exit 0
    path = tmp_path / "bad.json"
    path.write_text('{"domain_dim": 2, "codomain_dim": 1, "degree": 2, "coeffs": ' + coeffs + "}")
    assert main(["diff", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: malformed series JSON: {message}")


_BOUND = (
    "(let f (series :dom 1 :cod 1 :deg 2 {(1) -> 2})) "
    "(let g (series :dom 2 :cod 1 :deg 2 {(1 1) -> 1}))\n"
)


@pytest.mark.parametrize(
    "form, error",
    [
        ("(eval (hat f) f)", "line 2, col 15: eval of an operator expects a distribution"),
        ("(eval (bang f 2) f)", "line 2, col 18: eval of an operator expects a distribution"),
        ("(eval (hat f) (curry g 1))", "line 2, col 15: eval of an operator expects"),
        ("(eval f f)", "line 2, col 9: eval of a series expects a vector as its point"),
        ("(dirac [1 0] 99)", "line 2, col 1: truncation degree 99 exceeds the global cap"),
        ("(dirac [] 2)", "line 2, col 1: empty space"),
        (
            "(series :dom -1 :cod 1 :deg 1 {})",
            "line 2, col 1: empty space: dimension must be at least 1",
        ),
    ],
    ids=["hat-of-series", "bang-of-series", "hat-of-curried", "series-at-series",
         "dirac-over-cap", "dirac-empty-point", "negative-domain"],
)
def test_eval_malformed_term_is_one_located_error(capsys, form, error):
    # these once exited 2 with a TypeError, printed the location twice, or
    # printed no location at all
    with _stdin_text(_BOUND + form):
        code = main(["eval", "-"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {error}")
    assert captured.err.count("line ") == 1 and captured.err.count("\n") == 1


def test_non_finite_result_is_not_written(capsys):
    with _stdin_text("(scale 1e308 [10 0])"):
        code = main(["eval", "-"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 1, col 1: scale: result is outside the float range" in captured.err


@pytest.mark.parametrize(
    "text",
    [
        "(scale 1e308 [10 0])",
        "(scale 1e308 (series :dom 1 :cod 1 :deg 2 {(1) -> 10}))",
        "(add [1e308 0] [1e308 0])",
        "(compose (series :dom 1 :cod 1 :deg 2 {(2) -> 1})\n"
        "         (series :dom 1 :cod 1 :deg 2 {(1) -> 1e200}))",
    ],
)
def test_eval_overflow_is_an_error_without_warning(text):
    # numpy's overflow warning once reached stderr ahead of the JSON error
    proc = run_cli("eval", "-", stdin=text)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: line ")
    assert "result is outside the float range" in proc.stderr
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["compose", "outer.json", "inner.json"],
        ["compose", "outer.json", "inner.json", "--poly"],
        ["diff", "cubic.json"],
        ["diff", "cubic.json", "--coord", "0"],
    ],
    ids=["compose", "compose-poly", "diff", "diff-coord"],
)
def test_json_subcommand_overflow_is_an_error_without_warning(tmp_path, argv):
    # the JSON subcommands once wrote numpy's overflow warnings ahead of
    # "Out of range float values are not JSON compliant"
    series_file(tmp_path, "outer.json", 1, 1, 3, {(0, (2,)): 1.0})
    series_file(tmp_path, "inner.json", 1, 1, 3, {(0, (1,)): 1e200})
    series_file(tmp_path, "cubic.json", 1, 1, 3, {(0, (3,)): 1.7e308})
    proc = subprocess.run(
        [sys.executable, "-m", "dillcalc", *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: {argv[0]}: result is outside the float range\n"


def test_curry_keeps_the_largest_floats(tmp_path, capsys):
    # curry only re-indexes, so a coefficient near the float limit survives
    path = series_file(tmp_path, "f.json", 2, 1, 3, {(0, (2, 1)): 1.7e308})
    assert main(["curry", str(path), "--split", "1"]) == 0
    assert "1.7e+308" in capsys.readouterr().out


@pytest.mark.parametrize("literal", ["1e400", "-1e400", "1" + "0" * 400])
def test_eval_non_finite_literal_rejected(capsys, literal):
    with _stdin_text("(series :dom 1 :cod 1 :deg 2\n  {(1) -> " + literal + "})"):
        code = main(["eval", "-"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 2, col 11" in captured.err and "out of range" in captured.err


def test_eval_deep_nesting_rejected(capsys):
    # the recursive reader once died with RecursionError (exit 2) here
    with _stdin_text("(" * 5000):
        code = main(["eval", "-"])
    assert code == 1
    err = capsys.readouterr().err
    assert f"line 1, col {dsl.MAX_NESTING + 1}: forms nest deeper" in err
    depth = dsl.MAX_NESTING - 1
    with _stdin_text("(add [1 0] " * depth + "[1 0]" + ")" * depth):
        assert main(["eval", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["values"] == [[dsl.MAX_NESTING, 0.0]]
    # table ops too: each level must stay at two frames, or this chain
    # reaches the recursion limit and exits 2
    f = "(let f (series :dom 2 :cod 1 :deg 2 {(1 0) -> 1.0}))\n"
    half = depth // 2
    with _stdin_text(f + "(uncurry (curry " * half + "f" + " 1))" * half):
        assert main(["eval", "-"]) == 0
    with _stdin_text(f + "(check (hat " * half + "f" + "))" * half):
        assert main(["eval", "-"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["kind"] == "series"
    with _stdin_text(f + "(hat " * depth + "f" + ")" * depth):
        assert main(["eval", "-"]) == 1
    assert "hat expects a series as its argument" in capsys.readouterr().err


class _stdin_text:
    def __init__(self, text):
        self.text = text

    def __enter__(self):
        import io

        self._old = sys.stdin
        sys.stdin = io.StringIO(self.text)

    def __exit__(self, *exc):
        sys.stdin = self._old
