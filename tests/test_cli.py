import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from dillcalc.cli import main
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


def test_degree_cap_env_is_honored():
    proc = run_cli(
        "eval",
        "-",
        stdin="(series :dom 1 :cod 1 :deg 3 {(1) -> 1})",
        env_extra={"DILL_SERIES_MAX_DEGREE": "2"},
    )
    assert proc.returncode == 1
    assert "DILL_SERIES_MAX_DEGREE" in proc.stderr


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
    assert len(reports) == 41
    assert all(r["passed"] for r in reports)
    assert {"name", "params", "max_error", "tolerance", "passed", "runtime_ms"} <= set(reports[0])


def test_check_laws_default_table(capsys):
    assert main(["check-laws"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith("PASS") or l.startswith("FAIL")]
    assert len(lines) == 41
    assert all(l.startswith("PASS") for l in lines)
    assert out.strip().endswith("41/41 laws passed")


def test_check_laws_bad_dim(capsys):
    assert main(["check-laws", "--dim", "9"]) == 1
    assert "dimension" in capsys.readouterr().err


def test_check_laws_unknown_law(capsys):
    assert main(["check-laws", "--law", "no-such-law"]) == 1
    assert "unknown law" in capsys.readouterr().err


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


def test_series_json_repeated_entry_rejected(tmp_path, capsys):
    path = tmp_path / "twice.json"
    entry = {"out": 0, "alpha": [1], "re": 1.0, "im": 0.0}
    path.write_text(json.dumps({
        "domain_dim": 1, "codomain_dim": 1, "degree": 2,
        "coeffs": [entry, dict(entry, re=2.0)],
    }))
    assert main(["diff", str(path), "--coord", "0"]) == 1
    assert "repeated entry" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-1e999"])
def test_series_json_non_finite_rejected(tmp_path, capsys, value):
    path = tmp_path / "nan.json"
    path.write_text(
        '{"domain_dim": 1, "codomain_dim": 1, "degree": 2, '
        f'"coeffs": [{{"out": 0, "alpha": [1], "re": 1.0, "im": {value}}}]}}'
    )
    assert main(["diff", str(path), "--coord", "0"]) == 1
    assert "non-finite coefficient" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_result_is_not_written(capsys):
    with _stdin_text("(scale 1e308 [10 0])"):
        code = main(["eval", "-"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not JSON compliant" in captured.err


class _stdin_text:
    def __init__(self, text):
        self.text = text

    def __enter__(self):
        import io

        self._old = sys.stdin
        sys.stdin = io.StringIO(self.text)

    def __exit__(self, *exc):
        sys.stdin = self._old
