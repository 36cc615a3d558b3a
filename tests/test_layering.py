"""Package code reads exponent rows, `rank` and `unrank`.  Only the
multi-index module itself calls the tuple views of the enumeration or reads
its Pascal table, no module lists sorted coordinate tuples, and only the
multi-index module states the dimension rule; the check-only routes walk
exponent rows too.  Only `rank`, `unrank` and the shift table
(`derivative_table`) read the rank formula's suffix sums and Pascal table,
and series.py ranks only in `from_terms`.  The join of (row, col, value)
triples lives in `LinearOperator` alone, and other modules read an operator's
entries only as values.  Only the law harness's `run_law` measures a law's
sides.  No module reads the environment.  Importing the
package and its CLI loads neither the law harness nor the term language, and
the law harness never loads numpy.random."""

import ast
import os
import pathlib
import subprocess
import sys

from dillcalc import laws

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dillcalc"
GUARDED = {"indices_of_degree", "enumerate_indices", "index_positions"}


def enclosed(path, pick):
    """(name, enclosing function names) of every node of a file for which
    `pick` gives a name, in the order of a walk of the tree."""
    found = []

    def walk(node, stack):
        for child in ast.iter_child_nodes(node):
            inner = stack
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = stack + (child.name,)
            name = pick(child)
            if name is not None:
                found.append((name, inner))
            walk(child, inner)

    walk(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def _called(node):
    """The name a call calls, as a function or a method."""
    if isinstance(node, ast.Call):
        func = node.func
        return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return None


def _read(node):
    """The name a node reads: bare, as an attribute or imported."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def guarded_calls(path, guarded=GUARDED):
    """(called name, enclosing function names) of every call in a file to a
    name in `guarded`, as a function or a method."""
    return [(name, stack) for name, stack in enclosed(path, _called) if name in guarded]


def test_runtime_modules_do_not_walk_the_enumeration():
    offenders = [
        f"{path.name}: {name}() in {'.'.join(stack) or 'module scope'}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "multiindex.py"
        for name, stack in guarded_calls(path)
    ]
    assert offenders == []


def test_the_guard_sees_the_check_only_oracle(tmp_path):
    # the walker must find a call as a function, as a method and at module scope
    snippet = tmp_path / "snippet.py"
    snippet.write_text(
        "def compose_naive(f):\n"
        "    for alpha in mi.enumerate_indices(2, 3):\n"
        "        pass\n"
        "class Oracle:\n"
        "    def walk(self):\n"
        "        return index_positions(2, 3)\n"
        "BLOCK = indices_of_degree(2, 1)\n"
    )
    assert guarded_calls(snippet) == [
        ("enumerate_indices", ("compose_naive",)),
        ("index_positions", ("Oracle", "walk")),
        ("indices_of_degree", ()),
    ]


def name_reads(path, name):
    """Line numbers in a file of every read of `name`: bare, as an attribute
    or imported."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _read(node) == name
    )


def test_only_the_index_layer_decides_the_graded_order():
    # positions and exponent rows come from rank and unrank alone: no module
    # lists sorted coordinate tuples, only the index layer reads the Pascal
    # table, and dimensions are checked by one rule
    offenders = [
        f"{path.name}: combinations_with_replacement() in {'.'.join(stack) or 'module scope'}"
        for path in sorted(SRC.glob("*.py"))
        for _, stack in guarded_calls(path, {"combinations_with_replacement"})
    ]
    assert offenders == []
    readers = [p.name for p in sorted(SRC.glob("*.py")) if name_reads(p, "_counts")]
    assert readers == ["multiindex.py"]
    stated = [p.name for p in sorted(SRC.glob("*.py")) if "empty space" in p.read_text()]
    assert stated == ["multiindex.py"]


def test_one_formula_adds_multi_indices():
    # the rank formula's suffix sums and Pascal table are read by rank, unrank
    # and the shift table alone: the pair tables and the power tree walk the
    # shift table, and series.py ranks only the keys from_terms is given
    readers = sorted(
        {
            (path.name, ".".join(stack))
            for path in sorted(SRC.glob("*.py"))
            for name, stack in enclosed(path, _read)
            if name in ("_suffix", "_counts")
        }
    )
    assert readers == [
        ("multiindex.py", "derivative_table"),
        ("multiindex.py", "rank"),
        ("multiindex.py", "unrank"),
    ]
    ranks = guarded_calls(SRC / "series.py", {"rank"})
    assert ranks == [("rank", ("TruncatedSeries", "from_terms"))]


def readers(path, name):
    """The enclosing function names of every read of `name` in a file."""
    return [stack for found, stack in enclosed(path, _read) if found == name]


def test_only_the_harness_measures_a_law():
    # a law yields its sides and run_law compares them, so no law body folds
    # its own error
    assert readers(SRC / "laws.py", "_deviation") == [("run_law",)]


def test_the_name_guard_sees_every_form(tmp_path):
    snippet = tmp_path / "snippet.py"
    snippet.write_text(
        "from dillcalc.multiindex import _counts\n"
        "TABLE = mi._counts(4, 3)\n"
        "def f():\n"
        "    return _counts\n"
        "@law('toy', 0.0)\n"
        "def _law_toy(config, rng):\n"
        "    yield 0.0, 0.0\n"
        "    errors = [laws._deviation(a, b) for a, b in pairs]\n"
    )
    assert name_reads(snippet, "_counts") == [1, 2, 4]
    assert [(n, stack) for n, stack in enclosed(snippet, _read) if n == "_counts"] == [
        ("_counts", ()),
        ("_counts", ()),
        ("_counts", ("f",)),
    ]
    assert readers(snippet, "_deviation") == [("_law_toy",)]


def test_only_the_operator_module_joins_triples():
    # one sort-and-searchsorted join, behind LinearOperator
    offenders = [
        f"{path.name}: searchsorted() in {'.'.join(stack) or 'module scope'}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "exponential.py"
        for _, stack in guarded_calls(path, {"searchsorted"})
    ]
    assert offenders == []
    assert guarded_calls(SRC / "exponential.py", {"searchsorted"})


def triple_reads(path):
    """Line numbers in a file of every read of an operator's rows and columns:
    each `entries()` call not indexed [2] (the values), and each `_triples` read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    values = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Constant)
        and node.slice.value == 2
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (_called(node) == "entries" and id(node) not in values) or _read(node) == "_triples"
    )


def test_only_the_operator_module_reads_rows_and_columns():
    # sigma and every other re-indexing of triples is a LinearOperator method
    offenders = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "exponential.py"
        for line in triple_reads(path)
    ]
    assert offenders == []


def test_the_triple_guard_sees_every_form(tmp_path):
    snippet = tmp_path / "snippet.py"
    snippet.write_text(
        "rows, cols, vals = op.entries()\n"
        "vals = op.entries()[2]\n"
        "rows = op.entries()[0]\n"
        "triples = op._triples()\n"
        "def f(op):\n"
        "    return op.entries()\n"
    )
    assert triple_reads(snippet) == [1, 3, 4, 6]


def environment_reads(path):
    """Line numbers in a file of every `os.environ` and `os.getenv`, and of
    every import of either name from `os`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            if isinstance(node.value, ast.Name) and node.value.id == "os":
                found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ("environ", "getenv") for alias in node.names):
                found.append(node.lineno)
    return sorted(found)


def test_no_module_reads_the_environment():
    # sizes are fixed by constants and the size budget, not by environment knobs
    offenders = [
        f"{path.name}:{line}" for path in sorted(SRC.glob("*.py")) for line in environment_reads(path)
    ]
    assert offenders == []


def test_the_environment_guard_sees_every_form(tmp_path):
    snippet = tmp_path / "snippet.py"
    snippet.write_text(
        "import os\n"
        "from os import environ\n"
        "CAP = os.environ.get('CAP', '8')\n"
        "def cap():\n"
        "    return os.getenv('CAP') or os.environ['CAP']\n"
    )
    assert environment_reads(snippet) == [2, 3, 5, 5]


def _run_probe(probe):
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
        check=True,
    )
    return out.stdout.strip()


def test_importing_the_cli_loads_only_what_every_subcommand_runs():
    # laws and dsl are imported by the subcommands that use them
    probe = (
        "import sys, dillcalc, dillcalc.cli; "
        "print([m for m in ('dillcalc.laws', 'dillcalc.dsl', 'numpy.random') if m in sys.modules])"
    )
    assert _run_probe(probe) == "[]"


def test_check_laws_runs_without_numpy_random():
    # law inputs come from the standard library's generator; numpy.random
    # alone adds about 6 MB to the resident size of every check-laws run
    probe = (
        "import contextlib, io, sys, dillcalc.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = dillcalc.cli.main(['check-laws', '--dim', '1', '--deg', '1'])\n"
        "print(code, out.getvalue().splitlines()[-1], 'numpy.random' in sys.modules)"
    )
    count = len(laws.law_names())
    assert _run_probe(probe) == f"0 {count}/{count} laws passed False"
