"""Package code reads exponent rows, `rank` and `unrank`.  Only the
multi-index module itself calls the tuple views of the enumeration or reads
its Pascal table, no module lists sorted coordinate tuples, and only the
multi-index module states the dimension rule; the check-only routes walk
exponent rows too.  Only `rank`, `unrank` and the shift table
(`derivative_table`) read the rank formula's suffix sums and Pascal table,
and series.py ranks only in `from_terms`.  The join of (row, col, value)
triples lives in `LinearOperator` alone, and other modules read an operator's
entries only as values.  The CLI names no calculus kernel: its series
subcommands apply the term language's ops, whose overflow rule is defined in
`dsl.py` alone.  A value's fields are written only while it is made.  Only
the law harness's `run_law` measures a law's sides.  No module reads the
environment.

What a process loads: `import dillcalc` loads no submodule and no numpy, and
its public names are found on first use.  The reader and formatter
(`syntax.py`) import the standard library alone, so `dillcalc fmt`, an
`eval` of a program that does not parse, `--help` and a usage error never
load numpy.  Importing the package and its CLI loads neither the law harness
nor the term language, and the law harness never loads numpy.random."""

import ast
import json
import os
import pathlib
import subprocess
import sys
import typing

import numpy as np
import pytest

import dillcalc
from dillcalc import dsl, laws, series

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


def test_one_split_of_the_graded_order():
    # a concatenated multi-index (alpha, beta) is ranked in split_table alone:
    # m2 and the curried-series code (curry, uncurry, and the table's
    # evaluation and JSON writer) read its pairs, calculus.py ranks
    # nothing, and exponential.py ranks only digging's images
    split_readers = sorted(
        {
            (path.name, ".".join(stack))
            for path in sorted(SRC.glob("*.py"))
            if path.name != "multiindex.py"
            for stack in readers(path, "split_table")
        }
    )
    assert split_readers == [
        ("calculus.py", "CurriedSeries.evaluate"),
        ("calculus.py", "CurriedSeries.to_json_dict"),
        ("calculus.py", "curry"),
        ("calculus.py", "uncurry"),
        ("exponential.py", "monoidal_product"),
    ]
    assert guarded_calls(SRC / "calculus.py", {"rank"}) == []
    assert guarded_calls(SRC / "exponential.py", {"rank"}) == [("rank", ("comultiplication",))]


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


def _defined(node):
    """The name a node defines: a function, or the target of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return node.name
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
        return node.id
    return None


def definitions(path, name):
    """The enclosing names of every definition of `name` in a file."""
    return [stack for found, stack in enclosed(path, _defined) if found == name]


def test_one_base_makes_values_immutable():
    # series, distributions, multilinear maps and operators refuse writes
    # through the one base in series.py
    definers = {path.name: definitions(path, "__setattr__") for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in definers.items() if found} == {
        "series.py": [("_Frozen", "__setattr__")]
    }


def setattr_calls(path):
    """The enclosing names of every call of `object.__setattr__` in a file."""

    def pick(node):
        func = getattr(node, "func", None)
        if isinstance(func, ast.Attribute) and func.attr == "__setattr__":
            return getattr(func.value, "id", None)
        return None

    return [stack for name, stack in enclosed(path, pick) if name == "object"]


def test_only_the_immutability_base_writes_fields():
    # a value's fields are set through `_Frozen._set` alone, and every value
    # the term language computes with, but a vector, is one of its subclasses
    callers = {path.name: setattr_calls(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in callers.items() if found} == {
        "series.py": [("_Frozen", "_set")]
    }
    values = [cls for cls in typing.get_args(dsl.Value) if cls is not np.ndarray]
    assert len(values) == 4
    assert [cls.__name__ for cls in values if not issubclass(cls, series._Frozen)] == []


def test_the_immutability_guard_sees_every_form(tmp_path):
    snippet = tmp_path / "snippet.py"
    snippet.write_text(
        "class Value:\n"
        "    def __setattr__(self, name, value):\n"
        "        raise AttributeError(name)\n"
        "class Other:\n"
        "    __setattr__ = Value.__setattr__\n"
        "    def _set(self, name, value):\n"
        "        object.__setattr__(self, name, value)\n"
        "@dataclass(frozen=True)\n"
        "class Curried:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'table', 0)\n"
        "        super().__setattr__('table', 0)\n"
        "object.__setattr__(Value(), 'x', 1)\n"
    )
    assert definitions(snippet, "__setattr__") == [("Value", "__setattr__"), ("Other",)]
    assert setattr_calls(snippet) == [("Other", "_set"), ("Curried", "__post_init__"), ()]


def late_field_writes(path):
    """(line, enclosing function) of every `_set` call in a file made
    outside `__init__` and the classmethods: a write into a value after it
    is made."""
    found = []

    def walk(node, making, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                made_here = child.name == "__init__" or any(
                    _read(d) == "classmethod" for d in child.decorator_list
                )
                walk(child, made_here, child.name)
                continue
            if _called(child) == "_set" and not making:
                found.append((child.lineno, name))
            walk(child, making, name)

    walk(ast.parse(path.read_text(encoding="utf-8")), False, None)
    return found


def test_a_value_is_complete_when_it_is_made():
    # `_Frozen._set` runs only while a value is made, in its `__init__` or a
    # constructor classmethod: no read fills a field in later
    offenders = [
        f"{path.name}:{line} in {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in late_field_writes(path)
    ]
    assert offenders == []


def test_the_late_write_guard_sees_every_form(tmp_path):
    snippet = tmp_path / "snippet.py"
    snippet.write_text(
        "class Value(_Frozen):\n"
        "    def __init__(self, x):\n"
        "        self._set(x=x)\n"
        "        def later():\n"
        "            self._set(x=0)\n"
        "    @classmethod\n"
        "    def made(cls, x):\n"
        "        op = cls.__new__(cls)\n"
        "        op._set(x=x)\n"
        "        return op\n"
        "    @property\n"
        "    def matrix(self):\n"
        "        self._set(_matrix=0)\n"
        "    @staticmethod\n"
        "    def fill(op):\n"
        "        op._set(x=1)\n"
        "Value(1)._set(x=2)\n"
    )
    assert late_field_writes(snippet) == [(5, "later"), (13, "matrix"), (16, "fill"), (17, None)]


CALCULUS_KERNELS = ("compose", "curry", "uncurry", "partial_derivative", "derivative_series")


def kernel_reads(path):
    """(line, name) of every read in a file of a calculus kernel that the
    term language's op table names."""
    return sorted((line, name) for name in CALCULUS_KERNELS for line in name_reads(path, name))


def test_the_cli_applies_the_term_language():
    # compose, curry and diff apply the op table under the overflow rule, so
    # a change to an op is made once and the rule has one home
    assert kernel_reads(SRC / "cli.py") == []
    definers = {p.name: definitions(p, "_finite_result") for p in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in definers.items() if found} == {
        "dsl.py": [("_finite_result",)]
    }


def test_the_kernel_guard_sees_every_form(tmp_path):
    snippet = tmp_path / "snippet.py"
    snippet.write_text(
        "from .calculus import curry, _finite_result\n"
        "def _cmd_diff(args, run):\n"
        "    (ca,) = run.load('calculus')\n"
        "    if args.coord is not None:\n"
        "        return f.partial_derivative(args.coord)\n"
        "    return _finite_result('diff', ca.derivative_series(f))\n"
        "def _finite_result(op, value):\n"
        "    return value\n"
        "run = compose\n"
        "sub.add_parser('uncurry')\n"
    )
    assert kernel_reads(snippet) == [
        (1, "curry"), (5, "partial_derivative"), (6, "derivative_series"), (9, "compose")
    ]
    assert definitions(snippet, "_finite_result") == [("_finite_result",)]


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
    each `entries()` call not indexed [2] (the values)."""
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
        if _called(node) == "entries" and id(node) not in values
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
        "def f(op):\n"
        "    return op.entries()\n"
    )
    assert triple_reads(snippet) == [1, 3, 5]


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


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    probe = (
        "import sys, dillcalc; "
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('dillcalc.')))"
    )
    assert _run_probe(probe) == "[]"


def test_every_public_name_resolves_on_first_use():
    listed = dir(dillcalc)
    for name in dillcalc.__all__:
        assert getattr(dillcalc, name) is not None, name
        assert name in listed, name
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        dillcalc.no_such_name


# `python -m dillcalc ARGS...`, with an atexit hook that records, after the
# command and its output, whether numpy and dataclasses were loaded and the
# collector's permanent generation size
_MODULE_WRAPPER = (
    "import atexit, gc, json, runpy, sys\n"
    "def report(path=sys.argv.pop(1)):\n"
    "    with open(path, 'w') as handle:\n"
    "        json.dump({'numpy': 'numpy' in sys.modules, 'dataclasses': 'dataclasses' in sys.modules,\n"
    "                   'frozen': gc.get_freeze_count()}, handle)\n"
    "atexit.register(report)\n"
    "runpy.run_module('dillcalc', run_name='__main__', alter_sys=True)\n"
)


def run_module(tmp_path, *argv):
    """(exit code, {"numpy": loaded, "dataclasses": loaded, "frozen": freeze
    count}) of one fresh `python -m dillcalc` process."""
    state = tmp_path / "state.json"
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", _MODULE_WRAPPER, str(state), *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    return proc.returncode, json.loads(state.read_text())


def test_reading_and_formatting_never_load_numpy(tmp_path):
    program = tmp_path / "prog.dsl"
    program.write_text("(let f (series :dom 1 :cod 1 :deg 2 {(1) -> 1.0}))\n(diff f)\n")
    broken = tmp_path / "broken.dsl"
    broken.write_text("(let f (series :dom 1 :cod 1 :deg 2 {(1) -> 1.0}))\n(diff f) @\n")
    runs = {
        "fmt": (["fmt", str(program)], 0),
        "eval of a parse error": (["eval", str(broken)], 1),
        "--help": (["--help"], 0),
        "usage error": (["eval"], 1),
    }
    for what, (argv, code) in runs.items():
        got, state = run_module(tmp_path, *argv)
        # nor dataclasses, with the inspect, ast and dis it loads
        assert (got, state["numpy"], state["dataclasses"]) == (code, False, False), what


def non_stdlib_imports(path):
    """(line, module) of every import in a file that is not of a
    standard-library module, relative imports included."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        else:
            continue
        found += [
            (node.lineno, name)
            for name in names
            if name.startswith(".") or name.split(".")[0] not in sys.stdlib_module_names
        ]
    return found


def test_the_reader_imports_only_the_standard_library():
    assert non_stdlib_imports(SRC / "syntax.py") == []


def test_the_stdlib_guard_sees_every_form(tmp_path):
    snippet = tmp_path / "snippet.py"
    snippet.write_text(
        "import re, numpy as np\n"
        "from . import series\n"
        "from .calculus import compose\n"
        "from dataclasses import dataclass\n"
        "def f():\n"
        "    import scipy.sparse\n"
    )
    assert non_stdlib_imports(snippet) == [
        (1, "numpy"), (2, "."), (3, ".calculus"), (6, "scipy.sparse")
    ]
