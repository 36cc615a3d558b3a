"""The three benchmark workloads: inputs from a seed, the request, its check.

Every workload is a closed loop with one client: the next request is sent when
the previous one has returned.  Requests come in cycles; a cycle holds each
request class as many times as its weight, so every cycle has the same mix and
the latency percentiles land inside the same class on every run.  Inputs are
drawn from numpy generators seeded with (seed, request id); the program sees
only the generated series, files and arguments.

* compose-stall: in-process calls into a warm package (tables already built).
* laws-cold: `dillcalc check-laws` in a fresh process per request.
* cli-io: short `dillcalc` commands in a fresh process per request.

Cases left out on purpose: inputs that hang today, such as a series literal at
dimension 40 degree 8 (377M indices), and inputs that die with RecursionError,
such as `domain_dim` 900 or 5000 nested parentheses.  A hanging request cannot
be timed; they belong to the robustness regression tests.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
import time

import numpy as np

REQUEST_TIMEOUT_S = 60
TOLERANCE = 1e-9


class Request:
    __slots__ = ("rid", "cls", "data")

    def __init__(self, rid: int, cls: str, data: dict):
        self.rid = rid
        self.cls = cls
        self.data = data


# ---------------------------------------------------------------------------
# input generation (plain numpy; no dillcalc call, so no table is touched)


def _degree_counts(dim: int, degree: int) -> list:
    """Number of multi-indices of each exact degree 0..degree."""
    return [math.comb(dim - 1 + k, k) for k in range(degree + 1)]


def random_coeffs(rng, dom: int, cod: int, degree: int, zero_constant: bool) -> np.ndarray:
    """Dense (cod, count) table in graded order; degree-k entries damped by 1/(k!+1)."""
    degs = np.repeat(np.arange(degree + 1), _degree_counts(dom, degree))
    damp = 1.0 / (np.array([math.factorial(int(k)) for k in degs]) + 1.0)
    shape = (cod, degs.size)
    out = (rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)) * damp
    if zero_constant:
        out[:, 0] = 0.0
    return out


def _alphas(dim: int, degree: int):
    """Every multi-index of total degree <= degree, by total degree."""

    def exact(d, k):
        if d == 1:
            yield (k,)
            return
        for first in range(k, -1, -1):
            for rest in exact(d - 1, k - first):
                yield (first,) + rest

    for k in range(degree + 1):
        yield from exact(dim, k)


def random_terms(rng, dom: int, cod: int, degree: int, zero_constant: bool) -> list:
    """[(out, alpha, value)] for every coefficient, degree-damped like random_coeffs."""
    terms = []
    for j in range(cod):
        for alpha in _alphas(dom, degree):
            k = sum(alpha)
            if zero_constant and k == 0:
                continue
            scale = 1.0 / (math.factorial(k) + 1.0)
            value = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) * scale
            terms.append((j, alpha, value))
    return terms


def series_json(dom: int, cod: int, degree: int, terms) -> str:
    entries = [
        {"out": j, "alpha": list(a), "re": v.real, "im": v.imag} for j, a, v in terms
    ]
    return json.dumps(
        {"domain_dim": dom, "codomain_dim": cod, "degree": degree, "coeffs": entries}
    )


def series_literal(dom: int, cod: int, degree: int, terms) -> str:
    maps = []
    for j in range(cod):
        body = " ".join(
            "(" + " ".join(map(str, a)) + f") -> [{v.real!r} {v.imag!r}]"
            for jj, a, v in terms
            if jj == j
        )
        maps.append("{" + body + "}")
    return f"(series :dom {dom} :cod {cod} :deg {degree} " + " ".join(maps) + ")"


def point(rng, dim: int) -> str:
    vals = rng.uniform(-0.5, 0.5, 2 * dim)
    return "[" + " ".join(repr(float(v)) for v in vals) + "]"


def _cycle_specs(classes, seed: int, cycle: int, shuffle: bool) -> list:
    """[(class spec, variant)]: each class `weight` times, variants 0..weight-1."""
    specs = [(c, k) for c in classes for k in range(c[-1])]
    if shuffle:
        order = np.random.default_rng([seed, cycle, 7]).permutation(len(specs))
        specs = [specs[i] for i in order]
    return specs


# ---------------------------------------------------------------------------
# compose-stall: in-process, tables warm


class ComposeStall:
    """compose at the sizes where it stalls, plus :poly and bang_map.

    Median latency by class on a 2-core VM at the seed commit: bang 4x6
    ~17 ms, compose 2x8 ~32 ms, 4x5 ~42 ms, poly 3x5 ~107 ms, 3x7 ~150 ms,
    4x6 ~290 ms.  With the weights below (20 per cycle) both p50 (1/3 into
    the class) and p90 (6/7 into it) fall inside the 4x6 class.  The CPU of
    the VM speeds up and slows down over tens of seconds; when p50 sat in a
    light class, or near the edge of the 4x6 class, those swings moved it
    between runs far more than they moved throughput.
    """

    name = "compose-stall"
    in_process = True
    trace_cycles = 3
    # (class, kind, dim, degree, weight)
    classes = (
        ("bang-4x6", "bang", 4, 6, 1),
        ("compose-2x8", "compose", 2, 8, 1),
        ("compose-4x5", "compose", 4, 5, 1),
        ("poly-3x5", "poly", 3, 5, 1),
        ("compose-3x7", "compose", 3, 7, 1),
        ("compose-4x6", "compose", 4, 6, 15),
    )

    def setup(self, seed: int) -> None:
        """Import dillcalc and run one untimed request of every class."""
        from dillcalc import calculus, exponential
        from dillcalc.series import TruncatedSeries

        self.ca, self.xp, self.TS = calculus, exponential, TruncatedSeries
        for i, spec in enumerate(self.classes):
            self.execute(self.prepare((spec, 0), seed, -1 - i))

    def cycle(self, seed: int, n: int) -> list:
        return _cycle_specs(self.classes, seed, n, shuffle=True)

    def prepare(self, spec, seed: int, rid: int) -> Request:
        (cls, kind, dim, deg, _), _ = spec
        rng = np.random.default_rng([seed, rid & 0xFFFFFFFF, 1])
        make = self.TS.from_arrays
        f = make(dim, dim, deg, random_coeffs(rng, dim, dim, deg, False))
        g = make(dim, dim, deg, random_coeffs(rng, dim, dim, deg, kind != "poly"))
        return Request(rid, cls, {"kind": kind, "f": f, "g": g, "deg": deg})

    def execute(self, req: Request):
        d = req.data
        if d["kind"] == "bang":
            return self.xp.bang_map(d["g"], d["deg"])
        return self.ca.compose(d["f"], d["g"], outer_polynomial=d["kind"] == "poly")

    def check(self, req: Request, out) -> str | None:
        d = req.data
        poly = d["kind"] == "poly"
        want = self.ca.compose_naive(d["f"], d["g"], outer_polynomial=poly).coeffs
        if d["kind"] == "bang":
            # adjunction: f-hat composed with !g is f after g
            got = (self.xp.series_to_operator(d["f"]) @ out).matrix
        else:
            got = out.coeffs
        if got.shape != want.shape:
            return f"shape {got.shape} != {want.shape}"
        err = float(np.max(np.abs(got - want)))
        if not err <= TOLERANCE:
            return f"max error {err:.3e} > {TOLERANCE}"
        return None


# ---------------------------------------------------------------------------
# subprocess workloads


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """Parse stdout as strict JSON: no NaN/Infinity, and re-dumpable with allow_nan=False."""
    value = json.loads(text, parse_constant=_reject_constant)
    json.dumps(value, allow_nan=False)
    return value


class Subprocess:
    """Shared base of the workloads whose requests are fresh `dillcalc` processes."""

    in_process = False

    def __init__(self, workdir: str, env: dict, child_script: str):
        self.workdir = workdir
        self.env = env
        self.child_script = child_script

    def setup(self, seed: int) -> None:
        from dillcalc import calculus, dsl, laws
        from dillcalc.series import TruncatedSeries

        self.ca, self.dsl, self.laws, self.TS = calculus, dsl, laws, TruncatedSeries

    def _write(self, rid: int, tag: str, text: str) -> str:
        path = os.path.join(self.workdir, f"r{rid}-{tag}")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def execute(self, req: Request, spans_path: str | None = None):
        """Run one request, traced when spans_path is given; returns (exit code, stdout, stderr)."""
        if spans_path is None:
            cmd = [sys.executable, "-m", "dillcalc", *req.data["argv"]]
        else:
            cmd = [sys.executable, self.child_script, spans_path, str(req.rid), "--"]
            cmd += req.data["argv"]
        return run_process(cmd, self.env)


class LawsCold(Subprocess):
    """`check-laws --json` in a fresh process: every table is built cold.

    3/6 takes ~3.5-4.5 s and 2/4 ~1.3 s.  A cycle is 3/6, 3/6, 2/4, so p50 is
    a 3/6 request; p90 needs 100 samples and is not reported here.
    """

    name = "laws-cold"
    trace_cycles = 1
    classes = (("laws-3x6", 3, 6, 2), ("laws-2x4", 2, 4, 1))

    def cycle(self, seed: int, n: int) -> list:
        big, small = self.classes
        return [(big, 0), (big, 1), (small, 0)]

    def prepare(self, spec, seed: int, rid: int) -> Request:
        (cls, dim, deg, _), _ = spec
        law_seed = int(np.random.default_rng([seed, rid, 2]).integers(0, 2**31))
        argv = ["check-laws", "--dim", str(dim), "--deg", str(deg), "--seed", str(law_seed), "--json"]
        return Request(rid, cls, {"argv": argv})

    def check(self, req: Request, out) -> str | None:
        code, stdout, stderr = out
        if code != 0:
            return f"exit {code}: {stderr.strip()[-200:]}"
        reports = strict_json(stdout)
        names = [r["name"] for r in reports]
        if names != self.laws.law_names():
            return "law list differs from law_names()"
        failed = [r["name"] for r in reports if r["passed"] is not True]
        return f"laws failed: {failed}" if failed else None


class CliIO(Subprocess):
    """Short CLI commands: parsing, JSON in and out, error exits and import.

    Per cycle: 3 example files, 4 generated programs, 2 small compose calls and
    3 malformed inputs (~0.2 s each, import-bound), and one each of curry, diff
    and fmt on inputs of ~460-920 coefficients (the slow tail).  p50 lies in the
    middle of the fast group.
    """

    name = "cli-io"
    trace_cycles = 2
    classes = (
        ("eval-example", 3),
        ("eval-generated", 4),
        ("compose-small", 2),
        ("malformed", 3),
        ("curry-json", 1),
        ("diff-json", 1),
        ("fmt", 1),
    )
    examples = ("compose.dsl", "convolution.dsl", "theta.dsl")
    templates = ("compose-mul", "bang", "conv", "curry-eval")
    malformed = ("bad-token", "wrong-arity", "degree-cap")

    def cycle(self, seed: int, n: int) -> list:
        return _cycle_specs(self.classes, seed, n, shuffle=True)

    def prepare(self, spec, seed: int, rid: int) -> Request:
        (cls, _), variant = spec
        rng = np.random.default_rng([seed, rid, 3])
        data = {"expect_code": 0}
        if cls == "eval-example":
            path = os.path.join("dsl_examples", self.examples[variant])
            with open(path, encoding="utf-8") as handle:
                data["text"] = handle.read()
            data["argv"] = ["eval", path]
        elif cls == "eval-generated":
            data["text"] = self._program(rng, self.templates[variant])
            data["argv"] = ["eval", self._write(rid, "prog.dsl", data["text"])]
        elif cls == "compose-small":
            poly = variant == 1
            dim, deg = (2, 4) if poly else (3, 4)
            outer = series_json(dim, 1, deg, random_terms(rng, dim, 1, deg, False))
            inner = series_json(dim, dim, deg, random_terms(rng, dim, dim, deg, not poly))
            data.update(outer=outer, inner=inner, poly=poly)
            data["argv"] = ["compose", self._write(rid, "outer.json", outer), self._write(rid, "inner.json", inner)]
            if poly:
                data["argv"].append("--poly")
        elif cls == "malformed":
            kind = self.malformed[variant]
            text = {
                "bad-token": "(let f (series :dom 1 :cod 1 :deg 2 {(1) -> 1.0}))\n(diff f) @\n",
                "wrong-arity": "(let f (series :dom 1 :cod 1 :deg 2 {(1) -> 1.0}))\n(compose f)\n",
                "degree-cap": "(series :dom 1 :cod 1 :deg 9 {(1) -> 1.0})\n",
            }[kind]
            data.update(expect_code=1, text=text)
            data["argv"] = ["eval", self._write(rid, "bad.dsl", text)]
        elif cls in ("curry-json", "diff-json"):
            text = series_json(6, 1, 6, random_terms(rng, 6, 1, 6, False))
            data["text"] = text
            data["argv"] = ["curry" if cls == "curry-json" else "diff", self._write(rid, "series.json", text)]
            if cls == "curry-json":
                data["split"] = int(rng.integers(1, 6))
                data["argv"] += ["--split", str(data["split"])]
        elif cls == "fmt":
            lit = series_literal(5, 1, 6, random_terms(rng, 5, 1, 6, False))
            data["text"] = f"(let f {lit})\n; reprinted in canonical form\n(eval f {point(rng, 5)})\n"
            data["argv"] = ["fmt", self._write(rid, "fmt.dsl", data["text"])]
        else:
            raise ValueError(cls)
        return Request(rid, cls, data)

    @staticmethod
    def _program(rng, template: str) -> str:
        def lit(dom, cod, deg, zero):
            return series_literal(dom, cod, deg, random_terms(rng, dom, cod, deg, zero))

        if template == "compose-mul":
            return (
                f"(let f {lit(2, 1, 4, False)})\n(let g {lit(2, 2, 4, True)})\n"
                f"(let h (compose f g))\n(eval (mul h h) {point(rng, 2)})\n"
            )
        if template == "bang":
            return f"(let g {lit(2, 2, 4, True)})\n(eval (bang g 4) (dirac {point(rng, 2)} 4))\n"
        if template == "conv":
            p = point(rng, 2)
            return f"(let f {lit(2, 1, 4, False)})\n(eval (conv (dirac {p} 4) (theta 2 {p} 4)) f)\n"
        return f"(let f {lit(3, 1, 4, False)})\n(eval (curry f 1) {point(rng, 1)} {point(rng, 2)})\n"

    def expected(self, req: Request) -> str:
        """The same command computed in this process, through the library API."""
        d, TS = req.data, self.TS
        cmd = d["argv"][0]
        if cmd == "eval":
            _, last = self.dsl.evaluate_program(self.dsl.parse_program(d["text"]))
            return self.dsl.value_to_json(last)
        if cmd == "fmt":
            return self.dsl.format_program(self.dsl.parse_program(d["text"]))
        if cmd == "compose":
            f, g = TS.from_json(d["outer"]), TS.from_json(d["inner"])
            return self.ca.compose(f, g, outer_polynomial=d["poly"]).to_json()
        if cmd == "curry":
            return json.dumps(self.ca.curry(TS.from_json(d["text"]), d["split"]).to_json_dict())
        if cmd == "diff":
            return self.ca.derivative_series(TS.from_json(d["text"])).to_json()
        raise ValueError(cmd)

    def check(self, req: Request, out) -> str | None:
        code, stdout, stderr = out
        want_code = req.data["expect_code"]
        if code != want_code:
            return f"exit {code}, expected {want_code}: {stderr.strip()[-200:]}"
        if code != 0:
            return None if stderr.startswith("error:") else f"stderr {stderr[:80]!r}"
        want = self.expected(req)
        if req.data["argv"][0] == "fmt":
            return None if stdout == want else "fmt output differs"
        return None if strict_json(stdout) == json.loads(want) else "output differs"


WORKLOADS = {"compose-stall": ComposeStall, "laws-cold": LawsCold, "cli-io": CliIO}


def run_process(cmd, env: dict, capture: bool = True):
    """Run a child to completion; returns (exit code, stdout, stderr).

    Waits with blocking calls and kills the child from a timer after
    REQUEST_TIMEOUT_S.  (`subprocess.run(timeout=...)` polls the child with
    sleeps of up to 50 ms, which would round the measured latency up.)
    """
    pipe = subprocess.PIPE if capture else subprocess.DEVNULL
    proc = subprocess.Popen(cmd, env=env, stdout=pipe, stderr=pipe, text=True)
    expired = threading.Event()

    def kill():
        expired.set()
        proc.kill()

    timer = threading.Timer(REQUEST_TIMEOUT_S, kill)
    timer.start()
    try:
        stdout, stderr = proc.communicate()
    finally:
        timer.cancel()
        timer.join()
    if expired.is_set():
        return None, stdout or "", "timeout"
    return proc.returncode, stdout or "", stderr or ""


def import_probe_s(env: dict) -> float:
    """Wall time for a fresh interpreter to import dillcalc, spawn to exit."""
    start = time.perf_counter()
    code, _, _ = run_process([sys.executable, "-c", "import dillcalc"], env, capture=False)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"import dillcalc exited {code}")
    return elapsed
