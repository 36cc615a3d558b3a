"""In-memory span tracer for dillcalc, installed from the benchmark's own files.

`Tracer.install()` replaces the functions listed in WRAPPED with wrappers that
record one span per call: (name, start, end, parent, request);
`Tracer.uninstall()` restores them.  A function is replaced under every name it
is bound to in a loaded dillcalc module, so a module that imported it by name
(or the package's re-exports) also calls the wrapper.  Methods are replaced on
their class.

Hot scalar helpers (`count_indices`, `binom_componentwise`, `multinomial`,
`position_of`, `degree_vector`, ...) are deliberately left unwrapped: their time
belongs to the caller's self time, which is where the table-building functions
spend it.

Self time of a span is its duration minus the durations of its direct child
spans (one thread, so children never overlap).  Layer metrics are sums of self
time over the function names in LAYER_TIMES.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time

# dillcalc submodule -> functions to wrap; "Class.method" names a method.
WRAPPED = {
    "multiindex": (
        "indices_of_degree",
        "enumerate_indices",
        "index_positions",
        "exponent_matrix",
        "product_table",
        "convolution_table",
        "derivative_table",
    ),
    "series": (
        "TruncatedSeries.pointwise_multiply",
        "TruncatedSeries.partial_derivative",
        "TruncatedSeries.to_json",
        "TruncatedSeries.to_json_dict",
        "TruncatedSeries.from_json",
        "TruncatedSeries.from_json_dict",
    ),
    "multilinear": ("from_monomial", "polarize"),
    "calculus": (
        "compose",
        "compose_naive",
        "curry",
        "uncurry",
        "derivative_series",
        "jacobian_at",
        "split_slot_reference",
        "CurriedSeries.to_json_dict",
    ),
    "exponential": (
        "contraction",
        "cocontraction",
        "comultiplication",
        "monoidal_product",
        "monoidal_product_inverse",
        "swap_operator",
        "counit",
        "weakening",
        "coweakening",
        "codereliction_operator",
        "bang_map",
        "bang_linear",
        "convolve",
        "dirac",
        "theta",
        "series_to_operator",
        "operator_to_series",
    ),
    "laws": ("run_law",),
    "dsl": (
        "tokenize",
        "parse",
        "parse_program",
        "evaluate_program",
        "evaluate_term",
        "format_program",
        "value_to_json",
    ),
    "cli": ("main", "_write_out"),
}

# The multiindex lru caches whose cache_info() gives hits and misses.
CACHED_TABLES = (
    "indices_of_degree",
    "enumerate_indices",
    "index_positions",
    "exponent_matrix",
    "degree_vector",
    "product_table",
    "convolution_table",
    "derivative_table",
)

# multiindex functions whose results are numpy arrays held by a cache.
ARRAY_TABLES = ("exponent_matrix", "product_table", "convolution_table", "derivative_table")

STRUCTURE_MAPS = (
    "contraction",
    "cocontraction",
    "comultiplication",
    "monoidal_product",
    "monoidal_product_inverse",
    "swap_operator",
    "counit",
)

LAYER_TIMES = {
    "multiindex.table_build_s": tuple(
        "multiindex." + n
        for n in (
            "enumerate_indices",
            "indices_of_degree",
            "index_positions",
            "exponent_matrix",
            "product_table",
            "convolution_table",
            "derivative_table",
        )
    ),
    "series.product_s": ("series.TruncatedSeries.pointwise_multiply",),
    "series.json_s": tuple(
        "series.TruncatedSeries." + n
        for n in ("to_json", "to_json_dict", "from_json", "from_json_dict")
    ),
    "multilinear.from_monomial_s": ("multilinear.from_monomial",),
    "calculus.compose_s": ("calculus.compose",),
    "calculus.curry_s": ("calculus.curry", "calculus.uncurry"),
    "calculus.derivative_s": (
        "calculus.derivative_series",
        "calculus.jacobian_at",
        "series.TruncatedSeries.partial_derivative",
    ),
    "exponential.structure_map_s": tuple("exponential." + n for n in STRUCTURE_MAPS),
    "exponential.bang_map_s": ("exponential.bang_map",),
    "exponential.convolve_s": ("exponential.convolve",),
    "laws.harness_self_s": ("laws.run_law",),
    "dsl.parse_s": ("dsl.tokenize", "dsl.parse", "dsl.parse_program"),
    "dsl.eval_s": ("dsl.evaluate_program", "dsl.evaluate_term"),
    "cli.serialize_s": (
        "dsl.value_to_json",
        "dsl.format_program",
        "calculus.CurriedSeries.to_json_dict",
        "cli._write_out",
    ),
}


def _nbytes(value) -> int:
    if isinstance(value, tuple):
        return sum(int(getattr(v, "nbytes", 0)) for v in value)
    return int(getattr(value, "nbytes", 0))


class Tracer:
    """Records spans and counters; spans stay in memory until `dump`."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, request]
        self._stack: list = []
        self.request = None
        self.products = 0
        self.product_terms = 0
        self.table_bytes: dict = {}  # (function, args) -> bytes of the cached arrays
        self.operator_bytes = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self._cache_mark = None
        self._patched: list = []  # (target, attribute, original value)
        self._wrappers: dict = {}

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Bind the wrappers; `uninstall` puts every original binding back."""
        if self._patched:
            return
        for short in WRAPPED:
            importlib.import_module("dillcalc." + short)
        modules = [m for n, m in sys.modules.items() if n == "dillcalc" or n.startswith("dillcalc.")]
        for short, names in WRAPPED.items():
            module = sys.modules["dillcalc." + short]
            for attr in names:
                name = f"{short}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        self._bind(cls, meth, classmethod(self._wrapper(name, raw.__func__)))
                    else:
                        self._bind(cls, meth, self._wrapper(name, raw))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrapper(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._bind(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            target, key, value = self._patched.pop()
            setattr(target, key, value)

    def _bind(self, target, key: str, value) -> None:
        self._patched.append((target, key, target.__dict__[key]))
        setattr(target, key, value)

    def _wrapper(self, name: str, fn):
        """One wrapper per function, reused across installs."""
        if name not in self._wrappers:
            self._wrappers[name] = self._wrap(name, fn)
        return self._wrappers[name]

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        after = self._after_hook(name)

        def wrapper(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = [name, start, end, parent, self.request]
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _after_hook(self, name: str):
        short = name.split(".", 1)[1]
        if name == "series.TruncatedSeries.pointwise_multiply":

            def count_product(args, out):
                a, b = args[0], args[1]
                deg = min(a.degree, b.degree)
                # pairs (alpha, beta) with |alpha| + |beta| <= deg in dimension m
                # are the multi-indices of dimension 2m up to deg: the product
                # table length, i.e. the multiply-adds of this call
                self.products += 1
                self.product_terms += math.comb(2 * a.domain.dim + deg, deg)

            return count_product
        if name.startswith("multiindex.") and short in ARRAY_TABLES:

            def record_table(args, out):
                self.table_bytes[(short, args)] = _nbytes(out)

            return record_table
        if name.startswith("exponential."):

            def record_operator(args, out):
                matrix = getattr(out, "matrix", None)
                if matrix is not None:
                    self.operator_bytes += int(matrix.shape[0] * matrix.shape[1] * matrix.itemsize)

            return record_operator
        return None

    # -- request boundaries ----------------------------------------------------

    @staticmethod
    def _cache_totals():
        from dillcalc import multiindex

        hits = misses = 0
        for attr in CACHED_TABLES:
            fn = getattr(multiindex, attr)
            if not hasattr(fn, "cache_info"):  # the installed span wrapper
                fn = fn.__wrapped__
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
        return hits, misses

    def begin(self, request) -> None:
        self._cache_mark = self._cache_totals()
        self.request = request

    def end(self) -> None:
        self.request = None
        hits, misses = self._cache_totals()
        self.cache_hits += hits - self._cache_mark[0]
        self.cache_misses += misses - self._cache_mark[1]

    def snapshot(self) -> dict:
        return {
            "spans": self.spans,
            "products": self.products,
            "product_terms": self.product_terms,
            "table_bytes": sum(self.table_bytes.values()),
            "operator_bytes": self.operator_bytes,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**self.snapshot(), **extra}, handle)


def self_times(spans) -> dict:
    """{request: {name: [self time, span count]}} over one process's span list."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _, request) in enumerate(spans):
        entry = out.setdefault(request, {}).setdefault(name, [0.0, 0])
        entry[0] += (end - start) - child[i]
        entry[1] += 1
    return out


def layer_times(selfs: dict) -> dict:
    """Layer metric -> seconds, from one {name: [self time, count]} mapping."""
    return {
        metric: sum(selfs[n][0] for n in names if n in selfs)
        for metric, names in LAYER_TIMES.items()
    }
