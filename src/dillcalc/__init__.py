"""Truncated multivariate power series over C, with the distribution algebra
of coefficient extractors, a law-checking harness and a small term language.

The public names below are loaded from their home module on first use, so
`import dillcalc` loads neither numpy nor any submodule.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it defines
_HOMES = {
    "multiindex": ("count_indices", "position_of"),
    "series": ("MAX_DEGREE", "FiniteSpace", "TruncatedSeries"),
    "multilinear": ("SymmetricMultilinear", "from_monomial", "polarize"),
    "calculus": (
        "CurriedSeries",
        "compose",
        "compose_naive",
        "curry",
        "derivative_series",
        "jacobian_at",
        "split_slot_reference",
        "uncurry",
    ),
    "exponential": (
        "DistBasis",
        "Distribution",
        "LinearOperator",
        "TensorBasis",
        "VectorBasis",
        "bang_linear",
        "bang_map",
        "cocontraction",
        "codereliction",
        "codereliction_operator",
        "comultiplication",
        "contraction",
        "convolve",
        "counit",
        "coweakening",
        "dirac",
        "monoidal_product",
        "monoidal_product_inverse",
        "operator_to_series",
        "series_to_operator",
        "swap_operator",
        "theta",
        "weakening",
    ),
    "laws": ("LawConfig", "LawReport", "law_names", "run_law", "run_suite"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_HOME})
