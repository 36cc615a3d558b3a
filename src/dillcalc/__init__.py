"""Truncated multivariate power series over C, with the distribution algebra
of coefficient extractors, a law-checking harness and a small term language."""

from .multiindex import binom_componentwise, count_indices, position_of
from .series import MAX_DEGREE, FiniteSpace, TruncatedSeries, coefficient_distance
from .multilinear import SymmetricMultilinear, from_monomial, polarize
from .calculus import (
    CurriedSeries,
    compose,
    compose_naive,
    curry,
    derivative_series,
    jacobian_at,
    split_slot_reference,
    uncurry,
)
from .exponential import (
    DistBasis,
    Distribution,
    LinearOperator,
    TensorBasis,
    VectorBasis,
    bang_linear,
    bang_map,
    cocontraction,
    codereliction,
    codereliction_operator,
    comultiplication,
    contraction,
    convolve,
    counit,
    coweakening,
    dirac,
    monoidal_product,
    monoidal_product_inverse,
    operator_to_series,
    series_to_operator,
    swap_operator,
    theta,
    weakening,
)

# The law harness, with its registry of 38 laws, is imported on first use of
# one of its names, so `import dillcalc` and the other subcommands do not pay
# for it.
_LAW_NAMES = ("LawConfig", "LawReport", "law_names", "run_law", "run_suite")


def __getattr__(name):
    if name in _LAW_NAMES:
        from . import laws

        return getattr(laws, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "binom_componentwise",
    "count_indices",
    "position_of",
    "MAX_DEGREE",
    "FiniteSpace",
    "TruncatedSeries",
    "coefficient_distance",
    "SymmetricMultilinear",
    "from_monomial",
    "polarize",
    "CurriedSeries",
    "compose",
    "compose_naive",
    "curry",
    "derivative_series",
    "jacobian_at",
    "split_slot_reference",
    "uncurry",
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
    "LawConfig",
    "LawReport",
    "law_names",
    "run_law",
    "run_suite",
    "__version__",
]
