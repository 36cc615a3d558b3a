"""Executable law suite for the series calculus and its distribution algebra.

Every law is a generator registered with `@law(name, tolerance)`.  It draws
its own deterministic random data and yields the two sides of each identity
it checks: arrays, numbers or `LinearOperator`s.  `run_law` alone measures
them, by one rule (`_deviation`: max |lhs - rhs|, over the merged entries for
operators), and folds the pairs with `np.max`, so a NaN on either side of any
pair makes the law's error NaN and the law fails.  A law that yields no pair
is an error.  A law returns its report parameters only when they differ from
the config's dimension and degree.  Three tolerance classes are used:

* 1e-12 for identities that hold coefficientwise in exact arithmetic and are
  computed here by near-identical floating point paths (re-indexing, integer
  matrices, single products);
* 1e-9 for identities that are exact in exact arithmetic but reassociate
  float sums or products (composition, convolution, promotion);
* finite-difference checks carry their own discretization tolerance.

Truncation restrictions.  Most structural identities of the exponential hold
exactly at a flat truncation degree D; the ones that do not are checked on the
sub-basis where truncation commutes with both sides, and each such law names
its restriction in the report parameters:

* comonad coassociativity is compared on outer rows whose total underlying
  degree is at most D (unrestricted rows genuinely differ, because one side
  routes mass through indices above D that the other never builds);
* monoidal strength and the bialgebra compatibility square are compared on
  tensor columns eps_alpha (x) eps_beta with |alpha| + |beta| <= D;
* the two-sided inverse law for the monoidal product holds exactly in one
  direction and on the same admissible columns in the other.

Level-two sizes.  Digging maps into the doubled exponential, whose flat basis
has C(C(m + D, D) + D, D) elements, so the level-two laws run below the
configuration and report the size they ran at: `comonad-counit-laws` and
`codereliction-digging` at `_digging_cap` (at most dimension 2 and 3 876
level-two elements, (2,4)), `comonad-coassociativity` at dimension and degree
at most 2, and `monoidality-strength` at dims (1,1) and degree at most 2.

The bialgebra, monoidality, comonad and codereliction laws are matrix
equations on the shipped maps (Delta, nabla, e, m0, m2 and its inverse, rho,
epsilon and codereliction), written with `LinearOperator`'s `act` (a tensor
factor 1 (x) A (x) 1 on one slot), `swap` (sigma on two slots), `@`, `.T`
and `-`.  These join or permute the (row, col, value) triples the maps are
built from, and each result is merged when it is made (repeated pairs
summed, zero sums dropped), so no dense structure map, Kronecker product or
sigma matrix is built and the laws cost about as much as the maps they read.

The multi-index laws check the index kernels the package runs, with numpy
over whole tables: `multiindex-count` that `rank` numbers the rows of
`exponent_matrix` 0, 1, 2, ... and that there are C(dim + D, D) of them, and
`multiindex-binom-symmetry` that the `convolution_table` weights equal
prod_i C(a_i + b_i, a_i), computed from factorials, and are symmetric under
a <-> b.  The inner nabla of `bialgebra-cocontraction-laws` is rebuilt the
same way, with positions from a dict over the exponent rows, not from `rank`.
The derivative table is checked through `directional_derivative` by
`series-directional-finite-difference` and through `partial_derivative` by
`chain-rule`.
The translation laws check `TruncatedSeries.recenter` against evaluation at
a + h (`translation-evaluates`), which reads no pair table.

Laws resolve `compose`, the structure maps and the index kernels through the
calculus, exponential and multiindex module objects at call time, so a
corrupted routine is observed by the suite (see the mutation matrix in
`tests/test_mutation_matrix.py`, where every law fails under some corruption).
"""

from __future__ import annotations

import math
import random
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Generator, Iterable, List, Optional, Tuple

import numpy as np

from . import calculus as ca
from . import exponential as xp
from . import multiindex as mi
from . import multilinear as ml
from .series import TruncatedSeries

TOL_EXACT = 1e-12
TOL_FLOAT = 1e-9
TOL_FD = 1e-6

MAX_LAW_DIM = 3
MAX_LAW_DEGREE = 6


@dataclass(frozen=True)
class LawConfig:
    dim: int = 2
    degree: int = 4
    seed: int = 20240801

    def __post_init__(self):
        # a plain int: int() would also read 2.7, "2" and True
        if type(self.dim) is not int or not 1 <= self.dim <= MAX_LAW_DIM:
            raise ValueError(
                f"law dimension must be an integer between 1 and {MAX_LAW_DIM}, got {self.dim!r}"
            )
        if type(self.degree) is not int or not 1 <= self.degree <= MAX_LAW_DEGREE:
            raise ValueError(
                f"law degree must be an integer between 1 and {MAX_LAW_DEGREE}, got {self.degree!r}"
            )
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"law seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class LawReport:
    name: str
    params: Dict[str, object]
    max_error: float
    tolerance: float
    passed: bool
    runtime_ms: float

    def to_json_dict(self) -> dict:
        """The report as strict JSON values: a NaN or infinite error is null."""
        return {
            "name": self.name,
            "params": self.params,
            "max_error": self.max_error if math.isfinite(self.max_error) else None,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "runtime_ms": self.runtime_ms,
        }


# a law yields (lhs, rhs) pairs and returns its params, or None for the config's
Sides = Generator[tuple, None, Optional[dict]]
LawFn = Callable[[LawConfig, "_LawRandom"], Sides]
LAWS: Dict[str, Tuple[LawFn, float]] = {}


def law(name: str, tolerance: float):
    def register(fn: LawFn) -> LawFn:
        if name in LAWS:
            raise ValueError(f"duplicate law name {name!r}")
        LAWS[name] = fn, tolerance
        return fn

    return register


def law_names() -> List[str]:
    return list(LAWS)


class _LawRandom(random.Random):
    """The standard library's MT19937, whose `uniform` also fills arrays, so
    the law harness never imports numpy.random."""

    def uniform(self, low, high, size=None):
        if size is None:
            return super().uniform(low, high)
        shape = size if isinstance(size, tuple) else (size,)
        draws = np.fromiter(iter(self.random, None), np.float64, math.prod(shape))
        return low + (high - low) * draws.reshape(shape)


def _law_rng(seed: int, name: str) -> _LawRandom:
    return _LawRandom((seed << 32) | zlib.crc32(name.encode("utf-8")))


def _max_abs(x) -> float:
    arr = np.asarray(x)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def _deviation(lhs, rhs) -> float:
    """max |lhs - rhs|: over the entries of the difference of two operators,
    merged when it is made, and elementwise for arrays and numbers."""
    diff = lhs - rhs
    if isinstance(diff, xp.LinearOperator):
        diff = diff.entries()[2]
    return _max_abs(diff)


def run_law(name: str, config: LawConfig) -> LawReport:
    """Measure each pair of sides the law yields as it yields it; the largest
    deviation, NaN if any is NaN, is the law's error."""
    if name not in LAWS:
        raise KeyError(f"unknown law {name!r}")
    fn, tolerance = LAWS[name]
    sides = fn(config, _law_rng(config.seed, name))
    errors = []
    start = time.perf_counter()
    try:
        while True:
            errors.append(_deviation(*next(sides)))
    except StopIteration as stop:
        params = stop.value
    elapsed = (time.perf_counter() - start) * 1000.0
    if not errors:
        raise RuntimeError(f"law {name!r} compared no sides")
    max_error = float(np.max(errors))
    return LawReport(
        name=name,
        params={"dim": config.dim, "degree": config.degree} if params is None else params,
        max_error=max_error,
        tolerance=float(tolerance),
        passed=bool(max_error <= tolerance),
        runtime_ms=elapsed,
    )


def run_suite(config: LawConfig, names: Optional[Iterable[str]] = None) -> List[LawReport]:
    selected = list(names) if names is not None else law_names()
    return [run_law(name, config) for name in selected]


# ---------------------------------------------------------------------------
# random data: `rng` is anything with numpy's `uniform(low, high, size)`, the
# law harness's `_LawRandom` or a numpy Generator


def random_series(
    rng,
    dom: int,
    cod: int,
    degree: int,
    zero_constant: bool = False,
) -> TruncatedSeries:
    """Random truncated series; the degree-k coefficients are damped by
    1/(k! + 1) so high-degree compositions stay well scaled."""
    count = mi.count_indices(dom, degree)
    coeffs = rng.uniform(-1.0, 1.0, (cod, count)) + 1j * rng.uniform(-1.0, 1.0, (cod, count))
    degs = mi.degree_vector(dom, degree)
    damp = 1.0 / (np.array([math.factorial(int(k)) for k in degs]) + 1.0)
    coeffs = coeffs * damp
    if zero_constant:
        coeffs[:, 0] = 0.0
    return TruncatedSeries.from_arrays(dom, cod, degree, coeffs)


def random_vector(rng, dim: int, scale: float = 0.5) -> np.ndarray:
    return scale * (rng.uniform(-1.0, 1.0, dim) + 1j * rng.uniform(-1.0, 1.0, dim))


def random_distribution(rng, dim: int, degree: int) -> xp.Distribution:
    n = mi.count_indices(dim, degree)
    return xp.Distribution(dim, degree, rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))


# level-two basis size of `_digging_cap`: (2,4) at most, 3 876 elements, while
# the size budget would admit (2,5).  It keeps the level-two laws at the sizes
# they have always run; a weight-graded level-two basis would retire it.
_LEVEL_TWO_LAW_SIZE = 5000


def _digging_cap(dim: int, degree: int) -> Tuple[int, int]:
    """Largest (dim', degree') <= (min(dim, 2), degree) whose doubled
    exponential has at most _LEVEL_TWO_LAW_SIZE basis elements."""
    dim = min(dim, 2)
    deg = degree
    while deg > 1:
        inner = mi.count_indices(dim, deg)
        if mi.count_indices(inner, deg) <= _LEVEL_TWO_LAW_SIZE:
            break
        deg -= 1
    return dim, deg


def _admissible_columns(dim_e: int, dim_f: int, degree: int) -> np.ndarray:
    """Positions of the tensor columns eps_alpha (x) eps_beta with
    |alpha| + |beta| <= degree, in row-major pair order."""
    de = mi.degree_vector(dim_e, degree)
    df = mi.degree_vector(dim_f, degree)
    return np.flatnonzero((de[:, None] + df[None, :]).reshape(-1) <= degree)


def _restriction(basis: xp.Basis, keep: np.ndarray) -> xp.LinearOperator:
    """The identity of `basis` restricted to the columns `keep`."""
    return xp.LinearOperator.from_entries(basis, basis, keep, keep, np.ones(keep.size))


def _binomial_weights(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """prod_i C(a_i + b_i, a_i) for each pair of exponent rows, from factorials."""
    top = int((a + b).max(initial=0))
    fact = np.array([math.factorial(k) for k in range(top + 1)], dtype=np.int64)
    return (fact[a + b] // (fact[a] * fact[b])).prod(axis=-1)


def _comonoid_sides(delta, assoc, unit) -> Sides:
    """The sides of (assoc (x) 1) delta = (1 (x) delta) delta,
    (unit (x) 1) delta = 1 = (1 (x) unit) delta and sigma delta = delta, for
    delta and assoc mapping B to B (x) B and unit mapping B to C."""
    n = delta.source.size
    ident = xp.LinearOperator.identity(delta.source)
    yield assoc.act(delta, after=n), delta.act(delta)
    yield unit.act(delta, after=n), ident
    yield unit.act(delta), ident
    yield delta.swap(n, n), delta


# ---------------------------------------------------------------------------
# multi-index laws


@law("multiindex-count", TOL_EXACT)
def _law_mi_count(config: LawConfig, rng) -> Sides:
    for dim in range(1, 4):
        for deg in range(0, 7):
            exps = mi.exponent_matrix(dim, deg)
            yield len(exps), math.comb(dim + deg, deg)
            yield mi.rank(exps), np.arange(len(exps))
    return {"dims": "1..3", "degrees": "0..6"}


@law("multiindex-binom-symmetry", TOL_EXACT)
def _law_mi_binom(config: LawConfig, rng) -> Sides:
    for dim in range(1, 4):
        ia, ib, _, w = mi.convolution_table(dim, 4)
        exps = mi.exponent_matrix(dim, 4)
        # the weight of the pair (b, a), inf where the table lacks that pair
        swapped = np.full((len(exps), len(exps)), np.inf)
        swapped[ib, ia] = w
        yield w, _binomial_weights(exps[ia], exps[ib])
        yield w, swapped[ia, ib]
    return {"dims": "1..3", "degrees": "0..4"}


# ---------------------------------------------------------------------------
# series laws


@law("series-homogeneous-reconstruction", TOL_EXACT)
def _law_homog_sum(config: LawConfig, rng) -> Sides:
    f = random_series(rng, config.dim, 2, config.degree)
    total = TruncatedSeries.zero(config.dim, 2, config.degree)
    for k in range(config.degree + 1):
        total = total + f.homogeneous_part(k)
    yield total.coeffs, f.coeffs


@law("series-homogeneity-scaling", TOL_FLOAT)
def _law_homog_scaling(config: LawConfig, rng) -> Sides:
    f = random_series(rng, config.dim, 2, config.degree)
    xs, ts = [], []
    for _ in range(5):
        xs.append(random_vector(rng, config.dim))
        ts.append(complex(rng.uniform(0.2, 1.5), rng.uniform(-0.5, 0.5)))
    xs, ts = np.array(xs), np.array(ts)[:, None]
    for k in range(config.degree + 1):
        part = f.homogeneous_part(k)
        yield part.evaluate_many(ts * xs), ts**k * part.evaluate_many(xs)
    return {"dim": config.dim, "degree": config.degree, "trials": 5}


@law("series-directional-finite-difference", TOL_FD)
def _law_directional_fd(config: LawConfig, rng) -> Sides:
    f = random_series(rng, config.dim, 2, config.degree)
    t = 1e-5
    xs, vs = [], []
    for _ in range(5):
        xs.append(random_vector(rng, config.dim, scale=0.3))
        vs.append(random_vector(rng, config.dim, scale=1.0))
    xs, vs = np.array(xs), np.array(vs)
    exact = np.array([f.directional_derivative(x, v) for x, v in zip(xs, vs)])
    yield exact, (f.evaluate_many(xs + t * vs) - f.evaluate_many(xs - t * vs)) / (2 * t)
    return {"dim": config.dim, "degree": config.degree, "step": t}


@law("series-cauchy-sampled", TOL_FLOAT)
def _law_cauchy(config: LawConfig, rng) -> Sides:
    # |c_alpha| r^|alpha| <= max |f| on the polytorus of radius r, sampled on a
    # (D+1)-point grid per axis; with D+1 points the coefficients are exact
    # discrete Fourier data of the samples, so the bound is exact too.
    f = random_series(rng, config.dim, 1, config.degree)
    r = 0.7
    pts = config.degree + 1
    angles = 2 * np.pi * np.arange(pts) / pts
    axes = [r * np.exp(1j * angles)] * config.dim
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, config.dim)
    sample_max = _max_abs(f.evaluate_many(grid))
    degs = mi.degree_vector(config.dim, config.degree)
    bounds = np.abs(f.coeffs[0]) * r ** degs.astype(float)
    # the relative excess of the largest bound over the samples, 0 when it holds
    yield np.maximum(np.max(bounds) - sample_max, 0.0) / (1.0 + sample_max), 0.0
    return {"dim": config.dim, "degree": config.degree, "radius": r, "samples": pts**config.dim}


@law("series-partial-sum-monotone", TOL_EXACT)
def _law_truncate_prefix(config: LawConfig, rng) -> Sides:
    f = random_series(rng, config.dim, 2, config.degree)
    for k in range(config.degree + 1):
        yield f.truncate(k).coeffs, f.coeffs[:, : mi.count_indices(config.dim, k)]


# ---------------------------------------------------------------------------
# multilinear laws


@law("polarize-matches-from-monomial", TOL_FLOAT)
def _law_polarize(config: LawConfig, rng) -> Sides:
    top = min(config.degree, 4)
    for arity in range(1, top + 1):
        f = random_series(rng, config.dim, 2, config.degree).homogeneous_part(arity)
        yield ml.from_monomial(f, arity).entries, ml.polarize(f, arity).entries
    return {"dim": config.dim, "arities": f"1..{top}"}


@law("multilinear-apply-symmetry", TOL_EXACT)
def _law_apply_symmetry(config: LawConfig, rng) -> Sides:
    arity = min(config.degree, 3)
    f = random_series(rng, config.dim, 2, config.degree).homogeneous_part(arity)
    tensor = ml.from_monomial(f, arity)
    args = [random_vector(rng, config.dim) for _ in range(arity)]
    base = tensor.apply(args)
    perm = list(range(arity))
    for _ in range(4):
        rng.shuffle(perm)
        yield tensor.apply([args[p] for p in perm]), base
    return {"dim": config.dim, "arity": arity}


@law("multilinear-apply-slot-linearity", TOL_FLOAT)
def _law_apply_linearity(config: LawConfig, rng) -> Sides:
    arity = min(config.degree, 3)
    f = random_series(rng, config.dim, 2, config.degree).homogeneous_part(arity)
    tensor = ml.from_monomial(f, arity)
    rest = [random_vector(rng, config.dim) for _ in range(arity - 1)]
    x, y = random_vector(rng, config.dim), random_vector(rng, config.dim)
    a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    lhs = tensor.apply([a * x + b * y] + rest)
    yield lhs, a * tensor.apply([x] + rest) + b * tensor.apply([y] + rest)
    return {"dim": config.dim, "arity": arity}


@law("multilinear-diagonal-roundtrip", TOL_FLOAT)
def _law_diagonal(config: LawConfig, rng) -> Sides:
    top = min(config.degree, 4)
    for arity in range(0, top + 1):
        f = random_series(rng, config.dim, 2, config.degree).homogeneous_part(arity)
        tensor = ml.from_monomial(f, arity)
        for _ in range(3):
            x = random_vector(rng, config.dim)
            yield tensor.apply([x] * arity), f.evaluate(x)
    return {"dim": config.dim, "arities": f"0..{top}"}


# ---------------------------------------------------------------------------
# composition laws


@law("compose-matches-naive", TOL_FLOAT)
def _law_compose_naive(config: LawConfig, rng) -> Sides:
    # compose and f-hat . !g both multiply f by the power table of g;
    # compose_naive substitutes g by repeated products and never reads it
    f = random_series(rng, config.dim, 2, config.degree)
    g = random_series(rng, config.dim, config.dim, config.degree, zero_constant=True)
    slow = ca.compose_naive(f, g).coeffs
    yield ca.compose(f, g).coeffs, slow
    yield (xp.series_to_operator(f) @ xp.bang_map(g, config.degree)).matrix, slow


@law("compose-associativity", TOL_FLOAT)
def _law_compose_assoc(config: LawConfig, rng) -> Sides:
    f = random_series(rng, config.dim, 2, config.degree)
    g = random_series(rng, config.dim, config.dim, config.degree, zero_constant=True)
    h = random_series(rng, config.dim, config.dim, config.degree, zero_constant=True)
    yield ca.compose(ca.compose(f, g), h).coeffs, ca.compose(f, ca.compose(g, h)).coeffs


@law("compose-identity", TOL_EXACT)
def _law_compose_identity(config: LawConfig, rng) -> Sides:
    f = random_series(rng, config.dim, 2, config.degree)
    ident_dom = TruncatedSeries.identity(config.dim, config.degree)
    ident_cod = TruncatedSeries.identity(2, config.degree)
    yield ca.compose(f, ident_dom).coeffs, f.coeffs
    yield ca.compose(ident_cod, f, outer_polynomial=True).coeffs, f.coeffs


@law("curry-uncurry-roundtrip", 0.0)
def _law_curry_roundtrip(config: LawConfig, rng) -> Sides:
    dim = max(config.dim, 2)
    f = random_series(rng, dim, 2, config.degree)
    for split in range(1, dim):
        yield ca.uncurry(ca.curry(f, split)).coeffs, f.coeffs
    return {"dim": dim, "degree": config.degree, "note": "re-indexing, bit exact"}


@law("curry-evaluation", TOL_FLOAT)
def _law_curry_eval(config: LawConfig, rng) -> Sides:
    dim = max(config.dim, 2)
    f = random_series(rng, dim, 2, config.degree)
    for split in range(1, dim):
        c = ca.curry(f, split)
        for _ in range(4):
            x = random_vector(rng, split)
            y = random_vector(rng, dim - split)
            yield c.evaluate(x, y), f.evaluate(np.concatenate([x, y]))
    return {"dim": dim, "degree": config.degree}


@law("curry-split-slot-reference", TOL_FLOAT)
def _law_curry_reference(config: LawConfig, rng) -> Sides:
    # the polarized reference rebuilds f(x ++ y) from split-slot tensor values,
    # which is exactly the expansion the curry re-indexing encodes
    dim = max(config.dim, 2)
    degree = min(config.degree, 4)
    f = random_series(rng, dim, 2, degree)
    for split in range(1, dim):
        c = ca.curry(f, split)
        for _ in range(3):
            x = random_vector(rng, split)
            y = random_vector(rng, dim - split)
            yield c.evaluate(x, y), ca.split_slot_reference(f, split, x, y)
    return {"dim": dim, "degree": degree}


@law("chain-rule", TOL_FLOAT)
def _law_chain_rule(config: LawConfig, rng) -> Sides:
    f = random_series(rng, config.dim, 1, config.degree)
    g = random_series(rng, config.dim, config.dim, config.degree, zero_constant=True)
    comp = ca.compose(f, g)
    outer = [ca.compose(f.partial_derivative(j), g) for j in range(config.dim)]
    for i in range(config.dim):
        lhs = comp.partial_derivative(i)
        rhs = TruncatedSeries.zero(config.dim, 1, config.degree - 1)
        for j in range(config.dim):
            rhs = rhs + outer[j].pointwise_multiply(g.component(j).partial_derivative(i))
        yield lhs.coeffs, rhs.coeffs


# ---------------------------------------------------------------------------
# distribution laws


@law("dirac-evaluates", TOL_EXACT)
def _law_dirac(config: LawConfig, rng) -> Sides:
    f = random_series(rng, config.dim, 2, config.degree)
    for _ in range(5):
        x = random_vector(rng, config.dim)
        yield xp.dirac(x, config.degree).apply(f), f.evaluate(x)


@law("theta-extracts", TOL_FLOAT)
def _law_theta(config: LawConfig, rng) -> Sides:
    f = random_series(rng, config.dim, 2, config.degree)
    for order in range(config.degree + 1):
        x = random_vector(rng, config.dim)
        got = xp.theta(order, x, config.degree).apply(f)
        yield got, math.factorial(order) * f.homogeneous_part(order).evaluate(x)


@law("theta-convolution-induction", TOL_FLOAT)
def _law_theta_induction(config: LawConfig, rng) -> Sides:
    x = random_vector(rng, config.dim)
    for order in range(config.degree):
        lhs = xp.convolve(xp.theta(1, x, config.degree), xp.theta(order, x, config.degree))
        yield lhs.coeffs, xp.theta(order + 1, x, config.degree).coeffs


@law("convolution-monoid", TOL_FLOAT)
def _law_conv_monoid(config: LawConfig, rng) -> Sides:
    d1 = random_distribution(rng, config.dim, config.degree)
    d2 = random_distribution(rng, config.dim, config.degree)
    d3 = random_distribution(rng, config.dim, config.degree)
    unit = xp.Distribution.extractor((0,) * config.dim, config.degree)
    yield (
        xp.convolve(xp.convolve(d1, d2), d3).coeffs,
        xp.convolve(d1, xp.convolve(d2, d3)).coeffs,
    )
    yield xp.convolve(d1, d2).coeffs, xp.convolve(d2, d1).coeffs
    yield xp.convolve(d1, unit).coeffs, d1.coeffs


@law("cocontraction-matches-convolve", TOL_FLOAT)
def _law_cocontraction_convolve(config: LawConfig, rng) -> Sides:
    d1 = random_distribution(rng, config.dim, config.degree)
    d2 = random_distribution(rng, config.dim, config.degree)
    op = xp.cocontraction(config.dim, config.degree)
    yield op(np.kron(d1.coeffs, d2.coeffs)).coeffs, xp.convolve(d1, d2).coeffs


@law("delta-taylor", TOL_EXACT)
def _law_delta_taylor(config: LawConfig, rng) -> Sides:
    for _ in range(5):
        x = random_vector(rng, config.dim, scale=0.8)
        acc = xp.Distribution.zero(config.dim, config.degree)
        for order in range(config.degree + 1):
            acc = acc + xp.theta(order, x, config.degree).scale(1.0 / math.factorial(order))
        yield acc.coeffs, xp.dirac(x, config.degree).coeffs


@law("dirac-spanning", TOL_FLOAT)
def _law_dirac_spanning(config: LawConfig, rng) -> Sides:
    # one-variable check: the D+1 Dirac functionals at z_j = r w^j, w a
    # primitive (D+1)-th root of unity, span the distribution space, and the
    # discrete Cauchy formula gives the weights of each extractor:
    # eps_k = sum_j w^(-jk) / ((D+1) r^k) delta_(z_j)
    degree = config.degree
    pts = degree + 1
    r = 0.8
    turns = 2j * np.pi * np.arange(pts) / pts
    diracs = np.stack([xp.dirac([r * np.exp(t)], degree).coeffs for t in turns])
    for k in range(pts):
        recon = np.exp(-k * turns) / (pts * r**k) @ diracs
        yield recon, xp.Distribution.extractor((k,), degree).coeffs
    return {"dim": 1, "degree": degree, "nodes": pts}


# ---------------------------------------------------------------------------
# translation laws: moving the base point to a is convolution with delta_a


@law("translation-evaluates", TOL_FLOAT)
def _law_translation_evaluates(config: LawConfig, rng) -> Sides:
    # evaluation at a + h walks the power tree, not the shift-table chains of `recenter`
    f = random_series(rng, config.dim, 2, config.degree)
    a = random_vector(rng, config.dim)
    h = random_vector(rng, (mi.count_indices(config.dim, config.degree), config.dim))
    yield f.recenter(a).evaluate_many(h), f.evaluate_many(a + h)


@law("translation-group", TOL_FLOAT)
def _law_translation_group(config: LawConfig, rng) -> Sides:
    f = random_series(rng, config.dim, 2, config.degree)
    a, b = random_vector(rng, config.dim), random_vector(rng, config.dim)
    yield f.recenter(np.zeros(config.dim)).coeffs, f.coeffs
    yield f.recenter(a).recenter(b).coeffs, f.recenter(a + b).coeffs


@law("dirac-translation", TOL_FLOAT)
def _law_dirac_translation(config: LawConfig, rng) -> Sides:
    a, b = random_vector(rng, config.dim), random_vector(rng, config.dim)
    lhs = xp.convolve(xp.dirac(a, config.degree), xp.dirac(b, config.degree))
    yield lhs.coeffs, xp.dirac(a + b, config.degree).coeffs


@law("promotion-of-translation", TOL_FLOAT)
def _law_promotion_translation(config: LawConfig, rng) -> Sides:
    # !tau_a for tau_a(h) = a + h, against nabla o (delta_a (x) 1)
    dim, degree = config.dim, config.degree
    a = random_vector(rng, dim)
    tau = TruncatedSeries.identity(dim, degree) + TruncatedSeries.constant(a, dim, degree)
    basis = xp.DistBasis(dim, degree)
    delta = xp.LinearOperator(xp.VectorBasis(1), basis, xp.dirac(a, degree).coeffs[:, None])
    delta_one = delta.act(xp.LinearOperator.identity(basis), after=basis.size)
    yield xp.bang_map(tau, degree), xp.cocontraction(dim, degree).act(delta_one)


# ---------------------------------------------------------------------------
# comonad and bialgebra laws


@law("comonad-counit-laws", TOL_EXACT)
def _law_comonad_counit(config: LawConfig, rng) -> Sides:
    dim, degree = _digging_cap(config.dim, config.degree)
    rho = xp.comultiplication(dim, degree)
    ident = xp.LinearOperator.identity(rho.source)
    yield xp.counit(rho.source.size, degree) @ rho, ident
    yield xp.bang_linear(xp.counit(dim, degree).matrix, degree) @ rho, ident
    return {"dim": dim, "degree": degree}


@law("comonad-coassociativity", TOL_EXACT)
def _law_comonad_coassoc(config: LawConfig, rng) -> Sides:
    # compared on outer rows B with sum_b B_b |A_b| <= D, the rows whose
    # intermediate level-two index stays under the degree budget; on the other
    # rows the two sides genuinely differ at a flat truncation, because only
    # one of them routes mass through a level-two index of degree above D
    dim = min(config.dim, 2)
    degree = min(config.degree, 2)
    rho = xp.comultiplication(dim, degree)
    n1 = mi.count_indices(dim, degree)
    lhs = xp.comultiplication(n1, degree) @ rho
    rhs = xp.bang_linear(rho.matrix, degree) @ rho
    n2 = mi.count_indices(n1, degree)
    u2 = mi.degree_vector(n1, degree)  # degree of each !!E index over !E
    outer3 = mi.exponent_matrix(n2, degree)  # rows: !!!E indices over !!E
    u3 = outer3 @ u2
    rows = np.flatnonzero(u3 <= degree)
    restrict = _restriction(lhs.target, rows)
    yield restrict @ lhs, restrict @ rhs
    return {
        "dim": dim,
        "degree": degree,
        "restriction": f"rows with factor degrees summing to <= {degree}",
        "rows_checked": int(rows.size),
        "rows_total": int(u3.size),
    }


@law("bialgebra-contraction-laws", TOL_EXACT)
def _law_contraction(config: LawConfig, rng) -> Sides:
    # (Delta (x) 1) Delta = (1 (x) Delta) Delta, (e (x) 1) Delta = 1 =
    # (1 (x) e) Delta and sigma Delta = Delta
    delta = xp.contraction(config.dim, config.degree)
    yield from _comonoid_sides(delta, delta, xp.weakening(config.dim, config.degree))


@law("bialgebra-cocontraction-laws", TOL_EXACT)
def _law_cocontraction(config: LawConfig, rng) -> Sides:
    # nabla (nabla (x) 1) = nabla (1 (x) nabla), nabla (m0 (x) 1) = 1 =
    # nabla (1 (x) m0) and nabla sigma = nabla, checked on the transposes so
    # that every factor acts on row indices; the inner nabla of the left-hand
    # side is rebuilt from the exponent rows, with pairs past D sent to 0
    dim, degree = config.dim, config.degree
    exps = mi.exponent_matrix(dim, degree)
    n = len(exps)
    pos = {row: p for p, row in enumerate(map(tuple, exps.tolist()))}
    degs = exps.sum(axis=1)
    i, j = np.nonzero(degs[:, None] + degs <= degree)
    rows = i * n + j
    cols = [pos[row] for row in map(tuple, (exps[i] + exps[j]).tolist())]
    vals = _binomial_weights(exps[i], exps[j])
    nabla = xp.cocontraction(dim, degree)
    rebuilt = xp.LinearOperator.from_entries(nabla.target, nabla.source, rows, cols, vals)
    yield from _comonoid_sides(nabla.T, rebuilt, xp.coweakening(dim, degree).T)


@law("bialgebra-compatibility", TOL_EXACT)
def _law_bialgebra_compat(config: LawConfig, rng) -> Sides:
    # Delta nabla = (nabla (x) nabla)(1 (x) sigma (x) 1)(Delta (x) Delta),
    # restricted to columns with |alpha| + |beta| <= D where no intermediate
    # index can overflow
    dim, degree = config.dim, config.degree
    n = mi.count_indices(dim, degree)
    delta = xp.contraction(dim, degree)
    nabla = xp.cocontraction(dim, degree)
    cols = _admissible_columns(dim, dim, degree)
    restrict = _restriction(nabla.source, cols)
    lhs = delta @ (nabla @ restrict)
    # one name for the right-hand side, so each step frees the one before it
    rhs = delta.act(restrict, after=n)
    rhs = delta.act(rhs)
    rhs = rhs.swap(n, n, after=n)
    rhs = nabla.act(rhs, after=n * n)
    rhs = nabla.act(rhs)
    yield lhs, rhs
    return {
        "dim": dim,
        "degree": degree,
        "restriction": f"columns with |alpha| + |beta| <= {degree}",
        "columns_checked": int(cols.size),
    }


@law("monoidality-bijection", TOL_EXACT)
def _law_monoidal_bijection(config: LawConfig, rng) -> Sides:
    dim_e = config.dim
    dim_f = max(1, config.dim - 1)
    degree = config.degree
    m2 = xp.monoidal_product(dim_e, dim_f, degree)
    m2inv = xp.monoidal_product_inverse(dim_e, dim_f, degree)
    yield m2 @ m2inv, xp.LinearOperator.identity(m2.target)
    restrict = _restriction(m2.source, _admissible_columns(dim_e, dim_f, degree))
    yield m2inv @ (m2 @ restrict), restrict
    return {
        "dims": [dim_e, dim_f],
        "degree": degree,
        "restriction": f"inverse-then-product on columns with |alpha| + |beta| <= {degree}",
    }


@law("monoidality-strength", TOL_EXACT)
def _law_monoidal_strength(config: LawConfig, rng) -> Sides:
    # digging is monoidal: pushing a product pair through m2 then digging then
    # the promoted pair of promoted projections agrees with digging each half
    # and re-pairing, on columns with |alpha| + |beta| <= D
    degree = min(config.degree, 2)
    dim_e = dim_f = 1
    m2 = xp.monoidal_product(dim_e, dim_f, degree)
    rho_ef = xp.comultiplication(dim_e + dim_f, degree)
    proj = np.eye(dim_e + dim_f)
    bang_p1 = xp.bang_linear(proj[:dim_e], degree).matrix
    bang_p2 = xp.bang_linear(proj[dim_e:], degree).matrix
    paired = xp.bang_linear(np.vstack([bang_p1, bang_p2]), degree)
    restrict = _restriction(m2.source, _admissible_columns(dim_e, dim_f, degree))
    lhs = paired @ rho_ef @ m2 @ restrict
    rho_e = xp.comultiplication(dim_e, degree)
    rho_f = xp.comultiplication(dim_f, degree)
    m2_bang = xp.monoidal_product(rho_e.target.dim, rho_f.target.dim, degree)
    # rho_e (x) rho_f as rho_f on the right slot, then rho_e on the left
    digged = rho_e.act(rho_f.act(restrict), after=rho_f.target.size)
    yield lhs, m2_bang.act(digged)
    return {
        "dims": [dim_e, dim_f],
        "degree": degree,
        "restriction": f"columns with |alpha| + |beta| <= {degree}",
    }


# ---------------------------------------------------------------------------
# codereliction laws


@law("codereliction-identity", 0.0)
def _law_coder_identity(config: LawConfig, rng) -> Sides:
    # epsilon . coder = 1 reads coder on the unit rows only; its whole matrix
    # is compared with the columns codereliction(e_i), which are written
    # directly, not transposed from epsilon
    dim, degree = config.dim, config.degree
    coder = xp.codereliction_operator(dim, degree)
    yield xp.counit(dim, degree) @ coder, xp.LinearOperator.identity(coder.source)
    columns = [xp.codereliction(e, degree).coeffs for e in np.eye(dim)]
    yield coder.matrix, np.stack(columns, axis=1)


@law("codereliction-finite-difference", 1e-5)
def _law_coder_fd(config: LawConfig, rng) -> Sides:
    f = random_series(rng, config.dim, 2, config.degree)
    t = 1e-6
    vs = np.array([random_vector(rng, config.dim, scale=1.0) for _ in range(5)])
    exact = np.array([xp.codereliction(v, config.degree).apply(f) for v in vs])
    yield exact, (f.evaluate_many(t * vs) - f.evaluate_many(-t * vs)) / (2 * t)
    return {"dim": config.dim, "degree": config.degree, "step": t}


@law("codereliction-digging", TOL_EXACT)
def _law_coder_digging(config: LawConfig, rng) -> Sides:
    # digging after codereliction equals convolving the second-level
    # codereliction with the digging of the convolution unit
    dim, degree = _digging_cap(config.dim, config.degree)
    rho = xp.comultiplication(dim, degree)
    rho_unit = rho(xp.Distribution.extractor((0,) * dim, degree))
    for _ in range(3):
        inner = xp.codereliction(random_vector(rng, dim), degree)
        lifted = xp.codereliction(inner.coeffs, degree)  # theta_1 at level two
        yield rho(inner).coeffs, xp.convolve(lifted, rho_unit).coeffs
    return {"dim": dim, "degree": degree, "level2_dim": mi.count_indices(dim, degree)}


# ---------------------------------------------------------------------------
# promotion and adjunction laws


@law("bang-functoriality", TOL_FLOAT)
def _law_bang_functor(config: LawConfig, rng) -> Sides:
    f = random_series(rng, config.dim, 2, config.degree, zero_constant=True)
    g = random_series(rng, config.dim, config.dim, config.degree, zero_constant=True)
    lhs = xp.bang_map(ca.compose(f, g), config.degree)
    rhs = xp.bang_map(f, config.degree) @ xp.bang_map(g, config.degree)
    yield lhs.matrix, rhs.matrix
    ident = xp.bang_map(TruncatedSeries.identity(config.dim, config.degree), config.degree)
    yield ident.matrix, np.eye(ident.source.size)


@law("adjunction-roundtrip", 0.0)
def _law_adjunction_roundtrip(config: LawConfig, rng) -> Sides:
    f = random_series(rng, config.dim, 2, config.degree)
    yield xp.operator_to_series(xp.series_to_operator(f)).coeffs, f.coeffs
    n = mi.count_indices(config.dim, config.degree)
    mat = rng.uniform(-1, 1, (2, n)) + 1j * rng.uniform(-1, 1, (2, n))
    op = xp.LinearOperator(xp.DistBasis(config.dim, config.degree), xp.VectorBasis(2), mat)
    yield xp.series_to_operator(xp.operator_to_series(op)).matrix, op.matrix
    return {"dim": config.dim, "degree": config.degree, "note": "bit exact"}


@law("adjunction-extractor-expansion", TOL_FLOAT)
def _law_adjunction_expansion(config: LawConfig, rng) -> Sides:
    f = random_series(rng, config.dim, 2, config.degree)
    op = xp.series_to_operator(f)
    for _ in range(4):
        x = random_vector(rng, config.dim)
        total = np.zeros(2, dtype=np.complex128)
        for order in range(config.degree + 1):
            total += op(xp.theta(order, x, config.degree).coeffs) / math.factorial(order)
        yield total, f.evaluate(x)
        yield op(xp.dirac(x, config.degree)), f.evaluate(x)
