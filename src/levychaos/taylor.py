"""Smooth functionals of increments via multivariate Taylor expansion.

A functional g(x_1, ..., x_n) of the increments over a strictly increasing
time grid is truncated to total degree D and evaluated pathwise: each
monomial factor (increment_k)^e is rebuilt from the chaos expansion of that
power on its own interval, and the interval products multiply scalar-wise
(non-overlapping windows).  Cross-interval products are NOT flattened into a
single expansion; pathwise evaluation tests the same identity without
symbolic product machinery.

The derivative oracle supplies normalized derivatives (1/l!) d^l g(0); the
Taylor coefficient of a monomial with exponent vector e is then
multinomial(e) times the oracle value.  Extraction of single-integral
predictable representations is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from . import combinatorics as comb
from .errors import FunctionalError, PathError
from .evaluate import _end, _power_levels, reconstruct  # noqa: F401  (bench/tracer.py looks reconstruct up here)
from .models import CompoundPoisson, GammaJumps, LevyModel, jump_mean_rate, moments, sigma_adjust
from .paths import JumpPath, check_batch, grid_index, make_jump_path, rng_for, sample_jump_law


@dataclass(frozen=True)
class FunctionalSpec:
    """Functional of increments over (t_{k-1}, t_k] windows, t_0 = 0.

    ``norm_deriv(e)`` returns (1/l!) * d^l g / dx^e at 0 for the exponent
    vector e (l = sum e); ``value(xs)`` evaluates g directly.
    """

    arity: int
    grid: tuple
    order: int
    norm_deriv: Callable[[tuple], object]
    value: Callable[[Sequence], object]
    label: str = "custom"

    def __post_init__(self):
        if self.arity < 1 or len(self.grid) != self.arity:
            raise FunctionalError("grid length must equal the functional arity")
        prev = 0
        for tk in self.grid:
            if tk <= prev:
                raise FunctionalError("overlapping intervals rejected: grid must be strictly increasing and positive")
            prev = tk
        if self.order < 0:
            raise FunctionalError("truncation order must be >= 0")


# Largest number of monomials, C(D + arity, arity), a truncation may hold.
# A study over 10 intervals at D = 6 (8008 terms) on 2 exact paths takes 0.5 s
# on a 2-CPU Xeon; the cost grows with terms times arity.
TERM_LIMIT = 100_000


def taylor_terms(spec: FunctionalSpec) -> list[tuple[tuple, object]]:
    """(exponent vector, coefficient) for every monomial with sum(e) <= D.

    Zero coefficients are dropped; ordering is by total degree, then
    lexicographic.
    """
    count = math.comb(spec.order + spec.arity, spec.arity)
    if count > TERM_LIMIT:
        raise FunctionalError(f"too many Taylor terms: {count} > limit {TERM_LIMIT}; lower the order or the arity")
    terms = []
    for total in range(spec.order + 1):
        # exponent vectors of degree total: compositions of total + arity into positive parts, less 1 each
        for parts in comb.exact_sum_compositions(total + spec.arity, spec.arity):
            e = tuple(p - 1 for p in parts)
            c = comb.multinomial(e) * spec.norm_deriv(e)
            if c != 0:
                terms.append((e, c))
    return terms


# --------------------------------------------------------------------------
# built-in functionals
# --------------------------------------------------------------------------


def exp_functional(grid: Sequence, order: int, scale=1.0, weights: Optional[Sequence] = None) -> FunctionalSpec:
    """g(x) = scale * exp(sum_k w_k x_k)."""
    grid = tuple(grid)
    n = len(grid)
    w = tuple(weights) if weights is not None else (1.0,) * n
    if len(w) != n:
        raise FunctionalError(f"{len(w)} weights for a functional of arity {n}")

    def norm_deriv(e):
        l = sum(e)
        acc = scale
        for wk, ek in zip(w, e):
            acc = acc * wk**ek
        return acc / math.factorial(l)

    def value(xs):
        return scale * math.exp(sum(wk * float(x) for wk, x in zip(w, xs)))

    return FunctionalSpec(n, grid, order, norm_deriv, value, label="exp")


def poly_functional(grid: Sequence, order: int, terms: dict) -> FunctionalSpec:
    """g(x) = sum_e terms[e] * prod_k x_k^e_k, exact for D >= total degree."""
    grid = tuple(grid)
    n = len(grid)
    coeffs = {tuple(e): c for e, c in terms.items()}
    for e in coeffs:
        if len(e) != n:
            raise FunctionalError(f"exponent vector {e} does not match arity {n}")

    def norm_deriv(e):
        c = coeffs.get(tuple(e), 0)
        if c == 0 or not any(e):
            return c
        # invert: monomial coefficient = multinomial(e) * norm_deriv(e);
        # keep the factor exact so rational inputs stay rational
        num = 1
        for ek in e:
            num *= math.factorial(ek)
        return c * Fraction(num, math.factorial(sum(e)))

    def value(xs):
        acc = 0
        for e, c in coeffs.items():
            term = c
            for x, ek in zip(xs, e):
                term = term * x**ek
            acc = acc + term
        return acc

    return FunctionalSpec(n, grid, order, norm_deriv, value, label="poly")


def forward_contract(grid: Sequence, order: int, s0: float, rate: float, maturity: float) -> FunctionalSpec:
    """Forward price on a no-income security under an exponential model.

    F = S0 * exp(X_t) * exp(rate * (maturity - t)) with t the last grid time.
    """
    grid = tuple(grid)
    if maturity < grid[-1]:
        raise FunctionalError("maturity before valuation time")
    scale = s0 * math.exp(rate * (maturity - grid[-1]))
    spec = exp_functional(grid, order, scale=scale)
    return FunctionalSpec(spec.arity, grid, order, spec.norm_deriv, spec.value, label="forward")


def _number(value, field: str, kind):
    """A spec's scalar field: a finite JSON number (booleans rejected)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise FunctionalError(f"malformed {kind} spec: {field} must be a finite number, got {value!r}")
    return value


def functional_from_json(data: dict) -> FunctionalSpec:
    kind = data.get("kind")
    grid = data.get("grid")
    order = data.get("order")
    try:
        if kind == "exp":
            scale = _number(data.get("scale", 1.0), "scale", kind)
            weights = data.get("weights")
            if weights is not None:
                weights = [_number(w, "weights", kind) for w in weights]
            return exp_functional(grid, order, scale=scale, weights=weights)
        if kind == "poly":
            terms = {}
            for item in data["terms"]:
                exps = tuple(item["exponents"])
                if not all(isinstance(e, int) and not isinstance(e, bool) and e >= 0 for e in exps):
                    raise FunctionalError(f"malformed poly spec: exponents must be integers >= 0, got {list(exps)}")
                terms[exps] = _number(item["coeff"], "coeff", kind)
            return poly_functional(grid, order, terms)
        if kind == "forward":
            s0, rate, maturity = (_number(data[f], f, kind) for f in ("s0", "rate", "maturity"))
            return forward_contract(grid, order, s0, rate, maturity)
    except (KeyError, TypeError) as exc:
        raise FunctionalError(f"malformed {kind} spec: missing or mistyped field {exc}")
    raise FunctionalError(f"unknown functional kind {kind!r}")


# --------------------------------------------------------------------------
# pathwise evaluation
# --------------------------------------------------------------------------


@dataclass(eq=False)
class FunctionalReport:
    """Per path: ``sums[p][d]``, the Taylor sum through total degree d = 0..D."""

    label: str
    order: int
    sums: list
    directs: list

    @property
    def approximations(self) -> list:
        return [s[self.order] for s in self.sums]

    def truncated(self, order: int) -> "FunctionalReport":
        """The same study truncated at total degree ``order`` <= D."""
        if not 0 <= order <= self.order:
            raise FunctionalError(f"truncation order must be in 0..{self.order}, got {order}")
        return replace(self, order=order)

    @property
    def abs_errors(self) -> list:
        return [abs(a - d) for a, d in zip(self.approximations, self.directs)]

    @property
    def mean_abs_error(self) -> float:
        errs = self.abs_errors
        return float(sum(float(e) for e in errs) / len(errs)) if errs else 0.0

    @property
    def max_abs_error(self) -> float:
        return max((float(e) for e in self.abs_errors), default=0.0)


def _increments(spec: FunctionalSpec, path) -> list:
    if isinstance(path, JumpPath):
        xs = [path.value(tk) for tk in (0,) + spec.grid]
    else:
        cum = path.cumulative()
        xs = [float(cum[grid_index(float(tk), path.dt, "grid time")]) for tk in (0,) + spec.grid]
    return [hi - lo for lo, hi in zip(xs, xs[1:])]


def model_jump_fixtures(
    model: LevyModel,
    horizon: float,
    count: int,
    seed: int,
    *,
    moment_order: int = 12,
) -> list[JumpPath]:
    """Finite-jump stand-ins for a model, for exact-substrate studies.

    Each fixture carries 1 + Poisson(6) jumps whose sizes follow the
    model's jump flavor (Gamma-distributed for Gamma jump parts), the model's
    residual drift, and the model's sigma-adjusted moments m1..m_moment_order
    as declared compensators (a study of total degree D reads m1..mD).
    Truncation studies on these fixtures see no discretization error at all.
    """
    if not (isinstance(horizon, (int, float, Fraction)) and 0 < horizon < math.inf):
        raise PathError(f"fixture horizon must be a finite number > 0, got {horizon!r}")
    check_batch(count)
    mv = sigma_adjust(moments(model, max(moment_order, 2)))
    drift = float(model.mean_rate) - float(jump_mean_rate(model.jump_part))
    fixtures = []
    for i in range(count):
        rng = rng_for(seed, i)
        nj = 1 + int(rng.poisson(6))
        times = np.sort(rng.uniform(0.0, float(horizon), size=nj))
        while len(np.unique(times)) < nj or times[0] <= 0.0:
            times = np.sort(rng.uniform(0.0, float(horizon), size=nj))
        part = model.jump_part
        if isinstance(part, GammaJumps):
            sizes = rng.gamma(float(part.a) * float(horizon) / nj, 1.0 / float(part.b), size=nj)
        elif isinstance(part, CompoundPoisson):
            sizes = sample_jump_law(part.law, nj, rng)
        else:
            sizes = rng.uniform(0.05, 0.5, size=nj)
        while np.any(sizes == 0.0):  # vanishingly unlikely, but jump sizes must be nonzero
            sizes = np.where(sizes == 0.0, rng.uniform(0.05, 0.5, size=nj), sizes)
        fixtures.append(
            make_jump_path(
                float(horizon),
                drift,
                list(zip(times.tolist(), sizes.tolist())),
                mv.m,
                sigma2=mv.sigma2,
            )
        )
    return fixtures


def eval_functional(spec: FunctionalSpec, paths) -> FunctionalReport:
    """Evaluate the truncated functional pathwise and compare with direct g.

    ``paths`` is a single path or a batch; jump paths evaluate exactly, grid
    paths need every grid time aligned to the step.  Terms run by total
    degree, so the report holds every order 0..D.
    """
    batch = paths if isinstance(paths, (list, tuple)) else [paths]
    if not batch:
        raise FunctionalError("empty path batch")
    terms = taylor_terms(spec)
    top = max((e for term, _ in terms for e in term), default=0)
    by_degree = [[(e, c) for e, c in terms if sum(e) == d] for d in range(spec.order + 1)]
    intervals = list(zip((0,) + spec.grid, spec.grid))
    sums, directs = [], []
    for path in batch:
        # powers[k][e]: (X_{t_k} - X_{t_{k-1}})^e, all e <= top from one level-sum pass
        levels = [_power_levels(path, top, lo, hi) for lo, hi in intervals]
        powers = [[_end(power(e)[0]) for e in range(top + 1)] for power in levels]
        acc, path_sums = 0, []
        for degree_terms in by_degree:
            for e, c in degree_terms:
                term = c
                for k, ek in enumerate(e):
                    term = term * powers[k][ek]
                acc = acc + term
            path_sums.append(acc)
        sums.append(path_sums)
        directs.append(spec.value(_increments(spec, path)))
    return FunctionalReport(spec.label, spec.order, sums, directs)
