"""Coefficient engine for chaos expansions of powers of increments.

Builds the constant polynomials C^(k) (two independent routes: a coefficient
recursion and a partition sum), the integral coefficients Pi, full expansions
in the compensated-power-jump (Y) basis, the non-compensated basis with purely
multinomial coefficients, and Poisson-random-measure integrand descriptors.

Tuple orientation: in an expansion term keyed by (i1, ..., ij), i1 is the
order of the innermost (earliest-time) integrator.  Evaluators and
serializations all share this convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import combinatorics as comb
from .errors import BasisError, OrderError
from .models import LevyModel, MomentVector, moments, sigma_adjust
from .timepoly import TimePolynomial, ratio

BASES = ("Y", "H", "NONCOMPENSATED")


def c_polys(n: int, mv: MomentVector) -> list[TimePolynomial]:
    """C^(0)..C^(n) as polynomials in elapsed time, by the coefficient recursion.

    C^(k) has coefficients q0..qk with q1^(k) = m_k and
    q_r^(k) = (1/r) * sum_{j=1}^{k+1-r} C(k,j) m_j q_{r-1}^(k-j).
    """
    if n < 0:
        raise OrderError("k must be >= 0")
    rows: list[list] = [[1]]
    for kk in range(1, n + 1):
        row = [0] * (kk + 1)
        row[1] = mv.moment(kk)
        for r in range(2, kk + 1):
            acc = 0
            for j in range(1, kk + 2 - r):
                acc += math.comb(kk, j) * mv.moment(j) * rows[kk - j][r - 1]
            row[r] = ratio(acc, r)
        rows.append(row)
    return [TimePolynomial(row) for row in rows]


def c_poly_recursive(k: int, mv: MomentVector) -> TimePolynomial:
    """C^(k) as a polynomial in elapsed time, by the coefficient recursion."""
    return c_polys(k, mv)[k]


def c_poly_closed(k: int, mv: MomentVector) -> TimePolynomial:
    """C^(k) by the partition sum; must equal the recursive route exactly."""
    if k < 0:
        raise OrderError("k must be >= 0")
    if k == 0:
        return TimePolynomial((1,))
    coeffs = [0] * (k + 1)
    for part in comb.partitions(k):
        l = part.length
        num = comb.multinomial(part.parts) * comb.multinomial(part.multiplicities)
        den = math.factorial(l)
        # the combined weight counts set partitions by block sizes: an integer
        assert num % den == 0
        weight = num // den
        prod_m = 1
        for iq in part.parts:
            prod_m = prod_m * mv.moment(iq)
        coeffs[l] += weight * prod_m
    return TimePolynomial(coeffs)


def pi_coeff(theta: comb.IndexTuple, k: int, mv: MomentVector) -> TimePolynomial:
    """Coefficient of the iterated integral indexed by ``theta`` at order k.

    Equals multinomial(theta + (n,)) * C^(n) with n = k - sum(theta); depends
    on elapsed time only, never on the start time or integration variables.
    """
    n = k - sum(theta)
    if n < 0:
        raise OrderError(f"tuple exceeds order: sum{theta} > {k}")
    return _pi(theta, n, c_polys(n, mv))


def _pi(theta: comb.IndexTuple, n: int, c: list) -> TimePolynomial:
    """multinomial(theta + (n,)) * C^(n), with C^(n) read from the table ``c``."""
    return c[n].scale(comb.multinomial(tuple(theta) + (n,)))


@dataclass(frozen=True)
class Expansion:
    """Finite chaos expansion: tuple-indexed time polynomials plus a constant."""

    order: int
    basis: str
    terms: dict
    constant: TimePolynomial
    moments: MomentVector
    ortho: object = field(default=None, compare=False)

    def __post_init__(self):
        if self.basis not in BASES:
            raise BasisError(f"unknown basis {self.basis!r}")

    def term(self, theta: comb.IndexTuple) -> TimePolynomial:
        return self.terms.get(tuple(theta), TimePolynomial.zero())

    def to_float(self) -> "Expansion":
        return Expansion(
            self.order,
            self.basis,
            {t: p.to_float() for t, p in self.terms.items()},
            self.constant.to_float(),
            self.moments.as_float(),
            self.ortho,
        )


def terms_equal(a: Expansion, b: Expansion) -> bool:
    """Term-for-term equality, treating absent tuples as zero polynomials."""
    keys = set(a.terms) | set(b.terms)
    return all(a.term(t) == b.term(t) for t in keys) and a.constant == b.constant


def _per_multiset(thetas, coeff) -> dict:
    """{theta: coeff(sorted theta)}: both coefficient rules read theta only
    through its multiset, so every permutation shares one immutable polynomial."""
    keys = {theta: tuple(sorted(theta)) for theta in thetas}
    shared = {key: coeff(key) for key in dict.fromkeys(keys.values())}
    return {theta: shared[key] for theta, key in keys.items()}


def _tables(n: int, mv: MomentVector) -> tuple[list[TimePolynomial], Expansion]:
    if not mv.adjusted:
        raise BasisError("expansion requires a sigma-adjusted moment vector")
    c = c_polys(n, mv)
    terms = _per_multiset(comb.index_set(n), lambda key: _pi(key, n - sum(key), c))
    return c, Expansion(n, "Y", terms, c[n], mv)


def expand_from_moments(n: int, mv: MomentVector) -> Expansion:
    """Y-basis expansion of order n from an already sigma-adjusted vector."""
    return _tables(n, mv)[1]


def coeff_tables(n: int, model: LevyModel, *, exact: bool = False) -> tuple:
    """(C^(0)..C^(n), the Y-basis expansion of order n on that C table).

    The Brownian variance is folded into m2 exactly once, here.
    """
    comb.check_order(n)  # before the moments, which a huge n would take long to build
    return _tables(n, sigma_adjust(moments(model, max(n, 2), exact=exact)))


def expand(n: int, model: LevyModel, *, exact: bool = False) -> Expansion:
    """Y-basis expansion of (X_{t+t0} - X_{t0})^n for the given model."""
    return coeff_tables(n, model, exact=exact)[1]


def expectation(n: int, model: LevyModel, *, exact: bool = False) -> TimePolynomial:
    """E[(X_{t+t0} - X_{t0})^n] as a polynomial in elapsed time.

    Every stochastic-integral term has zero mean, so this is the expansion's
    constant.
    """
    mv = sigma_adjust(moments(model, max(n, 2), exact=exact))
    return c_poly_recursive(n, mv)


def jamshidian_expand(n: int) -> Expansion:
    """Non-compensated expansion of X_t^n: purely multinomial coefficients.

    Only tuples with exact sum n appear and the constant vanishes; this is
    what the Y-basis formula degenerates to when every moment is zeroed.
    """
    comb.check_order(n)
    thetas = [theta for length in range(1, n + 1) for theta in comb.exact_sum_compositions(n, length)]
    terms = _per_multiset(thetas, lambda key: TimePolynomial.constant(comb.multinomial(key)))
    zero_mv = MomentVector((0,) * max(n, 2), 0, adjusted=True)
    return Expansion(n, "NONCOMPENSATED", terms, TimePolynomial.zero(), zero_mv)


@dataclass(frozen=True)
class PrmIntegrandDescriptor:
    """One Poisson-random-measure integrand: monomial exponents + coefficient.

    ``tuple`` holds the monomial exponents and follows the module convention:
    ``tuple[0]`` is the power applied to the jump size paired with the
    innermost (earliest-time) variable.  The coefficient is the same
    elapsed-time polynomial as the Y-basis term for ``tuple`` and involves
    neither the start time nor any integration variable.
    """

    tuple: comb.IndexTuple
    coefficient: TimePolynomial


def prm_integrands(n: int, model: LevyModel, *, exact: bool = False) -> list[PrmIntegrandDescriptor]:
    """Integrand descriptors for the random-measure form of the expansion."""
    exp = expand(n, model, exact=exact)
    return [
        PrmIntegrandDescriptor(theta, poly)
        for theta, poly in exp.terms.items()
    ]


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------


def scalar_to_json(x):
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return x
    return int(x)


def scalar_from_json(x):
    if isinstance(x, str):
        return Fraction(x)
    return x


def _rendered(polys, render) -> dict:
    """{id(p): render(p)} over the distinct objects in ``polys``: permutations share one polynomial."""
    distinct = {id(p): p for p in polys}
    return {key: render(p) for key, p in distinct.items()}


def _poly_json(p: TimePolynomial) -> list:
    return [scalar_to_json(c) for c in p.coeffs]


def _expansion_json_head(exp: Expansion) -> dict:
    """Every field of :func:`expansion_to_json_dict` before its ``"terms"`` list."""
    return {
        "order": exp.order,
        "basis": exp.basis,
        "sigma_adjusted": exp.moments.adjusted,
        "moments": [scalar_to_json(x) for x in exp.moments.m],
        "sigma2": scalar_to_json(exp.moments.sigma2),
        "constant": _poly_json(exp.constant),
    }


def expansion_to_json_dict(exp: Expansion) -> dict:
    polys = _rendered(exp.terms.values(), _poly_json)
    terms = [{"tuple": list(t), "poly": polys[id(p)]} for t, p in exp.terms.items()]
    return {**_expansion_json_head(exp), "terms": terms}


def expansion_csv_rows(exp: Expansion) -> list[list[str]]:
    """One row per term plus a final constant row: tuple, coefficients."""

    def fmt(p):
        return " ".join(str(c) if isinstance(c, (Fraction, int)) else repr(c) for c in p.coeffs)

    polys = _rendered(exp.terms.values(), fmt)
    rows = [["tuple", "coeffs"]]
    rows += [[" ".join(map(str, t)), polys[id(p)]] for t, p in exp.terms.items()]
    rows.append(["", fmt(exp.constant)])
    return rows
