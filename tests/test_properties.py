"""Property-based checks of the core invariants."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from levychaos.chaos import (
    c_poly_closed,
    c_poly_recursive,
    expand,
    expand_from_moments,
    expectation,
    jamshidian_expand,
    terms_equal,
)
from levychaos.combinatorics import index_set
from levychaos.errors import DegenerateMeasureError
from levychaos.evaluate import _power_levels, reconstruct
from levychaos.models import MomentVector, moments, parse_model, sigma_adjust
from levychaos.ortho import expand_h, orthogonalize, to_h_basis
from levychaos.paths import make_jump_path, simulate_grid
from levychaos.timepoly import TimePolynomial

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=8)
small_polys = st.lists(rationals, min_size=0, max_size=5).map(TimePolynomial)


@given(small_polys, small_polys, small_polys)
def test_timepoly_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    assert p + TimePolynomial.zero() == p
    assert p * TimePolynomial.constant(Fraction(1)) == p


@given(small_polys, rationals)
def test_timepoly_evaluation_is_homomorphic(p, t):
    q = p * p + p
    assert q(t) == p(t) * p(t) + p(t)


@given(st.integers(min_value=1, max_value=9))
def test_index_set_members_are_valid(k):
    tuples = index_set(k)
    assert len(set(tuples)) == len(tuples) == 2**k - 1
    for t in tuples:
        assert t and all(p >= 1 for p in t) and sum(t) <= k


def _index_set_by_sorting(k):
    """The enumeration index_set replaced: each sum's compositions, recursively, sorted by (length, tuple)."""

    def compositions(total):
        if total == 0:
            yield ()
            return
        for first in range(1, total + 1):
            for rest in compositions(total - first):
                yield (first,) + rest

    return [t for s in range(1, k + 1) for t in sorted(compositions(s), key=lambda tup: (len(tup), tup))]


def test_index_set_matches_the_sort_based_enumeration():
    for k in range(1, 13):
        assert index_set(k) == _index_set_by_sorting(k)


@given(st.lists(rationals, min_size=7, max_size=7))
def test_constant_polynomial_routes_agree(ms):
    mv = MomentVector(tuple(ms), Fraction(0), adjusted=True)
    for k in range(8):
        assert c_poly_recursive(k, mv) == c_poly_closed(k, mv)


jump_sizes = st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(lambda x: x != 0)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(jump_sizes, min_size=0, max_size=4),
    st.lists(rationals, min_size=4, max_size=4),
    rationals,
    st.integers(min_value=1, max_value=4),
)
def test_pathwise_identity_is_exact(sizes, ms, drift, n):
    # distinct rational jump times on (0, 1]
    times = [Fraction(i + 1, len(sizes) + 1) for i in range(len(sizes))]
    path = make_jump_path(Fraction(1), drift, list(zip(times, sizes)), tuple(ms))
    exp = expand_from_moments(n, path.mv)
    recon = reconstruct(exp, path, Fraction(0), Fraction(1))
    direct = (path.value(Fraction(1))) ** n
    assert recon == direct


# --------------------------------------------------------------------------
# level engine against the per-tuple chains and the direct power
# --------------------------------------------------------------------------

positive = st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=6)


@st.composite
def model_specs(draw):
    parts = []
    kinds = st.lists(st.sampled_from(["gamma", "cpoisson", "brownian", "drift"]), min_size=1, max_size=3, unique=True)
    for kind in draw(kinds.filter(lambda ks: not {"gamma", "cpoisson"} <= set(ks))):  # one jump part per model
        if kind == "gamma":
            parts.append(f"gamma:a={draw(positive)},b={draw(positive)}")
        elif kind == "cpoisson":
            x_minus = -draw(positive)
            p_minus = draw(st.fractions(min_value=Fraction(1, 8), max_value=Fraction(7, 8), max_denominator=8))
            parts.append(f"cpoisson:lambda={draw(positive)},jump=point:{x_minus}:{p_minus}:{draw(positive)}")
        elif kind == "brownian":
            parts.append(f"brownian:sigma={draw(positive)}")
        else:
            parts.append(f"drift:mu={draw(rationals.filter(lambda mu: mu != 0))}")
    return "+".join(parts)


@st.composite
def windows(draw):
    """A window t0 < t in [0, 1] and jump times in (0, 1]; t0 > 0 sits on a jump."""
    ticks = sorted(draw(st.lists(st.integers(min_value=1, max_value=24), max_size=5, unique=True)))
    t_tick = draw(st.integers(min_value=1, max_value=24))
    t0_tick = draw(st.sampled_from([0] + [k for k in ticks if k < t_tick]))
    return Fraction(t0_tick, 24), Fraction(t_tick, 24), [Fraction(k, 24) for k in ticks]


@settings(max_examples=25, deadline=None)
@given(model_specs(), windows(), st.data(), rationals, st.integers(min_value=1, max_value=10))
def test_level_engine_matches_per_tuple_chains_and_direct_power(spec, window, data, drift, n):
    model = parse_model(spec)
    mv = sigma_adjust(moments(model, max(n, 2), exact=True))
    t0, t, times = window
    sizes = data.draw(st.lists(jump_sizes, min_size=len(times), max_size=len(times)))
    path = make_jump_path(Fraction(1), drift, list(zip(times, sizes)), mv.m)
    flat = make_jump_path(Fraction(1), drift, list(zip(times, sizes)), (0,) * max(n, 2))
    x = path.value(t) - path.value(t0)
    power = _power_levels(path, n, t0, t)
    flat_power = _power_levels(flat, n, t0, t)
    for e in range(n + 1):
        assert power(e)[0] == flat_power(e)[0] == x**e
    for e in range(1, min(n, 6) + 1):
        expY = expand_from_moments(e, mv)
        assert reconstruct(expY, path, t0, t) == power(e)[0]
        assert reconstruct(jamshidian_expand(e), flat, t0, t) == flat_power(e)[0]
        try:
            ortho = orthogonalize(model, e, exact=True)
        except DegenerateMeasureError:  # eta = sigma^2 delta_0 + x^2 nu has too few support points
            continue
        assert reconstruct(to_h_basis(expY, ortho), path, t0, t) == power(e)[0]


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**16), st.integers(min_value=0, max_value=20),
       st.integers(min_value=1, max_value=6))
def test_level_engine_matches_per_tuple_chains_on_grid(seed, t0_step, n):
    model = parse_model("brownian:sigma=1/10+gamma:a=10,b=20")
    path = simulate_grid(model, 0.5, 1e-2, seed=seed)
    t0 = t0_step * 1e-2
    value, norms = _power_levels(path, n, t0)(n)
    oracle = reconstruct(expand(n, model), path, t0).values
    assert np.max(np.abs(value - oracle)) <= 1e-12 * max(1.0, *norms.values())


# --------------------------------------------------------------------------
# path-free isometry of the Y-basis expansion
# --------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(model_specs(), st.integers(min_value=1, max_value=6))
def test_y_expansion_isometry(spec, n):
    """E[(X_t - X_0)^2n] = C^(n)(t)^2
    + sum_k t^k/k! sum_{|theta|=|theta'|=k} Pi_theta Pi_theta' prod_j m_{theta_j+theta'_j}.

    Iterated integrals with deterministic integrands over different lengths
    are orthogonal, and d<Y^(i), Y^(j)> = m_{i+j} dt with the sigma-adjusted
    moments; the left side comes from the C recursion at order 2n.
    """
    model = parse_model(spec)
    exp = expand(n, model, exact=True)
    m = sigma_adjust(moments(model, 2 * n, exact=True)).moment
    by_length = {}
    for theta, poly in exp.terms.items():
        by_length.setdefault(len(theta), []).append((theta, poly))
    second_moment = exp.constant * exp.constant
    for k, terms in by_length.items():
        acc = TimePolynomial.zero()
        for theta, p in terms:
            for theta2, q in terms:
                acc = acc + (p * q).scale(math.prod(m(i + j) for i, j in zip(theta, theta2)))
        second_moment = second_moment + acc * TimePolynomial((0,) * k + (Fraction(1, math.factorial(k)),))
    assert second_moment == expectation(2 * n, model, exact=True)


@settings(max_examples=25, deadline=None)
@given(model_specs(), st.integers(min_value=1, max_value=6))
def test_h_expansion_isometry(spec, n):
    """E[(X_t - X_0)^2n] = C^(n)(t)^2 + sum_kappa Pi^H_kappa(t)^2 prod_j q_{kappa_j} t^|kappa|/|kappa|!.

    The H^(i) are strongly orthogonal, d<H^(i), H^(j)> = [i=j] q_i dt, where
    q_i = <p_i, p_i> = sum_{u,v} a_{i,u} a_{i,v} mu_{u+v} is the norm of the
    i-th orthogonal polynomial; iterated integrals over different tuples are
    orthogonal.  This checks the a/b arrays and the basis change with no path.
    """
    model = parse_model(spec)
    try:
        ortho = orthogonalize(model, n, exact=True)
    except DegenerateMeasureError:  # eta has fewer than n support points
        return
    q = [sum(x * y * ortho.mu[u + v] for u, x in enumerate(row) for v, y in enumerate(row)) for row in ortho.a]
    exp = to_h_basis(expand(n, model, exact=True), ortho)
    second_moment = exp.constant * exp.constant
    for kappa, poly in exp.terms.items():
        weight = Fraction(math.prod(q[k - 1] for k in kappa), math.factorial(len(kappa)))
        second_moment = second_moment + poly * poly * TimePolynomial((0,) * len(kappa) + (weight,))
    assert second_moment == expectation(2 * n, model, exact=True)


@st.composite
def gamma_brownian_specs(draw):
    return f"gamma:a={draw(positive)},b={draw(positive)}+brownian:sigma={draw(positive)}"


@settings(max_examples=25, deadline=None)
@given(gamma_brownian_specs(), st.integers(min_value=1, max_value=8))
def test_expand_h_matches_the_generic_basis_change(spec, n):
    """The generating-function H expansion equals b applied term by term to the Y expansion."""
    model = parse_model(spec)
    fast = expand_h(n, model, exact=True)
    slow = to_h_basis(expand(n, model, exact=True), orthogonalize(model, n, exact=True))
    assert terms_equal(fast, slow) and list(fast.terms) == list(slow.terms)
    assert fast.basis == "H" and fast.moments == slow.moments and fast.ortho == slow.ortho
    by_multiset = {}
    for theta, poly in fast.terms.items():
        assert by_multiset.setdefault(tuple(sorted(theta)), poly) is poly
