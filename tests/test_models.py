import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from levychaos.errors import ModelError, MomentError
from levychaos.models import (
    CompoundPoisson,
    Deterministic,
    ExponentialSigned,
    GammaJumps,
    LevyModel,
    SyntheticMoments,
    TwoPoint,
    jump_mean_rate,
    moments,
    parse_model,
    sigma_adjust,
)
from levychaos.paths import rng_for


def gamma_moment_quadrature(a, b, i):
    """Oracle: adaptive quadrature of int_0^inf x^i * a x^-1 e^(-bx) dx."""
    val, _ = integrate.quad(lambda x: a * x ** (i - 1) * math.exp(-b * x), 0, np.inf, epsabs=0, epsrel=1e-13)
    return val


def test_gamma_m2_anchor(gamma_model):
    mv = moments(gamma_model, 2)
    assert mv.moment(2) == pytest.approx(0.025, rel=1e-12)
    assert mv.moment(2) == pytest.approx(gamma_moment_quadrature(10, 20, 2), rel=1e-10)


@pytest.mark.parametrize("i", range(2, 13))
def test_gamma_moments_match_quadrature(gamma_model, i):
    mv = moments(gamma_model, 12)
    assert mv.moment(i) == pytest.approx(gamma_moment_quadrature(10, 20, i), rel=1e-10)


def test_gamma_moments_exact_mode(gamma_model):
    mv = moments(gamma_model, 6, exact=True)
    for i in range(2, 7):
        assert mv.moment(i) == Fraction(10 * math.factorial(i - 1), 20**i)
    assert mv.moment(1) == Fraction(1, 2)


def test_no_jumps_means_zero_moments():
    model = LevyModel(sigma2=1, mean_rate=0)
    mv = moments(model, 5)
    assert mv.m == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_compound_poisson_deterministic_moments_vs_monte_carlo():
    model = LevyModel.build(jump_part=CompoundPoisson(2, Deterministic(3)))
    mv = moments(model, 3)
    assert mv.moment(2) == pytest.approx(18.0)
    assert mv.moment(3) == pytest.approx(54.0)
    # MC oracle: E[sum (dX)^i] / t for a compound Poisson path
    rng = rng_for(123)
    t = 0.7
    counts = rng.poisson(2 * t, size=200_000)
    for i, expected in ((2, 18.0), (3, 54.0)):
        samples = counts * 3.0**i / t
        se = samples.std(ddof=1) / math.sqrt(len(samples))
        assert abs(samples.mean() - expected) < 3 * se


def test_two_point_moments_alternate_sign():
    law = TwoPoint(Fraction(-2), Fraction(1, 2), Fraction(1), Fraction(1, 2))
    model = LevyModel.build(jump_part=CompoundPoisson(Fraction(3), law))
    mv = moments(model, 6, exact=True)
    for i in range(2, 7):
        direct = 3 * (Fraction(1, 2) * (-2) ** i + Fraction(1, 2) * 1**i)
        assert mv.moment(i) == direct
    # odd moments negative (the -2 branch dominates), even positive
    assert mv.moment(3) < 0 < mv.moment(2)
    assert mv.moment(5) < 0 < mv.moment(4)


def test_exponential_signed_moments():
    law = ExponentialSigned(4, Fraction(3, 4))
    model = LevyModel.build(jump_part=CompoundPoisson(1, law))
    mv = moments(model, 4, exact=True)
    # E[J^i] = (p + (-1)^i (1-p)) i! / rate^i
    for i in range(2, 5):
        expected = (Fraction(3, 4) + (-1) ** i * Fraction(1, 4)) * math.factorial(i) / Fraction(4) ** i
        assert mv.moment(i) == expected


@pytest.mark.parametrize("spec", ["gamma:a=1,b=3", "cpoisson:lambda=1,jump=expsign:3:1"])
def test_integer_parameters_keep_m1_exact(spec):
    model = parse_model(spec)
    assert model.mean_rate == Fraction(1, 3) and isinstance(model.mean_rate, Fraction)
    assert moments(model, 2, exact=True).moment(1) == Fraction(1, 3)
    assert moments(model, 2).moment(1) == 1 / 3


def test_sigma_adjust_examples():
    mv = moments(LevyModel.build(jump_part=GammaJumps(10, 20)), 2)
    adj = sigma_adjust(mv)
    assert adj.moment(2) == pytest.approx(0.025)  # sigma = 0 identity

    mixed = parse_model("brownian:sigma=0.01+gamma:a=10,b=20")
    adj2 = sigma_adjust(moments(mixed, 2))
    assert adj2.moment(2) == pytest.approx(0.0251)

    brown = sigma_adjust(moments(LevyModel(1, 0), 3))
    assert brown.m == (0.0, 1.0, 0.0)


def test_sigma_adjust_double_adjustment_rejected():
    mv = sigma_adjust(moments(LevyModel(1, 0), 3))
    with pytest.raises(MomentError, match="already adjusted"):
        sigma_adjust(mv)


def test_synthetic_moments_insufficient():
    model = LevyModel.build(sigma2=1, jump_part=SyntheticMoments((4, 6)))
    mv = moments(model, 3)
    assert mv.m == (0.0, 4.0, 6.0)
    with pytest.raises(MomentError, match="insufficient moments"):
        moments(model, 4)


def test_model_validation():
    with pytest.raises(ModelError):
        GammaJumps(0, 20)
    with pytest.raises(ModelError):
        GammaJumps(10, -1)
    with pytest.raises(ModelError):
        LevyModel(-0.1, 1)
    with pytest.raises(ModelError, match="degenerate"):
        LevyModel(0, 0)
    with pytest.raises(ModelError):
        TwoPoint(-1, Fraction(1, 3), 1, Fraction(1, 3))  # probs do not sum to 1


def test_moment_order_validation(gamma_model):
    with pytest.raises(MomentError):
        moments(gamma_model, 0)
    mv = moments(gamma_model, 3)
    with pytest.raises(MomentError, match="insufficient moments"):
        mv.moment(4)


class TestModelGrammar:
    def test_gamma(self):
        model = parse_model("gamma:a=10,b=20")
        assert model.jump_part == GammaJumps(10, 20)
        assert model.sigma2 == 0
        assert model.mean_rate == Fraction(1, 2)

    def test_combined(self):
        model = parse_model("brownian:sigma=0.01+gamma:a=10,b=20")
        assert model.sigma2 == Fraction(1, 10000)
        assert model.jump_part == GammaJumps(10, 20)

    def test_cpoisson_point(self):
        model = parse_model("cpoisson:lambda=2,jump=point:-1:0.25:0.5")
        part = model.jump_part
        assert isinstance(part, CompoundPoisson)
        assert part.intensity == 2
        assert part.law == TwoPoint(-1, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
        assert model.mean_rate == 2 * (Fraction(1, 4) * -1 + Fraction(3, 4) * Fraction(1, 2))

    def test_drift_component(self):
        model = parse_model("drift:mu=0.25+gamma:a=10,b=20")
        assert model.mean_rate == Fraction(1, 4) + Fraction(1, 2)

    def test_pure_drift(self):
        model = parse_model("drift:mu=1.5+brownian:sigma=0")
        assert model.sigma2 == 0 and model.jump_part is None
        assert model.mean_rate == Fraction(3, 2)

    @pytest.mark.parametrize(
        "bad",
        [
            "gamma:a=10",
            "gamma:a=10,b=20,c=1",
            "nope:x=1",
            "gamma",
            "cpoisson:lambda=2",
            "cpoisson:lambda=2,jump=point:1:2",
            "gamma:a=10,b=20+cpoisson:lambda=1,jump=det:2",
            "brownian:sigma=-1",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ModelError):
            parse_model(bad)


def test_jump_mean_rate():
    assert jump_mean_rate(GammaJumps(10, 20)) == 0.5
    assert jump_mean_rate(None) == 0
    assert jump_mean_rate(CompoundPoisson(2, Deterministic(3))) == 6
